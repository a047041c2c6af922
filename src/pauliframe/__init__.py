"""Exact spectral distribution and frame potential of commuting Pauli circuits."""

from .diagonalize import (
    DiagonalizedSet,
    simultaneous_diagonalize,
    verify_diagonalization,
)
from .distribution import (
    KDistribution,
    MomentReport,
    SupportTooLargeError,
    build_distribution,
    moments,
    support_points,
)
from .lattice import (
    QuadratureCapError,
    clt_coefficient,
    clt_frame_potential,
    exact_frame_potential,
    lattice_volume,
)
from .pauli import (
    CliffordCircuit,
    CliffordGate,
    NonCommutingSetError,
    PauliParseError,
    PauliRows,
    PauliString,
    check_commuting_set,
    multiply,
    parse_pauli,
)

__all__ = [
    "CliffordCircuit",
    "CliffordGate",
    "DiagonalizedSet",
    "KDistribution",
    "MomentReport",
    "NonCommutingSetError",
    "PauliParseError",
    "PauliRows",
    "PauliString",
    "QuadratureCapError",
    "SupportTooLargeError",
    "build_distribution",
    "check_commuting_set",
    "clt_coefficient",
    "clt_frame_potential",
    "exact_frame_potential",
    "lattice_volume",
    "moments",
    "multiply",
    "parse_pauli",
    "simultaneous_diagonalize",
    "support_points",
    "verify_diagonalization",
]

__version__ = "0.1.0"
