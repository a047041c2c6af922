"""Exact spectral distribution and frame potential of commuting Pauli circuits."""

from .diagonalize import (
    DiagonalizedSet,
    NonCommutingSetError,
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
    DegenerateLatticeError,
    QuadratureCapError,
    clt_coefficient,
    clt_frame_potential,
    exact_frame_potential,
    lattice_volume,
)
from .pauli import (
    CliffordCircuit,
    CliffordGate,
    PauliParseError,
    PauliString,
    check_commuting_set,
    commutes,
    conjugate,
    conjugate_by_circuit,
    format_pauli,
    multiply,
    parse_pauli,
)
from .tableau import StabilizerTableau, SupportDescriptor, tableau_from_circuit

__all__ = [
    "CliffordCircuit",
    "CliffordGate",
    "DegenerateLatticeError",
    "DiagonalizedSet",
    "KDistribution",
    "MomentReport",
    "NonCommutingSetError",
    "PauliParseError",
    "PauliString",
    "QuadratureCapError",
    "StabilizerTableau",
    "SupportDescriptor",
    "SupportTooLargeError",
    "build_distribution",
    "check_commuting_set",
    "clt_coefficient",
    "clt_frame_potential",
    "commutes",
    "conjugate",
    "conjugate_by_circuit",
    "exact_frame_potential",
    "format_pauli",
    "lattice_volume",
    "moments",
    "multiply",
    "parse_pauli",
    "simultaneous_diagonalize",
    "support_points",
    "tableau_from_circuit",
    "verify_diagonalization",
]

__version__ = "0.1.0"
