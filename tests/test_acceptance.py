"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them as they execute)."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from pauliframe import (
    build_distribution,
    clt_coefficient,
    clt_frame_potential,
    exact_frame_potential,
    lattice_volume,
    moments,
    parse_pauli,
    simultaneous_diagonalize,
    support_points,
)
from pauliframe.oracle import (
    brute_pmf_K,
    dense_diagonal,
    fidelity,
    mc_frame_potential,
    unitary_from_circuit,
)

from conftest import EXAMPLE_SET_1, EXAMPLE_SET_2, random_commuting_set, support_labels


def analyze(ops):
    diag = simultaneous_diagonalize(ops)
    return diag, diag.support, build_distribution(ops)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_example_golden():
    start = time.monotonic()
    ops = [parse_pauli(s) for s in EXAMPLE_SET_1]
    diag, sup, dist = analyze(ops)
    mom = moments(dist)
    vol = lattice_volume(support_points(dist))
    checks = {
        "r": len(sup) == 4,
        "support": dist.support_size == 16,
        "pmf": dist.pmf_value == Fraction(1, 16),
        "cov": np.array_equal(mom.covariance, np.eye(5, dtype=np.int64)),
        "V": vol == 64,
    }
    for t in (1, 2, 7):
        got = clt_frame_potential(vol, 5, t)
        checks[f"clt(t={t})"] = math.isclose(
            got, 2 * (math.pi * t) ** -2.5, rel_tol=1e-12
        )
    elapsed = time.monotonic() - start
    checks["runtime"] = elapsed < 1.0
    report(
        1,
        all(checks.values()),
        f"r=4, 16 points at 1/16, cov=I, V=64, clt=2(pi t)^-5/2 "
        f"({elapsed:.2f}s) {[k for k, v in checks.items() if not v]}",
    )


def test_criterion_2_second_example():
    start = time.monotonic()
    ops1 = [parse_pauli(s) for s in EXAMPLE_SET_1]
    ops2 = [parse_pauli(s) for s in EXAMPLE_SET_2]
    _, sup1, dist1 = analyze(ops1)
    _, sup2, dist2 = analyze(ops2)
    mom1, mom2 = moments(dist1), moments(dist2)
    vol1 = lattice_volume(support_points(dist1))
    vol2 = lattice_volume(support_points(dist2))
    c1 = clt_coefficient(vol1, 5)
    c2 = clt_coefficient(vol2, 5)
    elapsed = time.monotonic() - start
    ok = mom1.det_cov == mom2.det_cov == 1
    ok &= len(sup2) == 5 and vol2 == 32 and c2 == c1 / 2 and elapsed < 1.0
    report(2, ok, f"r=5, V=32, coefficient ratio {c2 / c1} ({elapsed:.2f}s)")


def test_criterion_3_single_x_closed_form():
    dist = build_distribution([parse_pauli("X")])
    mom = moments(dist)
    vol = lattice_volume(support_points(dist))
    ok = mom.det_cov == 1
    worst = 0.0
    for t in range(1, 9):
        exact = exact_frame_potential(dist, t)
        expected = math.comb(2 * t, t) / 4**t
        worst = max(worst, abs(exact - expected))
        ok &= abs(exact - expected) <= 1e-12
        clt = clt_frame_potential(vol, 1, t)
        ok &= math.isclose(clt, (math.pi * t) ** -0.5, rel_tol=1e-12)
        if t >= 4:
            ratio = exact / clt
            ok &= 1 - 2 / t <= ratio <= 1 + 2 / t
    report(3, ok, f"binomial law to {worst:.1e}, clt=(pi t)^-1/2, ratio bands hold")


def test_criterion_4_oracle_equivalence_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(200):
        n = int(rng.integers(1, 6))
        N = int(rng.integers(1, 7))
        ops = random_commuting_set(n, N, rng)
        diag, sup, dist = analyze(ops)
        wm = unitary_from_circuit(diag.circuit)
        state = wm[:, 0]
        # dense conjugation confirms diagonality (dense_diagonal raises
        # if off-diagonal entries appear)
        try:
            diagonals = np.stack([dense_diagonal(op, diag.circuit, wm) for op in ops])
        except ValueError as exc:
            failures.append(f"trial {trial}: {exc}")
            continue
        # the support of W|0...0> equals the dense amplitude support
        probs = np.abs(state) ** 2
        dense_support = {x for x in range(2**n) if probs[x] > 1e-12}
        coset = set(support_labels(sup, n).tolist())
        if coset != dense_support:
            failures.append(f"trial {trial}: support mismatch")
            continue
        # exact pmf equality
        brute = brute_pmf_K(diagonals, state)
        built = {
            tuple(int(v) for v in p): dist.pmf_value
            for p in support_points(dist)
        }
        if brute != built:
            failures.append(f"trial {trial}: pmf mismatch")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(4, ok, f"200 random sets, {len(failures)} failures ({elapsed:.1f}s)")


def test_criterion_5_clt_convergence():
    start = time.monotonic()
    ops = [parse_pauli(s) for s in EXAMPLE_SET_1]
    dist = build_distribution(ops)
    mom = moments(dist)
    vol = lattice_volume(support_points(dist))
    ratios = {}
    for t in (5, 10, 20):
        ratios[t] = exact_frame_potential(dist, t) / clt_frame_potential(vol, 5, t)
    errs = [abs(ratios[t] - 1) for t in (5, 10, 20)]
    monotone = errs[0] > errs[1] > errs[2]
    elapsed = time.monotonic() - start
    ok = mom.det_cov == 1 and monotone and errs[1] < 0.25 and errs[2] < 0.15 and elapsed < 600
    report(
        5,
        ok,
        "ratios "
        + ", ".join(f"t={t}: {ratios[t]:.4f}" for t in (5, 10, 20))
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_6_monte_carlo_consistency():
    pairs = [
        [parse_pauli("XX"), parse_pauli("ZZ")],
        [parse_pauli("XZ"), parse_pauli("ZX")],
        [parse_pauli("YY"), parse_pauli("XX")],
    ]
    worst_z = 0.0
    ok = True
    for i, ops in enumerate(pairs):
        dist = build_distribution(ops)
        for t in (1, 2, 3):
            exact = exact_frame_potential(dist, t)
            est, err = mc_frame_potential(ops, t, 10**6, seed=500 + i)
            z = abs(est - exact) / err if err > 0 else 0.0
            worst_z = max(worst_z, z)
            ok &= abs(est - exact) <= 3 * err + 1e-12
    report(6, ok, f"10^6 samples, worst |z| = {worst_z:.2f} (limit 3)")


def test_criterion_7_degenerate_single_z():
    ops = [parse_pauli("Z")]
    dist = build_distribution(ops)
    mom = moments(dist)
    vol = lattice_volume(support_points(dist))
    ok = vol is None and mom.degenerate and dist.support_size == 1
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(-math.pi, math.pi, 2)
        worst = max(worst, abs(fidelity(ops, [a], [b]) - 1))
    ok &= worst < 1e-12
    report(7, ok, f"degenerate report, max |F - 1| = {worst:.1e} over 100 pairs")
