"""Tests of the benchmark itself: generator, references, checks, runner.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

EXAMPLE_SET_1 = ["-XXYYY", "IYIIX", "-IZXXZ", "XYIZI", "-XZXYY"]
EXAMPLE_SET_2 = ["YZZIX", "YYXII", "-ZIYIX", "ZXXXY", "ZIYZI"]


def x_block_of(strings):
    return np.array([[c in "XY" for c in s.lstrip("-")] for s in strings], dtype=np.uint8)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("N,n,rho", [(96, 96, 8), (96, 96, 7), (18, 18, 13), (12, 12, 12), (6, 6, 5)])
def test_generator_invariants(N, n, rho):
    pset = inputs.pauli_set(np.random.default_rng(N * rho), N, n, rho)
    xb = pset.block.x
    assert inputs.gf2_rank(xb) == rho
    assert xb.any(axis=1).all()
    assert len({row.tobytes() for row in xb}) == N
    x, z, _ = pset.dressed
    sympl = (x.astype(np.int64) @ z.T.astype(np.int64) + z.astype(np.int64) @ x.T) % 2
    assert not sympl.any(), "dressed strings must pairwise commute"
    assert inputs.gf2_rank(x) == rho, "CNOT dressing keeps the rank of the X-block"
    assert z.any(), "dressing should make the strings dense"


def test_generator_is_seeded():
    a = inputs.pauli_set(np.random.default_rng(3), 10, 10, 5).strings
    b = inputs.pauli_set(np.random.default_rng(3), 10, 10, 5).strings
    assert a == b


def _dense_pauli(x, z, sign_bit):
    single = {
        (0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),
        (0, 1): np.diag([1, -1]), (1, 1): np.array([[0, -1j], [1j, 0]]),
    }
    m = np.array([[1.0 + 0j]])
    for a, b in zip(x, z):
        m = np.kron(m, single[(int(a), int(b))])
    return (-1) ** int(sign_bit) * m


def _dense_gate(gate, n):
    name, *q = gate
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    perm = np.arange(dim)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        if name == "S" and bits[q[0]]:
            diag[idx] = 1j
        elif name == "CZ" and bits[q[0]] and bits[q[1]]:
            diag[idx] = -1
        elif name == "CNOT" and bits[q[0]]:
            perm[idx] = idx ^ (1 << (n - 1 - q[1]))
    u = np.zeros((dim, dim), dtype=complex)
    u[perm, np.arange(dim)] = diag
    return u


def test_dressing_matches_dense_conjugation():
    rng = np.random.default_rng(11)
    n = 4
    block = inputs.x_block(rng, 5, n, 3)
    gates = inputs.dressing_circuit(rng, n, 12)
    x, z, r = inputs.dress(block, gates)
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        u = _dense_gate(g, n) @ u
    zero = np.zeros(2**n)
    zero[0] = 1
    assert np.allclose(u @ zero, zero), "the dressing circuit fixes |0...0>"
    for j in range(5):
        before = _dense_pauli(block.x[j], np.zeros(n), block.signs[j])
        after = _dense_pauli(x[j], z[j], r[j])
        assert np.allclose(u @ before @ u.conj().T, after)


# -- references --------------------------------------------------------------


def _brute_log2_covolume(words):
    """Row HNF over Python ints of all codewords; log2 of the covolume."""
    rows = [[int(v) for v in w] for w in words if any(w)]
    covolume = 1
    for col in range(len(words[0])):
        while True:
            nz = [r for r in rows if r[col]]
            if not nz:
                return None
            pivot = min(nz, key=lambda r: abs(r[col]))
            others = [r for r in nz if r is not pivot]
            if not others:
                break
            rows = [r for r in rows if not r[col]] + [pivot] + [
                [a - (r[col] // pivot[col]) * b for a, b in zip(r, pivot)] for r in others
            ]
        covolume *= abs(pivot[col])
        rows = [r for r in rows if r is not pivot]
    return int(math.log2(covolume))


@pytest.mark.parametrize("seed", range(12))
def test_covolume_matches_integer_hnf(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 7))
    rho = int(rng.integers(math.ceil(math.log2(N + 1)), N + 1))  # N <= 2^rho - 1
    block = inputs.x_block(rng, N, N, rho)
    words = reference.codewords(block.x)
    assert reference.log2_covolume(words) == _brute_log2_covolume(words)


def test_worked_examples():
    x1 = x_block_of(EXAMPLE_SET_1)
    assert reference.volume(x1) == 64
    _, cov, det = reference.moments(x1, np.zeros(5, dtype=np.uint8))
    assert cov == np.eye(5, dtype=int).tolist() and det == 1
    assert reference.volume(x_block_of(EXAMPLE_SET_2)) == 32


@pytest.mark.parametrize("t", range(1, 13))
def test_single_rotation_frame_potential(t):
    got = reference.exact_frame_potential(np.array([[1]], dtype=np.uint8), t)
    assert got == Fraction(math.comb(2 * t, t), 4**t)


def test_frame_potential_matches_enumeration():
    block = inputs.x_block(np.random.default_rng(5), 3, 3, 2)
    words = reference.codewords(block.x)
    t = 2
    hits = sum(
        1
        for seq in product(range(len(words)), repeat=2 * t)
        if not (sum(words[i] for i in seq[:t]) - sum(words[i] for i in seq[t:])).any()
    )
    assert reference.exact_frame_potential(block.x, t) == Fraction(hits, len(words) ** (2 * t))


def test_frame_potential_guards_overflow():
    x = np.eye(6, dtype=np.uint8)  # M = 64, 64^12 >= 2^63
    with pytest.raises(OverflowError):
        reference.exact_frame_potential(x, 12)


# -- checks and runner -------------------------------------------------------


def _cycles(name, tmp_path):
    return workloads.build(name, seed=1, workdir=tmp_path, tiny=True)


def test_checks_catch_a_wrong_output(tmp_path):
    cli = run.import_program()
    job = _cycles("synth-wide", tmp_path)[0][0]
    _, rc, out, err = run.call(cli.main, job.argv)
    assert run.check(job, rc, out, err) == []
    doc = json.loads(out)
    doc["V_U"] += 1
    doc["s"] = "1" + doc["s"][1:] if doc["s"][0] == "0" else "0" + doc["s"][1:]
    bad = job.check(doc)
    assert any("V_U" in b for b in bad) and any("W does not" in b for b in bad)
    assert run.check(job, 3, "", "non-commuting input") != []
    del doc["det_cov"]
    assert run.check(job, 0, json.dumps(doc), "") != []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_errors(name, tmp_path):
    cycles = _cycles(name, tmp_path)
    outcome = run.Run()
    cli, setup_s = run.setup(cycles, outcome)
    timing = run.timed_loop(cli, cycles, 0.0, outcome)
    assert setup_s > 0 and timing.busy > 0 and len(timing.walls) == len(cycles[0])
    assert len(timing.probes) == len(timing.walls) and min(timing.probes) > 0
    assert outcome.failures == []
    assert outcome.attempted == run.SETUP_REPEATS + len(timing.walls)


def test_calibration_scales_by_the_nearby_probes():
    nominal = run.PROBE_NOMINAL_S
    walls = [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    probes = [nominal] * 4 + [2 * nominal] * 3
    scaled = run.calibrate(walls, probes)
    assert scaled[:3] == [1.0, 1.0, 2.0]
    assert scaled[-1] == 0.5  # every probe in its window ran at half speed


def test_traced_run_reports_every_layer_metric(tmp_path):
    cycles = _cycles("volume-rho", tmp_path)
    outcome = run.Run()
    cli, _ = run.setup(cycles, outcome)
    untraced = run.timed_loop(cli, cycles, 0.0, outcome)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.timed_loop(cli, cycles, 0.0, outcome, tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.support_points, "__wrapped__"), "wrappers are removed"
    metrics = run.per_layer(tracer, untraced, traced, run.PREDICTED["volume-rho"])
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["distribution.support_points.calls"] == 1
    assert metrics["diagonalize.gates"] > 0 and metrics["gf2.calls"] > 0
    assert outcome.failures == []


def test_missing_function_reports_zero(tmp_path, monkeypatch):
    run.import_program()
    import pauliframe.pauli

    monkeypatch.delattr(pauliframe.pauli, "multiply")
    monkeypatch.delattr(sys.modules["pauliframe.diagonalize"], "multiply")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "pauli.multiply" not in tracer.names


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "frame-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
