"""The four benchmark workloads.

A workload is a list of cycles; a cycle is a list of jobs, and one job is
one ``pauliframe`` CLI call on one generated input together with the
check of its output.  The timed loop runs whole cycles, so every run
weights the job sizes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from inputs import PauliSet, pauli_set, write_set

WHY = {
    "synth-wide": (
        "wide dense sets (n = N in 48..96, rho 7..8): Clifford synthesis of W "
        "and reading A off by conjugation dominate; no quadrature"
    ),
    "volume-rho": (
        "small non-degenerate sets with rho 10..13: enumerating 2^rho support "
        "points and the HNF for V_U dominate; synthesis is small"
    ),
    "frame-exact": (
        "exact frame potential at N = 5..6, t 4..12: the O(grid x support) "
        "quadrature dominates and sets peak memory"
    ),
    "oracle-verify": (
        "dense oracle at n = 5..8: alternating verify and Monte-Carlo F(2); "
        "the only workload that runs the oracle, and tiny sets expose per-call overhead"
    ),
}

# Percentile reported as latency_tail_ms: the highest of 50, 75, 90, 95,
# 99 with at least 10 timed ops beyond it at this benchmark's run length.
# It is fixed per workload so that runs of different lengths report the
# same percentile; the timed loop runs until 10 ops lie beyond it.
# oracle-verify runs two cycles of 24 ops, and its p75 falls between the
# Monte-Carlo ops at n = 6 and n = 7, which differ threefold; p79, the
# highest whole percentile with 10 of 48 ops beyond it, falls among the
# n = 7 ones.
TAIL_PERCENTILE = {
    "synth-wide": 75,
    "volume-rho": 90,
    "frame-exact": 75,
    "oracle-verify": 79,
}

REPORT_T = [1, 10]
MC_SAMPLES = 20000
MC_T = 2


@dataclass(frozen=True)
class Job:
    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]


def _job(workdir: Path, label: str, pset: PauliSet, why: str, command: list[str], check) -> Job:
    path = workdir / f"{label}.txt"
    write_set(path, pset, why)
    return Job(label=f"{command[0]} {label}", argv=[command[0], str(path), *command[1:]], check=check)


def _report_jobs(workdir, name, rng, configs, prefix="") -> list[Job]:
    argv = ["report"] + [a for t in REPORT_T for a in ("--t", str(t))]
    jobs = []
    for k, (N, rho) in enumerate(configs):
        pset = pauli_set(rng, N, N, rho)
        law = reference.law(pset)
        jobs.append(_job(
            workdir, f"{prefix}{k:02d}-N{N}-rho{rho}", pset, WHY[name], argv,
            lambda doc, law=law: reference.check_report(doc, law, REPORT_T),
        ))
    return jobs


def synth_wide(workdir, rng, tiny=False) -> list[list[Job]]:
    # Inputs rotate from cycle to cycle, so a run averages over several
    # sets per size while each cycle keeps one job per (N, rho).  A run at
    # the default length does about 7 cycles, each on new sets.
    sizes = [(8, 4), (10, 4)] if tiny else [(N, rho) for N in (48, 64, 96) for rho in (7, 8)]
    rotations = 1 if tiny else 7
    return [
        _report_jobs(workdir, "synth-wide", rng, sizes, prefix=f"r{i}-")
        for i in range(rotations)
    ]


def volume_rho(workdir, rng, tiny=False) -> list[list[Job]]:
    # 27 sizes, an odd number, so that the median op falls inside one size
    # rather than between two; two rotations of inputs.
    sizes = [(8, 5), (9, 6)] if tiny else [
        (N, rho) for N in range(12, 19) for rho in range(10, 14) if rho <= N
    ]
    rotations = 1 if tiny else 2
    return [
        _report_jobs(workdir, "volume-rho", rng, sizes, prefix=f"r{i}-")
        for i in range(rotations)
    ]


def frame_exact(workdir, rng, tiny=False) -> list[list[Job]]:
    # N = 6, t = 12 is left out: one such call takes about 12 s.  So is
    # N = rho = 6, t = 8 (about 1.5 s), which leaves 13 sizes: with an even
    # number the median op falls between (N, rho, t) = (6, 6, 4) and
    # (5, 5, 8), whose grid x support differ twofold, and jumps between them.
    sizes = [(4, 3, 3), (4, 4, 4)] if tiny else [
        (N, rho, t)
        for N in (5, 6)
        for rho in (N - 1, N)
        for t in (4, 6, 8, 12)
        if (N, t) != (6, 12) and (N, rho, t) != (6, 6, 8)
    ]
    jobs = []
    for k, (N, rho, t) in enumerate(sizes):
        pset = pauli_set(rng, N, N, rho)
        law = reference.law(pset)
        exact = reference.exact_frame_potential(pset.block.x, t)
        jobs.append(_job(
            workdir, f"{k:02d}-N{N}-rho{rho}", pset, WHY["frame-exact"],
            ["frame-potential", "--t", str(t), "--exact"],
            lambda doc, law=law, t=t, exact=exact: reference.check_exact(doc, law, t, exact),
        ))
    return [jobs]


def oracle_verify(workdir, rng, tiny=False) -> list[list[Job]]:
    sizes = [(4, 3), (5, 5)] if tiny else [
        (N, rho) for N in (5, 6, 7, 8) for rho in (N - 2, N - 1, N)
    ]
    samples = 2000 if tiny else MC_SAMPLES
    jobs = []
    for k, (N, rho) in enumerate(sizes):
        pset = pauli_set(rng, N, N, rho)
        law = reference.law(pset)
        exact = reference.exact_frame_potential(pset.block.x, MC_T)
        label = f"{k:02d}-N{N}-rho{rho}"
        mc_seed = int(rng.integers(2**31))
        jobs.append(_job(
            workdir, label, pset, WHY["oracle-verify"], ["verify"],
            lambda doc, law=law: reference.check_verify(doc, law),
        ))
        jobs.append(_job(
            workdir, label, pset, WHY["oracle-verify"],
            ["frame-potential", "--t", str(MC_T), "--mc-samples", str(samples),
             "--seed", str(mc_seed)],
            lambda doc, law=law, exact=exact: reference.check_mc(doc, law, MC_T, exact),
        ))
    return [jobs]


WORKLOADS = {
    "synth-wide": synth_wide,
    "volume-rho": volume_rho,
    "frame-exact": frame_exact,
    "oracle-verify": oracle_verify,
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[list[Job]]:
    """Cycles of jobs for one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](workdir, rng, tiny)
