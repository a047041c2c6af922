#!/usr/bin/env python3
"""Benchmark of the pauliframe command line, driven in-process.

Run from the repository root:

    python3 bench/run.py --workload synth-wide --seed 1 --seconds 20 --trace 0

One caller calls ``pauliframe.cli.main(argv)`` in a closed loop (the next
call starts when the previous one returns), with stdout captured and
parsed.  Every output is checked against references that do not go
through pauliframe (see reference.py).  The timed loop runs whole cycles
of jobs until the time spent inside ``main`` is within half a cycle of
``--seconds``.

Times are calibrated.  The cores of a shared host slow down and speed
up by tens of percent over seconds, and an op's wall time follows.  A
fixed interpreter loop (``probe``) runs just before every op and every
set-up, and each time is scaled by PROBE_NOMINAL_S over the median probe
time around it: it is reported in milliseconds at the host speed at
which the probe takes PROBE_NOMINAL_S.  The probe is the benchmark's own
code, so a change to pauliframe moves the op times and not the scale.
Over ten seeds per workload on a busy 2-vCPU Intel Xeon host, the
spread of the time metrics across runs (interquartile range over median)
was 8-15% in wall time and 3-8% calibrated.  The summary prints the
wall-clock figures too.

``--trace 0`` reports the end-to-end metrics (one op is one ``main`` call):

- ops_per_s: timed ops divided by their summed calibrated time;
- latency_p50_ms: median calibrated op latency;
- latency_tail_ms: a fixed percentile per workload (TAIL_PERCENTILE in
  workloads.py), with at least 10 timed ops beyond it;
- peak_rss_mb: ``ru_maxrss`` of this process;
- setup_s: median over SETUP_REPEATS of importing pauliframe and
  pauliframe.cli afresh plus one warm-up op, calibrated (input
  generation and references are excluded).

The error rate, failed ops over attempted ops, is the result's
``failed`` / ``attempted``; an op fails when it exits nonzero or its
output disagrees with the reference.

``--trace 1`` runs half the time untraced and half with span wrappers
installed on pauliframe's modules (see spans.py), and reports per-layer
medians per op, the share of op time in the layers the workload is
predicted to stress, and the tracing overhead.  Spans are written to
``bench/traces/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  Exits with code 2, printing no result, when
``src/pauliframe`` is missing.
"""

import os

# Pin BLAS and OpenMP threads in this process only, before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10

# The calibration probe: PROBE_ITERATIONS turns of an interpreter loop,
# about 5 ms on an idle Intel Xeon vCPU under CPython 3.11.  The nominal
# time only sets the scale of the reported times.  Each op is scaled by
# the median of the probes taken before it and before the PROBE_WINDOW
# ops on either side of it.
PROBE_ITERATIONS = 60_000
PROBE_NOMINAL_S = 5e-3
PROBE_WINDOW = 2

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "op.total_ms": "ms",
    "cli.load_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "pauli.self_ms": "ms",
    "pauli.conjugate_by_circuit_ms": "ms",
    "pauli.conjugate_by_circuit.calls": "count",
    "pauli.conjugate_ms": "ms",
    "pauli.conjugate.calls": "count",
    "pauli.multiply_calls": "count",
    "pauli.check_ms": "ms",
    "gf2.self_ms": "ms",
    "gf2.calls": "count",
    "diagonalize.self_ms": "ms",
    "diagonalize.gates": "count",
    "tableau.self_ms": "ms",
    "tableau.build_ms": "ms",
    "tableau.support_ms": "ms",
    "distribution.self_ms": "ms",
    "distribution.build_ms": "ms",
    "distribution.moments_ms": "ms",
    "distribution.support_points_ms": "ms",
    "distribution.support_points.calls": "count",
    "distribution.points": "count",
    "lattice.self_ms": "ms",
    "lattice.volume_ms": "ms",
    "lattice.hnf_rows": "count",
    "lattice.hnf_yield": "ratio",
    "lattice.exact_ms": "ms",
    "lattice.grid_points": "count",
    "lattice.grid_x_support": "count",
    "oracle.mc_ms": "ms",
    "oracle.mc_samples": "count",
    "oracle.dense_ms": "ms",
    "oracle.dense_dim": "count",
    "share.predicted": "%",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "%",
}

# The layers each workload is predicted to spend at least half its op
# time in; share.predicted reports their share of the traced op time.
PREDICTED = {
    "synth-wide": ("pauli.self_ms", "diagonalize.self_ms"),
    "volume-rho": ("distribution.support_points_ms", "lattice.volume_ms"),
    "frame-exact": ("lattice.exact_ms",),
    "oracle-verify": ("oracle.mc_ms", "oracle.dense_ms"),
}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import pauliframe.cli afresh from this checkout's src/."""
    if not (SRC / "pauliframe" / "cli.py").is_file():
        raise ProgramMissing(f"no pauliframe sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pauliframe" or m.startswith("pauliframe.")]:
        del sys.modules[name]
    importlib.import_module("pauliframe")
    cli = importlib.import_module("pauliframe.cli")
    if Path(cli.__file__).resolve().parent != SRC / "pauliframe":
        raise ProgramMissing(f"pauliframe was imported from {cli.__file__}")
    return cli


def call(main, argv):
    """One op: (seconds inside main, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed op, not a crashed run
            rc = "exception"
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def check(job, rc, out: str, err: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-300:]}"]
    try:
        return job.check(json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def probe() -> float:
    """Seconds for a fixed interpreter loop; tracks the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def calibrate(walls: list[float], probes: list[float]) -> list[float]:
    """Wall times scaled to the host speed at which the probe takes
    PROBE_NOMINAL_S; ``probes[i]`` was taken just before ``walls[i]``."""
    w = PROBE_WINDOW
    return [
        wall * PROBE_NOMINAL_S / statistics.median(probes[max(0, i - w):i + w + 1])
        for i, wall in enumerate(walls)
    ]


@dataclass
class Timing:
    """Wall time of each timed op and of the probe just before it."""

    walls: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.walls)

    def calibrated(self) -> list[float]:
        return calibrate(self.walls, self.probes)

    def ops_per_s(self) -> float:
        return len(self.walls) / sum(self.calibrated())


class Run:
    """Outcome counters and failure log of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job, rc, out, err) -> None:
        self.attempted += 1
        bad = check(job, rc, out, err)
        if bad:
            self.failures.append(f"{job.label}: {'; '.join(bad[:3])}")


def setup(cycles, run: Run):
    """Import and one warm-up op, SETUP_REPEATS times; the median of the
    calibrated seconds."""
    job = cycles[0][0]
    timing = Timing()
    for _ in range(SETUP_REPEATS):
        timing.probes.append(probe())
        t0 = time.perf_counter()
        cli = import_program()
        _, rc, out, err = call(cli.main, job.argv)
        timing.walls.append(time.perf_counter() - t0)
        run.record(job, rc, out, err)
    return cli, statistics.median(timing.calibrated())


def timed_loop(cli, cycles, seconds: float, run: Run, tracer: Tracer | None = None, min_ops=0):
    """Run whole cycles until at least ``min_ops`` ops ran and the wall
    time inside main is within half a mean cycle of ``seconds``."""
    timing = Timing()
    c = 0
    while True:
        for job in cycles[c % len(cycles)]:
            timing.probes.append(probe())
            if tracer is None:
                dt, rc, out, err = call(cli.main, job.argv)
            else:
                op_id = len(timing.walls)
                dt, rc, out, err = call(
                    lambda argv, op_id=op_id: tracer.run_op(op_id, lambda: cli.main(argv)),
                    job.argv,
                )
                tracer.output_bytes[op_id] = len(out.encode())
            timing.walls.append(dt)
            run.record(job, rc, out, err)
        c += 1
        if timing.busy * (1 + 0.5 / c) >= seconds and len(timing.walls) >= min_ops:
            return timing


def min_ops(percentile: float) -> int:
    """Ops needed for TAIL_BEYOND of them to lie beyond ``percentile``."""
    return math.ceil(TAIL_BEYOND * 100 / (100 - percentile))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(timing: Timing, setup_s, run: Run, p: float) -> dict:
    latencies = timing.calibrated()
    metrics = {
        "ops_per_s": timing.ops_per_s(),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": float(np.percentile(latencies, p)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {END_TO_END[name]}")
    print(f"latency_tail_ms is p{p} of {len(latencies)} timed ops")
    walls = timing.walls
    print(f"wall-clock: ops_per_s {len(walls) / timing.busy:.6g} 1/s, "
          f"latency_p50_ms {statistics.median(walls) * 1e3:.6g} ms, "
          f"latency_tail_ms {float(np.percentile(walls, p)) * 1e3:.6g} ms; "
          f"probe median {statistics.median(timing.probes) * 1e3:.4g} ms "
          f"(nominal {PROBE_NOMINAL_S * 1e3:.4g} ms)")
    print(f"error_rate: {len(run.failures) / run.attempted:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} ops failed)")
    return metrics


def per_layer(tracer: Tracer, untraced: Timing, traced: Timing, predicted) -> dict:
    per_op = list(tracer.per_op().values())
    metrics = {
        name: statistics.median(op.get(name, 0.0) for op in per_op)
        for name in PER_LAYER
        if not name.startswith(("share.", "trace."))
    }
    total = sum(op["op.total_ms"] for op in per_op)
    metrics["share.predicted"] = 100 * sum(op[k] for op in per_op for k in predicted) / total
    rate_u = untraced.ops_per_s()
    rate_t = traced.ops_per_s()
    metrics["trace.ops_per_s_untraced"] = rate_u
    metrics["trace.ops_per_s_traced"] = rate_t
    metrics["trace.overhead"] = 100 * (rate_u / rate_t - 1)
    for name in PER_LAYER:
        print(f"{name}: {metrics[name]:.6g} {PER_LAYER[name]}")
    print(f"traced ops: {len(per_op)}; per-layer figures are per-op medians; "
          f"share.predicted is {' + '.join(predicted)} over total traced op time; "
          "layer times are wall-clock, trace.ops_per_s_* calibrated")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pauliframe" / "cli.py").is_file():
        print(f"error: no pauliframe sources under {SRC}", file=sys.stderr)
        return 2
    print("fingerprint: " + json.dumps(fingerprint(args)))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cycles = workloads.build(args.workload, args.seed, workdir)
        run = Run()
        try:
            cli, setup_s = setup(cycles, run)
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            untraced = timed_loop(cli, cycles, args.seconds / 2, run)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(cli, cycles, args.seconds / 2, run, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, untraced, traced, PREDICTED[args.workload])
            out = HERE / "traces" / f"{args.workload}-seed{args.seed}.npz"
            out.parent.mkdir(exist_ok=True)
            tracer.save(out)
            print(f"spans written to {out.relative_to(ROOT)}")
            units = PER_LAYER
        else:
            p = workloads.TAIL_PERCENTILE[args.workload]
            timing = timed_loop(cli, cycles, args.seconds, run, min_ops=min_ops(p))
            metrics = end_to_end(timing, setup_s, run, p)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
