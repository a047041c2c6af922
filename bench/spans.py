"""Outside-in tracing of pauliframe's layers.

Wrappers are installed at the module attributes through which callers
reach each public function (``pauliframe.cli.support_points`` as well as
``pauliframe.distribution.support_points``), so nothing in ``src/`` is
edited.  Each call records a span (name, start, end, parent, op id) in
compact arrays; self time is a span's duration minus its children's.
Counts are recorded at the same boundaries.  A function that is missing
(deleted by a later change) is skipped and reports zero calls.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "pauli", "gf2", "diagonalize", "tableau", "distribution", "lattice", "oracle")


def _gates(args, kwargs, result):
    return {"diagonalize.gates": len(result.circuit.gates)}


def _points(args, kwargs, result):
    return {"distribution.points": len(result)}


def _hnf(args, kwargs, result):
    support = args[0]
    return {"lattice.hnf_rows": len(support) - 1, "lattice.hnf_pivots": len(support[0])}


def _grid(args, kwargs, result):
    d, t = args[0], args[1]
    grid = (int(t) + 1) ** d.N
    return {"lattice.grid_points": grid, "lattice.grid_x_support": grid * 2**d.rho}


def _mc(args, kwargs, result):
    return {"oracle.mc_samples": args[2]}


def _dense(args, kwargs, result):
    return {"oracle.dense_dim": 2 ** args[0].n}


# (span name, home module, attribute path in the home module, other
# modules that bind the same function by name, counter).  Methods are
# given as "Class.method".
TARGETS = (
    ("cli.load_pauli_file", "cli", "load_pauli_file", (), None),
    ("pauli.parse_pauli", "pauli", "parse_pauli", ("cli",), None),
    ("pauli.check_commuting_set", "pauli", "check_commuting_set", ("cli", "diagonalize"), None),
    ("pauli.conjugate", "pauli", "conjugate", ("diagonalize",), None),
    ("pauli.conjugate_by_circuit", "pauli", "conjugate_by_circuit", ("diagonalize",), None),
    ("pauli.multiply", "pauli", "multiply", ("diagonalize",), None),
    ("gf2.rref", "gf2", "rref", (), None),
    ("gf2.rank", "gf2", "rank", (), None),
    ("gf2.row_space_basis", "gf2", "row_space_basis", (), None),
    ("gf2.mat_mul", "gf2", "mat_mul", (), None),
    ("gf2.mat_vec", "gf2", "mat_vec", (), None),
    ("gf2.solve", "gf2", "solve", (), None),
    ("gf2.in_row_span", "gf2", "in_row_span", (), None),
    ("diagonalize.simultaneous_diagonalize", "diagonalize", "simultaneous_diagonalize", ("cli",), _gates),
    ("diagonalize.verify_diagonalization", "diagonalize", "verify_diagonalization", ("cli",), None),
    ("tableau.tableau_from_circuit", "tableau", "tableau_from_circuit", ("cli",), None),
    ("tableau.extract_support", "tableau", "StabilizerTableau.extract_support", (), None),
    ("distribution.build_distribution", "distribution", "build_distribution", ("cli",), None),
    ("distribution.moments", "distribution", "moments", ("cli",), None),
    ("distribution.support_points", "distribution", "support_points", ("cli", "lattice"), _points),
    ("lattice.lattice_volume", "lattice", "lattice_volume", (), _hnf),
    ("lattice.exact_frame_potential", "lattice", "exact_frame_potential", (), _grid),
    ("lattice.clt_frame_potential", "lattice", "clt_frame_potential", (), None),
    ("lattice.clt_coefficient", "lattice", "clt_coefficient", (), None),
    ("oracle.mc_frame_potential", "oracle", "mc_frame_potential", (), _mc),
    ("oracle.pauli_permutation", "oracle", "pauli_permutation", (), None),
    ("oracle.unitary_from_circuit", "oracle", "unitary_from_circuit", (), None),
    ("oracle.dense_state_from_circuit", "oracle", "dense_state_from_circuit", (), _dense),
    ("oracle.dense_diagonal", "oracle", "dense_diagonal", (), None),
    ("oracle.brute_pmf_K", "oracle", "brute_pmf_K", (), None),
)


class Tracer:
    """In-memory span recorder with wrappers installed on pauliframe."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.output_bytes: dict[int, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        start, end, names, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack,
        )
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                bucket = counts[self.op_id]
                for key, value in counter(args, kwargs, result).items():
                    bucket[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; missing ones are skipped."""
        for span, home, path, others, counter in TARGETS:
            owner = importlib.import_module(f"pauliframe.{home}")
            *cls, attr = path.split(".")
            for part in cls:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(span, fn, counter)
            sites = [owner] + [importlib.import_module(f"pauliframe.{m}") for m in others]
            for site in sites:
                if getattr(site, attr, None) is fn:
                    self._installed.append((site, attr, fn))
                    setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._installed):
            setattr(site, attr, fn)
        self._installed.clear()

    def run_op(self, op_id: int, call):
        """Run one op as the root span ``cli.main``."""
        self.op_id = op_id
        return self.wrap("cli.main", call)()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per-layer figures of each op (times in ms).

        Spans are appended in call order and ops run one after another,
        so the spans of one op are contiguous.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        layer_ids = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int32)
        span_layer = layer_ids[a["name"]] if len(dur) else np.zeros(0, dtype=np.int32)
        parent_layer = np.where(has_parent, span_layer[np.maximum(a["parent"], 0)], -1)
        entry = span_layer != parent_layer  # span entered from another layer
        n_names = len(self.names)
        out = {}
        op_ids, first = np.unique(a["op"], return_index=True)
        bounds = list(first) + [len(dur)]
        for k, op_id in enumerate(op_ids.tolist()):
            s = slice(bounds[k], bounds[k + 1])
            ids = a["name"][s]
            incl = np.bincount(ids, weights=dur[s], minlength=n_names) * 1e3
            excl = np.bincount(ids, weights=self_time[s], minlength=n_names) * 1e3
            ncall = np.bincount(ids, minlength=n_names)
            entered = np.bincount(ids[entry[s]], minlength=n_names)

            def get(values, name):
                return float(values[self.names.index(name)]) if name in self.names else 0.0

            m: dict[str, float] = {"op.total_ms": get(incl, "cli.main")}
            for li, layer in enumerate(LAYERS):
                m[f"{layer}.self_ms"] = float(excl[layer_ids == li].sum())
            m["cli.self_ms"] = get(excl, "cli.main")
            m["cli.load_ms"] = get(incl, "cli.load_pauli_file")
            m["pauli.conjugate_by_circuit_ms"] = get(incl, "pauli.conjugate_by_circuit")
            m["pauli.conjugate_by_circuit.calls"] = get(ncall, "pauli.conjugate_by_circuit")
            m["pauli.conjugate_ms"] = get(incl, "pauli.conjugate")
            m["pauli.conjugate.calls"] = get(ncall, "pauli.conjugate")
            m["pauli.multiply_calls"] = get(ncall, "pauli.multiply")
            m["pauli.check_ms"] = get(incl, "pauli.check_commuting_set")
            m["gf2.calls"] = float(entered[layer_ids == LAYERS.index("gf2")].sum())
            m["tableau.build_ms"] = get(incl, "tableau.tableau_from_circuit")
            m["tableau.support_ms"] = get(incl, "tableau.extract_support")
            m["distribution.build_ms"] = get(incl, "distribution.build_distribution")
            m["distribution.moments_ms"] = get(incl, "distribution.moments")
            m["distribution.support_points_ms"] = get(incl, "distribution.support_points")
            m["distribution.support_points.calls"] = get(ncall, "distribution.support_points")
            m["lattice.volume_ms"] = get(incl, "lattice.lattice_volume")
            m["lattice.exact_ms"] = get(incl, "lattice.exact_frame_potential")
            m["oracle.mc_ms"] = get(incl, "oracle.mc_frame_potential")
            oracle_entry = (span_layer[s] == LAYERS.index("oracle")) & entry[s]
            m["oracle.dense_ms"] = float(dur[s][oracle_entry].sum()) * 1e3 - m["oracle.mc_ms"]
            counts = dict(self.counts.get(op_id, {}))
            rows = counts.pop("lattice.hnf_rows", 0.0)
            pivots = counts.pop("lattice.hnf_pivots", 0.0)
            m.update(counts)
            m["lattice.hnf_rows"] = rows
            m["lattice.hnf_yield"] = pivots / rows if rows else 0.0
            m["cli.output_bytes"] = float(self.output_bytes.get(op_id, 0))
            out[op_id] = m
        return out
