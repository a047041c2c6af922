"""Command-line interface: ingest a Pauli-set file, run the pipeline,
emit a machine-readable report.

Input format: UTF-8 text (a leading byte-order mark is skipped), one
signed Pauli string per line, '#' starts a comment, blank lines ignored;
the qubit count is inferred from the first string, and an identity
string such as III is a parse error.
Exact dyadic quantities are serialized as {"num": p, "den": q}; floats
as plain JSON numbers.  Output is byte-identical for identical
(input, flags, seed).

The JSON is written by ``_json``, which gives exactly the bytes of
``json.dumps(doc, indent=2)``.  json.dumps is not used because CPython
skips its C encoder whenever ``indent`` is set, and its pure-Python
encoder spends most of a wide report on the N x N covariance entries;
``_json`` renders each distinct {"num", "den"} entry and gate once.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gf2, lattice, oracle
from .diagonalize import simultaneous_diagonalize, verify_diagonalization
from .distribution import (
    SupportTooLargeError,
    build_distribution,
    moments,
    support_points,
)
from .pauli import (
    NonCommutingSetError,
    PauliParseError,
    check_commuting_set,
    parse_pauli,
)

EXIT_PARSE = 2
EXIT_NONCOMMUTING = 3
EXIT_GUARD = 4

SCHEMA_VERSION = 1


class InputFileError(ValueError):
    """A parse failure at an input line, or of the whole input (line None)."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def load_pauli_file(path: str):
    """Parse the input file into a list of PauliStrings."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        content = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the input after any byte-order mark.
        head = exc.object[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        bad = exc.object[exc.start]
        raise InputFileError(lineno, f"byte {bad:#04x} is not valid UTF-8") from None
    ops = []
    n = None
    for lineno, raw in enumerate(io.StringIO(content, newline=None), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            op = parse_pauli(text, n_expected=n)
        except PauliParseError as exc:
            raise InputFileError(lineno, str(exc)) from exc
        if op.is_identity():
            raise InputFileError(
                lineno, f"identity string {text!r} acts as a global phase only"
            )
        if n is None:
            n = op.n
        ops.append(op)
    if not ops:
        raise InputFileError(None, "no Pauli strings in input")
    return ops


def _rational(value) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bitstring(bits) -> str:
    return bits.astype(np.uint8, copy=False).tobytes().translate(_BIT_DIGITS).decode()


def _gate_json(gate) -> dict:
    if len(gate.qubits) == 1:
        return {"g": gate.name, "q": gate.qubits[0]}
    return {"g": gate.name, "c": gate.qubits[0], "t": gate.qubits[1]}


def _circuit_fields(diag) -> dict:
    """The circuit W and the diagonal encodings (A, s)."""
    return {
        "W": [_gate_json(g) for g in diag.circuit.gates],
        "A": [_bitstring(row) for row in diag.A],
        "s": _bitstring(diag.s),
    }


def _support_fields(diag) -> dict:
    """The support {R z + t} of W|0...0>: R is the unit columns of W's
    Hadamard qubits and t = 0."""
    n, sup = diag.circuit.n, diag.support
    return {"R": ["0" * q + "1" + "0" * (n - 1 - q) for q in sup], "t_vec": "0" * n, "r": len(sup)}


def _law_fields(dist, mom) -> dict:
    """The law of K and its moments."""
    return {
        "rank_AR": dist.rho,
        "support_size": dist.support_size,
        "pmf_value": _rational(dist.pmf_value),
        "mean": [{"num": v, "den": 1} for v in mom.mean.tolist()],
        "covariance": [[{"num": v, "den": 1} for v in row] for row in mom.covariance.tolist()],
        "det_cov": _rational(mom.det_cov),
    }


def _frame_fields(ops, dist, mom, t_values, exact, mc_samples, seed) -> dict:
    """V_U, the CLT coefficient and the frame-potential values.

    A degenerate law (Cov != I) has no full-rank lattice, so V_U is
    computed only for the others.  One Monte-Carlo run serves every t; it
    starts where the first t would, so a guard fires in the same order.
    """
    degenerate = mom.degenerate
    vol = None if degenerate else lattice.lattice_volume(support_points(dist))
    values = []
    mc = None
    for t in t_values:
        entry = {"t": t}
        entry["clt"] = None if degenerate else lattice.clt_frame_potential(vol, dist.N, t)
        if exact:
            entry["exact"] = lattice.exact_frame_potential(dist, t)
        if mc_samples > 0:
            if mc is None:
                mc = iter(oracle.mc_frame_potential(ops, t_values, mc_samples, seed))
            entry["mc"], entry["mc_stderr"] = next(mc)
        values.append(entry)
    return {
        "V_U": "degenerate" if degenerate else vol,
        "clt_coefficient": None if degenerate else lattice.clt_coefficient(vol, dist.N),
        "values": values,
    }


def run_verify(ops) -> list[str]:
    """Oracle cross-checks; returns the list of failure descriptions.

    The dense unitary of W and the N dense diagonals are built once and
    serve both the per-operator check and the pmf tally; W|0...0> is the
    unitary's first column.
    """
    failures = []
    diag = simultaneous_diagonalize(ops)
    dist, sup = diag.law, diag.support
    n = ops[0].n
    wm = oracle.unitary_from_circuit(diag.circuit)
    ok, bad = verify_diagonalization(ops, diag)
    if not ok:
        failures.append(f"symplectic diagonalization check failed at operator {bad}")
    diagonals = []
    for j, op in enumerate(ops):
        try:
            dd = oracle.dense_diagonal(op, diag.circuit, wm)
        except ValueError as exc:
            failures.append(f"operator {j}: {exc}")
            continue
        expected = (1 - 2 * (oracle.bits_matrix(n) @ diag.A[j].astype(np.int64) % 2)) * (
            -1 if diag.s[j] else 1
        )
        if not np.array_equal(dd, expected):
            failures.append(f"operator {j}: dense diagonal disagrees with (A, s)")
        diagonals.append(dd)
    state = wm[:, 0]
    probs = np.abs(state) ** 2
    dense_support = np.flatnonzero(probs > 1e-12)
    units = np.eye(n, dtype=np.uint8)[list(sup)]
    coset = np.sort(oracle.bits_to_index(gf2.coset(units, np.zeros(n, dtype=np.uint8))))
    if not np.array_equal(coset, dense_support):
        failures.append("support of W|0...0> differs from dense amplitude support")
    else:
        off = dense_support[np.abs(probs[dense_support] - 2.0**-len(sup)) > 1e-10]
        if off.size:
            failures.append(f"amplitude at {off[0]} is not 2^-r")
    if len(diagonals) == len(ops):
        brute = oracle.brute_pmf_K(np.stack(diagonals), state)
        built = dict.fromkeys(map(tuple, support_points(dist).tolist()), dist.pmf_value)
        if brute != built:
            failures.append("brute-force pmf differs from the exact distribution")
    return failures


def _format_text(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key == "values":
            for entry in value:
                parts = [f"t={entry['t']}"]
                for k in ("clt", "exact", "mc", "mc_stderr"):
                    if k in entry and entry[k] is not None:
                        parts.append(f"{k}={entry[k]!r}")
                lines.append("value: " + " ".join(parts))
        elif isinstance(value, dict) and set(value) == {"num", "den"}:
            lines.append(f"{key}: {value['num']}/{value['den']}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


_MEMO_TYPES = frozenset((int, str))


def _json(value, memo: dict, level: int = 0) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what a doc holds.

    A doc holds dicts with str keys, lists, str, int, float, bool and
    None.  Anything else raises TypeError, as json.dumps does for a numpy
    integer; so do a tuple and a non-str key, which a doc never holds.

    A dict whose values are all exact int or str is rendered once per
    distinct value and depth: ``memo`` maps (depth, items) to its text.
    No other dict is looked up or stored, and an int never equals a str,
    so the items fix the value types: 1, True, 1.0, 0.0 and -0.0 never
    share an entry.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        memoize = _MEMO_TYPES.issuperset(map(type, value.values()))
        key = (level, tuple(value.items())) if memoize else None
        text = memo.get(key)
        if text is None:
            inner = "\n" + "  " * (level + 1)
            items = ("," + inner).join([
                encode_basestring_ascii(k) + ": " + _json(v, memo, level + 1)
                for k, v in value.items()
            ])
            text = "{" + inner + items + "\n" + "  " * level + "}"
            if key is not None:
                memo[key] = text
        return text
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        items = ("," + inner).join([_json(v, memo, level + 1) for v in value])
        return "[" + inner + items + "\n" + "  " * level + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(_json(doc, {}))
    else:
        print(_format_text(doc))


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer >= low, and < high if given (violations
    exit with code 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value >= high:
            raise argparse.ArgumentTypeError(f"must be < {high}, got {value}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(
        prog="pauliframe",
        description="Exact spectral distribution and frame potential of "
        "commuting Pauli circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="file with one Pauli string per line")
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output format",
        )
        return p

    def add_frame_options(p):
        p.add_argument(
            "--t", type=_int_in(1, 2**63), action="append", default=None, metavar="T",
            help="frame-potential order, in [1, 2**63) (repeatable)",
        )
        p.add_argument("--exact", action="store_true",
                       help="also compute the exact frame potential")
        p.add_argument("--mc-samples", type=_int_in(0), default=0,
                       help="Monte-Carlo samples per t (0 disables)")
        p.add_argument("--seed", type=_int_in(0, 2**128), default=0,
                       help="Monte-Carlo seed, in [0, 2**128)")

    add_frame_options(add_common(sub.add_parser("report", help="full pipeline report")))
    add_common(sub.add_parser("check", help="commutation check only"))
    add_common(sub.add_parser("diagonalize", help="emit W, A, s"))
    add_common(sub.add_parser("distribution", help="emit the law of K"))
    add_frame_options(
        add_common(sub.add_parser("frame-potential", help="emit V_U and F values"))
    )
    add_common(sub.add_parser("verify", help="run oracle cross-checks"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = args.format == "json"

    try:
        ops = load_pauli_file(args.input)
    except InputFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        head = {"schema": SCHEMA_VERSION, "n": ops[0].n, "N": len(ops)}
        if args.command == "check":
            bad = check_commuting_set(ops)
            doc = {**head, "commuting": bad is None, "violating_pair": list(bad) if bad else None}
            _emit(doc, as_json)
            return 0 if bad is None else EXIT_NONCOMMUTING

        if args.command == "verify":
            oracle.check_guard(ops[0].n)
            failures = run_verify(ops)
            _emit({**head, "passed": not failures, "failures": failures}, as_json)
            return 0 if not failures else 1

        if args.command == "diagonalize":
            _emit({**head, **_circuit_fields(simultaneous_diagonalize(ops))}, as_json)
            return 0

        # distribution and report read the law of K off the elimination
        # that builds W; frame-potential reads it from the input rows alone.
        diag = None if args.command == "frame-potential" else simultaneous_diagonalize(ops)
        dist = build_distribution(ops) if diag is None else diag.law
        mom = moments(dist)
        if args.command == "distribution":
            doc = {**head, **_support_fields(diag), **_law_fields(dist, mom),
                   "degenerate": mom.degenerate}
        else:
            frame = _frame_fields(ops, dist, mom, args.t or [1], args.exact,
                                  args.mc_samples, args.seed)
            if args.command == "report":
                doc = {**head, "commuting": True, **_circuit_fields(diag),
                       **_support_fields(diag), **_law_fields(dist, mom), **frame}
            else:
                doc = {**head, "support_size": dist.support_size,
                       "det_cov": _rational(mom.det_cov), **frame}
        _emit(doc, as_json)
        return 0

    except NonCommutingSetError as exc:
        print(f"non-commuting input: pair {exc.pair}", file=sys.stderr)
        return EXIT_NONCOMMUTING
    except (
        SupportTooLargeError,
        oracle.OracleGuardError,
        lattice.QuadratureCapError,
        lattice.FloatRangeError,
    ) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
