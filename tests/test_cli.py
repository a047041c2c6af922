from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliframe import cli, oracle, pauli, tableau
from pauliframe.cli import main

from conftest import (
    EXAMPLE_SET_1,
    EXAMPLE_SET_2,
    EXAMPLE_SET_3,
    load_pauli_file_reference,
    walk_count_frame_potential,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "ops.txt"
    path.write_text("# worked example\n" + "\n".join(EXAMPLE_SET_1) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_worked_example(self, capsys, example_file):
        code, out, _ = run(capsys, "report", example_file, "--t", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["n"] == 5 and doc["N"] == 5
        assert doc["commuting"] is True
        assert doc["r"] == 4
        assert doc["rank_AR"] == 4
        assert doc["support_size"] == 16
        assert doc["pmf_value"] == {"num": 1, "den": 16}
        assert doc["V_U"] == 64
        eye = [
            [{"num": 1 if i == j else 0, "den": 1} for j in range(5)]
            for i in range(5)
        ]
        assert doc["covariance"] == eye
        assert len(doc["values"]) == 1
        import math

        assert doc["values"][0]["clt"] == pytest.approx(2 * math.pi**-2.5)

    def test_degenerate_single_z(self, capsys, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("Z\n")
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["V_U"] == "degenerate"
        assert doc["clt_coefficient"] is None

    def test_byte_identical_output(self, capsys, example_file):
        _, out1, _ = run(capsys, "report", example_file, "--t", "1", "--seed", "7")
        _, out2, _ = run(capsys, "report", example_file, "--t", "1", "--seed", "7")
        assert out1 == out2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("XYQ\n")
        code, _, err = run(capsys, "report", str(path))
        assert code == 2
        assert "line 1" in err

    def test_noncommuting_exit_3(self, capsys, tmp_path):
        path = tmp_path / "anti.txt"
        path.write_text("XX\nZI\n")
        code, _, err = run(capsys, "report", str(path))
        assert code == 3
        assert "(0, 1)" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "report", "/nonexistent/file.txt")
        assert code == 2

    def test_text_format(self, capsys, example_file):
        code, out, _ = run(capsys, "report", example_file, "--format", "text")
        assert code == 0
        assert "support_size: 16" in out
        assert "V_U: 64" in out


class TestSubcommands:
    def test_check_commuting(self, capsys, example_file):
        code, out, _ = run(capsys, "check", example_file)
        assert code == 0
        assert json.loads(out)["commuting"] is True

    def test_check_noncommuting(self, capsys, tmp_path):
        path = tmp_path / "anti.txt"
        path.write_text("XX\nZI\nIZ\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 3
        doc = json.loads(out)
        assert doc["commuting"] is False
        assert doc["violating_pair"] == [0, 1]

    def test_diagonalize(self, capsys, example_file):
        code, out, _ = run(capsys, "diagonalize", example_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["A"]) == 5
        assert all(len(row) == 5 for row in doc["A"])
        assert len(doc["s"]) == 5
        assert all(g["g"] in ("H", "S", "CNOT", "CZ", "X", "Z") for g in doc["W"])

    def test_distribution_point_mass(self, capsys, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("Z\n")
        code, out, _ = run(capsys, "distribution", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["support_size"] == 1
        assert doc["degenerate"] is True
        assert doc["mean"] == [{"num": 1, "den": 1}]

    def test_frame_potential_exact(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("X\n")
        code, out, _ = run(capsys, "frame-potential", str(path), "--t", "2", "--exact")
        assert code == 0
        doc = json.loads(out)
        assert doc["V_U"] == 2
        assert doc["values"][0]["exact"] == pytest.approx(0.375, abs=1e-12)

    def test_verify_worked_set(self, capsys, example_file):
        code, out, _ = run(capsys, "verify", example_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_frame_potential_synthesizes_no_circuit(self, capsys, example_file, monkeypatch):
        def refuse(ops):
            raise AssertionError("frame-potential synthesized W")

        monkeypatch.setattr(cli, "simultaneous_diagonalize", refuse)
        code, out, _ = run(capsys, "frame-potential", example_file, "--t", "2", "--exact")
        assert code == 0
        doc = json.loads(out)
        assert doc["V_U"] == 64 and doc["support_size"] == 16

    def test_verify_builds_one_unitary(self, capsys, example_file, monkeypatch):
        calls = {"unitary": 0, "diagonal": 0, "gate": 0}
        unitary, diagonal = oracle.unitary_from_circuit, oracle.dense_diagonal
        apply_gate = oracle._apply_gate
        w = cli.simultaneous_diagonalize(cli.load_pauli_file(example_file)).circuit

        def count_unitary(w):
            calls["unitary"] += 1
            return unitary(w)

        def count_diagonal(op, w, wm=None):
            calls["diagonal"] += 1
            return diagonal(op, w, wm)

        def count_gate(vec, gate, n):
            calls["gate"] += 1
            return apply_gate(vec, gate, n)

        monkeypatch.setattr(oracle, "unitary_from_circuit", count_unitary)
        monkeypatch.setattr(oracle, "dense_diagonal", count_diagonal)
        monkeypatch.setattr(oracle, "_apply_gate", count_gate)
        code, out, _ = run(capsys, "verify", example_file)
        assert code == 0 and json.loads(out)["passed"] is True
        # One dense pass over W's gates: W|0...0> is read off the unitary.
        assert calls == {"unitary": 1, "diagonal": 5, "gate": len(w.gates)}

    @pytest.mark.parametrize(
        "command", ["report", "distribution", "verify", "frame-potential", "diagonalize"]
    )
    def test_one_commutation_check_and_one_elimination(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # W and the law of K come from one X-block elimination, after one
        # commutation check.  Every module that binds either function is
        # patched, so no call path escapes the count.
        path = tmp_path / "ops.txt"
        path.write_text("\n".join(EXAMPLE_SET_3) + "\n")
        calls = {"check_commuting_set": 0, "reduce_x_block": 0}
        originals = {
            "check_commuting_set": pauli.check_commuting_set,
            "reduce_x_block": tableau.reduce_x_block,
        }

        def counting(name):
            def wrapper(*args):
                calls[name] += 1
                return originals[name](*args)
            return wrapper

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("pauliframe"):
                for name, fn in originals.items():
                    if getattr(module, name, None) is fn:
                        monkeypatch.setattr(module, name, counting(name))
        code, _, _ = run(capsys, command, str(path))
        assert code == 0
        assert calls == {"check_commuting_set": 1, "reduce_x_block": 1}

    def test_verify_reports_a_circuit_that_does_not_diagonalize(
        self, capsys, example_file, monkeypatch
    ):
        # With W taken as the identity, no non-Z operator is diagonal.
        monkeypatch.setattr(oracle, "unitary_from_circuit", lambda w: np.eye(2**w.n, dtype=complex))
        code, out, _ = run(capsys, "verify", example_file)
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        assert "operator 0: conjugated operator is not diagonal" in doc["failures"]

    def test_one_mc_evolution_serves_every_t(self, capsys, example_file, monkeypatch):
        calls = []
        evolve = oracle._evolve
        monkeypatch.setattr(oracle, "_evolve", lambda *a: calls.append(1) or evolve(*a))
        argv = ["frame-potential", example_file, "--mc-samples", "3000", "--seed", "5"]
        docs = {}
        for ts in ([2], [2, 3, 4], [3], [4]):
            calls.clear()
            code, out, _ = run(capsys, *argv, *(a for t in ts for a in ("--t", str(t))))
            assert code == 0
            docs[tuple(ts)] = (json.loads(out)["values"], len(calls))
        (values, evolved), (alone, evolved_alone) = docs[(2, 3, 4)], docs[(2,)]
        assert evolved == evolved_alone
        assert values == alone + docs[(3,)][0] + docs[(4,)][0]

    def test_mc_deterministic_given_seed(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("XX\nZZ\n")
        _, out1, _ = run(capsys, "frame-potential", str(path), "--t", "1",
                         "--mc-samples", "20000", "--seed", "3")
        _, out2, _ = run(capsys, "frame-potential", str(path), "--t", "1",
                         "--mc-samples", "20000", "--seed", "3")
        assert out1 == out2

    def test_mc_at_ten_qubits_agrees_with_exact(self, capsys, tmp_path):
        # X-type rows 1..10 over the first 4 of 10 qubits: N = n = 10, rho = 4.
        path = tmp_path / "mc10.txt"
        path.write_text("\n".join(
            "".join("XI"[not (j >> i) & 1] if i < 4 else "I" for i in range(10))
            for j in range(1, 11)
        ) + "\n")
        code, out, _ = run(capsys, "frame-potential", str(path), "--t", "2",
                           "--exact", "--mc-samples", "20000", "--seed", "3")
        assert code == 0
        (entry,) = json.loads(out)["values"]
        assert abs(entry["mc"] - entry["exact"]) <= 5 * entry["mc_stderr"]


_PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def measured_support_bits(texts):
    """Outcomes b (K = 1 - 2b) of measuring commuting strings on |0...0>.

    Dense projectors prod_j (1 + K_j H_j) / 2, built from Kronecker
    products; the law must be uniform on its support.
    """
    mats = []
    for text in texts:
        m = np.array([[-1 if text.startswith("-") else 1]])
        for c in text.lstrip("+-"):
            m = np.kron(m, _PAULI_MATRICES[c])
        mats.append(m)
    zero = np.zeros(mats[0].shape[0])
    zero[0] = 1
    bits, probs = [], []
    for b in itertools.product((0, 1), repeat=len(mats)):
        v = zero
        for m, bj in zip(mats, b):
            v = (v + (1 - 2 * bj) * (m @ v)) / 2
        p = np.vdot(v, v).real
        if p > 1e-9:
            bits.append(b)
            probs.append(p)
    assert np.allclose(probs, 1 / len(bits), rtol=0, atol=1e-12)
    return np.array(bits)


class TestGolden:
    """stdout recorded from an earlier release, compared byte for byte."""

    @pytest.mark.parametrize(
        "example, ops", [(1, EXAMPLE_SET_1), (2, EXAMPLE_SET_2), (3, EXAMPLE_SET_3)]
    )
    @pytest.mark.parametrize(
        "command, flags",
        [("report", ["--t", "1", "--t", "10", "--exact"]), ("diagonalize", [])],
    )
    def test_worked_examples(self, capsys, tmp_path, example, ops, command, flags):
        path = tmp_path / "ops.txt"
        path.write_text("\n".join(ops) + "\n")
        code, out, _ = run(capsys, command, str(path), *flags)
        assert code == 0
        assert out == (GOLDEN / f"example{example}_{command}.json").read_text()

    @pytest.mark.parametrize(
        "example, ops", [(1, EXAMPLE_SET_1), (2, EXAMPLE_SET_2), (3, EXAMPLE_SET_3)]
    )
    def test_exact_values_match_walk_counts(self, example, ops):
        doc = json.loads((GOLDEN / f"example{example}_report.json").read_text())
        bits = measured_support_bits(ops)
        assert len(bits) == doc["support_size"]
        checked = 0
        for entry in doc["values"]:
            expected = walk_count_frame_potential(bits, entry["t"])
            assert abs(entry["exact"] - float(expected)) <= 1e-13 * float(expected)
            checked += 1
        assert checked == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "command",
        ["report", "verify", "distribution", "diagonalize", "frame-potential", "check"],
    )
    def test_identity_line_is_parse_error(self, capsys, tmp_path, command):
        path = tmp_path / "ops.txt"
        path.write_text("XX\n# the next line is the identity\n-II\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "line 3" in err and "identity" in err

    @pytest.mark.parametrize(
        "command", ["report", "distribution", "frame-potential", "diagonalize", "verify"]
    )
    def test_noncommuting_exit_3_names_first_pair(self, capsys, tmp_path, command):
        path = tmp_path / "anti.txt"
        path.write_text("ZZ\nXX\nZI\nIZ\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 3
        assert out == ""
        assert "pair (1, 2)" in err

    @pytest.mark.parametrize(
        "argv", [["verify"], ["frame-potential", "--mc-samples", "1"]]
    )
    def test_dense_oracle_guard_exit_4(self, capsys, tmp_path, monkeypatch, argv):
        # One qubit past the cap: the guard fires before W is synthesized.
        n = oracle.MAX_QUBITS + 1
        path = tmp_path / "wide.txt"
        path.write_text("X" * n + "\n")
        monkeypatch.setattr(cli, "simultaneous_diagonalize", None)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 4
        assert out == ""
        assert err == (
            f"resource guard: dense oracle limited to n <= {oracle.MAX_QUBITS}, got {n}\n"
        )

    @pytest.mark.parametrize("command", ["report", "frame-potential"])
    def test_monte_carlo_work_guard_exit_4(self, capsys, example_file, command):
        # samples x N x 2**rho = 10**12 x 5 x 16 is refused before the first
        # batch; the largest Monte Carlo the CI runs, 20000 x 10 x 2**10,
        # stays at least ten times below the cap.
        assert 10 * 20000 * 10 * 2**10 <= oracle.MC_WORK_CAP
        start = time.perf_counter()
        code, out, err = run(capsys, command, example_file, "--mc-samples", str(10**12))
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert err == (
            "resource guard: Monte-Carlo work samples x N x 2**rho = "
            f"{10**12 * 5 * 16} exceeds the cap {oracle.MC_WORK_CAP}; lower --mc-samples\n"
        )

    @pytest.mark.parametrize(
        "content", ["XX\nZZ\n", "Z\n"], ids=["nondegenerate", "degenerate"]
    )
    @pytest.mark.parametrize("command", ["report", "frame-potential"])
    @pytest.mark.parametrize(
        "flags",
        [["--t", "0"], ["--t", "-1"], ["--t", "0", "--exact"], ["--t", "two"],
         ["--mc-samples", "-5"], ["--seed", "-1"], ["--seed", str(2**128)],
         ["--t", str(2**63)], ["--t", str(10**400)]],
    )
    def test_invalid_flag_values_exit_2(self, capsys, tmp_path, content, command, flags):
        path = tmp_path / "ops.txt"
        path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0] in captured.err

    @pytest.mark.parametrize("command", ["verify", "check", "diagonalize", "distribution"])
    def test_seed_only_where_it_is_read(self, capsys, example_file, command):
        with pytest.raises(SystemExit) as exc:
            main([command, example_file, "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_largest_t_runs(self, capsys, example_file):
        # 2**63 - 1, the largest --t, fits the CLT's float and the
        # Monte Carlo's fidelity**t.
        t = str(2**63 - 1)
        code, out, err = run(
            capsys, "frame-potential", example_file, "--t", t, "--mc-samples", "10"
        )
        assert code == 0 and err == ""
        assert [entry["t"] for entry in json.loads(out)["values"]] == [2**63 - 1]

    @pytest.mark.parametrize("content", ["", "# comment only\n\n   \n"], ids=["empty", "comments"])
    @pytest.mark.parametrize(
        "command",
        ["report", "verify", "distribution", "diagonalize", "frame-potential", "check"],
    )
    def test_input_without_strings_is_parse_error(self, capsys, tmp_path, content, command):
        # No line is at fault, so the message names none.
        path = tmp_path / "ops.txt"
        path.write_text(content)
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == "parse error: no Pauli strings in input\n"

    @pytest.mark.parametrize(
        "content, line",
        [
            (b"\xff\xfeXX\n", 1),
            (b"XX\r\nZZ\r\n\xc3(\n", 3),
            (b"\xef\xbb\xbfXX\n\n\xffZ\n", 3),
        ],
        ids=["utf16-bom", "crlf", "after-bom"],
    )
    def test_non_utf8_input_is_parse_error(self, capsys, tmp_path, content, line):
        path = tmp_path / "ops.txt"
        path.write_bytes(content)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert f"line {line}:" in err and "UTF-8" in err

    def test_leading_bom_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_bytes(b"\xef\xbb\xbfXX\nZZ\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert json.loads(out)["N"] == 2


def _input_line(rng: random.Random, n: int) -> str:
    """One input line on n qubits: mostly a valid string, a comment or a
    blank; sometimes a string of another length, with an invalid
    character, an identity or a lone sign."""
    body = "".join(rng.choices("IXYZ", k=n))
    fault = rng.random()
    if fault < 0.04:
        body = "I" * n
    elif fault < 0.08:
        body = "".join(rng.choices("IXYZ", k=rng.randint(1, 5)))
    elif fault < 0.12:
        q = rng.randrange(n)
        body = body[:q] + rng.choice(["Q", "x", " ", "é", "+"]) + body[q + 1 :]
    elif fault < 0.14:
        body = ""
    elif fault < 0.2:
        return rng.choice(["", "   ", "# comment"])
    elif not body.strip("I"):
        body = "X" + body[1:]
    pad = ["", " ", "\t "]
    text = rng.choice(pad) + rng.choice(["", "+", "-", "−"]) + body + rng.choice(pad)
    return text + rng.choice(["", "", "", "#", " # note"])


@st.composite
def input_files(draw) -> bytes:
    """The bytes of an input file: lines with mixed endings, a possible
    byte-order mark and a possible byte that is not valid UTF-8."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(1, 4)
    lines = [_input_line(rng, n) for _ in range(rng.randint(0, 8))]
    data = "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines).encode()
    if rng.random() < 0.15:
        at = rng.randint(0, len(data))
        data = data[:at] + rng.choice([b"\xff", b"\xc3(", b"\xe2\x88"]) + data[at:]
    return (b"\xef\xbb\xbf" if rng.random() < 0.3 else b"") + data


class TestLoaderReference:
    """``cli.load_pauli_file`` against the per-line reference loader in
    conftest: the same rows, or the same exit code and stderr."""

    @staticmethod
    def _check(path, loader):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "load_pauli_file", loader):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", path])
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(input_files())
    def test_same_rows_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "loader-reference.txt"
        path.write_bytes(data)
        got = self._check(str(path), cli.load_pauli_file)
        assert got == self._check(str(path), load_pauli_file_reference)
        if got[0] != 2:
            rows, ref = cli.load_pauli_file(str(path)), load_pauli_file_reference(str(path))
            for a, b in ((rows.x, ref.x), (rows.z, ref.z), (rows.r, ref.r)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize(
        "lines, line",
        [
            (["XX", "XQ", "-II"], 2),  # an invalid character before an identity line
            (["XX", "II", "XQ"], 2),  # and after one
            (["XX", "\tX", "II"], 2),
            (["XX", "XZ", "XXX"], 3),
        ],
    )
    def test_first_failing_line_is_reported(self, capsys, tmp_path, lines, line):
        path = tmp_path / "ops.txt"
        path.write_text("\r\n".join(lines))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: line {line}: ")
        assert err == self._check(str(path), load_pauli_file_reference)[2]


def x_rows_file(path, n: int, codes) -> str:
    """One X-type string per integer code: qubit i carries X where bit i is set."""
    path.write_text(
        "".join("".join("X" if c >> i & 1 else "I" for i in range(n)) + "\n" for c in codes)
    )
    return str(path)


class TestLargeInputs:
    def test_degenerate_law_beyond_the_support_cap(self, capsys, tmp_path):
        # X on each of 21 qubits plus -X on the first: rho = 21 is past the
        # 2^20 support cap, but two equal x-rows make the law degenerate,
        # so V_U needs no enumeration.
        path = tmp_path / "ops.txt"
        path.write_text("".join(
            "I" * j + "X" + "I" * (20 - j) + "\n" for j in range(21)
        ) + "-X" + "I" * 20 + "\n")
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["rank_AR"] == 21
        assert doc["V_U"] == "degenerate"
        assert doc["clt_coefficient"] is None and doc["values"][0]["clt"] is None

    def test_clt_in_log_space_where_floats_overflow(self, capsys, tmp_path):
        # 300 distinct X-type rows on 9 qubits: (4 pi)^300 and V_U both
        # overflow a float, the CLT values do not.
        path = x_rows_file(tmp_path / "big300.txt", 9, range(1, 301))
        code, out, _ = run(capsys, "frame-potential", path, "--t", "1", "--t", "10")
        assert code == 0
        doc = json.loads(out)
        log_volume = math.log(doc["V_U"])
        assert log_volume > math.log(2.0**1023)
        for entry in doc["values"]:
            expected = math.exp(log_volume - 150 * math.log(4 * math.pi * entry["t"]))
            assert entry["clt"] == pytest.approx(expected, rel=1e-12)
        assert doc["clt_coefficient"] == doc["values"][0]["clt"]

    def test_clt_beyond_float_range_exits_4(self, capsys, tmp_path):
        # All 511 nonzero X-type rows on 9 qubits: log V_U - (N/2) log(4 pi)
        # is about 950, past the largest float.
        path = x_rows_file(tmp_path / "big511.txt", 9, range(1, 512))
        code, out, err = run(capsys, "frame-potential", path, "--t", "10")
        assert code == 4
        assert out == ""
        assert "resource guard" in err and "CLT coefficient" in err


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


class TestJsonEmitter:
    """cli._json against json.dumps(indent=2), byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    def test_matches_stdlib_on_random_trees(self, value):
        assert cli._json(value, {}) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [{"a": 1}, {"a": True}, {"a": 1.0}],
        [{"a": True}, {"a": 1}, {"a": 1.0}],
        [{"x": 0.0}, {"x": -0.0}],
        [{"x": 1}, {"x": "1"}, {"x": [1]}],
        [float("nan"), float("inf"), -float("inf"), {"v": float("nan")}],
        {"big": 2**80, "neg": -(2**80), "pair": {"num": 2**80, "den": 1}},
        {"\u00e9\n\t\"\\\x00\U0001f600": "caf\u00e9\x1f\u2028\U0001f600"},
        [{}, [], {"e": {}, "l": []}],
        {"a": {"num": 1, "den": 2}, "b": [{"num": 1, "den": 2}], "c": [[{"num": 1, "den": 2}]]},
        {"g": "H", "q": 0},
        [],
        {},
        "text",
        -0.0,
        [np.float64(0.1), True, False, None],
    ])
    def test_matches_stdlib_by_hand(self, value):
        assert cli._json(value, {}) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [np.int64(3), {"a": np.int64(3)}, [{1, 2}], [object()]])
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            cli._json(value, {})
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("value", [{1: "a"}, (1, 2), [{"a": (1,)}]])
    def test_rejects_what_a_doc_never_holds(self, value):
        with pytest.raises(TypeError):
            cli._json(value, {})

    def test_report_does_not_call_json_dumps(self, capsys, example_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        code, out, _ = run(capsys, "report", example_file, "--t", "1")
        assert code == 0 and out.startswith("{")

    @pytest.mark.parametrize("command, flags", [
        ("report", ["--t", "1", "--t", "10"]),
        ("distribution", []),
        ("diagonalize", []),
        ("frame-potential", []),
        ("check", []),
    ])
    def test_wide_output_round_trips(self, capsys, tmp_path, command, flags):
        # X-type rows 1..64 on 64 qubits: N = n = 64 and rho = 7.
        path = x_rows_file(tmp_path / "wide64.txt", 64, range(1, 65))
        code, out, _ = run(capsys, command, path, *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == doc["n"] == 64
        if "rank_AR" in doc:
            assert doc["rank_AR"] == 7
        assert out == json.dumps(doc, indent=2) + "\n"
