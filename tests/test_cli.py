from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from pauliframe import cli, oracle
from pauliframe.cli import main

from conftest import EXAMPLE_SET_1, EXAMPLE_SET_2, walk_count_frame_potential

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
        calls = {"unitary": 0, "diagonal": 0}
        unitary, diagonal = oracle.unitary_from_circuit, oracle.dense_diagonal

        def count_unitary(w):
            calls["unitary"] += 1
            return unitary(w)

        def count_diagonal(op, w, wm=None):
            calls["diagonal"] += 1
            return diagonal(op, w, wm)

        monkeypatch.setattr(oracle, "unitary_from_circuit", count_unitary)
        monkeypatch.setattr(oracle, "dense_diagonal", count_diagonal)
        code, out, _ = run(capsys, "verify", example_file)
        assert code == 0 and json.loads(out)["passed"] is True
        assert calls == {"unitary": 1, "diagonal": 5}

    def test_mc_deterministic_given_seed(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("XX\nZZ\n")
        _, out1, _ = run(capsys, "frame-potential", str(path), "--t", "1",
                         "--mc-samples", "20000", "--seed", "3")
        _, out2, _ = run(capsys, "frame-potential", str(path), "--t", "1",
                         "--mc-samples", "20000", "--seed", "3")
        assert out1 == out2


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

    @pytest.mark.parametrize("example, ops", [(1, EXAMPLE_SET_1), (2, EXAMPLE_SET_2)])
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

    @pytest.mark.parametrize("example, ops", [(1, EXAMPLE_SET_1), (2, EXAMPLE_SET_2)])
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
        "content", ["XX\nZZ\n", "Z\n"], ids=["nondegenerate", "degenerate"]
    )
    @pytest.mark.parametrize("command", ["report", "frame-potential"])
    @pytest.mark.parametrize(
        "flags",
        [["--t", "0"], ["--t", "-1"], ["--t", "0", "--exact"], ["--t", "two"],
         ["--mc-samples", "-5"]],
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
