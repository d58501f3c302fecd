"""Tests for the command-line driver: dispatch, reports, and exit codes."""

import json

import numpy as np
import pytest

from oil import Window, multiplication_operator, numerical_rank
from oil.cli import main
from oil.reporting import UsageError, build_report, load_symbol_file, write_report


@pytest.fixture
def symbol_file(tmp_path):
    path = tmp_path / "sym.json"
    path.write_text("[[1, 1, 0], [-1, 1, 0]]")
    return str(path)


class TestSymbolFile:
    def test_shift_symbol(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text("[[1, 1, 0]]")
        a = load_symbol_file(path)
        assert a.coeff(1) == 1.0 and a.bandwidth == 1

    def test_empty(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text("[]")
        assert load_symbol_file(path).bandwidth == 0

    def test_duplicate_degree(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text("[[1, 1, 0], [1, 2, 0]]")
        with pytest.raises(UsageError, match="duplicate"):
            load_symbol_file(path)

    @pytest.mark.parametrize(
        "rows, match",
        [
            ("[[1.5, 1, 0]]", "degree must be an integer"),
            ("[[true, 1, 0]]", "must be numbers"),
            ("[[null, 1, 0]]", "must be numbers"),
            ("[[1, [1], 0]]", "must be numbers"),
            ("[[1, 1, \"0\"]]", "must be numbers"),
            ("[[Infinity, 1, 0]]", "degree must be an integer"),
            ("[[1, 1%s, 0]]" % ("0" * 400), "too large"),
        ],
    )
    def test_bad_row(self, tmp_path, rows, match):
        path = tmp_path / "bad_row.json"
        path.write_text(rows)
        with pytest.raises(UsageError, match=r"bad symbol row .*" + match):
            load_symbol_file(path)
        assert main(["defect", "--symbol-a", str(path)]) == 2

    def test_integral_float_degree(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text("[[1.0, 1, 0]]")
        assert load_symbol_file(path).coeff(1) == 1.0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(UsageError):
            load_symbol_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_symbol_file(tmp_path / "nope.json")


class TestWriteReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        report = {"command": "x", "params": {}, "seed": 1, "results": {},
                  "residuals": {"r": 1.25e-13}, "pass": True, "tool_version": "0.1.0"}
        write_report(report, path)
        again = json.loads(path.read_text())
        assert again == report

    def test_empty_results_valid(self, tmp_path):
        path = tmp_path / "r.json"
        write_report({"pass": True, "results": {}}, path)
        assert json.loads(path.read_text())["pass"] is True


class TestDispatch:
    def test_defect_pass(self, symbol_file, tmp_path):
        out = tmp_path / "r.json"
        code = main(["defect", "--symbol-a", symbol_file, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["residuals"]["hankel_product"] <= 1e-12

    def test_lemma_check_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "lemma-check", "--p", "2", "--eps", "0.4", "--modes", "24",
            "--trials", "5", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["residuals"]["min_gap"] >= -1e-9
        assert report["seed"] == 42

    def test_bad_exponent_usage_error(self):
        assert main(["lemma-check", "--p", "0", "--eps", "0.4"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_unreadable_symbol(self, tmp_path):
        assert main(["defect", "--symbol-a", str(tmp_path / "missing.json")]) == 2

    def test_sweep(self, tmp_path):
        out = tmp_path / "s.json"
        code = main([
            "sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8",
            "--steps", "2", "--family", "power", "--max-index", "1024",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["results"]["points"]) == 2

    def test_determinism(self, tmp_path):
        args = [
            "sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8",
            "--steps", "3", "--family", "power", "--max-index", "2048",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OIL_SEED", "7")
        out = tmp_path / "r.json"
        code = main([
            "lemma-check", "--p", "2", "--eps", "0.4", "--modes", "16",
            "--trials", "2", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_spectrum_csv(self, symbol_file, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "spectrum", "--symbol", symbol_file, "--op", "commutator",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,sigma"
        assert lines[1].startswith("0,")

    def test_csv_outside_spectrum_is_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = ["sum-demo", "--size", "4", "--trials", "2", "--format", "csv", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_infinite_value_in_report(self, tmp_path):
        out = tmp_path / "r.json"
        write_report(build_report("x", {}, 1, {"big": np.inf}, {"low": -np.inf}, False), out)
        report = json.loads(out.read_text())
        assert report["results"]["big"] == "inf" and report["residuals"]["low"] == "-inf"

    @pytest.mark.filterwarnings("error")
    def test_huge_symbol_has_finite_schatten_norm(self, tmp_path):
        sym = tmp_path / "huge.json"
        sym.write_text("[[1, 1e200, 0], [-1, 1e200, 0]]")
        out = tmp_path / "r.json"
        code = main(["spectrum", "--symbol", str(sym), "--op", "mult", "--out", str(out)])
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert results["schatten_2"] == pytest.approx(1e200 * np.sqrt(160.0), rel=1e-15)
        assert results["spectrum_head"][0] == pytest.approx(2e200, rel=1e-2)
        op = multiplication_operator(load_symbol_file(sym), Window(-40, 40))
        assert results["rank"] == numerical_rank(op.entries)

    def test_csv_write_failure(self, symbol_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        argv = ["spectrum", "--symbol", symbol_file, "--format", "csv", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("oil: cannot write")

    def test_inverse_check_default_symbol(self):
        assert main(["inverse-check"]) == 0

    def test_deformation_check(self):
        assert main(["deformation-check", "--eps", "0.4", "--modes", "64"]) == 0

    def test_sum_demo(self):
        assert main(["sum-demo", "--size", "8", "--trials", "3"]) == 0

    def test_stinespring_check(self):
        assert main(["stinespring-check", "--maps", "2", "--pairs", "3"]) == 0

    def test_bad_family(self):
        assert main(["sweep", "--p", "2", "--eps-min", "0.1", "--eps-max", "0.5",
                     "--family", "bogus", "--max-index", "1024"]) == 2
