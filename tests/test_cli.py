"""Tests for the command-line driver: dispatch, reports, and exit codes."""

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from oil import Window, multiplication_operator, numerical_rank, stinespring
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

    def test_sweep_verdicts_hold_decision_and_evidence(self, tmp_path):
        out = tmp_path / "s.json"
        code = main([
            "sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8",
            "--steps", "3", "--family", "paper", "--max-index", "1024",
            "--out", str(out),
        ])
        assert code == 0
        for pt in json.loads(out.read_text())["results"]["points"]:
            assert isinstance(pt["measured_exponent"], float)
            for key in ("verdict_p", "verdict_2p"):
                assert set(pt[key]) == {"verdict", "evidence"}
                assert set(pt[key]["evidence"]) == {"N", "partial_sums", "spec", "delta_div", "delta_sum"}

    @pytest.mark.parametrize("argv", [
        ["sweep", "--p", "0", "--eps-min", "0.3", "--eps-max", "0.8"],
        ["sweep", "--p", "inf", "--eps-min", "0.3", "--eps-max", "0.8"],
        ["lemma-check", "--p", "2", "--eps", "nan"],
        ["lemma-check", "--p", "2", "--eps", "inf"],
        ["lemma-check", "--p", "nan", "--eps", "0.4"],
        ["lemma-check", "--p", "inf", "--eps", "0.4"],
        ["lemma-check", "--p", "2", "--eps", "0.4", "--trials", "0"],
        ["lemma-check", "--p", "2", "--eps", "0.4", "--modes", "0"],
        ["deformation-check", "--eps", "nan"],
        ["deformation-check", "--eps", "0.4", "--modes", "-1"],
        ["sum-demo", "--trials", "0"],
        ["sum-demo", "--size", "0"],
        ["stinespring-check", "--maps", "0"],
        ["stinespring-check", "--pairs", "0"],
        ["stinespring-check", "--n", "0"],
        ["stinespring-check", "--m", "0"],
        ["stinespring-check", "--r", "x"],
    ])
    def test_bad_numbers_and_zero_counts_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "oil" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

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

    @pytest.mark.filterwarnings("error")
    def test_subnormal_powers_keep_schatten_norm_exact(self, tmp_path):
        # the commutator's spectrum is (3e-160, 1e-160), whose squares lie in the subnormals
        sym = tmp_path / "tiny.json"
        sym.write_text("[[1, 3e-160, 0], [-1, 1e-160, 0]]")
        out = tmp_path / "r.json"
        assert main(["spectrum", "--symbol", str(sym), "--op", "commutator", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["spectrum_head"][:3] == [3e-160, 1e-160, 0.0]
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(3e-160) ** 2 + Decimal(1e-160) ** 2).sqrt()
            assert abs(Decimal(results["schatten_2"]) - exact) <= Decimal(2e-15) * exact

    def test_csv_write_failure(self, symbol_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        argv = ["spectrum", "--symbol", symbol_file, "--format", "csv", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("oil: cannot write")

    def test_broken_dilation_postcondition_is_internal_failure(self, tmp_path, monkeypatch, capsys):
        apply = stinespring.CpMap.apply
        monkeypatch.setattr(stinespring.CpMap, "apply", lambda cp, a: 2.0 * apply(cp, a))
        out = tmp_path / "r.json"
        assert main(["stinespring-check", "--maps", "1", "--pairs", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("oil: internal check failed: dilation postcondition failed")
        assert "Traceback" not in err and not out.exists()

    def test_svd_failure_is_internal_failure(self, symbol_file, tmp_path, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        out = tmp_path / "r.json"
        assert main(["spectrum", "--symbol", symbol_file, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("oil: internal check failed: SVD did not converge")
        assert "Traceback" not in err and not out.exists()

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
