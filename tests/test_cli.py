"""Tests for the command-line driver: dispatch, reports, and exit codes."""

import argparse
import dataclasses
import json
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from oil import (
    Window,
    WindowedOperator,
    deformation,
    extensions,
    hardy,
    multiplication_operator,
    numerical_rank,
    stinespring,
)
from oil.cli import _within, build_parser, main
from oil.hardy import TOLERANCES
from oil.reporting import UsageError, load_symbol_file, write_report


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
        assert a.coefficients == ((1, 1.0),) and a.bandwidth == 1

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
            ("[[1.5, 1, 0]]", r"symbol file .*bad_row\.json: degree 1\.5 is not an integer$"),
            ("[[true, 1, 0]]", "bad symbol row .*must be numbers"),
            ("[[null, 1, 0]]", "bad symbol row .*must be numbers"),
            ("[[1, [1], 0]]", "bad symbol row .*must be numbers"),
            ("[[1, 1, \"0\"]]", "bad symbol row .*must be numbers"),
            ("[[Infinity, 1, 0]]", r"symbol file .*bad_row\.json: degree inf is not an integer$"),
            ("[[1, NaN, 0]]", r"symbol file .*bad_row\.json: non-finite amplitude \(nan\+0j\) at degree 1$"),
            ("[[1, 1, Infinity]]", r"symbol file .*bad_row\.json: non-finite amplitude \(1\+infj\) at degree 1$"),
            ("[[0, 1, 0], [2, -Infinity, 0]]", r"symbol file .*bad_row\.json: non-finite amplitude \(-inf\+0j\) at degree 2$"),
            ("[[1, 1%s, 0]]" % ("0" * 400), "bad symbol row .*too large"),
        ],
    )
    def test_bad_row(self, tmp_path, rows, match):
        path = tmp_path / "bad_row.json"
        path.write_text(rows)
        with pytest.raises(UsageError, match=match):
            load_symbol_file(path)
        assert main(["defect", "--symbol-a", str(path)]) == 2

    def test_integral_float_degree(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text("[[1.0, 1, 0]]")
        assert load_symbol_file(path).coefficients == ((1, 1.0),)

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
        ["lemma-check", "--p", "2", "--eps", "0.4", "--ambient", "0"],
        ["deformation-check", "--eps", "nan"],
        ["deformation-check", "--eps", "0.4", "--modes", "-1"],
        ["sum-demo", "--trials", "0"],
        ["sum-demo", "--size", "0"],
        ["stinespring-check", "--maps", "0"],
        ["stinespring-check", "--pairs", "0"],
        ["stinespring-check", "--n", "0"],
        ["stinespring-check", "--m", "0"],
        ["stinespring-check", "--r", "x"],
        ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "1"],
        ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--family", "bogus"],
        ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--with-lemma"],
        ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--max-index", "100"],
        ["lemma-check", "--p", "2", "--eps", "0.4", "--modes", "8", "--ambient", "4"],
        ["deformation-check", "--eps", "5", "--modes", "4"],
        ["deformation-check", "--eps", "1e400"],  # float("1e400") is inf
        ["lemma-check", "--p", "0.5", "--eps", "0.4"],
        ["sweep", "--p", "x", "--eps-min", "0.3", "--eps-max", "0.8"],
        ["sweep", "--p", "2", "--eps-min", "0.8", "--eps-max", "0.3"],
        ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "inf"],
    ])
    def test_bad_numbers_and_zero_counts_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "oil" in captured.err and "Traceback" not in captured.err
        options = [word for word in argv if word.startswith("--")]
        assert any(re.search(rf"{re.escape(option)}(?![\w-])", captured.err) for option in options)
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--max-index", "100"], "--max-index"),
        (["lemma-check", "--p", "2", "--eps", "0.4", "--modes", "8", "--ambient", "4"], "--ambient"),
        (["deformation-check", "--eps", "5", "--modes", "4"], "--modes"),
        (["sweep", "--p", "2", "--eps-min", "nan", "--eps-max", "0.8"], "--eps-min"),
        (["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "5"], "--eps-max"),
    ])
    def test_library_limits_name_the_option_that_set_them(self, argv, option, capsys):
        # each value breaks a limit the library states under its own parameter name
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "2", "--max-index", "1024"],
        ["deformation-check", "--eps", "0.4", "--modes", "9"],
        ["stinespring-check", "--maps", "1", "--pairs", "1"],
        ["sum-demo", "--size", "4", "--trials", "1"],
        ["lemma-check", "--p", "2", "--eps", "0.4", "--modes", "4", "--trials", "1"],
    ])
    def test_negative_seed_is_usage_error_naming_it(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert main(argv + ["--seed", "0"]) == 0

    def test_determinism(self, tmp_path):
        args = [
            "sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8",
            "--steps", "3", "--family", "power", "--max-index", "2048",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_is_reported(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "lemma-check", "--p", "2", "--eps", "0.4", "--modes", "16",
            "--trials", "2", "--seed", "7", "--out", str(out),
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
        write_report({"results": {"big": np.inf}, "residuals": {"low": -np.inf}}, out)
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
        assert capsys.readouterr().err.startswith(f"oil: cannot write {out}: ")

    def test_json_write_failure(self, symbol_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        assert main(["spectrum", "--symbol", symbol_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"oil: cannot write {out}: ") and captured.out == ""

    def test_defect_without_guard_valid_hardy_mode_is_usage_error(self, tmp_path, capsys):
        z, zbar, out = tmp_path / "z.json", tmp_path / "zbar.json", tmp_path / "r.json"
        z.write_text("[[1, 1, 0]]")
        zbar.write_text("[[-1, 1, 0]]")
        argv = ["defect", "--symbol-a", str(z), "--symbol-b", str(zbar), "--lo", "-100", "--hi", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "oil: window [-100,2] has 0 guard-valid Hardy modes, at most bw = 2: need hi >= 6\n"
        assert captured.out == "" and not out.exists()

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

    def test_overflowing_symbol_product_is_usage_error(self, tmp_path, capsys):
        sym = tmp_path / "huge.json"
        sym.write_text("[[1, 1e200, 0], [-1, 1e200, 0]]")
        out = tmp_path / "r.json"
        assert main(["defect", "--symbol-a", str(sym), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("oil: non-finite amplitude (inf+0j) at degree -2")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv, code, message", [
        # T_a T_b overflows next to the window's top edge, where its sum misses the
        # term that keeps ab's coefficients finite (test_strided_toeplitz has the numbers)
        (["defect", "--symbol-a", "{a}", "--symbol-b", "{b}", "--lo", "-20", "--hi", "20"], 1,
         "oil: internal check failed: overflow encountered in matmul"),
        (["defect", "--symbol-a", "{a}", "--symbol-b", "{a}", "--lo", "-20", "--hi", "20"], 2,
         "oil: non-finite amplitude"),
        # the spectra of M_a and T_a reach sum |a_k| = 3e308, beyond the float range,
        # so the SVD of their finite blocks overflows
        (["spectrum", "--symbol", "{big}", "--op", "mult", "--lo", "-20", "--hi", "20"], 1,
         "oil: internal check failed: overflow"),
        (["spectrum", "--symbol", "{big}", "--op", "toeplitz", "--lo", "-20", "--hi", "20"], 1,
         "oil: internal check failed: overflow"),
    ])
    def test_overflow_from_finite_symbols_never_passes(self, argv, code, message, tmp_path, capsys):
        files = {
            "a": "[[-2, 1e154, 0], [-1, 1e154, 0], [0, -0.8e154, 0]]",
            "b": "[[0, 1e154, 0], [1, -1e154, 0], [2, 0.8e154, 0]]",
            "big": "[[-1, 1e308, 0], [0, 1e308, 0], [1, 1e308, 0]]",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        argv = [arg.format(**{name: str(tmp_path / f"{name}.json") for name in files}) for arg in argv]
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning must not escape as a traceback
            assert main(argv + ["--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "PASS" not in captured.out and "Traceback" not in captured.err and not out.exists()

    def test_out_of_memory_is_reported_without_traceback(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the lambda sequence")

        monkeypatch.setattr(deformation, "lambda_sequence", exhausted)
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "oil: out of memory: cannot allocate the lambda sequence\n"
        assert captured.out == "" and not out.exists()

    def test_inverse_check_default_symbol(self):
        assert main(["inverse-check"]) == 0

    def test_deformation_check(self):
        assert main(["deformation-check", "--eps", "0.4", "--modes", "64"]) == 0

    def test_sum_demo(self):
        assert main(["sum-demo", "--size", "8", "--trials", "3"]) == 0

    def test_stinespring_check(self):
        assert main(["stinespring-check", "--maps", "2", "--pairs", "3"]) == 0


@pytest.mark.parametrize("kind, rule", [
    ("identity", lambda v, tol: v <= tol),
    ("numerical", lambda v, tol: v <= tol),
    ("exact", lambda v, tol: v == 0.0),
    ("lower_bound", lambda v, tol: v >= -tol),
])
def test_within_keeps_each_kinds_rule(kind, rule):
    tol = TOLERANCES[kind]
    grid = [0.0, -0.0, tol, -tol, np.nextafter(tol, np.inf), np.nextafter(-tol, -np.inf),
            np.nan, np.inf, -np.inf, 1.0]
    assert [bool(_within(v, kind)) for v in grid] == [rule(v, tol) for v in grid]


def _nudged(sym, by=None):
    """sym with the real part of its first amplitude moved up by `by`, or by one ulp."""
    (deg, amp), *rest = sym.coefficients
    up = np.nextafter(amp.real, np.inf) if by is None else amp.real + by
    return hardy.make_symbol([(deg, complex(up, amp.imag)), *rest])


# One library call per checked subcommand, called through its module by the
# handler, and a fault built from the real call that breaks one residual.
PLANTED_FAULTS = {
    "defect": (["defect", "--symbol-a", "SYMBOL"], hardy, "splitting_defect",
               lambda real: lambda a, b, w: tuple(
                   WindowedOperator(w, tuple((r, c, x + 1e-6) for r, c, x in op.blocks)) for op in real(a, b, w))),
    # M_ab off M_a M_b by 1e-9 at ab's first degree: only hankel_product compares the two
    "defect-product": (["defect", "--symbol-a", "SYMBOL"], hardy, "symbol_product",
                       lambda real: lambda a, b: _nudged(real(a, b), 1e-9)),
    # one ulp, far below the identity tolerance: only the exact adjoint_defect count can see it
    "defect-adjoint": (["defect", "--symbol-a", "SYMBOL"], hardy, "symbol_conjugate",
                       lambda real: lambda a: _nudged(real(a))),
    "stinespring-check": (["stinespring-check", "--maps", "1", "--pairs", "1"], stinespring,
                          "block_residuals",
                          lambda real: lambda cp, a, b, *blocks: tuple(r + 1e-6 for r in real(cp, a, b, *blocks))),
    "sum-demo": (["sum-demo", "--size", "4", "--trials", "1"], extensions, "extension_sum",
                 lambda real: lambda a, b: WindowedOperator(real(a, b).window, real(a, b).entries + 1e-6)),
    # B and B^T share a spectrum, so spectrum_merge passes: only the swap count sees it
    "sum-demo-transpose": (["sum-demo", "--size", "4", "--trials", "1"], extensions, "extension_sum",
                           lambda real: lambda a, b: real(a, WindowedOperator(b.window, b.entries.T))),
    # V2 = V1: the maps hit the even modes twice and the odd ones never
    "sum-demo-maps": (["sum-demo", "--size", "4", "--trials", "1"], extensions, "ODD", lambda real: extensions.EVEN),
    "inverse-check": (["inverse-check"], extensions, "inverse_identity_residuals",
                      lambda real: lambda a, w: tuple(r + 1.0 for r in real(a, w))),
    "deformation-check": (["deformation-check", "--eps", "0.4", "--modes", "9"], deformation,
                          "quadratic_identity_residual", lambda real: lambda eps, w: real(eps, w) + 1e-9),
    # M_ab off M_a M_b by 1e-9 at ab's first degree: only the defect expansion compares the two
    "deformation-check-product": (["deformation-check", "--eps", "0.4", "--modes", "9"], deformation,
                                  "symbol_product", lambda real: lambda a, b: _nudged(real(a, b), 1e-9)),
    # T off lambda by 1e-9 relative: only shift_coefficients compares Q with lambda
    "deformation-check-shift": (["deformation-check", "--eps", "0.4", "--modes", "9"], deformation,
                                "deformation_operator", lambda real: lambda lam, w: real(lam, w) * (1 + 1e-9)),
    "lemma-check": (["lemma-check", "--p", "2", "--eps", "0.4", "--modes", "4", "--trials", "1"], deformation,
                    "lemma_lower_bound_report",
                    lambda real: lambda params, trials: dataclasses.replace(
                        real(params, trials), min_gaps=np.minimum(real(params, trials).min_gaps, -1e-6))),
}
UNCHECKED = {"spectrum", "sweep"}  # no residual yet (ROADMAP items 3-4), so nothing can turn them FAIL


@pytest.mark.parametrize("argv, module, name, fault", PLANTED_FAULTS.values(), ids=list(PLANTED_FAULTS))
def test_planted_fault_turns_pass_into_fail(argv, module, name, fault, symbol_file, tmp_path, monkeypatch, capsys):
    argv = [symbol_file if a == "SYMBOL" else a for a in argv] + ["--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{argv[0]}: PASS\n"
    assert json.loads((tmp_path / "r.json").read_text())["pass"] is True
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert main(argv) == 1
    assert capsys.readouterr().out == f"{argv[0]}: FAIL\n"
    assert json.loads((tmp_path / "r.json").read_text())["pass"] is False


def test_every_checked_subcommand_has_a_planted_fault():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {f[0][0] for f in PLANTED_FAULTS.values()} == set(commands) - UNCHECKED


def _clean_and_faulted(fault_id, symbol_file, tmp_path, monkeypatch):
    """The reports of a PLANTED_FAULTS entry's argv before and after its fault is planted."""
    argv, module, name, fault = PLANTED_FAULTS[fault_id]
    out = tmp_path / "r.json"
    argv = [symbol_file if a == "SYMBOL" else a for a in argv] + ["--out", str(out)]
    assert main(argv) == 0
    clean = json.loads(out.read_text())
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert main(argv) == 1
    return clean, json.loads(out.read_text())


def test_conjugate_fault_fails_through_adjoint_defect_alone(symbol_file, tmp_path, monkeypatch):
    clean, faulted = _clean_and_faulted("defect-adjoint", symbol_file, tmp_path, monkeypatch)
    # the nudged degree -1 lies on one diagonal of the 41 x 41 Hardy quadrant: 40 entries
    assert faulted["residuals"].pop("adjoint_defect") == 40.0
    assert clean["residuals"].pop("adjoint_defect") == 0.0
    assert faulted["residuals"] == clean["residuals"] and faulted["results"] == clean["results"]


def test_product_fault_fails_through_defect_expansion_alone(symbol_file, tmp_path, monkeypatch):
    clean, faulted = _clean_and_faulted("deformation-check-product", symbol_file, tmp_path, monkeypatch)
    # for z and 1/z, M_ab - M_a M_b is 1e-9 on the diagonal; at 9 modes the guard band's one
    # Hardy mode is 0, where Q (M_ab - M_a M_b) Q^3 weighs it by q_0^4 = 2^4
    assert faulted["residuals"].pop("defect_expansion") == pytest.approx(1.6e-8, rel=1e-6)
    assert clean["residuals"].pop("defect_expansion") <= TOLERANCES["identity"]
    assert faulted.pop("pass") is False and clean.pop("pass") is True
    assert faulted == clean


def test_shift_fault_fails_through_shift_coefficients_alone(symbol_file, tmp_path, monkeypatch):
    clean, faulted = _clean_and_faulted("deformation-check-shift", symbol_file, tmp_path, monkeypatch)
    # q_k = 1 + lambda_k (1 + 1e-9) moves q_{k+1} q_k off 1 + lambda_{k+1} + lambda_k + lambda_k lambda_{k+1}
    # by about 1e-9 (lambda_{k+1} + lambda_k + 2 lambda_k lambda_{k+1}), up to 1.9e-9 at k = 0
    assert faulted["residuals"].pop("shift_coefficients") == pytest.approx(1.9e-9, rel=0.05)
    assert clean["residuals"].pop("shift_coefficients") <= TOLERANCES["identity"]
    # the expansion is an identity in any diagonal T, so it moves by rounding alone
    for report in (clean, faulted):
        assert report["residuals"].pop("defect_expansion") <= TOLERANCES["identity"]
    assert faulted.pop("pass") is False and clean.pop("pass") is True
    assert faulted == clean


def test_transposed_summand_fails_through_swap_conjugation_alone(symbol_file, tmp_path, monkeypatch):
    clean, faulted = _clean_and_faulted("sum-demo-transpose", symbol_file, tmp_path, monkeypatch)
    # A and B differ from their transposes at their 12 off-diagonal entries each
    assert faulted["residuals"].pop("swap_conjugation") == 24.0
    assert clean["residuals"].pop("swap_conjugation") == 0.0
    # B^T has B's spectrum, so the merge still passes; its SVD rounds differently
    assert faulted["residuals"].pop("spectrum_merge") <= TOLERANCES["numerical"]
    clean["residuals"].pop("spectrum_merge")
    assert faulted.pop("pass") is False and clean.pop("pass") is True
    assert faulted == clean


def test_colliding_maps_fail_through_isometry_relations(symbol_file, tmp_path, monkeypatch):
    clean, faulted = _clean_and_faulted("sum-demo-maps", symbol_file, tmp_path, monkeypatch)
    assert clean["residuals"]["isometry_relations"] == 0.0
    assert faulted["residuals"]["isometry_relations"] == 8.0  # the 2N = 8 modes, each hit twice or never


@pytest.mark.parametrize("argv", [
    ["spectrum", "--symbol", "SYMBOL"],
    ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "2", "--max-index", "1024"],
])
def test_unchecked_subcommands_report_no_residual(argv, symbol_file, tmp_path):
    out = tmp_path / "r.json"
    assert main([symbol_file if a == "SYMBOL" else a for a in argv] + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["residuals"] == {} and report["pass"] is True
