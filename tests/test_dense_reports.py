"""Whole reports of sum-demo, deformation-check and lemma-check against the dense reference model.

Each test runs `oil` through cli.main on at most 65 modes and re-derives
every residual and result of its report from reference.py's d x d matrices.
Counts and echoed parameters must be equal.  Every other value must agree
within TOLERANCES of its kind, relative to the value where that exceeds 1.
"""

import json

import numpy as np
import pytest

from oil import DeformationParams, Window, guard_slice, lambda_sequence, make_symbol
from oil.cli import main
from oil.hardy import TOLERANCES
from reference import Z, ZBAR, defect_expansion, deformed_q, interleaved_sum, interleavings, lemma
from reference import merged_spectrum, multiplication, random_matrix

FAMILIES = {"paper": "paper_formula", "power": "pure_power"}


def assert_report_agrees(argv, tmp_path, residuals: dict, results: dict, kinds: dict):
    """Run argv; its report must hold these residuals and results, equal or, by kinds[name], within TOLERANCES."""
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text())
    for got, want in ((report["residuals"], residuals), (report["results"], results)):
        assert set(got) == set(want)
        for name, value in want.items():
            if name not in kinds:
                assert got[name] == value, name
            else:
                err = np.abs(np.subtract(got[name], value))
                assert np.all(err <= TOLERANCES[kinds[name]] * np.maximum(1.0, np.abs(value))), name
    assert code == 0 and report["pass"] is True


def coefficients(lam: np.ndarray) -> np.ndarray:
    """1 + lambda_{k+1} + lambda_k + lambda_k lambda_{k+1}: (P+T) z (P+T)'s entry (k+1, k)."""
    return 1.0 + lam[1:] + lam[:-1] + lam[:-1] * lam[1:]


@pytest.mark.parametrize("size, trials, seed", [(4, 1, 42), (8, 3, 42), (32, 2, 7)])
def test_sum_demo(size, trials, seed, tmp_path):
    v1, v2, swap = interleavings(size)
    one = np.eye(size)
    relations = [
        (v1.conj().T @ v1, one), (v2.conj().T @ v2, one), (v1.conj().T @ v2, 0 * one),
        (v1 @ v1.conj().T + v2 @ v2.conj().T, np.eye(2 * size)),
    ]
    rng = np.random.default_rng(seed)  # the command's draws: A's real and imaginary parts, then B's
    merge, swaps = 0.0, 0
    for _ in range(trials):
        a, b = random_matrix(rng, size), random_matrix(rng, size)
        s_ab, s_ba = interleaved_sum(a, b), interleaved_sum(b, a)
        merge = max(merge, np.max(np.abs(np.linalg.svd(s_ab, compute_uv=False) - merged_spectrum(a, b))))
        swaps += np.count_nonzero(s_ba != swap @ s_ab @ swap.conj().T)
    residuals = {
        "isometry_relations": sum(np.count_nonzero(x != y) for x, y in relations),
        "spectrum_merge": merge,
        "swap_conjugation": swaps,
    }
    argv = ["sum-demo", "--size", str(size), "--trials", str(trials), "--seed", str(seed)]
    assert_report_agrees(argv, tmp_path, residuals, {"size": size, "trials": trials}, {"spectrum_merge": "numerical"})


@pytest.mark.parametrize("eps, modes, family", [(0.4, 9, "paper"), (0.7, 49, "power"), (1.5, 30, "paper")])
def test_deformation_check(eps, modes, family, tmp_path):
    hw = Window(0, modes - 1)
    lam = lambda_sequence(eps, FAMILIES[family], modes)
    deformed = deformed_q(lam, hw) @ multiplication(Z, hw) @ deformed_q(lam, hw)
    w, both = Window(-16, modes - 1), make_symbol([(1, 1.0), (-1, 1.0)])
    expansion = 0.0
    for a, b in ((Z, ZBAR), (both, both)):
        sl = guard_slice(w, 4, a.bandwidth + b.bandwidth)
        expansion = max(expansion, np.linalg.norm(defect_expansion(lam, a, b, w)[sl, sl], 2))
    residuals = {
        "shift_coefficients": np.max(np.abs(np.diag(deformed, -1) - coefficients(lam))),
        "defect_expansion": expansion,
    }
    if family == "paper":  # (T+P)^2 - P = -P (1 + K^2)^{-1} P with K z^k = k^eps z^k, for T = -lambda
        t, p = np.diag(-lam), np.eye(modes)  # P is the identity on hw
        quadratic = (t + p) @ (t + p) - p + p @ np.linalg.inv(p + np.diag(np.arange(modes) ** (2 * eps))) @ p
        residuals["quadratic_identity"] = np.max(np.abs(quadratic))
    results = {"eps": eps, "family": FAMILIES[family], "modes": modes}
    argv = ["deformation-check", "--eps", str(eps), "--modes", str(modes), "--family", family]
    assert_report_agrees(argv, tmp_path, residuals, results, dict.fromkeys(residuals, "identity"))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
@pytest.mark.parametrize(
    "modes, ambient, trials, family, seed", [(4, 6, 1, "paper", 42), (32, 37, 3, "power", 5), (63, 65, 2, "paper", 9)]
)
def test_lemma_check(modes, ambient, trials, family, seed, p, tmp_path):
    params = DeformationParams(eps=0.4, p=p, family=FAMILIES[family], N=modes, M=ambient, seed=seed)
    lam = lambda_sequence(0.4, FAMILIES[family], ambient)
    gaps, norms, s1 = [], [], 0.0
    for t in range(trials):
        conj, big_l = lemma(params, t)
        gaps.append(np.real(np.diag(big_l.conj().T @ big_l))[:modes] - lam[:modes] ** 2)
        s1 = max(s1, np.max(np.abs(np.real(np.diag(conj.conj().T @ conj))[:modes] - 1.0)))
        norms.append(np.sum(np.linalg.svd(big_l, compute_uv=False) ** p) ** (1 / p))
    w = Window(0, ambient - 1)
    deformed = deformed_q(lam, w) @ multiplication(Z, w) @ deformed_q(lam, w)
    s2 = np.real(np.diag(deformed.conj().T @ deformed))[:modes] - coefficients(lam)[:modes] ** 2
    min_gaps, rhs = np.min(gaps, axis=0), np.sum(lam[:modes] ** p) ** (1 / p)
    residuals = {
        "min_gap": np.min(min_gaps),
        "min_norm_margin": min(norms) - rhs,
        "s1_max_residual": s1,
        "s2_max_residual": np.max(np.abs(s2)),
    }
    results = {"trials": trials, "rhs_norm": rhs, "lhs_norm_min": min(norms), "min_gaps_head": min_gaps[:16]}
    kinds = dict.fromkeys(["s1_max_residual", "s2_max_residual", "rhs_norm", "lhs_norm_min", "min_gaps_head"], "numerical")
    kinds.update(min_gap="lower_bound", min_norm_margin="lower_bound")
    argv = ["lemma-check", "--p", str(p), "--eps", "0.4", "--modes", str(modes), "--ambient", str(ambient)]
    argv += ["--trials", str(trials), "--family", family, "--seed", str(seed)]
    assert_report_agrees(argv, tmp_path, residuals, results, kinds)
