"""Acceptance suite: one test per release criterion, each printed pass/fail.

Every tolerance is pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from oil import (
    DeformationParams,
    IdealSpec,
    Window,
    WindowedOperator,
    deformation_defect_residuals,
    deformation_operator,
    deformed_compression,
    defect_identity_residuals,
    dilation_build,
    epsilon_sweep,
    extension_sum,
    guard_slice,
    hardy_projection,
    interleaving_isometries,
    inverse_identity_residuals,
    lambda_sequence,
    lemma_lower_bound_report,
    make_symbol,
    multiplication_operator,
    quadratic_identity_residual,
    random_cp_contraction,
    splitting_defect,
    summability_classify,
)
from oil.cli import main
from oil.extensions import interleaving_swap

Z = make_symbol([(1, 1.0)])
ZBAR = make_symbol([(-1, 1.0)])


class Criterion:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({self.name}, {elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, f"runtime {elapsed:.2f}s over {self.limit_s}s budget"
        return False


def test_criterion_1_deformed_shift_coefficients():
    with Criterion(1, "deformed shift coefficients", 1.0):
        n = 256
        w = Window(0, n - 1)
        ks = np.arange(n - 1)
        for family in ("paper_formula", "pure_power"):
            for eps in (0.3, 0.6):
                lam = lambda_sequence(eps, family, n)
                t = deformation_operator(lam, w)
                comp = deformed_compression(t, Z, w).entries
                coeff = 1.0 + lam[ks + 1] + lam[ks] + lam[ks] * lam[ks + 1]
                assert np.max(np.abs(comp[ks + 1, ks] - coeff)) <= 1e-12


def test_criterion_2_lemma_lower_bound():
    with Criterion(2, "unitary-quantified lower bound", 60.0):
        params = DeformationParams(eps=0.4, p=2.0, family="paper_formula", N=128, M=130, seed=42)
        rep = lemma_lower_bound_report(params, trials=100)
        assert rep.min_gap >= -1e-9
        assert rep.min_norm_margin >= -1e-9
        assert rep.s1_max_residual <= 1e-10
        assert rep.s2_max_residual <= 1e-10


def test_criterion_3_quadratic_identity():
    with Criterion(3, "quadratic identity", 1.0):
        w = Window(0, 1023)
        for eps in (0.3, 0.6, 1.5):
            assert quadratic_identity_residual(eps, w) <= 1e-12


def test_criterion_4_defect_expansion():
    with Criterion(4, "four-term defect expansion", 5.0):
        w = Window(-16, 80)
        t = deformation_operator(lambda_sequence(0.4, "paper_formula", 81), Window(0, 80))
        pool = [Z, make_symbol([(1, 1.0), (-1, 1.0)]), make_symbol([(2, 1.0)])]
        for a in pool:
            for b in pool:
                assert deformation_defect_residuals(t, a, b, w) <= 1e-12


def test_criterion_5_stinespring_suite():
    with Criterion(5, "Stinespring residuals", 10.0):
        rng = np.random.default_rng(1234)
        for i in range(20):
            cp = random_cp_contraction(4, 4, 3, seed=1000 + i)
            d = dilation_build(cp)
            for _ in range(20):
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                sa = (a + a.conj().T) / 2
                assert np.linalg.norm(d.blocks(a)[0] - cp.apply(a), 2) <= 1e-10
                r1, r2 = defect_identity_residuals(d, sa, b)
                assert r1 <= 1e-10 and r2 <= 1e-10
                hom = d.rep(a @ b) - d.rep(a) @ d.rep(b)
                assert np.linalg.norm(hom, 2) <= 1e-10


def test_criterion_6_extension_sum():
    with Criterion(6, "isometries and extension sum", 10.0):
        n = 32
        pair = interleaving_isometries(n)
        assert np.array_equal(pair.V1.conj().T @ pair.V1, np.eye(n))
        assert np.array_equal(pair.V2.conj().T @ pair.V2, np.eye(n))
        assert np.array_equal(
            pair.V1 @ pair.V1.conj().T + pair.V2 @ pair.V2.conj().T, np.eye(2 * n)
        )
        w = Window(0, n - 1)
        swap = interleaving_swap(n)
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            s_ab = extension_sum(WindowedOperator(w, a), WindowedOperator(w, b)).entries
            s_ba = extension_sum(WindowedOperator(w, b), WindowedOperator(w, a)).entries
            merged = np.sort(
                np.concatenate(
                    [np.linalg.svd(a, compute_uv=False), np.linalg.svd(b, compute_uv=False)]
                )
            )[::-1]
            assert np.max(np.abs(np.linalg.svd(s_ab, compute_uv=False) - merged)) <= 1e-10
            assert np.linalg.norm(s_ba - swap @ s_ab @ swap.conj().T, 2) <= 1e-10


def test_criterion_7_inverse_identity():
    with Criterion(7, "doubled-window inverse identity", 1.0):
        w = Window(-12, 60)
        for a in (make_symbol([(0, 1.0)]), Z, make_symbol([(1, 1.0), (-1, 1.0)])):
            r_u, r_p, r_id = inverse_identity_residuals(a, w)
            assert r_u == 0.0
            assert r_p == 0.0
            assert r_id <= 1e-12


SYMBOL_PAIRS = [
    (Z, ZBAR),
    (Z, Z),
    (make_symbol([(1, 1.0), (-1, 1.0)]), make_symbol([(2, 1j), (-2, -1j)])),
    (make_symbol([(0, 1.0), (3, 0.5)]), make_symbol([(-3, 2.0)])),
    (make_symbol([(8, 1.0)]), make_symbol([(-8, 1.0)])),
    (make_symbol([(5, 1j), (-2, 0.25)]), make_symbol([(1, 1.0), (4, -0.5j)])),
    (make_symbol([(-1, 1.0), (-4, 0.125)]), make_symbol([(2, 1.0), (-6, 1j)])),
    (make_symbol([(7, 0.5), (-7, 0.5)]), make_symbol([(1, 2.0)])),
    (make_symbol([(6, 1.0), (2, -1.0), (-3, 1j)]), make_symbol([(-2, 1.0), (0, 3.0)])),
    (make_symbol([(4, 0.1j), (-5, 2.0)]), make_symbol([(3, 1.0), (-3, 1.0)])),
]


def test_criterion_8_toeplitz_defect_hankel_product():
    with Criterion(8, "Toeplitz defect = Hankel product", 5.0):
        w = Window(-40, 40)
        one = np.eye(w.dimension)
        p = hardy_projection(w).entries
        for a, b in SYMBOL_PAIRS:
            assert a.bandwidth <= 8 and b.bandwidth <= 8
            product, adjoint = splitting_defect(a, b, w)
            ma = multiplication_operator(a, w).entries
            mb = multiplication_operator(b, w).entries
            oracle = p @ ma @ (one - p) @ mb @ p
            sl = guard_slice(w, 2, a.bandwidth + b.bandwidth)
            assert np.max(np.abs((product.entries - oracle)[sl, sl])) <= 1e-12
            assert np.max(np.abs(adjoint.entries[sl, sl])) <= 1e-12


def test_criterion_9_square_root_ideal():
    with Criterion(9, "square-root ideal relations", 10.0):
        rng = np.random.default_rng(99)
        for _ in range(20):
            x = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            mu = np.linalg.svd(x, compute_uv=False)
            mu_gram = np.linalg.svd(x.conj().T @ x, compute_uv=False)
            assert np.max(np.abs(mu_gram - mu**2)) <= 1e-10

        # kappa(a^2) - kappa(a)^2 at p versus [P, pi(a)] at 2p on matched windows
        cp = random_cp_contraction(32, 32, 2, seed=500)
        d = dilation_build(cp)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        sa = (a + a.conj().T) / 2
        defect = cp.apply(sa @ sa) - cp.apply(sa) @ cp.apply(sa)
        p_mat = np.diag(np.arange(d.ambient_dim) < 32).astype(complex)  # P onto the first m = 32 coordinates
        pia = d.rep(sa)
        comm = p_mat @ pia - pia @ p_mat
        mu_defect = np.linalg.svd(defect, compute_uv=False)
        mu_comm = np.linalg.svd(comm, compute_uv=False)
        # commutator spectrum is the defect spectrum's square roots, doubled
        np.testing.assert_allclose(
            np.sort(mu_comm**2)[::-1][:64:2], np.sort(mu_defect)[::-1], atol=1e-10
        )
        for p in (1.0, 2.0):
            v_defect = summability_classify(mu_defect, IdealSpec.schatten(p), 32)
            v_comm = summability_classify(mu_comm, IdealSpec.schatten(2.0 * p), 64)
            assert v_defect.verdict == v_comm.verdict


def test_criterion_10_epsilon_sweep():
    with Criterion(10, "epsilon sweep at sequence level", 30.0):
        n_max = 2**16
        power = epsilon_sweep(2.0, [0.3, 0.8], "pure_power", n_max)
        low, high = power.points
        assert low.verdict_p.verdict == "divergent"
        assert abs(low.doubling_ratio_p - 2.0**0.4) <= 0.1 * 2.0**0.4
        assert high.verdict_p.verdict == "summable"

        paper = epsilon_sweep(2.0, [0.3, 0.5, 0.8], "paper_formula", n_max)
        for pt in paper.points:
            assert abs(pt.measured_exponent - 2 * pt.eps) <= 0.05 * 2 * pt.eps
        assert paper.exponent_note  # discrepancy with the nominal rate is recorded


def test_criterion_11_determinism(tmp_path):
    with Criterion(11, "byte-identical reports", 30.0):
        cases = [
            ["lemma-check", "--p", "2", "--eps", "0.4", "--modes", "24", "--trials", "5"],
            ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "3",
             "--family", "power", "--max-index", "2048"],
            ["stinespring-check", "--maps", "2", "--pairs", "2"],
        ]
        for i, args in enumerate(cases):
            out1 = tmp_path / f"r{i}a.json"
            out2 = tmp_path / f"r{i}b.json"
            assert main(args + ["--seed", "42", "--out", str(out1)]) == 0
            assert main(args + ["--seed", "42", "--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()
            json.loads(out1.read_text())  # reports stay valid JSON
