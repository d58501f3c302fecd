"""Tests for the deformation family, its identities, and the lower-bound experiment."""

import numpy as np
import pytest

from oil import (
    DeformationParams,
    GuardBandError,
    Window,
    deformation_defect_residuals,
    deformation_operator,
    deformed_compression,
    epsilon_sweep,
    haar_unitary,
    lambda_sequence,
    lemma_lower_bound_report,
    make_symbol,
    quadratic_identity_residual,
    toeplitz_compress,
)
from oil import deformation, spectral
from oil.spectral import SingularSpectrum, fit_exponent, schatten_norm

Z = make_symbol([(1, 1.0)])


class TestLambdaSequence:
    @pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
    def test_bad_order(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            lambda_sequence(eps, "pure_power", 4)

    def test_lambda_zero_is_one(self):
        for eps in (0.3, 0.7, 1.5):
            assert lambda_sequence(eps, "paper_formula", 4)[0] == 1.0

    def test_lambda_one_value(self):
        for eps in (0.3, 0.7, 1.5):
            lam1 = lambda_sequence(eps, "paper_formula", 4)[1]
            assert lam1 == pytest.approx(1.0 - 2.0**-0.5, abs=1e-15)

    def test_asymptotic_half(self):
        # Taylor oracle: lambda_k * k^{2 eps} = 1/2 - (3/8) k^{-2 eps} + O(k^{-4 eps})
        for eps in (0.3, 0.6, 0.9):
            lam = lambda_sequence(eps, "paper_formula", 10**4 + 1)
            k = 10**4
            u = k ** (-2.0 * eps)
            assert lam[k] * k ** (2 * eps) == pytest.approx(0.5 - 0.375 * u, rel=1e-4)

    def test_scaled_sequence_rises_to_half(self):
        # lambda_k k^{2 eps} = g(u)/u with g(u) = 1 - (1+u)^{-1/2} concave, so it
        # climbs to 1/2 from below as u = k^{-2 eps} falls; eps = 1 is the chopping bound
        for eps in (0.3, 0.6, 1.0):
            lam = lambda_sequence(eps, "paper_formula", 1001)
            gaps = [0.5 - lam[k] * k ** (2 * eps) for k in (10, 100, 1000)]
            assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_monotone_in_unit_interval(self):
        for family in ("paper_formula", "pure_power"):
            lam = lambda_sequence(0.4, family, 1000)
            assert np.all(np.diff(lam) <= 0)
            assert np.all(lam > 0) and np.all(lam <= 1)

    def test_pure_power(self):
        lam = lambda_sequence(0.5, "pure_power", 5)
        np.testing.assert_allclose(lam, (1.0 + np.arange(5)) ** -0.5)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            lambda_sequence(0.0, "paper_formula", 4)


class TestDeformationOperators:
    def test_zero_sequence(self):
        t = deformation_operator(np.zeros(8), Window(0, 7))
        assert t.shape == (8,) and np.all(t == 0)
        assert not t.flags.writeable

    def test_diagonal_schatten_norm(self):
        lam = lambda_sequence(0.5, "paper_formula", 16)
        t = deformation_operator(lam, Window(0, 15))
        mu = np.linalg.svd(np.diag(t), compute_uv=False)
        assert np.sum(mu**3) == pytest.approx(np.sum(lam**3), abs=1e-12)

    def test_self_adjoint(self):
        # a diagonal operator is self-adjoint exactly when its diagonal is real
        t = deformation_operator(lambda_sequence(0.5, "paper_formula", 8), Window(0, 7))
        assert t.dtype == np.float64

    def test_length_shortfall(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            deformation_operator(np.ones(4), Window(0, 7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalue(self, bad):
        lam = lambda_sequence(0.4, "paper_formula", 8)
        lam[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            deformation_operator(lam, Window(0, 7))

    def test_needs_hardy_window(self):
        with pytest.raises(ValueError, match="Hardy"):
            deformation_operator(np.ones(16), Window(-2, 5))

    def test_signed_is_negative_lambda(self):
        w = Window(0, 31)
        lam = lambda_sequence(0.4, "paper_formula", 32)
        t = deformation_operator(-lam, w)
        np.testing.assert_allclose(t, -lam, atol=1e-15)
        assert t[0] == -1.0
        assert t.dtype == np.float64


class TestQuadraticIdentity:
    @pytest.mark.parametrize("eps", [0.3, 0.6, 1.5, 4.0])
    def test_residual(self, eps):
        assert quadratic_identity_residual(eps, Window(0, 255)) <= 1e-12

    def test_large_eps_entries_vanish(self):
        w = Window(0, 15)
        t = deformation_operator(-lambda_sequence(25.0, "paper_formula", 16), w)
        prod = t * t + 2 * t  # the diagonal of T^2 + 2T
        assert abs(prod[0] + 1.0) < 1e-15
        assert np.max(np.abs(prod[2:])) < 1e-12

    def test_mode_zero_entry(self):
        for eps in (0.3, 1.0, 2.0):
            t = deformation_operator(-lambda_sequence(eps, "paper_formula", 8), Window(0, 7))
            assert (t * t + 2 * t)[0] == pytest.approx(-1.0, abs=1e-15)


class TestDeformedCompression:
    def test_zero_deformation_is_toeplitz(self):
        w = Window(-8, 24)
        t = deformation_operator(np.zeros(25), Window(0, 24))
        a = make_symbol([(1, 1.0), (-1, 1.0)])
        np.testing.assert_array_equal(
            deformed_compression(t, a, w).entries, toeplitz_compress(a, w).entries
        )

    @pytest.mark.parametrize("family", ["paper_formula", "pure_power"])
    def test_shift_coefficients(self, family):
        # interior matrix entries are 1 + lambda_{k+1} + lambda_k + lambda_k lambda_{k+1}
        n = 64
        w = Window(0, n - 1)
        lam = lambda_sequence(0.4, family, n)
        t = deformation_operator(lam, w)
        comp = deformed_compression(t, Z, w).entries
        ks = np.arange(n - 1)
        coeff = 1.0 + lam[ks + 1] + lam[ks] + lam[ks] * lam[ks + 1]
        np.testing.assert_allclose(comp[ks + 1, ks].real, coeff, atol=1e-12)

    def test_boundary_mode_truncated(self):
        n = 16
        w = Window(0, n - 1)
        t = deformation_operator(lambda_sequence(0.4, "paper_formula", n), w)
        comp = deformed_compression(t, Z, w).entries
        # the image of the top mode falls outside the window
        assert np.all(comp[:, n - 1] == 0)


class TestDefectExpansion:
    def test_residual_tiny(self):
        w = Window(-16, 80)
        t = deformation_operator(lambda_sequence(0.4, "paper_formula", 81), Window(0, 80))
        zbar = make_symbol([(-1, 1.0)])
        both = make_symbol([(1, 1.0), (-1, 1.0)])
        for a in (Z, both):
            for b in (zbar, both):
                assert deformation_defect_residuals(t, a, b, w) <= 1e-12

    def test_zero_deformation_analytic_defect_vanishes(self):
        # T = 0 and analytic symbols: the deformed defect reduces to the
        # Toeplitz defect, which vanishes on guard-valid entries
        from oil import symbol_product
        from oil.hardy import guard_slice

        w = Window(-16, 40)
        t = deformation_operator(np.zeros(41), Window(0, 40))
        zz = make_symbol([(2, 1.0)])
        lhs = (
            deformed_compression(t, symbol_product(Z, zz), w).entries
            - deformed_compression(t, Z, w).entries @ deformed_compression(t, zz, w).entries
        )
        sl = guard_slice(w, 4, 3)
        assert np.max(np.abs(lhs[sl, sl])) <= 1e-12
        assert deformation_defect_residuals(t, Z, zz, w) <= 1e-12

    def test_guard_violation(self):
        w = Window(-4, 8)
        t = deformation_operator(np.zeros(9), Window(0, 8))
        with pytest.raises(GuardBandError):
            deformation_defect_residuals(t, make_symbol([(2, 1.0)]), Z, w)


class TestHaarUnitary:
    def test_scalar_unimodular(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_orthonormal_columns(self):
        u = haar_unitary(24, 7)
        assert np.linalg.norm(u.conj().T @ u - np.eye(24), 2) <= 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_unitary(8, 3), haar_unitary(8, 3))


class TestLemmaLowerBound:
    def test_trivial_case_zero(self, monkeypatch):
        # T = 0 and U = 1 mean L = U^* a U - (P+T) a (P+T) = a - a = 0: the report's U L must be
        # exactly zero, so its gaps, norms and residuals are all 0.0
        monkeypatch.setattr(deformation, "lambda_sequence", lambda eps, family, count: np.zeros(count))
        monkeypatch.setattr(deformation, "haar_unitary", lambda n, seed: np.eye(n, dtype=complex))
        for n, m in [(1, 3), (8, 10), (8, 13)]:
            params = DeformationParams(eps=0.4, p=2.0, family="paper_formula", N=n, M=m)
            rep = lemma_lower_bound_report(params, trials=2)
            assert np.array_equal(rep.min_gaps, np.zeros(n))
            assert rep.lhs_norms == (0.0, 0.0) and rep.rhs_norm == 0.0 and rep.min_norm_margin == 0.0
            assert rep.s1_max_residual == 0.0 and rep.s2_max_residual == 0.0

    def test_identity_unitary_per_mode_bound(self):
        # with U = 1 the per-mode bound (c_k)^2 - lambda_k^2 >= 0 is tight
        params = DeformationParams(eps=0.4, p=2.0, family="paper_formula", N=32, M=34, seed=0)
        lam = lambda_sequence(0.4, "paper_formula", 34)
        shift = np.eye(34, k=-1).astype(complex)
        q = np.diag(1.0 + lam)
        big_l = shift - q @ shift @ q
        gaps = np.real(np.diag(big_l.conj().T @ big_l))[:32] - lam[:32] ** 2
        c = lam[1:33] + lam[:32] + lam[:32] * lam[1:33]
        assert np.all(gaps >= c**2 - lam[:32] ** 2 - 1e-12)
        assert np.all(gaps >= -1e-12)

    def test_report_over_seeded_unitaries(self):
        params = DeformationParams(eps=0.4, p=2.0, family="paper_formula", N=32, M=34, seed=42)
        rep = lemma_lower_bound_report(params, trials=20)
        assert rep.min_gap >= -1e-9
        assert rep.min_norm_margin >= -1e-9
        assert rep.s1_max_residual <= 1e-10
        assert rep.s2_max_residual <= 1e-10
        assert len(rep.min_gaps) == 32
        assert rep.trials == len(rep.lhs_norms) == 20

    @pytest.mark.parametrize("family", ["paper_formula", "pure_power"])
    @pytest.mark.parametrize("eps, n", [(0.05, 8), (0.4, 32), (1.3, 129)])
    def test_s2_matches_dense_gram_diagonal(self, family, eps, n):
        # the dense reference: diag(deformed^* deformed) with deformed = (P+T) a (P+T), a(z) = z
        lam = lambda_sequence(eps, family, n + 2)
        q = np.diag(1.0 + lam).astype(complex)
        deformed = q @ np.eye(n + 2, k=-1) @ q
        s2 = np.real(np.diag(deformed.conj().T @ deformed)[:n])
        assert np.array_equal(s2, np.real(np.diag(deformed, -1)[:n]) ** 2)
        coeff = 1.0 + lam[1 : n + 1] + lam[:n] + lam[:n] * lam[1 : n + 1]
        params = DeformationParams(eps=eps, p=2.0, family=family, N=n, M=n + 2)
        rep = lemma_lower_bound_report(params, trials=1)
        assert rep.s2_max_residual == float(np.max(np.abs(s2 - coeff**2)))

    @pytest.mark.parametrize("family", ["paper_formula", "pure_power"])
    @pytest.mark.parametrize("n", [16, 128])
    def test_column_norms_match_dense_gram_diagonals(self, family, n):
        # the dense reference: diag(L^* L) and diag(conj^* conj) with conj = U^* a U, a(z) = z
        params = DeformationParams(eps=0.4, p=2.0, family=family, N=n, M=n + 2, seed=5)
        m, trials = n + 2, 3
        lam = lambda_sequence(0.4, family, m)
        q = np.diag(1.0 + lam).astype(complex)
        shift = np.eye(m, k=-1).astype(complex)
        min_gaps, s1_res = np.full(n, np.inf), 0.0
        for t in range(trials):
            u = np.eye(m, dtype=complex)
            u[:n, :n] = haar_unitary(n, params.seed ^ t)
            conj = u.conj().T @ shift @ u
            big_l = conj - q @ shift @ q
            gaps = np.real(np.diag(big_l.conj().T @ big_l))[:n] - lam[:n] ** 2
            min_gaps = np.minimum(min_gaps, gaps)
            s1 = np.real(np.diag(conj.conj().T @ conj))[:n]
            s1_res = max(s1_res, float(np.max(np.abs(s1 - 1.0))))
        rep = lemma_lower_bound_report(params, trials)
        np.testing.assert_allclose(rep.min_gaps, min_gaps, rtol=1e-13, atol=1e-13)
        assert abs(rep.s1_max_residual - s1_res) <= 1e-13

    @pytest.mark.parametrize("family", ["paper_formula", "pure_power"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("extra", [2, 5])
    @pytest.mark.parametrize("n", [1, 2, 8, 128])
    def test_report_matches_the_dense_formula(self, n, extra, p, family):
        # the dense reference: L = U^* a U - (P+T) a (P+T) by m x m products, a(z) = z
        params = DeformationParams(eps=0.4, p=p, family=family, N=n, M=n + extra, seed=9)
        m, trials = n + extra, 2
        lam = lambda_sequence(0.4, family, m)
        q = np.diag(1.0 + lam).astype(complex)
        shift = np.eye(m, k=-1).astype(complex)
        min_gaps, lhs_norms, s1_res = np.full(n, np.inf), [], 0.0
        for t in range(trials):
            u = np.eye(m, dtype=complex)
            u[:n, :n] = haar_unitary(n, params.seed ^ t)
            conj = u.conj().T @ shift @ u
            big_l = conj - q @ shift @ q
            min_gaps = np.minimum(min_gaps, np.sum(np.abs(big_l[:, :n]) ** 2, axis=0) - lam[:n] ** 2)
            s1_res = max(s1_res, float(np.max(np.abs(np.sum(np.abs(conj[:, :n]) ** 2, axis=0) - 1.0))))
            mu = np.linalg.svd(big_l, compute_uv=False)
            lhs_norms.append(schatten_norm(SingularSpectrum(mu), p))
        rep = lemma_lower_bound_report(params, trials)

        def close(got, want):  # relative above 1, absolute below: s1 and the gaps can be rounding-sized
            return np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.maximum(1.0, np.abs(want)))

        assert close(rep.min_gaps, min_gaps)
        assert close(rep.lhs_norms, lhs_norms)
        assert close(rep.s1_max_residual, s1_res)
        assert rep.trials == trials and len(rep.min_gaps) == n

    @pytest.mark.parametrize("eps, p", [
        (np.nan, 2.0), (np.inf, 2.0), (0.0, 2.0), (0.4, np.nan), (0.4, np.inf), (0.4, 0.5),
    ])
    def test_params_reject_bad_numbers(self, eps, p):
        with pytest.raises(ValueError):
            DeformationParams(eps=eps, p=p)

    def test_ambient_too_small(self):
        with pytest.raises(ValueError, match="N \\+ 2"):
            DeformationParams(eps=0.4, p=2.0, N=16, M=17)


class TestEpsilonSweep:
    def test_pure_power_verdicts(self):
        rep = epsilon_sweep(2.0, [0.3, 0.8], "pure_power", 2**16)
        low, high = rep.points
        assert low.verdict_p.verdict == "divergent"
        assert high.verdict_p.verdict == "summable"
        # pure_power realizes the nominal rate eps
        assert low.measured_exponent == pytest.approx(0.3, rel=0.02)

    def test_paper_formula_exponent_doubles(self):
        rep = epsilon_sweep(2.0, [0.3, 0.5, 0.8], "paper_formula", 2**16)
        for pt in rep.points:
            assert pt.measured_exponent == pytest.approx(2 * pt.eps, rel=0.05)
        assert "2*eps" in rep.exponent_note

    def test_pair_separation_marked(self):
        rep = epsilon_sweep(2.0, [0.3, 0.8], "pure_power", 2**16)
        assert len(rep.pair_separations) == 1
        sep = rep.pair_separations[0]
        assert sep["eps"] == 0.3 and sep["eps_shifted"] == 0.8
        assert sep["distinct_classes"] is True

    @pytest.mark.parametrize("family", ["pure_power", "paper_formula"])
    @pytest.mark.parametrize("n_max", [32, 2**12])
    def test_one_fit_per_point(self, family, n_max, monkeypatch):
        fits = []

        def counted_fit(values, k_lo, k_hi):
            fits.append((values, k_lo, k_hi))
            return fit_exponent(values, k_lo, k_hi)

        def no_fit(*args):
            raise AssertionError("a summability verdict reads no decay fit")

        monkeypatch.setattr(deformation, "fit_exponent", counted_fit)
        monkeypatch.setattr(spectral, "fit_exponent", no_fit)
        rep = epsilon_sweep(2.0, [0.3, 0.5, 0.8], family, n_max)
        assert len(fits) == len(rep.points)
        for pt, (values, k_lo, k_hi) in zip(rep.points, fits):
            lam = lambda_sequence(pt.eps, family, n_max)
            np.testing.assert_array_equal(values, lam)
            assert (k_lo, k_hi) == (n_max // 4, n_max // 2)
            assert pt.measured_exponent == fit_exponent(lam, n_max // 4, n_max // 2)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
    def test_bad_exponent(self, p):
        with pytest.raises(ValueError, match="positive and finite"):
            epsilon_sweep(p, [0.3, 0.5], "pure_power", 2**10)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            epsilon_sweep(2.0, [0.5, 0.4], "pure_power", 2**10)
        with pytest.raises(ValueError, match="0, 2/p"):
            epsilon_sweep(2.0, [0.5, 1.5], "pure_power", 2**10)
