"""Tests for singular-value analytics and summability classification."""

import dataclasses
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oil import (
    IdealSpec,
    SingularSpectrum,
    Window,
    WindowedOperator,
    decay_exponent,
    dixmier_estimate,
    make_symbol,
    multiplication_operator,
    schatten_norm,
    singular_values,
    summability_classify,
    tail_doubling_ratio,
)
from oil.deformation import haar_unitary, lambda_sequence
from oil import spectral
from oil.spectral import SummabilityVerdict, export_spectrum_csv


def spectrum(values):
    return SingularSpectrum(np.asarray(values, dtype=float))


class TestSingularValues:
    def test_identity(self):
        s = singular_values(np.eye(5))
        np.testing.assert_allclose(s.values, np.ones(5))

    def test_diagonal_sorted(self):
        s = singular_values(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(s.values, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([0.0, 3.0, 4.0])
        s = singular_values(np.outer(u, v))
        np.testing.assert_allclose(s.values, [15.0, 0.0, 0.0], atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        u = haar_unitary(20, 11)
        v = haar_unitary(20, 12)
        np.testing.assert_allclose(
            singular_values(u @ a @ v).values, singular_values(a).values, atol=1e-10
        )

    def test_accepts_windowed_operator(self):
        op = WindowedOperator(Window(0, 2), np.diag([2.0, 1.0, 0.5]), label="diag")
        s = singular_values(op)
        assert s.source_label == "diag"
        np.testing.assert_allclose(s.values, [2.0, 1.0, 0.5])


class TestSchattenNorm:
    def test_frobenius_agreement(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        s = singular_values(a)
        assert abs(schatten_norm(s, 2.0) - np.linalg.norm(a, "fro")) < 1e-10

    def test_zero_spectrum(self):
        assert schatten_norm(spectrum([0.0, 0.0]), 1.0) == 0.0

    def test_two_ones(self):
        s = spectrum([1.0, 1.0])
        assert schatten_norm(s, 1.0) == pytest.approx(2.0)
        assert schatten_norm(s, 2.0) == pytest.approx(np.sqrt(2.0))

    def test_bad_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            schatten_norm(spectrum([1.0]), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_finite_past_the_range_of_powers(self, scale):
        # mu^2 overflows at 1e200 and underflows to zero at 1e-200; the norm does neither
        w = Window(-40, 40)
        base = multiplication_operator(make_symbol([(1, 1.0), (-1, 1.0)]), w)
        scaled = multiplication_operator(make_symbol([(1, scale), (-1, scale)]), w)
        expected = scale * schatten_norm(singular_values(base), 2.0)
        got = schatten_norm(singular_values(scaled), 2.0)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    @staticmethod
    def exact_norm(mu, p):
        """(sum mu_k^p)^(1/p) in 50-digit decimal arithmetic; Decimal(float) is exact."""
        with localcontext() as ctx:
            ctx.prec = 50
            total = sum(Decimal(float(x)) ** Decimal(p) for x in mu)
            return total ** (1 / Decimal(p)) if total else Decimal(0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7, 8.0])
    @pytest.mark.parametrize("scale", [1e-200, 1e-20, 1e20, 1e200])
    def test_matches_high_precision_sum(self, scale, p):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mu = np.sort(scale * rng.exponential(size=rng.integers(1, 40)))[::-1]
            exact = self.exact_norm(mu, p)
            got = schatten_norm(spectrum(mu), p)
            assert abs(Decimal(got) - exact) <= Decimal(2e-15) * exact

    @pytest.mark.filterwarnings("error")
    def test_subnormal_powers(self):
        # 1e-160 ** 2 lies in the subnormals, where a direct sum of squares loses digits
        mu = [3e-160, 1e-160]
        got = schatten_norm(spectrum(mu), 2.0)
        exact = self.exact_norm(mu, 2.0)
        assert abs(Decimal(got) - exact) <= Decimal(2e-15) * exact

    @pytest.mark.filterwarnings("error")
    def test_tiny_unsorted_spectrum_accepted_by_the_order_tolerance(self):
        # the order check's absolute tolerance admits [1e-300, 1e-13]; scaling by
        # mu_0 would overflow (1e-13 / 1e-300)^p, scaling by the maximum does not
        mu = [1e-300, 1e-13]
        got = schatten_norm(spectrum(mu), 2.0)
        exact = self.exact_norm(mu, 2.0)
        assert abs(Decimal(got) - exact) <= Decimal(2e-15) * exact

    def test_empty_spectrum(self):
        assert schatten_norm(spectrum([]), 2.0) == 0.0

    def test_squared_frobenius_identity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        s = singular_values(a)
        assert abs(schatten_norm(s, 2.0) ** 2 - np.sum(np.abs(a) ** 2)) < 1e-10

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_p(self, vals):
        s = spectrum(sorted(vals, reverse=True))
        norms = [schatten_norm(s, p) for p in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(a >= b - 1e-9 * abs(a) for a, b in zip(norms, norms[1:]))

    def test_square_root_spectrum_relation(self):
        # x in sqrt(schatten(p)) iff x*x in schatten(p): mu(x*x) = mu(x)^2
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        mu = singular_values(x).values
        mu_gram = singular_values(x.conj().T @ x).values
        np.testing.assert_allclose(mu_gram, mu**2, atol=1e-10)


class TestDecayExponent:
    def test_exact_power_law(self):
        v = np.ones(200)
        v[1:] = np.arange(1.0, 200.0) ** -2.0
        assert decay_exponent(spectrum(v), 10, 190) == pytest.approx(2.0, abs=1e-6)

    def test_deformation_sequence_rate(self):
        # Taylor oracle: 1 - x (1+x^2)^{-1/2} = x^{-2}/2 + O(x^{-4}) gives
        # lambda_{k,eps} ~ k^{-2 eps}/2, so the fitted rate for eps=0.4 is ~0.8.
        lam = lambda_sequence(0.4, "paper_formula", 2**12 + 1)
        alpha = decay_exponent(SingularSpectrum(lam), 2**10, 2**12)
        assert alpha == pytest.approx(0.8, rel=0.05)

    def test_constant_spectrum(self):
        assert decay_exponent(spectrum(np.ones(50)), 2, 40) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="8 samples"):
            decay_exponent(spectrum(np.ones(50)), 10, 14)

    def test_zero_in_range(self):
        v = np.zeros(60)
        v[0] = 1.0
        with pytest.raises(ValueError, match="log-log"):
            decay_exponent(spectrum(v), 1, 50)


class TestTailDoubling:
    def test_harmonic(self):
        # integral-comparison oracle: S_N ~ ln N, so the ratio creeps to 1
        v = 1.0 / np.arange(1.0, 2**15 + 1)
        ratio = tail_doubling_ratio(v, 1.0, 2**14)
        assert 1.0 < ratio < 1.1
        assert ratio == pytest.approx(1.0 + np.log(2) / np.log(2**14), rel=0.01)

    def test_subcritical_power(self):
        # pb < 1: ratio -> 2^{1 - pb}
        v = np.arange(1.0, 2**16 + 1) ** -0.3
        assert tail_doubling_ratio(v, 2.0, 2**15) == pytest.approx(2 ** (1 - 0.6), rel=0.01)

    def test_geometric(self):
        v = 2.0 ** -np.arange(64.0)
        assert tail_doubling_ratio(v, 1.0, 32) == pytest.approx(1.0, abs=1e-9)

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            tail_doubling_ratio(np.zeros(16), 1.0, 4)

    def test_length_check(self):
        with pytest.raises(ValueError, match="2N"):
            tail_doubling_ratio(np.ones(10), 1.0, 6)


class TestDixmier:
    def test_harmonic_estimate(self):
        v = 1.0 / np.arange(1.0, 2**16 + 1)
        est = dixmier_estimate(spectrum(v), 2**16)
        assert est == pytest.approx(1.0, rel=0.06)

    def test_trace_class_vanishes(self):
        v = np.ones(2**16)
        v[1:] = np.arange(1.0, 2**16) ** -2.0
        small = dixmier_estimate(spectrum(v), 2**16)
        large = dixmier_estimate(spectrum(v), 2**8)
        assert small < large  # decays toward 0 as N grows
        assert small < 0.25

    def test_zero_spectrum(self):
        assert dixmier_estimate(spectrum(np.zeros(16)), 16) == 0.0


class TestIdealSpec:
    def test_schatten_positive(self):
        with pytest.raises(ValueError):
            IdealSpec.schatten(-1.0)

    def test_square_root_doubles_exponent(self):
        spec = IdealSpec.square_root_of(IdealSpec.schatten(1.5))
        assert spec.effective_exponent == 3.0

    def test_dixmier_has_no_exponent(self):
        with pytest.raises(ValueError):
            IdealSpec.dixmier(1).effective_exponent


class TestClassify:
    def test_paper_sequence_summable(self):
        # lambda_{k,0.8} ~ k^{-1.6}/2: squares are 3.2-summable, easily 2-summable
        lam = lambda_sequence(0.8, "paper_formula", 2**16)
        v = summability_classify(lam, IdealSpec.schatten(2.0), 2**16)
        assert v.verdict == "summable"

    def test_subcritical_power_divergent(self):
        vals = np.arange(1.0, 2**16 + 1) ** -0.3
        v = summability_classify(vals, IdealSpec.schatten(2.0), 2**16)
        assert v.verdict == "divergent"

    def test_finite_support_summable(self):
        vals = np.zeros(2**10)
        vals[:5] = [5.0, 4.0, 3.0, 2.0, 1.0]
        v = summability_classify(vals, IdealSpec.schatten(1.0), 2**10)
        assert v.verdict == "summable"

    def test_verdict_rederivable_from_evidence(self):
        vals = np.arange(1.0, 2**14 + 1) ** -0.4
        v = summability_classify(vals, IdealSpec.schatten(1.0), 2**14)
        s1, s2, s3 = v.evidence["partial_sums"]
        dd = v.evidence["delta_div"]
        ds = v.evidence["delta_sum"]
        if v.verdict == "divergent":
            assert s2 / s1 >= 1 + dd and s3 / s2 >= 1 + dd
        elif v.verdict == "summable":
            assert s3 - s2 <= ds * s2

    def test_dixmier_classification(self):
        harmonic = 1.0 / np.arange(1.0, 2**16 + 1)
        assert summability_classify(harmonic, IdealSpec.dixmier(1), 2**16).verdict == "summable"
        heavy = np.arange(1.0, 2**16 + 1) ** -0.5
        assert summability_classify(heavy, IdealSpec.dixmier(1), 2**16).verdict == "divergent"

    def test_square_root_spec_unwraps(self):
        # k^{-1}: divergent at p=1, summable at the square root (exponent 2)
        vals = 1.0 / np.arange(1.0, 2**16 + 1)
        base = summability_classify(vals, IdealSpec.schatten(1.0), 2**16)
        root = summability_classify(vals, IdealSpec.square_root_of(IdealSpec.schatten(1.0)), 2**16)
        assert base.verdict == "divergent"
        assert root.verdict == "summable"

    @pytest.mark.parametrize("spec", [
        IdealSpec.schatten(1.0),
        IdealSpec.schatten(2.0),
        IdealSpec.schatten(3.5),
        IdealSpec.square_root_of(IdealSpec.schatten(1.0)),
    ])
    def test_partial_sums_are_the_direct_sums(self, spec):
        rng = np.random.default_rng(17)
        p = spec.effective_exponent
        seqs = [lambda_sequence(eps, fam, 2**12) for eps in (0.3, 0.9)
                for fam in ("paper_formula", "pure_power")]
        seqs += [np.sort(rng.exponential(size=n))[::-1] for n in (8, 100, 2**12)]
        for v in seqs:
            n_max = 1 << (len(v).bit_length() - 1)
            verdict = summability_classify(v, spec, n_max)
            ns = verdict.evidence["N"]
            assert ns == [n_max // 4, n_max // 2, n_max]
            assert verdict.evidence["partial_sums"] == [float(np.sum(v[:n] ** p)) for n in ns]

    def test_verdict_is_decision_and_evidence(self, monkeypatch):
        assert [f.name for f in dataclasses.fields(SummabilityVerdict)] == ["verdict", "evidence"]

        def no_fit(*args):
            raise AssertionError("a summability verdict reads no decay fit")

        monkeypatch.setattr(spectral, "fit_exponent", no_fit)
        lam = lambda_sequence(0.4, "pure_power", 2**10)
        assert summability_classify(lam, IdealSpec.schatten(2.0), 2**10).verdict == "divergent"

    def test_bad_n_max(self):
        with pytest.raises(ValueError, match="power of two"):
            summability_classify(np.ones(100), IdealSpec.schatten(1.0), 100)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        s = spectrum([2.0, 1.0, 1.0 / 3.0])
        path = tmp_path / "spec.csv"
        export_spectrum_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,sigma"
        ks, sigmas = zip(*(line.split(",") for line in lines[1:]))
        assert list(ks) == ["0", "1", "2"]
        np.testing.assert_array_equal([float(x) for x in sigmas], s.values)
