"""Tests for symbols, windowed operators, and the Toeplitz/Hankel calculus."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oil import (
    GuardBandError,
    Window,
    guard_slice,
    hankel_operator,
    hardy_projection,
    make_symbol,
    multiplication_operator,
    numerical_rank,
    projection_commutator,
    splitting_defect,
    symbol_conjugate,
    symbol_product,
    toeplitz_compress,
)
from oil.hardy import _opnorm
from reference import ONE, Z, ZBAR, seeded_symbol, widom, zero_signs_flipped


def symbol_strategy(max_degree=4):
    coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False)
    return st.dictionaries(st.integers(-max_degree, max_degree), coeff, max_size=5).map(
        lambda d: make_symbol(d.items())
    )


class TestSymbol:
    def test_make_symbol_monomial(self):
        assert Z.coefficients == ((1, 1.0),)
        assert Z.bandwidth == 1

    def test_zero_symbol(self):
        s = make_symbol([])
        assert s.bandwidth == 0
        assert s.coefficients == ()

    def test_bandwidth_two_sided(self):
        s = make_symbol([(-2, 1j), (2, -1j)])
        assert s.bandwidth == 2

    def test_zero_amplitudes_dropped(self):
        s = make_symbol([(3, 0.0), (1, 2.0)])
        assert s.coefficients == ((1, 2.0 + 0j),)

    def test_duplicate_degree_rejected(self):
        with pytest.raises(ValueError, match="duplicate degree 1"):
            make_symbol([(1, 1.0), (1, 2.0)])

    @pytest.mark.parametrize("amp", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1.0)])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="^non-finite amplitude .* at degree 2$"):
            make_symbol([(0, 1.0), (2, amp)])

    @pytest.mark.parametrize("deg", [1.5, np.float64(-0.5), np.nan, np.inf, -np.inf])
    def test_non_integral_degree_rejected(self, deg):
        with pytest.raises(ValueError, match=f"^degree {deg} is not an integer$"):
            make_symbol([(1.0, 1.0), (deg, 2.0)])

    def test_integral_float_degrees_accepted(self):
        assert make_symbol([(2.0, 1.0), (np.float64(-1.0), 2.0)]).coefficients == ((-1, 2.0), (2, 1.0))

    def test_overflowing_product_rejected(self):
        big = make_symbol([(1, 1e200), (-1, 1e200)])  # every coefficient of big * big overflows
        with pytest.raises(ValueError, match=r"^non-finite amplitude \(inf\+0j\) at degree -2$"):
            symbol_product(big, big)

    def test_product_monomials(self):
        assert symbol_product(Z, Z).coefficients == ((2, 1.0 + 0j),)

    def test_product_identity(self):
        a = make_symbol([(-1, 2.0), (3, 1j)])
        assert symbol_product(a, ONE) == a

    def test_z_times_zbar_is_one(self):
        assert symbol_product(Z, ZBAR) == ONE

    def test_conjugate_monomial(self):
        assert symbol_conjugate(Z) == ZBAR
        assert symbol_conjugate(make_symbol([(2, 1j)])).coefficients == ((-2, -1j),)

    def test_conjugate_real_constant(self):
        c = make_symbol([(0, 2.5)])
        assert symbol_conjugate(c) == c

    @given(symbol_strategy(), symbol_strategy())
    @settings(max_examples=50, deadline=None)
    def test_product_bandwidth_bound(self, a, b):
        assert symbol_product(a, b).bandwidth <= a.bandwidth + b.bandwidth


class TestOperators:
    def test_identity_symbol(self):
        w = Window(-3, 3)
        np.testing.assert_allclose(multiplication_operator(ONE, w).entries, np.eye(7))

    def test_shift_matrix(self):
        w = Window(0, 3)
        m = multiplication_operator(Z, w).entries
        np.testing.assert_array_equal(m, np.eye(4, k=-1))

    def test_tridiagonal(self):
        w = Window(-2, 2)
        m = multiplication_operator(make_symbol([(1, 1.0), (-1, 1.0)]), w).entries
        np.testing.assert_array_equal(m, np.eye(5, k=1) + np.eye(5, k=-1))

    def test_hardy_projection_diag(self):
        p = hardy_projection(Window(-2, 2)).entries
        np.testing.assert_array_equal(np.diag(p).real, [0, 0, 1, 1, 1])

    def test_hardy_projection_on_hardy_window(self):
        np.testing.assert_array_equal(hardy_projection(Window(0, 5)).entries, np.eye(6))

    def test_projection_idempotent_selfadjoint(self):
        p = hardy_projection(Window(-4, 4)).entries
        np.testing.assert_array_equal(p @ p, p)
        np.testing.assert_array_equal(p.conj().T, p)

    def test_toeplitz_shift_interior(self):
        t = toeplitz_compress(Z, Window(0, 5)).entries
        np.testing.assert_array_equal(t, np.eye(6, k=-1))

    def test_toeplitz_of_one_is_projection(self):
        w = Window(-3, 3)
        np.testing.assert_array_equal(
            toeplitz_compress(ONE, w).entries, hardy_projection(w).entries
        )

    def test_toeplitz_backward_shift(self):
        t = toeplitz_compress(ZBAR, Window(0, 4)).entries
        # e_0 -> 0, e_k -> e_{k-1}
        np.testing.assert_array_equal(t, np.eye(5, k=1))

    def test_hankel_analytic_zero(self):
        h = hankel_operator(make_symbol([(0, 1.0), (1, 2.0), (3, -1j)]), Window(-4, 4))
        assert np.all(h.entries == 0)

    def test_hankel_rank_one(self):
        h = hankel_operator(ZBAR, Window(-1, 1)).entries
        assert numerical_rank(h) == 1
        # e_0 -> e_{-1}
        assert h[0, 1] == 1.0

    def test_hankel_rank_bound(self):
        a = make_symbol([(-3, 1.0), (-1, 2.0), (2, 1j)])
        h = hankel_operator(a, Window(-10, 10)).entries
        assert numerical_rank(h) <= a.bandwidth

    def test_hankel_hardy_only_rejected(self):
        with pytest.raises(ValueError, match="negative modes"):
            hankel_operator(ZBAR, Window(0, 4))

    def test_commutator_with_scalar_zero(self):
        c = projection_commutator(ONE, Window(-3, 3)).entries
        assert np.all(c == 0)

    def test_commutator_rank_bound(self):
        a = make_symbol([(1, 1.0), (-1, 1.0)])
        c = projection_commutator(a, Window(-4, 4)).entries
        assert numerical_rank(c) <= 2 * a.bandwidth

    def test_commutator_invariant_under_constant_shift(self):
        w = Window(-6, 6)
        a = make_symbol([(2, 1j), (-1, 0.5)])
        shifted = make_symbol([(0, 3.0), (2, 1j), (-1, 0.5)])
        na = np.linalg.norm(projection_commutator(a, w).entries, 2)
        nb = np.linalg.norm(projection_commutator(shifted, w).entries, 2)
        assert abs(na - nb) < 1e-14

    @given(symbol_strategy(3))
    @settings(max_examples=40, deadline=None)
    def test_hankel_zero_iff_analytic(self, a):
        h = hankel_operator(a, Window(-8, 8)).entries
        analytic = all(deg >= 0 for deg, _ in a.coefficients)
        assert (np.all(h == 0)) == analytic


class TestSplittingDefect:
    def test_z_zbar_defect_is_rank_one_projection(self):
        w = Window(-8, 8)
        product, _ = splitting_defect(Z, ZBAR, w)
        d = product.entries
        assert numerical_rank(d) == 1
        # T_1 - T_z T_zbar projects onto e_0
        assert abs(d[-w.lo, -w.lo] - 1.0) < 1e-14  # mode 0
        assert abs(np.trace(d) - 1.0) < 1e-14

    def test_analytic_pair_zero_defect(self):
        w = Window(-10, 10)
        a = make_symbol([(0, 1.0), (1, 2.0)])
        b = make_symbol([(2, 1j)])
        product, _ = splitting_defect(a, b, w)
        sl = guard_slice(w, 2, a.bandwidth + b.bandwidth)
        assert np.max(np.abs(product.entries[sl, sl])) < 1e-14

    def test_adjoint_defect_zero(self):
        w = Window(-12, 12)
        a = make_symbol([(-2, 1j), (1, 2.0 - 1j)])
        _, adjoint = splitting_defect(a, a, w)
        sl = guard_slice(w, 2, 2 * a.bandwidth)
        assert np.max(np.abs(adjoint.entries[sl, sl])) == 0.0

    def test_guard_violation_names_required_size(self):
        with pytest.raises(GuardBandError, match="need dimension > 16"):
            splitting_defect(make_symbol([(2, 1.0)]), make_symbol([(2, 1.0)]), Window(-5, 5))

    @given(symbol_strategy(3), symbol_strategy(3), st.just(Window(-30, 30)))
    @example(make_symbol([(1, 1.0), (-2, 0.5j)]), make_symbol([(-1, 2.0), (1, -1j)]), Window(-12, 12))
    @settings(max_examples=30, deadline=None)
    def test_hankel_product_form_property(self, a, b, w):
        product, adjoint = splitting_defect(a, b, w)
        oracle = widom(a, b, w)
        sl = guard_slice(w, 2, a.bandwidth + b.bandwidth)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs((product.entries - oracle)[sl, sl])) < 1e-12 * scale
        assert np.max(np.abs(adjoint.entries[sl, sl])) < 1e-12 * scale


QUARTER_TURN = (1, 1j, -1, -1j)  # e^{i k pi/2} at k mod 4


def quarter_turn_mismatches(a, w: Window, table=QUARTER_TURN) -> int:
    """Entries at which tau(R a) != U tau(a) U^*, with R the quarter turn read from table.

    R multiplies the coefficient at k by table[k % 4], and U is the diagonal
    of QUARTER_TURN at the Hardy modes.  Every factor is +-1 or +-1j, so
    both sides are exact and the count is 0 when the action commutes.
    """
    rotated = make_symbol((deg, amp * table[deg % 4]) for deg, amp in a.coefficients)
    u = np.array(QUARTER_TURN)[w.modes[w.hardy] % 4]
    ((_, _, ta),), ((_, _, tr),) = (toeplitz_compress(s, w).blocks for s in (a, rotated))
    return int(np.count_nonzero(tr != u[:, None] * ta * u.conj()))


class TestRotation:
    """The G-action of the circle: tau(R_theta a) = U_theta tau(a) U_theta^*, at theta = pi/2."""

    @pytest.mark.parametrize("bw, lo, hi", [(3, -40, 40), (32, -300, 300), (8, -2048, 2048)])
    def test_quarter_turn_is_exact(self, bw, lo, hi):
        a, w = seeded_symbol(bw, seed=bw), Window(lo, hi)
        assert quarter_turn_mismatches(a, w) == 0
        # a flipped sign turns R the other way: the entries at odd offsets j - k, 2 (n - m) of each
        n = hi + 1
        flipped = (1, -1j, -1, 1j)
        assert quarter_turn_mismatches(a, w, flipped) == sum(2 * (n - m) for m in range(1, bw + 1, 2))


class TestWindow:
    def test_dimension(self):
        assert Window(-2, 3).dimension == 6

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Window(1, 5)

    def test_guard_slice_empty(self):
        with pytest.raises(GuardBandError):
            guard_slice(Window(-2, 2), 2, 2)

    @pytest.mark.parametrize("lo, hi", [(-1.5, 2), (-2, 2.0), (0, np.float64(3))])
    def test_non_integer_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape(f"window bounds must be integers, got [{lo},{hi}]")):
            Window(lo, hi)

    def test_numpy_integer_bounds_accepted(self):
        w = Window(np.int64(-2), np.int32(3))
        assert w.dimension == 6
        np.testing.assert_array_equal(toeplitz_compress(Z, w).entries, toeplitz_compress(Z, Window(-2, 3)).entries)


class TestOpnorm:
    def test_blind_to_zero_signs(self):
        # LAPACK's SVD reads the sign of an exact zero; the operator norm must not
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(3, 12))
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            x.real[rng.random((d, d)) < 0.6] = 0.0
            x.imag[rng.random((d, d)) < 0.6] = 0.0
            assert _opnorm(zero_signs_flipped(x)) == _opnorm(x)

    def test_largest_singular_value(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        assert _opnorm(x) == np.linalg.norm(x, 2)

    def test_empty_matrix_is_zero(self):
        # `oil defect` takes a norm over the guard-valid Hardy modes, which can be none
        assert _opnorm(np.zeros((0, 0), dtype=complex)) == 0.0
