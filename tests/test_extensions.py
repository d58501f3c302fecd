"""Tests for interleaving isometries, the extension sum, and the inverse identity."""

import numpy as np
import pytest

from oil import (
    GuardBandError,
    Window,
    WindowedOperator,
    extension_sum,
    interleaving_isometries,
    inverse_identity_residuals,
    make_symbol,
    projection_commutator,
    singular_values,
    symbol_conjugate,
)
from oil.extensions import interleaving_swap

Z = make_symbol([(1, 1.0)])


class TestIsometries:
    def test_smallest_case(self):
        pair = interleaving_isometries(1)
        np.testing.assert_array_equal(pair.V1.real, [[1.0], [0.0]])
        np.testing.assert_array_equal(pair.V2.real, [[0.0], [1.0]])

    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_relations_exact(self, n):
        pair = interleaving_isometries(n)
        v1, v2 = pair.V1, pair.V2
        assert np.array_equal(v1.conj().T @ v1, np.eye(n))
        assert np.array_equal(v2.conj().T @ v2, np.eye(n))
        assert np.array_equal(v1 @ v1.conj().T + v2 @ v2.conj().T, np.eye(2 * n))

    def test_disjoint_ranges(self):
        pair = interleaving_isometries(4)
        assert np.all(pair.V1.conj().T @ pair.V2 == 0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            interleaving_isometries(0)


class TestExtensionSum:
    def _wrap(self, x):
        n = x.shape[0]
        return WindowedOperator(Window(0, n - 1), x)

    def test_sum_of_zeros(self):
        z = self._wrap(np.zeros((4, 4)))
        assert np.all(extension_sum(z, z).entries == 0)

    def test_spectrum_merge(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            s = extension_sum(self._wrap(a), self._wrap(b))
            merged = np.sort(
                np.concatenate(
                    [
                        np.linalg.svd(a, compute_uv=False),
                        np.linalg.svd(b, compute_uv=False),
                    ]
                )
            )[::-1]
            got = np.linalg.svd(s.entries, compute_uv=False)
            np.testing.assert_allclose(got, merged, atol=1e-10)

    def test_swap_conjugation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        s_ab = extension_sum(self._wrap(a), self._wrap(b)).entries
        s_ba = extension_sum(self._wrap(b), self._wrap(a)).entries
        swap = interleaving_swap(8)
        np.testing.assert_allclose(s_ba, swap @ s_ab @ swap.conj().T, atol=1e-14)

    def test_window_mismatch(self):
        a = self._wrap(np.zeros((4, 4)))
        b = WindowedOperator(Window(0, 2), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            extension_sum(a, b)


class TestInverseIdentity:
    @pytest.mark.parametrize(
        "sym",
        [make_symbol([(0, 1.0)]), Z, make_symbol([(1, 1.0), (-1, 1.0)])],
    )
    def test_residuals(self, sym):
        r_u, r_p, r_id = inverse_identity_residuals(sym, Window(-12, 60))
        assert r_u == 0.0
        assert r_p == 0.0
        assert r_id <= 1e-12

    def test_guard_violation(self):
        with pytest.raises(GuardBandError):
            inverse_identity_residuals(make_symbol([(4, 1.0)]), Window(-5, 5))


def test_conjugate_symbol_same_spectrum():
    # [P, M_conj(a)] = -[P, M_a]^*, so the two commutators share one spectrum
    a = make_symbol([(2, 1j), (-1, 0.5), (1, 1.0)])
    w = Window(-30, 30)
    sa, sb = (singular_values(projection_commutator(s, w)).values for s in (a, symbol_conjugate(a)))
    np.testing.assert_allclose(sa, sb, atol=1e-10)
