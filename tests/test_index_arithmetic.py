"""The index-arithmetic builders against dense 0/1 and diagonal products.

Each reference below is the defining product: it multiplies by the dense
projection P = diag(modes >= 0), by 1 - P, by the interleaving isometries, by
the doubled-window permutation U = [[P, 1-P], [1-P, P]] or by diag(P + T).  A
product with a 0/1 or diagonal factor has one nonzero term per entry, so the
slices, strided assignments, masks and scalings must reproduce it exactly, not
just within a tolerance.
"""

import numpy as np
import pytest

from oil import (
    Window,
    WindowedOperator,
    deformation_operator,
    deformed_compression,
    extension_sum,
    guard_slice,
    hankel_operator,
    interleaving_isometries,
    inverse_identity_residuals,
    lambda_sequence,
    multiplication_operator,
    projection_commutator,
    toeplitz_compress,
)
from oil import deformation, extensions
from oil.extensions import interleaving_swap
from reference import ONE, deformed_q, interleaved_sum, interleavings, multiplication, projection
from reference import random_matrix, sparse_symbol

# (lo, hi): two-sided, the edge window lo = -1, and Hardy-only windows
WINDOWS = [(-20, 20), (-7, 30), (-1, 24), (-1, 0), (-3, 2), (0, 15), (0, 40)]
BANDWIDTHS = [1, 2, 5, 13, 32]  # 13 and 32 reach past every edge of the small windows


CASES = [(lo, hi, bw) for lo, hi in WINDOWS for bw in BANDWIDTHS]


@pytest.mark.parametrize("lo, hi, bw", CASES)
def test_window_builders_match_dense_products(lo, hi, bw):
    w = Window(lo, hi)
    a = sparse_symbol(bw, seed=1000 * bw + 10 * hi - lo)
    m = multiplication(a, w)
    p = projection(w)
    q = np.eye(w.dimension) - p
    assert np.array_equal(multiplication_operator(a, w).entries, m)
    assert np.array_equal(toeplitz_compress(a, w).entries, p @ m @ p)
    if w.lo < 0:
        assert np.array_equal(hankel_operator(a, w).entries, q @ m @ p)
        assert np.array_equal(projection_commutator(a, w).entries, p @ m - m @ p)


@pytest.mark.parametrize("N", [1, 2, 7, 32])
def test_interleavings_match_dense_products(N):
    v1, v2, swap = interleavings(N)
    pair = interleaving_isometries(N)
    assert np.array_equal(pair.V1, v1) and np.array_equal(pair.V2, v2)
    assert np.array_equal(interleaving_swap(N), swap)

    rng = np.random.default_rng(N)
    w = Window(0, N - 1)
    a, b = random_matrix(rng, N), random_matrix(rng, N)
    got = extension_sum(WindowedOperator(w, a), WindowedOperator(w, b)).entries
    assert np.array_equal(got, interleaved_sum(a, b))


@pytest.mark.parametrize("lo, hi, bw", [(-16, 60, 1), (-1, 40, 2), (-9, 70, 5), (0, 50, 3)])
@pytest.mark.parametrize("family", ["paper_formula", "pure_power"])
def test_deformed_compression_matches_dense_products(lo, hi, bw, family):
    w = Window(lo, hi)
    a = sparse_symbol(bw, seed=bw + hi)
    lam = lambda_sequence(0.45, family, hi + 5)
    t = deformation_operator(lam, Window(0, hi + 4))
    q = deformed_q(lam, w)
    m = multiplication(a, w)
    assert np.array_equal(deformed_compression(t, a, w).entries, q @ m @ q)


@pytest.mark.parametrize("lo, hi, bw", [(-16, 60, 1), (-1, 40, 2), (-9, 70, 5), (0, 50, 3)])
@pytest.mark.parametrize("family", ["paper_formula", "pure_power"])
def test_band_product_matches_dense_products(lo, hi, bw, family):
    # the defect expansion's lhs and its term 3 both hold M_a Q^2 M_b, which cancels
    # in its residual, so only a dense reference can see a fault in the band product
    w = Window(lo, hi)
    q2 = deformed_q(lambda_sequence(0.45, family, hi + 1), w) ** 2
    a = sparse_symbol(bw, seed=bw + hi)
    for b in (sparse_symbol(bw + 1, seed=bw - lo), ONE):
        beta = a.bandwidth + b.bandwidth
        band = deformation._band_product(a, np.diag(q2), b, beta)
        dense = multiplication(a, w) @ q2 @ multiplication(b, w)
        j, i = np.indices(band.shape)
        k = j + i - beta  # the column of band[j, i]
        inside = (k >= 0) & (k < w.dimension)
        assert np.all(band[~inside] == 0)
        filled = np.zeros_like(dense)
        filled[j[inside], k[inside]] = band[inside]
        assert np.max(np.abs(filled - dense)) <= 1e-13 * np.max(np.abs(dense))


def dense_inverse_identity(a, w: Window):
    """The inverse identity's three counts by the dense products of the doubled window.

    The rows at which U^2 = 1 and U P2 U = 1 + 0 fail, and the guard-valid
    entries (depth 3) of both copies at which
    (M_a + 0) = U P2 U (M_a + M_a) U P2 U fails.
    """
    sl = guard_slice(w, 3, a.bandwidth)
    d = w.dimension
    p = projection(w)
    q = np.eye(d) - p
    z = np.zeros((d, d))
    u = np.block([[p, q], [q, p]])
    p2 = np.block([[p, z], [z, q]])
    corner = np.block([[np.eye(d), z], [z, z]])
    r_u = np.count_nonzero((u @ u - np.eye(2 * d)).any(axis=1))
    upu = u @ p2 @ u
    r_p = np.count_nonzero((upu - corner).any(axis=1))
    m = multiplication(a, w)
    resid = np.block([[m, z], [z, z]]) - upu @ np.block([[m, z], [z, m]]) @ upu
    idx = np.r_[np.arange(sl.start, sl.stop), d + np.arange(sl.start, sl.stop)]
    return float(r_u), float(r_p), float(np.count_nonzero(resid[np.ix_(idx, idx)]))


def dense_identity_count(a, w: Window, upu: np.ndarray) -> float:
    """The identity's count from a mask U P2 U, on M_a's whole guard-valid d x d block of each copy."""
    sl = guard_slice(w, 3, a.bandwidth)
    d = w.dimension
    block = multiplication(a, w)[sl, sl]
    c1, c2 = upu[:d][sl], upu[d:][sl]
    return float(np.count_nonzero(block != c1[:, None] * block * c1) + np.count_nonzero(c2[:, None] * block * c2))


# two-sided, lo = -1, Hardy-only; dimension 6 * bandwidth + 1 is the edge of the depth-3 guard
INVERSE_CASES = [(-12, 60, 1), (-20, 20, 2), (-9, 70, 5), (-1, 24, 1), (-1, 40, 3), (0, 30, 2),
                 (-3, 3, 1), (-10, 20, 5), (-1, 17, 3), (0, 18, 3)]
# lo = -1 at the edge of the depth-3 guard, one guard-valid row, for every bandwidth 1 ... 16
INVERSE_CASES += [(-1, 6 * bw - 1, bw) for bw in range(1, 17)]


@pytest.mark.parametrize("lo, hi, bw", INVERSE_CASES)
def test_inverse_identity_matches_dense_products(lo, hi, bw):
    w = Window(lo, hi)
    a = sparse_symbol(bw, seed=7 * bw + hi)
    assert inverse_identity_residuals(a, w) == dense_inverse_identity(a, w) == (0.0, 0.0, 0.0)


doubled_window = extensions._doubled_window


def _unswap_first_mode(w):
    sigma, p2 = doubled_window(w)
    d = w.dimension
    sigma[[0, d]] = [0, d]  # the first negative mode stays in its copy
    return sigma, p2


def _not_an_involution(w):
    sigma, p2 = doubled_window(w)
    return np.roll(sigma, 1), p2


def _exchange_p(w):
    sigma, p2 = doubled_window(w)
    return sigma, ~p2  # P2 = (1-P) + P


def _p_on_both_copies(w):
    sigma, p2 = doubled_window(w)
    d = w.dimension
    return sigma, np.tile(p2[:d], 2)  # P2 = P + P: U P2 U changes at mode 0 within each copy


# each mutant with the residual it must make nonzero: 0 for U^2 = 1, 1 for U P2 U = 1 + 0
@pytest.mark.parametrize(
    "mutant, broken", [(_unswap_first_mode, 1), (_not_an_involution, 0), (_exchange_p, 1), (_p_on_both_copies, 1)]
)
@pytest.mark.parametrize("lo, hi, bw", [case for case in INVERSE_CASES if case[0] < 0])
def test_inverse_identity_mutants_leave_a_residual(monkeypatch, mutant, broken, lo, hi, bw):
    w = Window(lo, hi)
    a = sparse_symbol(bw, seed=7 * bw + hi)
    sigma, p2 = mutant(w)
    monkeypatch.setattr(extensions, "_doubled_window", mutant)
    got = inverse_identity_residuals(a, w)
    assert got[broken] > 0.0
    assert got[2] == dense_identity_count(a, w, p2[sigma])  # the band holds every failing entry
