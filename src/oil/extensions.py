"""Extension arithmetic by index maps: the interleaving, the sum of
extensions, and the inverse-extension identity.

The isometry pair is stated once, as the index maps EVEN (V1 e_k = e_2k)
and ODD (V2 e_k = e_2k+1), and the swap of the two copies is 2k <-> 2k+1;
the dense V1, V2 and swap are derived from them.  The doubled window's U is
an involution of indices and its projections are 0/1 masks.  So every
relation here holds with no rounding, and each residual is a count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import Symbol, Window, WindowedOperator, _Stated, guard_slice, multiplication_operator

EVEN = slice(0, None, 2)  # V1 e_k = e_2k: the modes of the first summand
ODD = slice(1, None, 2)  # V2 e_k = e_2k+1: the modes of the second


@dataclass(frozen=True)
class IsometryPair:
    """Even/odd interleaving isometries V1, V2 from an N-block to a 2N-block."""

    V1: np.ndarray
    V2: np.ndarray


def interleaving_isometries(N: int) -> IsometryPair:
    """V1 and V2 as exact 0/1 matrices: the EVEN and ODD columns of the 2N identity."""
    if N < 1:
        raise ValueError("N must be >= 1")
    eye = np.eye(2 * N, dtype=complex)
    return IsometryPair(eye[:, EVEN], eye[:, ODD])


def swap_order(N: int) -> np.ndarray:
    """The swap's index map 2k <-> 2k+1, which exchanges the EVEN and ODD copies."""
    return np.arange(2 * N) ^ 1


def interleaving_swap(N: int) -> np.ndarray:
    """Permutation matrix exchanging the interleaved copies: the identity's rows in swap order."""
    return np.eye(2 * N, dtype=complex)[swap_order(N)]


def isometry_relations(N: int) -> int:
    """Failures of V_i^* V_i = 1, V1 V1^* + V2 V2^* = 1 and V1^* V2 = 0, counted on the index maps.

    A slice repeats no index, so the first fails only at block modes that a
    map leaves without an image, and the others at the 2N modes that EVEN
    and ODD do not hit exactly once: zero iff the ranges are complementary.
    """
    images = [np.arange(2 * N)[m] for m in (EVEN, ODD)]
    hits = np.bincount(np.concatenate(images), minlength=2 * N)
    return sum(abs(N - x.size) for x in images) + int(np.count_nonzero(hits != 1))


def extension_sum(A: WindowedOperator, B: WindowedOperator) -> WindowedOperator:
    """Interleaved sum V1 A V1^* + V2 B V2^*, the Ad V image of A + B."""
    if A.window != B.window:
        raise ValueError(f"window mismatch: {A.window} vs {B.window}")
    n = A.window.dimension
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[EVEN, EVEN] = A.entries
    out[ODD, ODD] = B.entries  # A and B are finite, so the sum is finite by construction
    return WindowedOperator(Window(0, 2 * n - 1), _Stated(((slice(None), slice(None), out),)))


def _doubled_window(w: Window) -> tuple[np.ndarray, np.ndarray]:
    """U = [[P, 1-P], [1-P, P]] as an involution sigma of indices, and P2 = P + (1-P) as a mask."""
    d = w.dimension
    neg = w.modes < 0
    i = np.arange(2 * d)
    sigma = np.where(np.tile(neg, 2), (i + d) % (2 * d), i)  # swaps the copies' negative modes
    return sigma, np.concatenate([~neg, neg])


def inverse_identity_residuals(a: Symbol, w: Window) -> tuple[float, float, float]:
    """Residuals of the doubled-window inverse identity, by index arithmetic.

    U P2 U is the mask p2[sigma].  Returns the numbers of indices at which
    U^2 = 1 and U P2 U = 1 + 0 fail, and the number of guard-valid entries
    (depth 3) of both copies at which (M_a + 0) = U P2 U (M_a + M_a) U P2 U
    fails.  All three are exact: 0.0 when the identity holds.  Both sides
    are block diagonal, so the last count is taken on the two diagonal
    blocks, M_a = c1 M_a c1 and 0 = c2 M_a c2 with c1, c2 the mask U P2 U
    on each copy, and only over M_a's band: its O(d bandwidth) entries.
    """
    bw = a.bandwidth
    sl = guard_slice(w, 3, bw)
    d = w.dimension
    sigma, p2 = _doubled_window(w)
    i = np.arange(2 * d)
    upu = p2[sigma]
    r_u = float(np.count_nonzero(sigma[sigma] != i))
    r_p = float(np.count_nonzero(upu != (i < d)))

    rows = np.arange(sl.start, sl.stop)[:, None]
    cols = rows + np.arange(-bw, bw + 1)  # within the window: the guard is 3 bandwidths wide
    m = multiplication_operator(a, w).entries
    nonzero = (m[rows, cols] != 0) & (cols >= sl.start) & (cols < sl.stop)
    c1, c2 = upu[:d], upu[d:]
    r_id = np.count_nonzero(nonzero & ~(c1[rows] & c1[cols]))
    r_id += np.count_nonzero(nonzero & c2[rows] & c2[cols])
    return r_u, r_p, float(r_id)

