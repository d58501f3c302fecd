"""Extension arithmetic at matrix level: interleaving isometries, the
sum of extensions, and the inverse-extension identity.

The even/odd interleaving realizes the pair of isometries exactly on a
finite window (0/1 permutation columns), so the relations V_i^* V_i = 1
and V_1 V_1^* + V_2 V_2^* = 1 hold with no rounding at all.  The
doubled-window inverse identity is evaluated by index arithmetic: its
permutation U is an involution of the doubled window's indices and its
projections are 0/1 masks, so its U and P2 relations are exact as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import (
    Symbol,
    Window,
    WindowedOperator,
    _opnorm,
    _quadrants,
    _require_two_sided,
    guard_slice,
    multiplication_operator,
    projection_commutator,
)
from .spectral import IdealSpec, singular_values, summability_classify


@dataclass(frozen=True)
class IsometryPair:
    """Even/odd interleaving isometries V1, V2 from an N-block to a 2N-block."""

    V1: np.ndarray
    V2: np.ndarray


def interleaving_isometries(N: int) -> IsometryPair:
    """V1 e_k = e_{2k}, V2 e_k = e_{2k+1}; exact 0/1 matrices."""
    if N < 1:
        raise ValueError("N must be >= 1")
    k = np.arange(N)
    v1 = np.zeros((2 * N, N), dtype=complex)
    v2 = np.zeros((2 * N, N), dtype=complex)
    v1[2 * k, k] = 1.0
    v2[2 * k + 1, k] = 1.0
    return IsometryPair(v1, v2)


def interleaving_swap(N: int) -> np.ndarray:
    """Permutation exchanging the even and odd interleaved copies."""
    k = np.arange(N)
    s = np.zeros((2 * N, 2 * N), dtype=complex)
    s[2 * k, 2 * k + 1] = 1.0
    s[2 * k + 1, 2 * k] = 1.0
    return s


def extension_sum(A: WindowedOperator, B: WindowedOperator) -> WindowedOperator:
    """Interleaved sum V1 A V1^* + V2 B V2^*, the Ad V image of A + B."""
    if A.window != B.window:
        raise ValueError(f"window mismatch: {A.window} vs {B.window}")
    n = A.window.dimension
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[::2, ::2] = A.entries  # V1 A V1^*: V1 sends mode k to mode 2k
    out[1::2, 1::2] = B.entries  # V2 B V2^*: V2 sends mode k to mode 2k+1
    return WindowedOperator(Window(0, 2 * n - 1), out, label="extension_sum")


def complement_compression(a: Symbol, w: Window) -> WindowedOperator:
    """Compression (1-P) M_a (1-P) to the strictly negative modes."""
    _require_two_sided(w, "complement_compression")
    m = multiplication_operator(a, w).entries
    return WindowedOperator(w, _quadrants(m, w, "--"), label="complement_compression")


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
    U^2 = 1 and U P2 U = 1 + 0 fail, and ||(M_a + 0) - U P2 U (M_a + M_a) U P2 U||
    on the guard-valid entries (depth 3) of both copies.
    """
    sl = guard_slice(w, 3, a.bandwidth)
    d = w.dimension
    sigma, p2 = _doubled_window(w)
    i = np.arange(2 * d)
    upu = p2[sigma]
    r_u = float(np.count_nonzero(sigma[sigma] != i))
    r_p = float(np.count_nonzero(upu != (i < d)))

    block = multiplication_operator(a, w).entries[sl, sl]
    g = len(block)
    m2 = np.zeros((2 * g, 2 * g), dtype=complex)  # M_a + M_a on the guard rows
    m2[:g, :g] = m2[g:, g:] = block
    m_corner = np.zeros_like(m2)  # M_a + 0
    m_corner[:g, :g] = block
    c = upu[np.r_[i[sl], d + i[sl]]]
    return r_u, r_p, _opnorm(m_corner - c[:, None] * m2 * c)


def toeplitz_invertibility_report(
    a: Symbol, spec: IdealSpec, w: Window, N_max: int
) -> dict:
    """Evidence that (P, M_a) is a Toeplitz pair for the given ideal spec."""
    comm = projection_commutator(a, w)
    spectrum = singular_values(comm, label=f"[P,M_a] on [{w.lo},{w.hi}]")
    verdict = summability_classify(spectrum.values, spec, N_max)
    r_u, r_p, r_id = inverse_identity_residuals(a, w)
    return {
        "spec": spec.describe(),
        "commutator_spectrum": spectrum,
        "commutator_verdict": verdict,
        # [1-P, M_a] = -[P, M_a] exactly, so the two commutators share one spectrum
        "inverse_commutator_verdict": verdict,
        "residual_u": r_u,
        "residual_p": r_p,
        "residual_identity": r_id,
    }
