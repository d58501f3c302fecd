"""Extension arithmetic at matrix level: interleaving isometries, the
sum of extensions, and the inverse-extension identity.

The even/odd interleaving realizes the pair of isometries exactly on a
finite window (0/1 permutation columns), so the relations V_i^* V_i = 1
and V_1 V_1^* + V_2 V_2^* = 1 hold with no rounding at all.
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
    hardy_projection,
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


def inverse_identity_residuals(a: Symbol, w: Window) -> tuple[float, float, float]:
    """Residuals of the doubled-window inverse identity.

    Builds U = [[P, P'], [P', P]] and P2 = P + P' on the doubled window and
    returns (||U^2 - 1||, ||U P2 U - (1 + 0)||, ||(M_a + 0) - U P2 U (M_a + M_a) U P2 U||),
    the last restricted to guard-valid entries (depth 3).
    """
    sl = guard_slice(w, 3, a.bandwidth)
    d = w.dimension
    p = hardy_projection(w).entries
    q = np.eye(d) - p
    u = np.block([[p, q], [q, p]])
    p2 = np.block([[p, np.zeros((d, d))], [np.zeros((d, d)), q]])
    one = np.eye(2 * d)
    corner = np.zeros((2 * d, 2 * d), dtype=complex)
    corner[:d, :d] = np.eye(d)

    r_u = _opnorm(u @ u - one)
    upu = u @ p2 @ u
    r_p = _opnorm(upu - corner)

    m = multiplication_operator(a, w).entries
    m2 = np.block([[m, np.zeros((d, d))], [np.zeros((d, d)), m]])
    m_corner = np.zeros((2 * d, 2 * d), dtype=complex)
    m_corner[:d, :d] = m
    resid = m_corner - upu @ m2 @ upu
    idx = np.r_[np.arange(sl.start, sl.stop), d + np.arange(sl.start, sl.stop)]
    r_id = _opnorm(resid[np.ix_(idx, idx)])
    return r_u, r_p, r_id


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
