"""Finite Fourier-window model of the circle.

Symbols are trigonometric polynomials held by their (finitely supported)
Fourier coefficients.  Operators act on a contiguous window of Fourier
modes and are held as their nonzero blocks; truncation at the window edges
is the only source of error, and every algebraic identity is asserted only
on guard-valid entries.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RANK_CUTOFF = 1e-10
TOLERANCES = {  # tolerances of the checks and constructions, by kind of residual
    "identity": 1e-12,  # entrywise algebraic identities on guard-valid entries
    "numerical": 1e-10,  # residuals through random unitaries, dilations and SVDs
    "lower_bound": 1e-9,  # slack below zero allowed in the lemma's lower bounds
    "exact": 0.0,  # counts and relations of 0/1 matrices, which hold with no rounding
    "contraction": 1e-12,  # slack above 1 allowed in the spectrum of kappa(1) = sum K K^*
    "order": 1e-12,  # relative slack allowed in the non-increasing order of a singular spectrum
    "rounding": 1e-14,  # eigenvalues below this are exact zeros in a dilation's defect root
}


def _opnorm(x: np.ndarray) -> float:
    """Largest singular value, 0.0 for an empty matrix.

    + 0.0 turns -0.0 into +0.0, since the SVD reads zero signs.
    """
    s = np.linalg.svd(np.asarray(x) + 0.0, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of x, never below its largest singular value: a bound on _opnorm with no SVD."""
    return float(np.linalg.norm(x))


def _schur_bound(x: np.ndarray, cols) -> float:
    """Schur's bound sqrt(max row sum * max column sum) of |x|, never below x's largest singular value.

    x[j, i] lies in row j and column cols[j, i]: np.arange(width) for a dense x, its columns for a band.
    """
    ax = np.abs(x)
    col_sums = np.bincount(np.broadcast_to(cols, ax.shape).ravel(), weights=ax.ravel())
    return float(np.sqrt(ax.sum(axis=1).max() * col_sums.max()))


class GuardBandError(ValueError):
    """Window too small for the requested product depth and bandwidth."""


@dataclass(frozen=True)
class Symbol:
    """Trigonometric polynomial, stored as sorted (degree, amplitude) pairs.

    Zero amplitudes are dropped at construction; use :func:`make_symbol`.
    """

    coefficients: tuple[tuple[int, complex], ...]

    @property
    def bandwidth(self) -> int:
        if not self.coefficients:
            return 0
        return max(abs(deg) for deg, _ in self.coefficients)


def make_symbol(pairs) -> Symbol:
    """Build a Symbol from (degree, amplitude) pairs; degrees must be distinct integers, amplitudes finite."""
    seen: dict[int, complex] = {}
    for deg, amp in pairs:
        if not (isinstance(deg, int) or float(deg).is_integer()):  # False for nan and +-inf too
            raise ValueError(f"degree {deg} is not an integer")
        deg = int(deg)
        if deg in seen:
            raise ValueError(f"duplicate degree {deg}")
        seen[deg] = complex(amp)
        if not cmath.isfinite(seen[deg]):
            raise ValueError(f"non-finite amplitude {seen[deg]} at degree {deg}")
    kept = tuple(sorted((d, a) for d, a in seen.items() if a != 0))
    return Symbol(kept)


def symbol_product(a: Symbol, b: Symbol) -> Symbol:
    """Pointwise product on the circle: convolution of coefficients."""
    out: dict[int, complex] = {}
    for da, ca in a.coefficients:
        for db, cb in b.coefficients:
            out[da + db] = out.get(da + db, 0j) + ca * cb
    return make_symbol(out.items())


def symbol_conjugate(a: Symbol) -> Symbol:
    """Complex conjugate symbol: coefficient at k is conj of a's at -k."""
    return make_symbol((-deg, np.conj(amp)) for deg, amp in a.coefficients)


@dataclass(frozen=True)
class Window:
    """Contiguous window of Fourier modes [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if not all(isinstance(b, (int, np.integer)) for b in (self.lo, self.hi)):
            raise ValueError(f"window bounds must be integers, got [{self.lo},{self.hi}]")
        if not (self.lo <= 0 <= self.hi):
            raise ValueError(f"window [{self.lo},{self.hi}] must satisfy lo <= 0 <= hi")

    @property
    def dimension(self) -> int:
        return self.hi - self.lo + 1

    @property
    def modes(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    @property
    def is_hardy(self) -> bool:
        return self.lo == 0

    @property
    def hardy(self) -> slice:
        """Matrix indices of the Hardy modes (>= 0), the range of P."""
        return slice(-self.lo, None)


class _Stated(tuple):
    """Blocks finite by construction, so WindowedOperator neither copies nor scans them."""


@dataclass(frozen=True)
class WindowedOperator:
    """Operator on a Fourier-mode window, held as its nonzero blocks (rows, cols, array).

    The blocks lie in disjoint rows and columns of range(d); a d x d array in
    place of the tuple is one block that covers the window.  Each block's
    shape is checked at build, and it is kept read-only.  Finiteness is
    checked where the numbers enter: make_symbol checks amplitudes,
    multiplication_operator its 2d - 1 coefficients, and a caller's own
    matrix is copied and the copy scanned here, once, at build, so a later
    write through the caller's array does not reach the operator.  Blocks
    finite by construction are passed as _Stated: hardy's builders read
    them from checked coefficients, and they are neither copied nor scanned.
    """

    window: Window
    blocks: tuple

    def __post_init__(self):
        index = range(self.window.dimension)
        blocks = self.blocks if isinstance(self.blocks, tuple) else ((slice(None), slice(None), self.blocks),)
        checked = []
        stated = isinstance(blocks, _Stated)
        for rows, cols, x in blocks:
            # a view of a stated block, so its owner keeps its flags; a copy of a caller's
            x = np.asarray(x, dtype=complex).view() if stated else np.array(x, dtype=complex)
            if x.shape != (len(index[rows]), len(index[cols])):
                raise ValueError(f"block shape {x.shape} != {len(index[rows]), len(index[cols])}")
            if not stated and not np.isfinite(x).all():
                raise ValueError("non-finite matrix entries")
            x.flags.writeable = False
            checked.append((rows, cols, x))
        object.__setattr__(self, "blocks", tuple(checked))

    @property
    def entries(self) -> np.ndarray:
        """The d x d matrix: a block that covers the window as it is (M_a's strided view), else a fresh fill."""
        index = range(self.window.dimension)
        if len(self.blocks) == 1 and index[self.blocks[0][0]] == index == index[self.blocks[0][1]]:
            return self.blocks[0][2]
        out = np.zeros((len(index), len(index)), dtype=complex)
        for rows, cols, x in self.blocks:
            out[rows, cols] = x
        return out


def guard_slice(w: Window, depth: int, bandwidth: int) -> slice:
    """Matrix-index slice of guard-valid modes for a product of the given depth.

    Raises GuardBandError (naming the required window size) when empty.
    """
    g = depth * bandwidth
    lo_idx = g
    hi_idx = w.dimension - g
    if lo_idx >= hi_idx:
        raise GuardBandError(
            f"window [{w.lo},{w.hi}] too small for depth {depth}, bandwidth "
            f"{bandwidth}: need dimension > {2 * g} (have {w.dimension})"
        )
    return slice(lo_idx, hi_idx)


def multiplication_operator(a: Symbol, w: Window) -> WindowedOperator:
    """Truncation of multiplication by a: entry (j,k) is the coefficient at j-k.

    Its 2d - 1 coefficients are checked finite here, once: a Symbol made
    directly, not by make_symbol, can hold any amplitude.
    """
    d = w.dimension
    c = np.zeros(2 * d - 1, dtype=complex)
    for deg, amp in a.coefficients:
        if abs(deg) < d:
            c[d - 1 - deg] += amp  # += on +0.0 stores +0.0 for an amplitude's -0.0 part
    if not np.isfinite(c).all():
        raise ValueError("non-finite matrix entries")
    view = sliding_window_view(c, d)[::-1]  # read-only; row j starts at c[d-1-j]
    return WindowedOperator(w, _Stated(((slice(None), slice(None), view),)))


def hardy_projection(w: Window) -> WindowedOperator:
    """Diagonal projection onto the nonnegative Fourier modes of the window."""
    return WindowedOperator(w, _Stated(((w.hardy, w.hardy, np.eye(w.hi + 1, dtype=complex)),)))


def toeplitz_compress(a: Symbol, w: Window) -> WindowedOperator:
    """Toeplitz compression P M_a P on the window: M_a's Hardy quadrant."""
    m = multiplication_operator(a, w).entries
    return WindowedOperator(w, _Stated(((w.hardy, w.hardy, m[w.hardy, w.hardy]),)))


def _require_two_sided(w: Window, what: str):
    if w.lo >= 0:
        raise ValueError(f"{what} needs strictly negative modes; window starts at {w.lo}")


def _corners(w: Window, bandwidth: int) -> tuple[slice, slice]:
    """Indices of the bandwidth negative and Hardy modes by mode 0; M_a's Hankel blocks vanish outside."""
    zero = w.hardy.start  # matrix index of mode 0
    return slice(max(zero - bandwidth, 0), zero), slice(zero, zero + bandwidth)


def hankel_operator(a: Symbol, w: Window) -> WindowedOperator:
    """Hankel part (1-P) M_a P; the range lives on negative modes."""
    _require_two_sided(w, "hankel_operator")
    m = multiplication_operator(a, w).entries
    n, h = _corners(w, a.bandwidth)
    return WindowedOperator(w, _Stated(((n, h, m[n, h]),)))


def projection_commutator(a: Symbol, w: Window) -> WindowedOperator:
    """Commutator [P, M_a] = P M_a (1-P) - (1-P) M_a P as two corners; 0.0 - x, not -x, keeps zeros +0.0."""
    _require_two_sided(w, "projection_commutator")
    m = multiplication_operator(a, w).entries
    n, h = _corners(w, a.bandwidth)
    return WindowedOperator(w, _Stated(((h, n, m[h, n]), (n, h, np.subtract(0.0, m[n, h])))))


def splitting_defect(a: Symbol, b: Symbol, w: Window):
    """Multiplicative and adjoint defects of the Toeplitz compression.

    Returns (product_defect, adjoint_defect) where product_defect is
    T_{ab} - T_a T_b and adjoint_defect is T_{conj(a)} - (T_a)^*.  The
    window must be guard-valid for depth 2 at the combined bandwidth bw.

    The product defect is zero off its corners at mode 0 (Widom's) and at
    hi (the cut-off): two blocks M_ab[e, e] - M_a[e, r] M_b[r, e] on disjoint
    rows and columns e, with r the Hardy modes within bw of e, which alone
    carry terms.  Mode 0's reaches bw + 1 modes into the guard band,
    so every diagonal of the band meets the guard band in it, and is the
    whole quadrant where the two would meet.  The adjoint defect, zero with
    no rounding as both terms read a's coefficients, is a read-only Toeplitz
    view of its 2 hi + 1 diagonals.  T_a T_b can overflow where T_{ab}'s
    coefficients do not; it then raises FloatingPointError.
    """
    bw = a.bandwidth + b.bandwidth
    sl, q, d = guard_slice(w, 2, bw), w.hardy, w.dimension
    ma, mb = multiplication_operator(a, w).entries, multiplication_operator(b, w).entries
    mab, mconj = (multiplication_operator(x, w).entries for x in (symbol_product(a, b), symbol_conjugate(a)))
    cut = max(sl.start, q.start) + bw + 1
    corners = (slice(q.start, cut), slice(d - bw, d)) if cut + bw <= d else (slice(q.start, d), slice(d, d))
    near = [slice(max(e.start - bw, q.start), e.stop + bw) for e in corners]  # the Hardy modes within bw of e
    with np.errstate(over="raise", invalid="raise"):
        product = _Stated((e, e, mab[e, e] - ma[e, r] @ mb[r, e]) for e, r in zip(corners, near))
    # t_k at [hi - k] of T[::-1, 0] and T[0, 1:] joined; (T_a)^* has conj(t_{-k}) there
    ta, tconj = (np.concatenate((m[q, q][::-1, 0], m[q, q][0, 1:])) for m in (ma, mconj))
    adjoint = sliding_window_view(tconj - ta[::-1].conj(), w.hi + 1)[::-1]
    return WindowedOperator(w, product), WindowedOperator(w, _Stated(((q, q, adjoint),)))


def _svdvals(x: np.ndarray) -> np.ndarray:
    """Singular values of x, descending, padded with exact zeros to min(x.shape).

    The nonzero singular values of a matrix are those of the block of its
    nonzero rows and columns, so only that block goes to the SVD.  The
    block is a copy, and + 0.0 turns its -0.0 entries into +0.0, since the
    SVD reads zero signs.  x is finite, so a non-finite value is an overflow.
    """
    nonzero = x != 0
    block = x[np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))]
    block += 0.0
    s = np.zeros(min(x.shape))
    s[: min(block.shape)] = np.linalg.svd(block, compute_uv=False)
    if not np.isfinite(s).all():
        raise FloatingPointError(f"overflow: a singular value of a finite {x.shape} block is {s.max()}")
    return s


def _rank(s: np.ndarray) -> int:
    """Count of descending singular values above RANK_CUTOFF times the largest one."""
    return int(np.sum(s > RANK_CUTOFF * s[0])) if s.size else 0


def numerical_rank(x: np.ndarray) -> int:
    """Count of singular values of x above RANK_CUTOFF times the largest one.

    The SVD sees only the nonzero rows and columns of x, so a Hankel or
    commutator block costs its Kronecker corner, not the whole window.
    """
    return _rank(_svdvals(np.asarray(x, dtype=complex)))
