"""Finite Fourier-window model of the circle.

Symbols are trigonometric polynomials held by their (finitely supported)
Fourier coefficients.  Operators act on a contiguous window of Fourier
modes as dense complex matrices; truncation at the window edges is the
only source of error, and every algebraic identity is asserted only on
guard-valid entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_CUTOFF = 1e-10
TOLERANCES = {  # tolerances of the checks and constructions, by kind of residual
    "identity": 1e-12,  # entrywise algebraic identities on guard-valid entries
    "numerical": 1e-10,  # residuals through random unitaries, dilations and SVDs
    "lower_bound": 1e-9,  # slack below zero allowed in the lemma's lower bounds
    "contraction": 1e-12,  # slack above 1 allowed in the spectrum of kappa(1) = sum K K^*
}


def _opnorm(x: np.ndarray) -> float:
    """Largest singular value; + 0.0 turns -0.0 into +0.0, since the SVD reads zero signs."""
    return float(np.linalg.svd(np.asarray(x) + 0.0, compute_uv=False)[0])


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

    def coeff(self, degree: int) -> complex:
        for deg, amp in self.coefficients:
            if deg == degree:
                return amp
        return 0j


def make_symbol(pairs) -> Symbol:
    """Build a Symbol from (degree, amplitude) pairs; degrees must be distinct."""
    seen: dict[int, complex] = {}
    for deg, amp in pairs:
        deg = int(deg)
        if deg in seen:
            raise ValueError(f"duplicate degree {deg}")
        seen[deg] = complex(amp)
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

    def index(self, mode: int) -> int:
        if not (self.lo <= mode <= self.hi):
            raise ValueError(f"mode {mode} outside window [{self.lo},{self.hi}]")
        return mode - self.lo


@dataclass(frozen=True)
class WindowedOperator:
    """Dense complex matrix indexed by a contiguous Fourier-mode window."""

    window: Window
    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        d = self.window.dimension
        if entries.shape != (d, d):
            raise ValueError(f"entries shape {entries.shape} != ({d},{d})")
        if not np.all(np.isfinite(entries.real)) or not np.all(np.isfinite(entries.imag)):
            raise ValueError("non-finite matrix entries")
        object.__setattr__(self, "entries", entries)

    def norm(self) -> float:
        return _opnorm(self.entries)


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
    """Truncation of multiplication by a: entry (j,k) is the coefficient at j-k."""
    d = w.dimension
    m = np.zeros((d, d), dtype=complex)
    for deg, amp in a.coefficients:
        if abs(deg) < d:
            k = np.arange(d - abs(deg))
            m[k + max(deg, 0), k + max(-deg, 0)] += amp
    return WindowedOperator(w, m, label="mult")


def _quadrants(x: np.ndarray, w: Window, *keep: str) -> np.ndarray:
    """Copy of a window matrix, zero outside the kept quadrants of the split at mode 0.

    A quadrant is named by its row side, then its column side: "+" for the
    Hardy modes (the range of P), "-" for the negative modes.  P x P keeps
    "++", (1-P) x P keeps "-+", and x P keeps "++" and "-+".
    """
    sides = {"-": slice(0, -w.lo), "+": slice(-w.lo, None)}
    out = np.zeros_like(x)
    for rows, cols in keep:
        out[sides[rows], sides[cols]] = x[sides[rows], sides[cols]]
    return out


def _hardy_diagonal(w: Window) -> np.ndarray:
    """Diagonal of P: one at the nonnegative Fourier modes of the window, else zero."""
    return (w.modes >= 0).astype(complex)


def hardy_projection(w: Window) -> WindowedOperator:
    """Diagonal projection onto the nonnegative Fourier modes of the window."""
    return WindowedOperator(w, np.diag(_hardy_diagonal(w)), label="hardy_projection")


def toeplitz_compress(a: Symbol, w: Window) -> WindowedOperator:
    """Toeplitz compression P M_a P on the window."""
    m = multiplication_operator(a, w).entries
    return WindowedOperator(w, _quadrants(m, w, "++"), label="toeplitz")


def _require_two_sided(w: Window, what: str):
    if w.lo >= 0:
        raise ValueError(f"{what} needs strictly negative modes; window starts at {w.lo}")


def hankel_operator(a: Symbol, w: Window) -> WindowedOperator:
    """Hankel part (1-P) M_a P; the range lives on negative modes."""
    _require_two_sided(w, "hankel_operator")
    m = multiplication_operator(a, w).entries
    return WindowedOperator(w, _quadrants(m, w, "-+"), label="hankel")


def projection_commutator(a: Symbol, w: Window) -> WindowedOperator:
    """Commutator [P, M_a] on the window."""
    _require_two_sided(w, "projection_commutator")
    m = multiplication_operator(a, w).entries
    comm = _quadrants(m, w, "+-") - _quadrants(m, w, "-+")  # P M_a (1-P) - (1-P) M_a P
    return WindowedOperator(w, comm, label="commutator")


def splitting_defect(a: Symbol, b: Symbol, w: Window):
    """Multiplicative and adjoint defects of the Toeplitz compression.

    Returns (product_defect, adjoint_defect) where product_defect is
    T_{ab} - T_a T_b and adjoint_defect is T_{conj(a)} - (T_a)^*.  The
    window must be guard-valid for depth 2 at the combined bandwidth.
    """
    bw = a.bandwidth + b.bandwidth
    guard_slice(w, 2, bw)
    ta = toeplitz_compress(a, w).entries
    tb = toeplitz_compress(b, w).entries
    tab = toeplitz_compress(symbol_product(a, b), w).entries
    tconj = toeplitz_compress(symbol_conjugate(a), w).entries
    product = WindowedOperator(w, tab - ta @ tb, label="product_defect")
    adjoint = WindowedOperator(w, tconj - ta.conj().T, label="adjoint_defect")
    return product, adjoint


def rotation_equivariance_residual(a: Symbol, theta: float, w: Window) -> float:
    """Norm of tau(R_theta a) - U_theta tau(a) U_theta^*; zero up to rounding."""
    rotated = make_symbol((deg, amp * np.exp(1j * deg * theta)) for deg, amp in a.coefficients)
    u = np.exp(1j * theta * w.modes)  # diagonal of U_theta
    ta = toeplitz_compress(a, w).entries
    tr = toeplitz_compress(rotated, w).entries
    return _opnorm(tr - u[:, None] * ta * u.conj())


def _rank(s: np.ndarray) -> int:
    """Count of descending singular values above RANK_CUTOFF times the largest one."""
    return int(np.sum(s > RANK_CUTOFF * s[0])) if s.size else 0


def numerical_rank(x: np.ndarray) -> int:
    """Count of singular values of x above RANK_CUTOFF times the largest one."""
    return _rank(np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False))
