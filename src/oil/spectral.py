"""Singular-value analytics: Schatten norms, decay exponents, and
summability verdicts standing in for operator-ideal membership.

Membership of an operator in an ideal is never decided symbolically.
Each classification returns a SummabilityVerdict holding its decision and
the partial sums it was derived from, nothing else, so any verdict can be
re-checked from its own evidence; decay fits are measured separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hardy import WindowedOperator, _svdvals

DELTA_DIVERGENT = 0.05
DELTA_SUMMABLE = 0.01


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending nonnegative singular values with provenance."""

    values: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("singular values must be finite and nonnegative")
        if np.any(np.diff(v) > 1e-12 * max(1.0, v[0] if v.size else 1.0)):
            raise ValueError("singular values must be non-increasing")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class IdealSpec:
    """Operator-ideal descriptor: schatten(p), dixmier(n), or a square root."""

    kind: str
    p: float | None = None
    n: int | None = None
    inner: "IdealSpec | None" = None

    @staticmethod
    def schatten(p: float) -> "IdealSpec":
        if not p > 0:  # also rejects nan
            raise ValueError(f"schatten exponent must be positive, got {p}")
        return IdealSpec(kind="schatten", p=float(p))

    @staticmethod
    def dixmier(n: int = 1) -> "IdealSpec":
        if n < 1:
            raise ValueError(f"dixmier order must be >= 1, got {n}")
        return IdealSpec(kind="dixmier", n=int(n))

    @staticmethod
    def square_root_of(inner: "IdealSpec") -> "IdealSpec":
        return IdealSpec(kind="square_root", inner=inner)

    @property
    def effective_exponent(self) -> float:
        """Summability exponent: p for schatten, 2p for its square root."""
        if self.kind == "schatten":
            return self.p
        if self.kind == "square_root":
            return 2.0 * self.inner.effective_exponent
        raise ValueError("dixmier ideals have no summability exponent")

    def describe(self) -> str:
        if self.kind == "schatten":
            return f"schatten({self.p:g})"
        if self.kind == "dixmier":
            return f"dixmier({self.n})"
        return f"sqrt[{self.inner.describe()}]"


@dataclass(frozen=True)
class SummabilityVerdict:
    """Decision of a finite summability test and the evidence it read; no decay fit."""

    verdict: str  # summable | divergent | inconclusive
    evidence: dict = field(default_factory=dict)


def singular_values(A: WindowedOperator | np.ndarray, label: str = "") -> SingularSpectrum:
    """All min(shape) singular values, descending, exact zeros included.

    Only the nonzero rows and columns go to the SVD (hardy._svdvals), so a
    finite-rank Hankel or commutator block costs its corner, not its window.
    """
    if isinstance(A, WindowedOperator):
        x, label = A.entries, label or A.label
    else:
        x = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
        raise ValueError("non-finite matrix entries")
    return SingularSpectrum(_svdvals(x), source_label=label)


def schatten_norm(s: SingularSpectrum, p: float) -> float:
    """(sum mu_k^p)^(1/p) as m (sum (mu_k/m)^p)^(1/p), m = max mu; 0.0 for an all-zero spectrum.

    The ratios lie in [0, 1] and one is 1, so no power overflows and no
    power that falls into subnormals moves the sum.  Scaling by the maximum
    rather than mu_0 keeps this true for the slightly unsorted tiny spectra
    that SingularSpectrum's absolute order tolerance accepts.
    """
    if not p > 0:  # also rejects nan
        raise ValueError(f"schatten exponent must be positive, got {p}")
    mu = s.values
    if not mu.any():
        return 0.0
    top = mu.max()
    return float(top * np.sum((mu / top) ** p) ** (1.0 / p))


def decay_exponent(s: SingularSpectrum, k_lo: int, k_hi: int) -> float:
    """Least-squares power-law exponent alpha with mu_k ~ k^(-alpha) over [k_lo, k_hi]."""
    if k_lo < 1 or k_hi >= len(s) or k_hi - k_lo + 1 < 8:
        raise ValueError(f"need 1 <= k_lo <= k_hi < len, >= 8 samples; got [{k_lo},{k_hi}]")
    alpha = fit_exponent(s.values, k_lo, k_hi)
    if math.isnan(alpha):
        raise ValueError("zero singular values in fit range; log-log fit undefined")
    return alpha


def tail_doubling_ratio(values, p: float, N: int) -> float:
    """S_{2N}/S_N for the partial sums of values^p."""
    v = np.asarray(values, dtype=float)
    if 2 * N > len(v):
        raise ValueError(f"need 2N <= length, got N={N}, length={len(v)}")
    s_n = float(np.sum(v[:N] ** p))
    if s_n == 0.0:
        raise ValueError("S_N is zero; ratio undefined")
    return float(np.sum(v[: 2 * N] ** p)) / s_n


def dixmier_estimate(s: SingularSpectrum, N: int) -> float:
    """Logarithmic mean (sum_{k<N} mu_k) / ln N, a Dixmier-trace surrogate."""
    if N < 2 or N > len(s):
        raise ValueError(f"need 2 <= N <= length, got N={N}")
    return float(np.sum(s.values[:N]) / math.log(N))


def fit_exponent(values: np.ndarray, k_lo: int, k_hi: int) -> float:
    """Power-law exponent of values over [k_lo, k_hi]; nan if under 8 samples or one <= 0.

    The fit behind decay_exponent, for callers that record nan instead of
    raising (the epsilon sweep fits each lambda sequence with it once).
    """
    ks = np.arange(k_lo, k_hi + 1)
    ks = ks[ks < len(values)]
    if len(ks) < 8:
        return math.nan
    vals = values[ks]
    if np.any(vals <= 0):
        return math.nan
    return float(-np.polyfit(np.log(ks), np.log(vals), 1)[0])


def summability_classify(values, spec: IdealSpec, N_max: int) -> SummabilityVerdict:
    """Classify a nonnegative sequence against an ideal spec by doubling sums.

    Divergent when both doubling ratios exceed 1+DELTA_DIVERGENT; summable when
    the last doubling increment is at most DELTA_SUMMABLE relative; otherwise
    inconclusive.  Dixmier specs track the logarithmic means instead of
    the powered partial sums.
    """
    v = np.asarray(values, dtype=float)
    if N_max & (N_max - 1) or N_max < 8 or N_max > len(v):
        raise ValueError(f"N_max must be a power of two in [8, length], got {N_max}")
    ns = [N_max // 4, N_max // 2, N_max]
    if spec.kind == "dixmier":
        spectrum = SingularSpectrum(np.sort(v)[::-1], source_label="dixmier_input")
        stats = [dixmier_estimate(spectrum, n) for n in ns]
    else:
        powers = v[:N_max] ** spec.effective_exponent
        stats = [float(np.sum(powers[:n])) for n in ns]
    evidence = {
        "N": ns,
        "partial_sums": stats,
        "spec": spec.describe(),
        "delta_div": DELTA_DIVERGENT,
        "delta_sum": DELTA_SUMMABLE,
    }
    if stats[2] == 0.0:
        return SummabilityVerdict("summable", evidence)
    if stats[0] > 0.0:
        r1, r2 = stats[1] / stats[0], stats[2] / stats[1]
        if r1 >= 1.0 + DELTA_DIVERGENT and r2 >= 1.0 + DELTA_DIVERGENT:
            return SummabilityVerdict("divergent", evidence)
    if stats[1] > 0.0 and stats[2] - stats[1] <= DELTA_SUMMABLE * stats[1]:
        return SummabilityVerdict("summable", evidence)
    return SummabilityVerdict("inconclusive", evidence)


def export_spectrum_csv(s: SingularSpectrum, path) -> None:
    """CSV spectrum export: header k,sigma, full double precision."""
    with open(path, "w") as fh:
        fh.write("k,sigma\n")
        for k, sigma in enumerate(s.values):
            fh.write(f"{k},{sigma:.17g}\n")
