"""Singular-value analytics: Schatten norms, decay-exponent fits, and
summability verdicts standing in for membership in a Schatten class.

Membership of an operator in an ideal is never decided symbolically; the
ideals are the Schatten classes, each named by its exponent (IdealSpec).
Each classification returns a SummabilityVerdict holding its decision and
the partial sums it was derived from, nothing else, so any verdict can be
re-checked from its own evidence; decay fits are measured separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hardy import TOLERANCES, WindowedOperator, _svdvals

DELTA_DIVERGENT = 0.05
DELTA_SUMMABLE = 0.01


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending nonnegative singular values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("singular values must be finite and nonnegative")
        if np.any(np.diff(v) > TOLERANCES["order"] * max(1.0, v[0] if v.size else 1.0)):
            raise ValueError("singular values must be non-increasing")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class IdealSpec:
    """Schatten class of exponent p: the operators whose singular values are p-summable.

    Every ideal the laboratory decides is one of these; the square root of
    schatten(p) is schatten(2p).
    """

    p: float

    def __post_init__(self):
        if not self.p > 0:  # also rejects nan
            raise ValueError(f"schatten exponent must be positive, got {self.p}")

    @staticmethod
    def schatten(p: float) -> "IdealSpec":
        return IdealSpec(float(p))

    def describe(self) -> str:
        return f"schatten({self.p:g})"


@dataclass(frozen=True)
class SummabilityVerdict:
    """Decision of a finite summability test and the evidence it read; no decay fit."""

    verdict: str  # summable | divergent | inconclusive
    evidence: dict = field(default_factory=dict)


def singular_values(A: WindowedOperator | np.ndarray) -> SingularSpectrum:
    """All min(shape) singular values, descending, exact zeros included.

    An operator's spectrum is the union of its blocks', padded with zeros to
    d, and only the nonzero rows and columns of a block or array go to the
    SVD (hardy._svdvals); no d x d matrix is formed for a block operator.
    """
    if isinstance(A, WindowedOperator):  # finite blocks: checked at build, or built from checked coefficients
        d = A.window.dimension
        s = np.concatenate([_svdvals(x) for _, _, x in A.blocks] + [np.zeros(d)])
        return SingularSpectrum(np.sort(s)[::-1][:d])
    x = np.asarray(A, dtype=complex)
    if not np.isfinite(x).all():
        raise ValueError("non-finite matrix entries")
    return SingularSpectrum(_svdvals(x))


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


def fit_exponent(values: np.ndarray, k_lo: int, k_hi: int) -> float:
    """Least-squares exponent alpha with values_k ~ k^(-alpha) over [k_lo, k_hi].

    Indices past the end of values are dropped; the result is nan when k_lo < 1,
    fewer than 8 remain or one of their values is <= 0, so callers record nan
    rather than catch an error (the epsilon sweep fits each lambda sequence
    with it once).  The slope is -(x.y)/(x.x) for the centered logs x of the
    indices and y of values[k_lo:k_hi+1], each product summed pairwise.
    """
    vals = values[k_lo : k_hi + 1]
    if k_lo < 1 or len(vals) < 8 or not vals.min() > 0:
        return math.nan
    x = np.log(np.arange(k_lo, k_lo + len(vals), dtype=float))
    y = np.log(vals)
    x -= x.mean()
    y -= y.mean()  # centering y too keeps the rounding of sum(x) times mean(y) out of x.y
    y *= x
    x *= x
    return float(-np.sum(y) / np.sum(x))


def summability_classify(values, spec: IdealSpec, N_max: int) -> SummabilityVerdict:
    """Classify a nonnegative sequence against schatten(spec.p) by doubling sums.

    The statistics are the partial sums of values^p at N_max/4, N_max/2 and
    N_max.  Divergent when both doubling ratios exceed 1+DELTA_DIVERGENT;
    summable when the last doubling increment is at most DELTA_SUMMABLE
    relative; otherwise inconclusive.
    """
    v = np.asarray(values, dtype=float)
    if N_max & (N_max - 1) or N_max < 8 or N_max > len(v):
        raise ValueError(f"N_max must be a power of two in [8, length], got {N_max}")
    ns = [N_max // 4, N_max // 2, N_max]
    powers = v[:N_max] ** spec.p
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
