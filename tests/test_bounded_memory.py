"""The sweep and the lemma hold only the arrays they read, and compute what the whole-array forms did.

lambda_sequence fills its one array in place, epsilon_sweep keeps one lambda
sequence alive, fit_exponent reads a slice, and lemma_lower_bound_report
forms U L from U's N x N block.  The references below are the formulas they
replaced, each holding every temporary of full length; the results must be
equal bit for bit, and the traced peaks must stay under bounds that those
references break.
"""

import tracemalloc

import numpy as np
import pytest

from oil import (
    DeformationParams,
    epsilon_sweep,
    haar_unitary,
    lambda_sequence,
    lemma_lower_bound_report,
)
from oil.deformation import FAMILIES
from oil.spectral import SingularSpectrum, fit_exponent, schatten_norm

MiB = 2**20


def reference_lambda(eps: float, family: str, count: int) -> np.ndarray:
    """lambda_k from the whole array k, with every temporary of count entries."""
    k = np.arange(count, dtype=float)
    if family == "pure_power":
        return (1.0 + k) ** (-eps)
    out = np.ones(count)
    u = k[1:] ** (-2.0 * eps)
    root = np.sqrt(1.0 + u)
    out[1:] = u / (root * (1.0 + root))
    return out


def reference_lemma(params: DeformationParams, trials: int) -> tuple:
    """min_gaps, lhs_norms, s1 and s2 residuals with U held as an m x m matrix: U's block, then the identity."""
    n, m = params.N, params.M
    lam = reference_lambda(params.eps, params.family, m)
    q = 1.0 + lam
    shift = q[1:] * q[:-1]
    coeff = 1.0 + lam[1 : n + 1] + lam[:n] + lam[:n] * lam[1 : n + 1]
    s2_res = float(np.max(np.abs(shift[:n] ** 2 - coeff**2)))
    min_gaps, lhs_norms, s1_res = np.full(n, np.inf), [], 0.0
    for t in range(trials):
        u = np.eye(m, dtype=complex)
        u[:n, :n] = haar_unitary(n, params.seed ^ t)
        ul = np.zeros_like(u)
        ul[1:] = u[:-1]  # a U
        ul[:, :-1] -= u[:, 1:] * shift  # - U D
        min_gaps = np.minimum(min_gaps, np.sum(np.abs(ul[:, :n]) ** 2, axis=0) - lam[:n] ** 2)
        s1_res = max(s1_res, float(np.max(np.abs(np.sum(np.abs(u[:n, :n]) ** 2, axis=0) - 1.0))))
        lhs_norms.append(schatten_norm(SingularSpectrum(np.linalg.svd(ul, compute_uv=False)), params.p))
    return min_gaps, tuple(lhs_norms), s1_res, s2_res


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", [0.3, 0.5, 1.0, 1.7])  # 0.5 and 1.0 put -1 among the exponents
@pytest.mark.parametrize("count", [1, 2, 65537, 2**20 + 3])  # 65537: k = 0 and 4 whole blocks; 2^20 + 3 ends in a block of 2
def test_lambda_matches_the_whole_array_formula(family, eps, count):
    assert lambda_sequence(eps, family, count).tobytes() == reference_lambda(eps, family, count).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 8, 128])
@pytest.mark.parametrize("extra", [2, 5])  # N + 5 has fixed modes beyond the two that N + 2 has
def test_lemma_matches_the_ambient_unitary(family, n, extra):
    params = DeformationParams(eps=0.4, p=2.0, family=family, N=n, M=n + extra, seed=9)
    rep = lemma_lower_bound_report(params, trials=2)
    min_gaps, lhs_norms, s1_res, s2_res = reference_lemma(params, trials=2)
    assert rep.min_gaps.tobytes() == min_gaps.tobytes()
    assert rep.lhs_norms == lhs_norms
    assert (rep.s1_max_residual, rep.s2_max_residual) == (s1_res, s2_res)


# bounds at 2^20 entries, one float array of which is 8 MiB; the whole-array
# forms peak at 24 (pure_power) and 48 MiB (paper_formula) for lambda, at 32
# and 56 MiB for the sweep, and at 20 MiB for the fit
@pytest.mark.parametrize("family", FAMILIES)
def test_lambda_holds_one_array(family):
    assert _peak_bytes(lambda_sequence, 0.4, family, 2**20) <= 8.5 * MiB


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_holds_one_lambda_sequence(family):
    # lambda and lambda^p for the partial sums, one point at a time
    assert _peak_bytes(epsilon_sweep, 2.0, [0.3, 0.8], family, 2**20) <= 17 * MiB


def test_fit_reads_a_slice():
    lam = lambda_sequence(0.4, "paper_formula", 2**20)
    assert _peak_bytes(fit_exponent, lam, 2**18, 2**19) <= 4.5 * MiB  # the logs of 2^18 + 1 entries


def test_lemma_forms_no_ambient_unitary():
    # N = 512: one complex m x m matrix is 4 MiB; the whole-array form peaks at 20.3 MiB
    # and two trials, so that one trial's arrays would overlap the next one's
    params = DeformationParams(eps=0.4, p=2.0, family="paper_formula", N=512, M=514, seed=3)
    haar_unitary(1, 0)  # numpy.random's first import is 0.7 MiB, outside the trace
    assert _peak_bytes(lemma_lower_bound_report, params, 2) <= 17 * MiB
