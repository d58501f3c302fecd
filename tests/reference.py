"""The dense reference model that the tests compare oil with.

Each operator is its textbook d x d matrix on the window's modes: M_a as a
sum of np.eye shifts, P = diag(modes >= 0) or its quadrant mask, Q = P + T
as a diagonal matrix, V1, V2 and the swap as 0/1 matrices, and a dilation's
pi(a) as Omega^* ((1_r (x) a) + 0_m) Omega.  Each identity is its dense
formula.  No function here calls the oil code that it is compared with: oil
supplies only the inputs, which are symbols and their algebra, lambda
sequences, Haar unitaries and a dilation's Omega.
"""

import tracemalloc

import numpy as np

from oil import Window, haar_unitary, lambda_sequence, make_symbol, symbol_conjugate, symbol_product

Z = make_symbol([(1, 1.0)])
ZBAR = make_symbol([(-1, 1.0)])
ONE = make_symbol([(0, 1.0)])


def seeded_symbol(bandwidth: int, seed: int, real: bool = False):
    """Random coefficients at every degree in [-bandwidth, bandwidth], complex unless real."""
    rng = np.random.default_rng(seed)
    degs = np.arange(-bandwidth, bandwidth + 1)
    amps = rng.normal(size=degs.size) + (0 if real else 1j * rng.normal(size=degs.size))
    return make_symbol(zip(degs.tolist(), amps.tolist()))


def sparse_symbol(bandwidth: int, seed: int):
    """Random complex coefficients at min(7, 2 bandwidth + 1) distinct degrees, -bandwidth or bandwidth among them."""
    rng = np.random.default_rng(seed)
    size = min(7, 2 * bandwidth + 1)
    degs = rng.choice(np.arange(-bandwidth, bandwidth + 1), size=size, replace=False)
    degs[0] = bandwidth if seed % 2 else -bandwidth  # the full bandwidth is always present
    amps = rng.normal(size=degs.size) + 1j * rng.normal(size=degs.size)
    return make_symbol(zip(np.unique(degs).tolist(), amps.tolist()))


def random_matrix(rng, n: int) -> np.ndarray:
    """An n x n matrix of independent complex Gaussians: the real parts drawn first, then the imaginary parts."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def zero_signs_flipped(x: np.ndarray) -> np.ndarray:
    """A copy of x with every exact zero of its real and imaginary parts made -0.0, which LAPACK's SVD reads."""
    flipped = x.copy()
    flipped.real[x.real == 0] = -0.0
    flipped.imag[x.imag == 0] = -0.0
    return flipped


def multiplication(a, w: Window) -> np.ndarray:
    """M_a on the window: a_k on the k-th subdiagonal, as a sum of np.eye shifts."""
    d = w.dimension
    m = np.zeros((d, d), dtype=complex)
    for deg, amp in a.coefficients:
        if abs(deg) < d:
            m += amp * np.eye(d, k=-deg)
    return m


def projection(w: Window) -> np.ndarray:
    """The Hardy projection P as a 0/1 matrix."""
    return np.diag(w.modes >= 0)


def quadrants(x: np.ndarray, w: Window, *keep: str) -> np.ndarray:
    """Copy of x, zero outside the kept quadrants of the split at mode 0 ("+-": P x (1-P))."""
    sides = {"-": slice(0, -w.lo), "+": slice(-w.lo, None)}
    out = np.zeros_like(x)
    for rows, cols in keep:
        out[sides[rows], sides[cols]] = x[sides[rows], sides[cols]]
    return out


def toeplitz_defects(a, b, w: Window) -> tuple[np.ndarray, np.ndarray]:
    """T_ab - T_a T_b and T_conj(a) - T_a^* on the whole window, with T_x = P M_x P as a quadrant copy."""
    ta, tb, tab, tconj = (
        quadrants(multiplication(x, w), w, "++") for x in (a, b, symbol_product(a, b), symbol_conjugate(a))
    )
    return tab - ta @ tb, tconj - ta.conj().T


def widom(a, b, w: Window) -> np.ndarray:
    """The Widom form P M_a (1-P) M_b P of T_ab - T_a T_b."""
    return quadrants(quadrants(multiplication(a, w), w, "+-") @ multiplication(b, w), w, "++")


def deformed_q(lam: np.ndarray, w: Window) -> np.ndarray:
    """Q = P + T as a diagonal matrix, with T z^k = lam[k] z^k at the Hardy modes."""
    return np.diag(np.where(w.modes >= 0, 1.0 + lam[np.maximum(w.modes, 0)], 0.0))


def defect_expansion(lam: np.ndarray, a, b, w: Window) -> np.ndarray:
    """tau_T(ab) - tau_T(a) tau_T(b) minus its four-term expansion, tau_T(x) = Q M_x Q, by d x d products.

    The expansion is pi(ab) Q^2 (P - Q^2) + [Q, pi(ab)] Q + Q pi(a) [pi(b), Q^2] Q
    + [pi(ab), Q] Q^3 with pi(x) = M_x.  The difference is Q (M_a M_b - M_ab) Q^3,
    which vanishes wherever the window holds every term of M_a M_b.
    """
    p, q = projection(w), deformed_q(lam, w)
    ma, mb, mab = (multiplication(x, w) for x in (a, b, symbol_product(a, b)))
    q2 = q @ q
    lhs = q @ mab @ q - (q @ ma @ q) @ (q @ mb @ q)
    terms = mab @ q2 @ (p - q2) + (q @ mab - mab @ q) @ q
    terms += q @ ma @ (mb @ q2 - q2 @ mb) @ q + (mab @ q - q @ mab) @ q2 @ q
    return lhs - terms


def interleavings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V1 e_k = e_2k, V2 e_k = e_2k+1 and the swap of the copies, 2k <-> 2k+1, as 0/1 matrices."""
    v1 = np.zeros((2 * n, n), dtype=complex)
    v2 = np.zeros((2 * n, n), dtype=complex)
    swap = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        v1[2 * k, k] = v2[2 * k + 1, k] = 1.0
        swap[2 * k, 2 * k + 1] = swap[2 * k + 1, 2 * k] = 1.0
    return v1, v2, swap


def interleaved_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of extensions V1 a V1^* + V2 b V2^*, by 0/1 matrix products."""
    v1, v2, _ = interleavings(a.shape[0])
    return v1 @ a @ v1.conj().T + v2 @ b @ v2.conj().T


def merged_spectrum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The singular values of a and of b in one non-increasing list: those of their sum of extensions."""
    return np.sort(np.concatenate([np.linalg.svd(x, compute_uv=False) for x in (a, b)]))[::-1]


def lemma(params, t: int) -> tuple[np.ndarray, np.ndarray]:
    """U^* a U and L = U^* a U - Q a Q for trial t of the lower-bound experiment, a(z) = z, by M x M products.

    U is haar_unitary(N, seed ^ t) on the first N modes and the identity beyond; Q = 1 + lambda on [0, M-1].
    """
    n, m = params.N, params.M
    w = Window(0, m - 1)
    u = np.eye(m, dtype=complex)
    u[:n, :n] = haar_unitary(n, params.seed ^ t)
    shift, q = multiplication(Z, w), deformed_q(lambda_sequence(params.eps, params.family, m), w)
    conj = u.conj().T @ shift @ u
    return conj, conj - q @ shift @ q


def dense_rep(d, a) -> np.ndarray:
    """The dilation's pi(a) = Omega^* ((1_r (x) a) + 0_m) Omega, with the dense middle factor."""
    n, r = d.cp.n, d.cp.r
    big = np.zeros((d.ambient_dim, d.ambient_dim), dtype=complex)
    big[: n * r, : n * r] = np.kron(np.eye(r), a)
    return d.omega.conj().T @ big @ d.omega


def peak_bytes(fn, *args) -> int:
    """The peak of the memory that tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
