"""Finite-dimensional Stinespring dilation of completely positive
contractions, with the block identities the dilation satisfies.

A cp map kappa(a) = sum_i K_i a K_i^* with kappa(1) <= 1 dilates to a
*-homomorphism pi on an ambient space of dimension n*r + m; compressing
pi(a) to the first m coordinates recovers kappa(a) exactly (up to
floating-point rounding).  The dilation is deterministic: its unitary
Omega completes the isometry W by a complete QR factorization of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hardy import TOLERANCES, _frobenius, _opnorm


@dataclass(frozen=True)
class CpMap:
    """Completely positive contraction in Kraus form: a -> sum K_i a K_i^*.

    The family is also held as one (r, m, n) stack and its conjugate
    transpose (r, n, m), both formed once here, so that kappa is one
    broadcast product summed over the Kraus index.
    """

    kraus: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    stack_h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValueError("need at least one Kraus operator")
        shape = ks[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ks):
            raise ValueError("all Kraus operators must share one m x n shape")
        object.__setattr__(self, "kraus", ks)
        stack = np.array(ks)
        object.__setattr__(self, "stack", stack)
        # each K_i^* a transposed view of a conjugate copy, the layout of k.conj().T, so products round as a loop's
        object.__setattr__(self, "stack_h", stack.conj().transpose(0, 2, 1))
        if np.max(np.linalg.eigvalsh(self.unit_image)) > 1.0 + TOLERANCES["contraction"]:
            raise ValueError("Kraus family is not a contraction")

    @property
    def n(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def m(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def r(self) -> int:
        return len(self.kraus)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """kappa(a) of one n x n matrix, or of each matrix of a stack (..., n, n).

        The r products K_i a K_i^* are added in the Kraus order.
        """
        r, m, n = self.stack.shape
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (n, n):
            raise ValueError(f"expected {n}x{n} input, got {a.shape}")
        lead = (r,) + (1,) * (a.ndim - 2)  # the Kraus index leads, before a's stack axes
        return (self.stack.reshape(lead + (m, n)) @ a @ self.stack_h.reshape(lead + (n, m))).sum(axis=0)

    @cached_property
    def unit_image(self) -> np.ndarray:
        """kappa(1) = sum K_i K_i^*, formed once per map."""
        return (self.stack @ self.stack_h).sum(axis=0)


def random_cp_contraction(n: int, m: int, r: int, seed: int) -> CpMap:
    """Seeded Gaussian Kraus family, rescaled to a strict contraction."""
    if min(n, m, r) < 1:
        raise ValueError("n, m, r must all be >= 1")
    rng = np.random.default_rng(seed)
    ks = [rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)) for _ in range(r)]
    scale = (1.0 - 1e-6) / _opnorm(np.hstack(ks))  # ||sum K K^*|| = ||[K_1 ... K_r]||^2
    return CpMap(tuple(scale * k for k in ks))


@dataclass(frozen=True)
class DilationData:
    """Stinespring dilation: pi(a) = Omega^* ((1_r (x) a) + 0_m) Omega.

    Omega's columns extend the isometry W of the construction to a
    unitary on the ambient space of dimension n*r + m; the projection P
    onto the first m coordinates compresses pi(a) back to kappa(a).
    """

    cp: CpMap
    omega: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.cp.n * self.cp.r + self.cp.m

    def rep(self, a: np.ndarray) -> np.ndarray:
        """Dilation homomorphism pi(a)."""
        a = np.asarray(a, dtype=complex)
        n, r = self.cp.n, self.cp.r
        if a.shape != (n, n):
            raise ValueError(f"expected {n}x{n} input, got {a.shape}")
        # sum_i Omega_i^* a Omega_i over the Kraus rows Omega_i; the 0_m block adds nothing
        top = self.omega[: n * r]
        return top.conj().T @ (a @ top.reshape(r, n, -1)).reshape(n * r, -1)

    def blocks(self, a: np.ndarray):
        """(pi11, pi12, pi21, pi22) relative to the corner projection."""
        pi = self.rep(a)
        m = self.cp.m
        return pi[:m, :m], pi[:m, m:], pi[m:, :m], pi[m:, m:]


def dilation_build(cp: CpMap) -> DilationData:
    """Construct the Stinespring dilation of a cp contraction.

    The isometry W maps x to (K_i^* x)_i stacked over the Kraus index,
    followed by (1 - kappa(1))^{1/2} x.  The last columns of a complete
    QR factorization of W span range(W)^perp, so Omega = [W, those columns]
    is unitary.  Raises RuntimeError when a check of the construction fails.
    """
    n, m, r = cp.n, cp.m, cp.r
    defect = np.eye(m) - cp.unit_image
    evals, evecs = np.linalg.eigh(defect)
    if np.min(evals) < -TOLERANCES["contraction"]:
        raise RuntimeError(f"contraction violated: defect eigenvalue {np.min(evals):.3e}")
    # eigenvalues at rounding scale are treated as exact zeros so that a
    # unital map gets a genuinely zero defect block, not its sqrt(eps) shadow
    evals = np.where(evals < TOLERANCES["rounding"], 0.0, evals)
    root = (evecs * np.sqrt(evals)) @ evecs.conj().T
    w = np.vstack([cp.stack_h.reshape(n * r, m), root])  # (n*r + m) x m

    dim = n * r + m
    omega = np.hstack([w, np.linalg.qr(w, mode="complete")[0][:, m:]])
    gram = omega.conj().T @ omega
    gram.reshape(-1)[:: dim + 1] -= 1.0  # Omega^* Omega - 1, in place on the diagonal
    if _frobenius(gram) > TOLERANCES["numerical"]:
        raise RuntimeError("orthonormal completion failed: Omega not unitary")
    d = DilationData(cp=cp, omega=omega)
    probe = np.eye(n)
    if _opnorm(d.blocks(probe)[0] - cp.apply(probe)) > TOLERANCES["numerical"]:
        raise RuntimeError("dilation postcondition failed on the identity")
    return d


def defect_identity_residuals(d: DilationData, a: np.ndarray, b: np.ndarray):
    """Residuals of the two block identities of the dilation.

    r1: kappa(ab) - kappa(a)kappa(b) = pi12(a) pi21(b).
    r2: kappa(a a) - kappa(a)kappa(a) = pi12(a) pi21(a).

    kappa is evaluated from the Kraus family and pi from Omega, so both fail
    when pi does not dilate kappa as a homomorphism.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    _, pi12a, pi21a, _ = d.blocks(a)
    _, _, pi21b, _ = d.blocks(b)
    return block_residuals(d.cp, a, b, pi12a, pi21a, pi21b)


def block_residuals(cp: CpMap, a, b, pi12a, pi21a, pi21b) -> tuple[float, float]:
    """(r1, r2) of defect_identity_residuals from blocks of pi(a) and pi(b) the caller has formed.

    kappa is applied once, to the stack [ab, a, b, aa], and both norms
    come from one batched SVD.
    """
    kab, ka, kb, kaa = cp.apply(np.array([a @ b, a, b, a @ a]))
    res = np.array([kab - ka @ kb - pi12a @ pi21b, kaa - ka @ ka - pi12a @ pi21a])
    r1, r2 = np.linalg.svd(res + 0.0, compute_uv=False)[:, 0]  # + 0.0 as in _opnorm
    return float(r1), float(r2)
