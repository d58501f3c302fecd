"""Tests for the finite-dimensional Stinespring dilation and its block identities."""

import numpy as np
import pytest

from oil import (
    CpMap,
    IdealSpec,
    SingularSpectrum,
    defect_identity_residuals,
    dilation_build,
    random_cp_contraction,
    square_root_membership,
)


def opnorm(x):
    return np.linalg.norm(x, 2)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestCpMap:
    def test_scalar_contraction(self):
        cp = random_cp_contraction(1, 1, 1, seed=1)
        assert abs(cp.kraus[0][0, 0]) <= 1.0

    def test_contraction_by_construction(self):
        for seed in range(5):
            cp = random_cp_contraction(3, 5, 2, seed=seed)
            top = cp.unit_image()
            assert np.max(np.linalg.eigvalsh(top)) <= 1.0 + 1e-12

    def test_deterministic_in_seed(self):
        a = random_cp_contraction(4, 4, 3, seed=9)
        b = random_cp_contraction(4, 4, 3, seed=9)
        for ka, kb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ka, kb)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            CpMap((np.eye(2), np.ones((3, 2))))

    def test_non_contraction_rejected(self):
        with pytest.raises(ValueError, match="contraction"):
            CpMap((2.0 * np.eye(2),))


class TestDilation:
    def test_identity_map_compression_exact(self):
        cp = CpMap((np.eye(3),))
        d = dilation_build(cp)
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 3)
        pi11 = d.blocks(a)[0]
        assert opnorm(pi11 - a) <= 1e-12

    def test_isometry_conjugation_defect(self):
        # kappa(a) = V* a V for an isometry V: kappa(ab) - kappa(a)kappa(b)
        # must equal pi12(a) pi21(b) by direct block multiplication
        v, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 3)))
        cp = CpMap((v.conj().T,))  # a -> V* a V, shape 3x5... kraus K = V*
        d = dilation_build(cp)
        rng = np.random.default_rng(2)
        a, b = random_matrix(rng, 5), random_matrix(rng, 5)
        _, pi12a, _, _ = d.blocks(a)
        _, _, pi21b, _ = d.blocks(b)
        lhs = cp.apply(a @ b) - cp.apply(a) @ cp.apply(b)
        assert opnorm(lhs - pi12a @ pi21b) <= 1e-10

    def test_random_contraction_compression(self):
        cp = random_cp_contraction(4, 4, 3, seed=21)
        d = dilation_build(cp)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_matrix(rng, 4)
            assert opnorm(d.blocks(a)[0] - cp.apply(a)) <= 1e-10

    def test_homomorphism(self):
        cp = random_cp_contraction(3, 4, 2, seed=8)
        d = dilation_build(cp)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_matrix(rng, 3), random_matrix(rng, 3)
            assert opnorm(d.rep(a @ b) - d.rep(a) @ d.rep(b)) <= 1e-10

    def test_star_homomorphism(self):
        cp = random_cp_contraction(3, 3, 2, seed=15)
        d = dilation_build(cp)
        a = random_matrix(np.random.default_rng(5), 3)
        assert opnorm(d.rep(a.conj().T) - d.rep(a).conj().T) <= 1e-12

    def test_deterministic(self):
        cp = random_cp_contraction(3, 3, 2, seed=30)
        d1 = dilation_build(cp)
        d2 = dilation_build(cp)
        np.testing.assert_array_equal(d1.omega, d2.omega)


class TestBlocks:
    def test_zero_input(self):
        d = dilation_build(random_cp_contraction(3, 3, 2, seed=40))
        for blk in d.blocks(np.zeros((3, 3))):
            assert np.all(blk == 0)

    def test_offdiagonal_adjoint_relation(self):
        d = dilation_build(random_cp_contraction(4, 4, 3, seed=41))
        a = random_matrix(np.random.default_rng(6), 4)
        sa = (a + a.conj().T) / 2
        _, pi12, pi21, _ = d.blocks(sa)
        assert opnorm(pi12.conj().T - pi21) <= 1e-12

    def test_unital_map_has_zero_offdiagonal_at_one(self):
        u = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))[0]
        cp = CpMap((u.astype(complex),))  # unitary Kraus: unital
        d = dilation_build(cp)
        _, pi12, _, _ = d.blocks(np.eye(4))
        assert opnorm(pi12) <= 1e-10

    def test_dimension_mismatch(self):
        d = dilation_build(random_cp_contraction(3, 3, 2, seed=42))
        with pytest.raises(ValueError, match="3x3"):
            d.blocks(np.eye(4))


class TestDefectIdentities:
    def test_multiplicative_map_zero_defect(self):
        u = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 4)))[0]
        d = dilation_build(CpMap((u.astype(complex),)))
        rng = np.random.default_rng(9)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        r1, _ = defect_identity_residuals(d, a, b)
        assert r1 <= 1e-12

    def test_zero_inputs(self):
        d = dilation_build(random_cp_contraction(3, 3, 2, seed=50))
        r1, r2 = defect_identity_residuals(d, np.zeros((3, 3)), np.zeros((3, 3)))
        assert r1 == 0.0 and r2 == 0.0

    def test_random_selfadjoint_residuals(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            d = dilation_build(random_cp_contraction(4, 4, 3, seed=60 + seed))
            a = random_matrix(rng, 4)
            sa = (a + a.conj().T) / 2
            r1, r2 = defect_identity_residuals(d, sa, sa)
            assert r1 <= 1e-10 and r2 <= 1e-10

    def test_commutator_square_matches_block_spectrum(self):
        # the squared commutator's singular values equal those of the
        # block diagonal of the off-diagonal products
        d = dilation_build(random_cp_contraction(5, 5, 2, seed=70))
        a = random_matrix(np.random.default_rng(11), 5)
        sa = (a + a.conj().T) / 2
        _, pi12, pi21, _ = d.blocks(sa)
        p = d.projection()
        pia = d.rep(sa)
        comm = p @ pia - pia @ p
        mu_comm = np.linalg.svd(comm, compute_uv=False)
        mu_blocks = np.sort(
            np.concatenate(
                [
                    np.linalg.svd(pi12 @ pi21, compute_uv=False),
                    np.linalg.svd(pi21 @ pi12, compute_uv=False),
                ]
            )
        )[::-1]
        np.testing.assert_allclose(np.sort(mu_comm**2)[::-1], mu_blocks, atol=1e-10)


class TestSquareRootMembership:
    def test_harmonic_split(self):
        vals = 1.0 / np.arange(1.0, 2**16 + 1)
        in_sqrt, in_base = square_root_membership(SingularSpectrum(vals), 1.0, 2**16)
        assert in_sqrt.verdict == "summable"
        assert in_base.verdict == "divergent"

    def test_fast_decay_both_summable(self):
        vals = np.arange(1.0, 2**12 + 1) ** -3.0
        in_sqrt, in_base = square_root_membership(SingularSpectrum(vals), 1.0, 2**12)
        assert in_sqrt.verdict == "summable"
        assert in_base.verdict == "summable"

    def test_finite_rank(self):
        vals = np.zeros(2**10)
        vals[:3] = [3.0, 2.0, 1.0]
        in_sqrt, in_base = square_root_membership(SingularSpectrum(vals), 2.0, 2**10)
        assert in_sqrt.verdict == "summable"
        assert in_base.verdict == "summable"
