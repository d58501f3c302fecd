"""Tests for the finite-dimensional Stinespring dilation and its block identities."""

import numpy as np
import pytest

from oil import (
    CpMap,
    DilationData,
    defect_identity_residuals,
    dilation_build,
    random_cp_contraction,
)
from oil.cli import main
from oil.hardy import _frobenius, _opnorm


def opnorm(x):
    return np.linalg.norm(x, 2)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def dense_rep(d, a):
    """The reference pi(a) = Omega^* ((1_r (x) a) + 0_m) Omega with the dense middle factor."""
    n, r = d.cp.n, d.cp.r
    big = np.zeros((d.ambient_dim, d.ambient_dim), dtype=complex)
    big[: n * r, : n * r] = np.kron(np.eye(r), a)
    return d.omega.conj().T @ big @ d.omega


def rep_relative_error(d, a):
    ref = dense_rep(d, a)
    return opnorm(d.rep(a) - ref) / opnorm(ref)


def stacked_isometry(cp):
    """W: the adjoint Kraus operators stacked over the Kraus index, then (1 - kappa(1))^(1/2)."""
    evals, evecs = np.linalg.eigh(np.eye(cp.m) - cp.unit_image)
    evals = np.where(evals < 1e-14, 0.0, evals)
    root = (evecs * np.sqrt(evals)) @ evecs.conj().T
    return np.vstack([k.conj().T for k in cp.kraus] + [root])


DIMS = [(1, 1, 1), (4, 4, 3), (3, 5, 2), (5, 3, 2), (32, 32, 8), (32, 32, 2)]


def dilation_cases():
    for n, m, r in DIMS:
        yield f"{n}-{m}-{r}", random_cp_contraction(n, m, r, seed=n + m + r)
    u = np.linalg.qr(np.random.default_rng(12).normal(size=(4, 4)))[0]
    yield "unital", CpMap((u.astype(complex) / np.sqrt(2), u.T.astype(complex) / np.sqrt(2)))


CASES = dict(dilation_cases())


class TestCpMap:
    def test_scalar_contraction(self):
        cp = random_cp_contraction(1, 1, 1, seed=1)
        assert abs(cp.kraus[0][0, 0]) <= 1.0

    def test_contraction_by_construction(self):
        for seed in range(5):
            cp = random_cp_contraction(3, 5, 2, seed=seed)
            top = cp.unit_image
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


def kraus_loop(cp, a):
    """The reference kappa(a): sum_i K_i a K_i^* by a loop over the Kraus operators."""
    return sum(k @ a @ k.conj().T for k in cp.kraus)


@pytest.mark.parametrize("name", list(CASES))
class TestStackedKappa:
    def test_single_matrix_matches_the_kraus_loop(self, name):
        cp = CASES[name]
        rng = np.random.default_rng(15)
        for _ in range(5):
            a = random_matrix(rng, cp.n)
            ref = kraus_loop(cp, a)
            assert opnorm(cp.apply(a) - ref) <= 1e-14 * opnorm(ref)
        assert opnorm(cp.unit_image - kraus_loop(cp, np.eye(cp.n))) <= 1e-14

    def test_stack_matches_the_kraus_loop(self, name):
        cp = CASES[name]
        stack = np.stack([random_matrix(np.random.default_rng(16 + i), cp.n) for i in range(4)])
        got = cp.apply(stack)
        assert got.shape == (4, cp.m, cp.m)
        for x, y in zip(stack, got):
            ref = kraus_loop(cp, x)
            assert opnorm(y - ref) <= 1e-14 * opnorm(ref)

    def test_wrong_trailing_shape_rejected(self, name):
        cp = CASES[name]
        n = cp.n
        for shape in [(n, n + 1), (n + 1, n), (4, n, n + 1), (4, n + 1, n + 1), (n,), ()]:
            with pytest.raises(ValueError, match=f"{n}x{n}"):
                cp.apply(np.zeros(shape))


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


@pytest.mark.parametrize("name", list(CASES))
class TestDilationFromIsometry:
    def test_rep_matches_dense_formula(self, name):
        d = dilation_build(CASES[name])
        rng = np.random.default_rng(13)
        for _ in range(5):
            assert rep_relative_error(d, random_matrix(rng, d.cp.n)) <= 1e-13

    def test_omega_unitary(self, name):
        omega = dilation_build(CASES[name]).omega
        assert opnorm(omega.conj().T @ omega - np.eye(len(omega))) <= 1e-13

    def test_first_columns_are_the_isometry_and_builds_agree(self, name):
        cp = CASES[name]
        omega = dilation_build(cp).omega
        assert np.array_equal(omega[:, : cp.m], stacked_isometry(cp))
        assert np.array_equal(omega, dilation_build(cp).omega)


QR = np.linalg.qr


def _completion_from_leading_columns(w, mode):
    # Q rolled so that the caller's Q[:, m:] is the original Q[:, :dim-m], which meets range(W)
    q, r = QR(w, mode=mode)
    return np.roll(q, w.shape[1], axis=1), r


def _rep_dropping_last_kraus_block(self, a):
    n, r = self.cp.n, self.cp.r - 1
    top = self.omega[: n * r]
    return top.conj().T @ (a @ top.reshape(r, n, -1)).reshape(n * r, -1)


@pytest.mark.parametrize("name", list(CASES))
def test_completion_mutant_is_caught(monkeypatch, name):
    monkeypatch.setattr(np.linalg, "qr", _completion_from_leading_columns)
    with pytest.raises(RuntimeError, match="not unitary"):
        dilation_build(CASES[name])


@pytest.mark.parametrize("name", [name for name, cp in CASES.items() if cp.r > 1])
def test_rep_mutant_is_caught(monkeypatch, name):
    d = dilation_build(CASES[name])
    monkeypatch.setattr(DilationData, "rep", _rep_dropping_last_kraus_block)
    a = random_matrix(np.random.default_rng(14), d.cp.n)
    assert rep_relative_error(d, a) > 1e-2


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

    def test_residuals_fail_when_pi_is_not_a_homomorphism(self, monkeypatch):
        # every block matrix x has [P, x]^2 = -diag(x12 x21, x21 x12), so r2 must
        # compare pi's blocks with kappa to see a pi that does not dilate it
        d = dilation_build(random_cp_contraction(4, 4, 3, seed=80))
        rng = np.random.default_rng(12)
        arbitrary = random_matrix(rng, d.ambient_dim)
        monkeypatch.setattr(DilationData, "rep", lambda self, a: arbitrary)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        r1, r2 = defect_identity_residuals(d, (a + a.conj().T) / 2, b)
        assert r1 > 1.0 and r2 > 1.0

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
        p = np.diag(np.arange(d.ambient_dim) < d.cp.m).astype(complex)  # P onto the first m coordinates
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



def _stack_without_conjugate(cp):
    return cp.stack, cp.stack.transpose(0, 2, 1)


def _stack_dropping_last_kraus(cp):
    return cp.stack[:-1], cp.stack_h[:-1]


def _faulty_stacked_apply(factors):
    """CpMap.apply with a stack's Kraus factors from factors(cp); one matrix, as in the postcondition, as before."""
    real = CpMap.apply

    def apply(cp, a):
        a = np.asarray(a, dtype=complex)
        if a.ndim == 2:
            return real(cp, a)
        k, kh = factors(cp)
        return (k[:, None] @ a @ kh[:, None]).sum(axis=0)

    return apply


STACKED_FAULTS = {"conjugate": _stack_without_conjugate, "kraus": _stack_dropping_last_kraus}


def criterion_5_residuals():
    """The worst r1 and r2 over criterion 5's maps and pairs."""
    rng = np.random.default_rng(1234)
    worst = [0.0, 0.0]
    for i in range(20):
        d = dilation_build(random_cp_contraction(4, 4, 3, seed=1000 + i))
        for _ in range(20):
            a, b = random_matrix(rng, 4), random_matrix(rng, 4)
            worst = np.maximum(worst, defect_identity_residuals(d, (a + a.conj().T) / 2, b))
    return worst


@pytest.mark.parametrize("fault", list(STACKED_FAULTS))
def test_stacked_product_fault_fails_criterion_5_and_the_cli(fault, monkeypatch, capsys, tmp_path):
    assert np.all(criterion_5_residuals() <= 1e-10)
    argv = ["stinespring-check", "--maps", "2", "--pairs", "3", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    monkeypatch.setattr(CpMap, "apply", _faulty_stacked_apply(STACKED_FAULTS[fault]))
    assert np.all(criterion_5_residuals() > 1e-3)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().out == "stinespring-check: FAIL\n"


def test_frobenius_bounds_are_never_below_the_svd_norm():
    """On criterion 5's maps and pairs, and on one (32, 32, 8) map: unitarity and homomorphism."""
    rng = np.random.default_rng(1234)
    maps = [((4, 4, 3), 1000 + i, 20) for i in range(20)] + [((32, 32, 8), 1, 2)]
    for (n, m, r), seed, pairs in maps:
        d = dilation_build(random_cp_contraction(n, m, r, seed=seed))
        gram = d.omega.conj().T @ d.omega - np.eye(d.ambient_dim)
        assert _frobenius(gram) >= _opnorm(gram)
        for _ in range(pairs):
            a, b = random_matrix(rng, n), random_matrix(rng, n)
            hom = d.rep(a @ b) - d.rep(a) @ d.rep(b)
            assert _frobenius(hom) >= _opnorm(hom)
