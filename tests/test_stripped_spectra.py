"""Stripped spectra and the Hardy-quadrant products against their dense references.

singular_values and numerical_rank take the SVD of the nonzero rows and
columns only, splitting_defect forms T_ab - T_a T_b on its two corner blocks
only, and `oil defect` takes its Widom form and its norms on those blocks.
The references here are the definitions they shortcut: np.linalg.svd of the
whole matrix, the full d x d product T_ab - T_a T_b, and the Widom form
P M_a (1-P) M_b P as d x d masked products with d x d norms.  `oil defect`
reads each defect's blocks and min(bw_a, bw_b) negative modes; its report
values must equal, within the identity tolerance, those read from each
defect's d x d fill with the Widom form over every negative mode.  Its
hankel_product and the deformation's defect_expansion are Schur bounds,
checked here never to fall below the norm they bound.
"""

import json

import numpy as np
import pytest

from oil import (
    Window,
    deformation,
    deformation_defect_residuals,
    deformation_operator,
    guard_slice,
    hardy,
    hankel_operator,
    lambda_sequence,
    make_symbol,
    multiplication_operator,
    numerical_rank,
    projection_commutator,
    singular_values,
    splitting_defect,
    symbol_conjugate,
    symbol_product,
    toeplitz_compress,
)
from oil.cli import main
from oil.hardy import RANK_CUTOFF, TOLERANCES, _opnorm, _schur_bound

OPS = {
    "toeplitz": toeplitz_compress,
    "hankel": hankel_operator,
    "commutator": projection_commutator,
    "mult": multiplication_operator,
}
# (lo, hi): symmetric up to d = 385, lopsided, and the edge window lo = -1
WINDOWS = [(-192, 192), (-64, 64), (-20, 100), (-100, 20), (-1, 40)]
BANDWIDTHS = [1, 5, 32]


def seeded_symbol(bandwidth: int, seed: int):
    """Random complex coefficients at every degree in [-bandwidth, bandwidth]."""
    rng = np.random.default_rng(seed)
    degs = np.arange(-bandwidth, bandwidth + 1)
    amps = rng.normal(size=degs.size) + 1j * rng.normal(size=degs.size)
    return make_symbol(zip(degs.tolist(), amps.tolist()))


def dense_svd(x) -> np.ndarray:
    return np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False)


@pytest.fixture
def svd_calls(monkeypatch):
    """The arguments of every np.linalg.svd call made while the test runs."""
    seen = []
    svd = np.linalg.svd

    def recording_svd(x, *args, **kwargs):
        seen.append(x)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return seen


class TestStrippedSpectrum:
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    @pytest.mark.parametrize("lo, hi", WINDOWS)
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_matches_dense_svd(self, op, lo, hi, bandwidth):
        x = OPS[op](seeded_symbol(bandwidth, seed=hi - lo + bandwidth), Window(lo, hi)).entries
        dense = dense_svd(x)
        s = singular_values(x).values
        assert s.shape == dense.shape
        assert np.max(np.abs(s - dense)) <= TOLERANCES["numerical"] * dense[0]
        assert numerical_rank(x) == int(np.sum(dense > RANK_CUTOFF * dense[0]))

    @pytest.mark.parametrize("c", [3 + 4j, 0.7 - 1.3j, -2.5, 0.1j])
    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    @pytest.mark.parametrize("op", ["hankel", "commutator"])
    def test_monomial_gives_k_values_of_its_modulus(self, op, k, c):
        w = Window(-40, 40)
        s = singular_values(OPS[op](make_symbol([(-k, c)]), w)).values
        assert len(s) == w.dimension
        assert s[:k] == pytest.approx(np.full(k, abs(c)), rel=2.0**-50, abs=0.0)
        assert np.all(s[k:] == 0.0) and not np.signbit(s).any()

    @pytest.mark.parametrize("shape", [(5, 5), (3, 7), (7, 3), (0, 4), (4, 0)])
    def test_all_zero_matrix(self, shape):
        s = singular_values(np.zeros(shape, dtype=complex)).values
        assert s.shape == (min(shape),)
        assert not s.any()
        assert numerical_rank(np.zeros(shape)) == 0

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    def test_rectangular_matrix(self, shape, svd_calls):
        x = np.zeros(shape, dtype=complex)
        x[1, 2], x[4, 5], x[5, 1] = 3.0, -4j, 0.5 + 0.5j
        x[1, 5] = 1.0
        s = singular_values(x).values
        assert [a.shape for a in svd_calls] == [(3, 3)]
        assert s.shape == (6,)
        assert not s[3:].any()
        assert np.max(np.abs(s - dense_svd(x))) <= TOLERANCES["numerical"] * s[0]

    @pytest.mark.parametrize("shape", [(40, 40), (30, 50), (50, 30)])
    def test_no_zero_row_or_column_is_the_plain_svd(self, shape, svd_calls):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x[0, 0] = 0.0  # a zero entry, but no zero row or column
        s = singular_values(x).values
        assert [a.shape for a in svd_calls] == [shape]
        assert np.array_equal(s, dense_svd(x))

    def test_blind_to_zero_signs(self):
        # LAPACK's SVD reads the sign of an exact zero; a spectrum must not
        rng = np.random.default_rng(31)
        moved = []
        for i in range(300):
            m, n = (int(k) for k in rng.integers(2, 16, size=2))
            x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            x.real[rng.random((m, n)) < 0.6] = 0.0
            x.imag[rng.random((m, n)) < 0.6] = 0.0
            x[rng.random(m) < 0.2] = 0.0  # some zero rows
            flipped = x.copy()
            flipped.real[x.real == 0] = -0.0
            flipped.imag[x.imag == 0] = -0.0
            bits = [singular_values(y).values.view(np.uint64) for y in (x, flipped)]
            if not np.array_equal(*bits) or numerical_rank(flipped) != numerical_rank(x):
                moved.append(i)
        assert moved == []


class TestQuadrantProduct:
    @pytest.mark.parametrize("bw_a, bw_b", [(1, 1), (5, 2), (16, 16), (32, 8)])
    @pytest.mark.parametrize("lo, hi", [(-192, 192), (-70, 150), (-150, 70), (-1, 170), (0, 170)])
    def test_matches_dense_product(self, lo, hi, bw_a, bw_b):
        w = Window(lo, hi)
        a, b = seeded_symbol(bw_a, seed=hi), seeded_symbol(bw_b, seed=-lo)
        product, _ = splitting_defect(a, b, w)
        ta = toeplitz_compress(a, w).entries
        tb = toeplitz_compress(b, w).entries
        dense = toeplitz_compress(symbol_product(a, b), w).entries - ta @ tb
        sl = guard_slice(w, 2, bw_a + bw_b)
        assert np.max(np.abs(product.entries - dense)[sl, sl]) <= TOLERANCES["identity"]
        outside = np.ones((w.dimension, w.dimension), dtype=bool)
        outside[-lo:, -lo:] = False
        off = product.entries[outside]
        assert not off.any()
        assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()

    def test_kronecker_rank_without_a_window_wide_svd(self, svd_calls):
        """On d = 2049 the Hankel rank is its co-analytic degree, read from a 7 x 7 corner."""
        a = make_symbol([(-7, 2.0), (-3, 0.5j), (-1, -0.25), (0, 1.0), (2, 0.3), (5, 1.5)])
        w = Window(-1024, 1024)
        assert numerical_rank(hankel_operator(a, w).entries) == 7
        assert [x.shape for x in svd_calls] == [(7, 7)]


def quadrants(x, w, *keep):
    """Copy of x, zero outside the kept quadrants of the split at mode 0 ("+-": P x (1-P))."""
    sides = {"-": slice(0, -w.lo), "+": slice(-w.lo, None)}
    out = np.zeros_like(x)
    for rows, cols in keep:
        out[sides[rows], sides[cols]] = x[sides[rows], sides[cols]]
    return out


def dense_defect_results(a, b, w):
    """defect_norm, hankel_product and adjoint_defect from d x d matrices, norms and a count."""
    ta, tb = toeplitz_compress(a, w).entries, toeplitz_compress(b, w).entries
    product = toeplitz_compress(symbol_product(a, b), w).entries - ta @ tb
    adjoint = toeplitz_compress(symbol_conjugate(a), w).entries - ta.conj().T
    ma = multiplication_operator(a, w).entries
    mb = multiplication_operator(b, w).entries
    widom = quadrants(quadrants(ma, w, "+-") @ mb, w, "++")  # P M_a (1-P) M_b P
    sl = guard_slice(w, 2, a.bandwidth + b.bandwidth)
    return (
        dense_svd(product)[0],
        dense_svd((product - widom)[sl, sl])[0],
        float(np.count_nonzero(adjoint)),
    )


# windows by their guard width g = 2 (bw_a + bw_b) = 2 bw: symmetric, the edge lo = -1,
# -lo below and above g, hi at g + bw (bw + 1 guard-valid Hardy modes, the fewest
# `defect` accepts), and the shortest window it accepts
GUARDED_WINDOWS = {
    "symmetric": lambda g: (-3 * g, 3 * g),
    "lo=-1": lambda g: (-1, 3 * g),
    "-lo<g": lambda g: (-(g // 2), 3 * g),
    "-lo>g": lambda g: (-2 * g, 3 * g),
    "hi=g+bw": lambda g: (-3 * g, g + g // 2),
    "shortest": lambda g: (-1, 2 * g + g // 2 - 1),
}
BANDWIDTHS = [(1, 1), (5, 3), (16, 16)]


def filled_defect_results(a, b, w):
    """defect_norm, hankel_product and adjoint_defect by the d x d fill of each defect.

    Each defect's Hardy quadrant is read back from its d x d `entries`, the
    Widom form runs over all -lo negative modes, its residual is bounded by
    Schur's bound, and the adjoint defect is a norm over the guard-valid Hardy modes.
    """
    sl = guard_slice(w, 2, a.bandwidth + b.bandwidth)
    q, n = w.hardy, slice(0, -w.lo)  # the Hardy and all negative modes
    v = slice(max(sl.start - q.start, 0), max(sl.stop - q.start, 0))
    product, adjoint = splitting_defect(a, b, w)
    ma = multiplication_operator(a, w).entries
    mb = multiplication_operator(b, w).entries
    resid = (product.entries[q, q] - ma[q, n] @ mb[n, q])[v, v]
    return (
        _opnorm(product.entries[q, q]),
        _schur_bound(resid, np.arange(resid.shape[1])),
        _opnorm(adjoint.entries[q, q][v, v]),
    )


DEFECT_WINDOWS = {**GUARDED_WINDOWS, "lo=0": lambda g: (0, 3 * g)}
# (bw_a, bw_b, window): every BANDWIDTHS x GUARDED_WINDOWS case, then windows
# with no negative mode, a constant symbol on either side, and b = a (bw_b
# None: `oil defect` without --symbol-b)
DEFECT_CASES = [(bw_a, bw_b, window) for bw_a, bw_b in BANDWIDTHS for window in sorted(GUARDED_WINDOWS)] + [
    (1, 1, "lo=0"), (5, 3, "lo=0"), (16, 16, "lo=0"),
    (0, 5, "symmetric"), (5, 0, "symmetric"), (0, 5, "lo=-1"), (5, 0, "-lo<g"), (0, 3, "lo=0"),
    (5, None, "symmetric"), (16, None, "lo=-1"), (3, None, "lo=0"),
]


def defect_argv(a, b, lo, hi, tmp_path):
    """`oil defect` on a and b, written as symbol files, with its report at tmp_path/defect.json."""
    path_a, path_b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "defect.json"
    for path, sym in ((path_a, a), (path_b, b)):
        path.write_text(json.dumps([[k, c.real, c.imag] for k, c in sym.coefficients]))
    return ["defect", "--symbol-a", str(path_a), "--symbol-b", str(path_b),
            "--lo", str(lo), "--hi", str(hi), "--out", str(out)]


class TestDefectCommand:
    @pytest.mark.parametrize("window", sorted(GUARDED_WINDOWS))
    @pytest.mark.parametrize("bw_a, bw_b", BANDWIDTHS)
    def test_matches_dense_widom_form(self, bw_a, bw_b, window, tmp_path, svd_calls):
        lo, hi = GUARDED_WINDOWS[window](2 * (bw_a + bw_b))
        a, b = seeded_symbol(bw_a, seed=3 * hi), seeded_symbol(bw_b, seed=5 - lo)
        out = tmp_path / "defect.json"
        assert main(defect_argv(a, b, lo, hi, tmp_path)) == 0
        # defect_norm's, one per block of the product defect; hankel_product is a Schur bound
        assert svd_calls and all(max(x.shape) <= 3 * (bw_a + bw_b) + 1 for x in svd_calls)

        report = json.loads(out.read_text())
        norm, r_hankel, r_adjoint = dense_defect_results(a, b, Window(lo, hi))
        got = report["results"]["defect_norm"]
        assert abs(got - norm) <= TOLERANCES["identity"] * norm
        assert abs(report["residuals"]["hankel_product"] - r_hankel) <= TOLERANCES["identity"]
        assert report["residuals"]["adjoint_defect"] == r_adjoint == 0.0

    @pytest.mark.parametrize("bw_a, bw_b, window", DEFECT_CASES)
    def test_same_values_as_the_filled_defects(self, bw_a, bw_b, window, tmp_path):
        """The report reads the defects' blocks and min(bw) negative modes, and its values move by rounding only."""
        lo, hi = DEFECT_WINDOWS[window](2 * (bw_a + (bw_a if bw_b is None else bw_b)))
        a = seeded_symbol(bw_a, seed=3 * hi)
        b = a if bw_b is None else seeded_symbol(bw_b, seed=5 - lo)
        argv = defect_argv(a, b, lo, hi, tmp_path)
        if bw_b is None:
            del argv[3:5]  # --symbol-b and its file
        assert main(argv) == 0
        report = json.loads((tmp_path / "defect.json").read_text())
        got = report["results"]["defect_norm"], *(report["residuals"][k] for k in ("hankel_product", "adjoint_defect"))
        want = filled_defect_results(a, b, Window(lo, hi))
        np.testing.assert_allclose(got, want, rtol=TOLERANCES["identity"], atol=0)

    @pytest.mark.parametrize("window", sorted(GUARDED_WINDOWS))
    @pytest.mark.parametrize("bw_a, bw_b", BANDWIDTHS)
    def test_product_fault_fails_through_hankel_product_alone(self, bw_a, bw_b, window, tmp_path, monkeypatch):
        """M_ab off M_a M_b by 1e-9 on its diagonal bw_a + bw_b above the main one, where it meets the guard band.

        Mode 0's block reaches bw_a + bw_b + 1 modes into the guard band, so the
        diagonal meets the guard band inside it; the corners alone miss it.
        """
        lo, hi = GUARDED_WINDOWS[window](2 * (bw_a + bw_b))
        a, b = seeded_symbol(bw_a, seed=3 * hi), seeded_symbol(bw_b, seed=5 - lo)
        argv, out = defect_argv(a, b, lo, hi, tmp_path), tmp_path / "defect.json"
        assert main(argv) == 0
        clean = json.loads(out.read_text())["residuals"]
        real = hardy.symbol_product

        def nudged(x, y):
            (deg, amp), *rest = real(x, y).coefficients
            return make_symbol([(deg, amp + 1e-9), *rest])

        monkeypatch.setattr(hardy, "symbol_product", nudged)
        assert main(argv) == 1
        faulted = json.loads(out.read_text())["residuals"]
        assert faulted["hankel_product"] > TOLERANCES["identity"] >= clean["hankel_product"]
        assert faulted["adjoint_defect"] == clean["adjoint_defect"] == 0.0

    @pytest.mark.parametrize("window", ["hi=g+bw", "shortest"])
    @pytest.mark.parametrize("cut", ["1", "bw"])
    @pytest.mark.parametrize("bw_a, bw_b", BANDWIDTHS)
    def test_at_most_bw_guard_valid_hardy_modes_is_usage_error(self, bw_a, bw_b, cut, window, tmp_path, capsys):
        """The fewest-mode windows with hi cut by 1 or bw modes, which leaves bw guard-valid Hardy modes or one.

        Some diagonal of the band then has no guard-valid entry, where hankel_product could not
        see a fault.  Cut by bw, they are the two windows with one such mode that were once accepted.
        """
        bw = bw_a + bw_b
        lo, need = GUARDED_WINDOWS[window](2 * bw)
        hi = need - (1 if cut == "1" else bw)
        a, b = seeded_symbol(bw_a, seed=3 * hi), seeded_symbol(bw_b, seed=5 - lo)
        assert main(defect_argv(a, b, lo, hi, tmp_path)) == 2
        captured = capsys.readouterr()
        modes = bw + 1 - (need - hi)
        assert captured.err == (
            f"oil: window [{lo},{hi}] has {modes} guard-valid Hardy modes, at most bw = {bw}: need hi >= {need}\n"
        )
        assert captured.out == "" and not (tmp_path / "defect.json").exists()


# the grid of the Schur bound: random symbols of bandwidth 1, 3 and 8 and mix.json on two
# windows; at bandwidths 8 + 8 both windows keep a guard-valid Hardy mode at the defect
# expansion's depth 4 (on [-64, 64] mode 0 alone)
SCHUR_SYMBOLS = {
    "bw1": seeded_symbol(1, seed=31),
    "bw3": seeded_symbol(3, seed=33),
    "bw8": seeded_symbol(8, seed=38),
    "mix": make_symbol([(1, 1.0), (-1, 1.0), (2, 0.5), (-3, 0.25)]),
}
SCHUR_WINDOWS = [(-64, 64), (-128, 128)]


@pytest.mark.parametrize("lo, hi", SCHUR_WINDOWS)
@pytest.mark.parametrize("name_a, name_b", [(x, y) for x in SCHUR_SYMBOLS for y in SCHUR_SYMBOLS])
def test_schur_bound_is_never_below_the_norm(name_a, name_b, lo, hi, tmp_path, monkeypatch):
    """Both callers' bounds, on the residuals they bound: `oil defect`'s dense one and the expansion's band."""
    seen = []

    def recorded(x, cols):
        seen.append((x, np.broadcast_to(cols, x.shape), _schur_bound(x, cols)))
        return seen[-1][2]

    monkeypatch.setattr(hardy, "_schur_bound", recorded)
    monkeypatch.setattr(deformation, "_schur_bound", recorded)
    a, b = SCHUR_SYMBOLS[name_a], SCHUR_SYMBOLS[name_b]
    assert main(defect_argv(a, b, lo, hi, tmp_path)) == 0
    t = deformation_operator(lambda_sequence(0.4, "paper_formula", hi + 1), Window(0, hi))
    deformation_defect_residuals(t, a, b, Window(lo, hi))
    (dense, dense_cols, dense_bound), (band, band_cols, band_bound) = seen
    assert np.array_equal(dense_cols, np.broadcast_to(np.arange(dense.shape[1]), dense.shape))
    assert dense_bound >= np.linalg.norm(dense, 2)
    filled = np.zeros((band.shape[0], band_cols.max() + 1), dtype=complex)
    np.put_along_axis(filled, band_cols, band, axis=1)  # each row's entries lie in distinct columns
    assert band_bound >= np.linalg.norm(filled, 2)
