"""Operators held as their nonzero blocks, against oracles that share no code with them.

Every builder in hardy states its blocks, singular_values takes the union of
their spectra, and entries assembles the d x d matrix on demand.  The
oracles here are the definitions: each matrix entry a_{j-k} written out from
the integer coefficients, and its rank by exact elimination over the
rationals, which the Kronecker rank theorem predicts wherever the window is
wide enough.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oil import (
    Window,
    WindowedOperator,
    deformation_defect_residuals,
    deformation_operator,
    hankel_operator,
    hardy_projection,
    inverse_identity_residuals,
    lambda_sequence,
    make_symbol,
    multiplication_operator,
    numerical_rank,
    projection_commutator,
    singular_values,
    splitting_defect,
    toeplitz_compress,
)
from oil.cli import main
from oil.hardy import TOLERANCES, _rank

# narrower than the bandwidth on one or both sides (lo = -1, hi = 0), lopsided, symmetric
WINDOWS = [(-1, 0), (-1, 6), (-6, 0), (-2, 3), (-3, 2), (-7, 7), (-12, 9)]


def integer_symbols() -> dict:
    """Named symbols with small integer coefficients, sparse ones among them."""
    rng = np.random.default_rng(13)
    cases = {
        "z^-3": {-3: 1},
        "2z^-2 - z^3": {-2: 2, 3: -1},
        "z + 1/z": {1: 1, -1: 1},
        "constant": {0: 5},
    }
    for seed in range(4):
        degs = rng.choice(np.arange(-4, 5), size=4, replace=False)
        cases[f"random-{seed}"] = {int(d): int(c) for d, c in zip(degs, rng.integers(-3, 4, size=4)) if c}
    return cases


SYMBOLS = integer_symbols()


def oracle_matrix(coef: dict, w: Window, op: str) -> list:
    """The operator's entries from the definition: (j, k) is a_{j-k} on the quadrants op keeps."""
    modes = range(w.lo, w.hi + 1)
    signs = {
        "hankel": lambda j, k: 1 if j < 0 <= k else 0,  # (1-P) M_a P
        "commutator": lambda j, k: (j >= 0 > k) - (j < 0 <= k),  # P M_a (1-P) - (1-P) M_a P
    }[op]
    return [[signs(j, k) * coef.get(j - k, 0) for k in modes] for j in modes]


def exact_rank(rows: list) -> int:
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def kronecker_rank(n: int, rows: int, cols: int):
    """Rank of a finite section of a Hankel matrix of rank n, None when the theorem does not decide it.

    Its antidiagonal h_{n-1} is nonzero and h_m = 0 beyond it, so once one side
    reaches n, each row (or column) of the shorter side has its last nonzero
    in a column (or row) of its own: the rank is min(n, rows, cols).
    """
    return min(n, rows, cols) if max(rows, cols) >= n else None


@pytest.mark.parametrize("lo, hi", WINDOWS)
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_exact_rank_of_hankel_and_commutator(name, lo, hi):
    coef, w = SYMBOLS[name], Window(lo, hi)
    a = make_symbol(coef.items())
    co_analytic = max((-d for d in coef if d < 0), default=0)
    analytic = max((d for d in coef if d > 0), default=0)
    negative, hardy = -lo, hi + 1
    theorem = {
        "hankel": [kronecker_rank(co_analytic, negative, hardy)],
        "commutator": [kronecker_rank(analytic, hardy, negative), kronecker_rank(co_analytic, negative, hardy)],
    }
    for op, build in (("hankel", hankel_operator), ("commutator", projection_commutator)):
        rank = exact_rank(oracle_matrix(coef, w, op))
        if None not in theorem[op]:
            assert rank == sum(theorem[op]), op
        x = build(a, w)
        assert numerical_rank(x.entries) == rank, op
        assert _rank(singular_values(x).values) == rank, op


def builders(a, b, w: Window) -> dict:
    out = {
        "mult": multiplication_operator(a, w),
        "projection": hardy_projection(w),
        "toeplitz": toeplitz_compress(a, w),
        "dense": WindowedOperator(w, np.arange(w.dimension**2).reshape(w.dimension, -1) + 1j),
    }
    if w.lo < 0:
        out["hankel"] = hankel_operator(a, w)
        out["commutator"] = projection_commutator(a, w)
    if w.dimension > 4 * (a.bandwidth + b.bandwidth):
        out["product_defect"], out["adjoint_defect"] = splitting_defect(a, b, w)
    return out


@pytest.mark.parametrize("lo, hi", WINDOWS + [(0, 9), (0, 40), (-40, 40)])
def test_blocks_lie_in_disjoint_rows_and_columns_of_the_window(lo, hi):
    w = Window(lo, hi)
    a = make_symbol(SYMBOLS["random-0"].items())
    b = make_symbol(SYMBOLS["2z^-2 - z^3"].items())
    index = range(w.dimension)
    for key, op in builders(a, b, w).items():
        x = op.entries
        inside = np.zeros(x.shape, dtype=bool)
        rows = [i for r, _, _ in op.blocks for i in index[r]]
        cols = [k for _, c, _ in op.blocks for k in index[c]]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols), key
        for r, c, block in op.blocks:
            assert block.shape == (len(index[r]), len(index[c])), key
            assert np.array_equal(x[r, c], block), key
            inside[r, c] = True
        assert not x[~inside].any(), key  # every nonzero entry lies in a block
        dense = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(singular_values(op).values - dense), initial=0.0) <= TOLERANCES["numerical"] * max(
            dense[0], 1.0
        ), key


def test_writes_through_entries_cannot_change_an_operator():
    w = Window(-3, 3)
    op = toeplitz_compress(make_symbol([(1, 1.0)]), w)
    before = singular_values(op).values
    op.entries[4, 4] = np.nan  # a block operator's entries is a fresh array
    assert np.array_equal(singular_values(op).values, before)
    with pytest.raises(ValueError):
        op.blocks[0][2][0, 0] = np.nan
    x = np.eye(w.dimension, dtype=complex)
    dense = WindowedOperator(w, x)
    with pytest.raises(ValueError):
        dense.entries[4, 4] = np.nan  # a full-window operator's entries is its read-only block
    assert x.flags.writeable  # the caller's own array keeps its flags


def test_a_write_through_the_callers_array_does_not_reach_a_dense_operator():
    x = np.eye(7, dtype=complex)
    op = WindowedOperator(Window(-3, 3), x)
    x[4, 4] = np.nan  # the operator holds a checked copy, so its SVD still sees the identity
    assert np.array_equal(singular_values(op).values, np.ones(7))
    assert np.array_equal(op.entries, np.eye(7))


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [hankel_operator, projection_commutator])
def test_spectrum_forms_no_window_matrix(build):
    w = Window(-2048, 2048)  # d = 4097: one complex d x d matrix is 256 MiB
    rng = np.random.default_rng(5)
    a = make_symbol((d, complex(*rng.normal(size=2))) for d in range(-32, 33))

    def spectrum():
        assert singular_values(build(a, w)).values.shape == (w.dimension,)

    assert _peak_bytes(spectrum) < 32 * 2**20


def test_inverse_identity_forms_no_window_matrix():
    # d = 4097: one complex d x d temporary is 256 MiB; M_a's band here is 4091 x 7 entries
    w = Window(-2048, 2048)
    mix = make_symbol([(1, 1.0), (-1, 1.0), (2, 0.5), (-3, 0.25)])
    assert _peak_bytes(inverse_identity_residuals, mix, w) < 4 * 2**20


def test_deformation_forms_no_window_matrix():
    # 4096 modes: one complex d x d temporary on the expansion's window [-16, 4095] is 270 MB
    t = deformation_operator(lambda_sequence(0.4, "paper_formula", 4096), Window(0, 4095))
    both = make_symbol([(1, 1.0), (-1, 1.0)])
    assert _peak_bytes(deformation_defect_residuals, t, both, both, Window(-16, 4095)) < 16 * 2**20
    argv = ["deformation-check", "--eps", "0.4", "--modes", "4096"]
    assert _peak_bytes(main, argv) < 16 * 2**20
    assert main(argv) == 0


def test_defect_forms_no_window_matrix(tmp_path):
    # d = 4097: one complex Hardy quadrant is 64 MiB; the product defect's blocks are 7 x 7 and 6 x 6 here
    mix = tmp_path / "mix.json"
    mix.write_text("[[1, 1, 0], [-1, 1, 0], [2, 0.5, 0], [-3, 0.25, 0]]")
    argv = ["defect", "--symbol-a", str(mix), "--lo", "-2048", "--hi", "2048"]
    assert _peak_bytes(main, argv) < 4 * 2**20
    assert main(argv) == 0


def test_no_check_reads_a_filled_window_matrix(tmp_path, monkeypatch, capsys):
    """Every oil check reads a block operator through its blocks; entries is only M_a's view or a dense array."""
    fill = WindowedOperator.entries.fget

    def covering_only(op):
        index = range(op.window.dimension)
        (rows, cols, _), *rest = op.blocks
        if rest or not index[rows] == index == index[cols]:
            raise AssertionError(f"d x d fill of {len(op.blocks)} block(s) on {op.window}")
        return fill(op)

    monkeypatch.setattr(WindowedOperator, "entries", property(covering_only))
    mix = tmp_path / "mix.json"
    mix.write_text("[[1, 1, 0], [-1, 1, 0], [2, 0.5, 0], [-3, 0.25, 0]]")
    runs = [
        ["defect", "--symbol-a", str(mix)],
        *(["spectrum", "--symbol", str(mix), "--op", op] for op in ("toeplitz", "hankel", "commutator", "mult")),
        ["inverse-check", "--symbol", str(mix)],
        ["sum-demo", "--size", "8", "--trials", "2"],
        ["deformation-check", "--eps", "0.4", "--modes", "64"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out == "".join(f"{argv[0]}: PASS\n" for argv in runs)
