"""M_a as a strided Toeplitz view, against the d x d fills it replaces.

multiplication_operator returns a read-only view of 2d - 1 coefficients, the
compressions copy their quadrants out of that view, and splitting_defect
forms the product defect's two corner blocks and the adjoint defect's
Toeplitz view from four such views.  The references are the dense model's
d x d forms: M_a as a sum of shifted identities, quadrant copies of it, and
the defects over the full window.
Report bytes read the signs of exact zeros, so every output is compared bit
for bit, as uint64, not by value; only the product defect's blocks, smaller
products than the full window's that round differently, are compared within
the identity tolerance.
"""

import numpy as np
import pytest

from oil import (
    Symbol,
    Window,
    WindowedOperator,
    hardy,
    make_symbol,
    multiplication_operator,
    splitting_defect,
    symbol_conjugate,
    symbol_product,
)
from oil.cli import SPECTRUM_OPS
from oil.hardy import TOLERANCES
from reference import multiplication, peak_bytes, quadrants, seeded_symbol, toeplitz_defects

# Hardy-only, the edge windows lo = -1 and hi = 0, asymmetric, and d = 385
WINDOWS = [(0, 12), (0, 40), (-1, 20), (-1, 0), (-15, 0), (-7, 30), (-30, 5), (-192, 192)]


def symbols(d: int):
    """Symbols for a window of dimension d, each named."""
    real = seeded_symbol(3, seed=d, real=True)  # its conjugate has -0.0 imaginary parts
    cases = {
        "empty": make_symbol([]),
        "real": real,
        "conj-real": symbol_conjugate(real),
        "complex": seeded_symbol(5, seed=d + 1),
        "conj-complex": symbol_conjugate(seeded_symbol(5, seed=d + 1)),
        # degrees with |deg| >= d fall outside the window and are dropped
        "beyond": make_symbol([(d, 2.0), (-d, 1j), (d + 3, -1.0), (1, 0.5), (-(d - 1), 3.0)]),
    }
    if d > 64:
        cases["wide"] = seeded_symbol(32, seed=d + 2)
    return cases


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def reference_builders(a, w: Window) -> dict:
    m = multiplication(a, w)
    out = {"mult": m, "toeplitz": quadrants(m, w, "++")}
    if w.lo < 0:
        out["hankel"] = quadrants(m, w, "-+")
        out["commutator"] = quadrants(m, w, "+-") - quadrants(m, w, "-+")
    return out


BUILDERS = {op: getattr(hardy, name) for op, name in SPECTRUM_OPS.items()}  # the builders of spectrum --op
CASES = [(lo, hi, name) for lo, hi in WINDOWS for name in symbols(hi - lo + 1)]


def test_cases_carry_negative_zeros():
    a = symbols(41)["conj-real"]
    assert any(amp.imag == 0 and np.signbit(amp.imag) for _, amp in a.coefficients)


@pytest.mark.parametrize("lo, hi, name", CASES)
def test_builders_are_bit_identical_to_the_dense_fill(lo, hi, name):
    w = Window(lo, hi)
    a = symbols(w.dimension)[name]
    for key, want in reference_builders(a, w).items():
        got = BUILDERS[key](a, w).entries
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want)), key


@pytest.mark.parametrize("lo, hi, name", CASES)
def test_splitting_defect_matches_the_full_window(lo, hi, name):
    """Adjoint defect bit for bit; full product within the identity tolerance of the blocks, and of 0 off them."""
    w = Window(lo, hi)
    cases = symbols(w.dimension)
    a = cases[name]
    for b in (a, cases["complex"], cases["conj-real"]):
        if w.dimension <= 4 * (a.bandwidth + b.bandwidth):
            continue  # not guard-valid at depth 2
        product, adjoint = splitting_defect(a, b, w)
        want_product, want_adjoint = toeplitz_defects(a, b, w)
        assert np.array_equal(bits(adjoint.entries), bits(want_adjoint))
        off = np.ones(want_product.shape, dtype=bool)
        for rows, cols, x in product.blocks:
            assert np.max(np.abs(x - want_product[rows, cols]), initial=0.0) <= TOLERANCES["identity"]
            off[rows, cols] = False
        assert np.max(np.abs(want_product[off]), initial=0.0) <= TOLERANCES["identity"]  # the full product's rounding


def test_multiplication_operator_is_read_only():
    m = multiplication_operator(make_symbol([(1, 1.0), (-2, 0.5j)]), Window(-8, 8)).entries
    assert m.flags.writeable is False
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_other_builders_return_fresh_writable_arrays():
    a, b = seeded_symbol(2, seed=1), seeded_symbol(1, seed=2)
    w = Window(-12, 12)
    m = multiplication_operator(a, w).entries
    outs = [BUILDERS[key](a, w).entries for key in ("toeplitz", "hankel", "commutator")]
    outs += [op.entries for op in splitting_defect(a, b, w)]
    for i, x in enumerate(outs):
        assert x.flags.writeable and x.flags.c_contiguous
        assert not np.shares_memory(x, m)
        assert not any(np.shares_memory(x, y) for y in outs[i + 1 :])


def test_memory_of_the_view_and_the_commutator():
    # d = 2049: one complex d x d matrix is 64 MiB, and a scan of M_a's view a 4 MiB bool
    # temporary; the 2d - 1 coefficients take 64 KiB, and every block below is a view of them
    w = Window(-1024, 1024)
    a = seeded_symbol(32, seed=3)
    mib = 2**20
    for builder in BUILDERS.values():
        assert peak_bytes(builder, a, w) < mib, builder.__name__


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_windowed_operator_rejects_non_finite_entries(bad, strided):
    w = Window(-3, 3)
    d = w.dimension
    x = np.zeros((2 * d, 2 * d), dtype=complex)[::2, ::-2] if strided else np.zeros((d, d), dtype=complex)
    assert x.flags.c_contiguous is not strided
    x[2, 5] = bad
    with pytest.raises(ValueError, match="^non-finite matrix entries$"):
        WindowedOperator(w, x)


def test_coefficients_are_checked_where_a_symbol_skips_make_symbol():
    a = Symbol(((0, 1.0 + 0j), (2, complex(np.nan, 0.0))))  # made directly, so unchecked
    for builder in BUILDERS.values():
        with pytest.raises(ValueError, match="^non-finite matrix entries$"):
            builder(a, Window(-5, 5))


def test_splitting_defect_raises_where_t_a_t_b_overflows():
    # ab's coefficient at 0 is a_{-2} b_2 + a_{-1} b_1 + a_0 b_0 = (0.8 - 1 - 0.8)e308, finite;
    # next to the top edge T_a T_b misses the first term, and -1.8e308 is past the float range
    a = make_symbol([(-2, 1e154), (-1, 1e154), (0, -0.8e154)])
    b = make_symbol([(0, 1e154), (1, -1e154), (2, 0.8e154)])
    assert all(np.isfinite(amp) for _, amp in symbol_product(a, b).coefficients)
    with pytest.raises(FloatingPointError, match="overflow"):
        splitting_defect(a, b, Window(-20, 20))
