"""The benchmark's workloads: seeded inputs, one experiment per schedule slot,
and the checks that gate each experiment's output.

Each workload is a fixed cycle of experiment slots.  The seed changes only
the values fed to ``oil`` (symbol coefficients, deformation orders, cp-map
and matrix seeds), never the sizes or the number of calls, so runs with
different seeds do the same amount of work.

Calls into ``oil`` go through module attributes looked up at call time
(``hardy.splitting_defect``), so the tracer's patches see them.  The oracles
use the ``numpy.linalg`` functions captured below, when this module is first
imported and before any patching, so oracle work is never charged to the
``linalg`` layer that ``oil`` calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg import norm as _norm
from numpy.linalg import svd as _svd

from oil import cli, deformation, extensions, hardy, spectral, stinespring

# Tolerances of the acceptance suite (tests/test_acceptance.py), by criterion.
TOL_IDENTITY = 1e-12  # criteria 1, 3, 4, 7, 8
TOL_DILATION = 1e-10  # criteria 5, 6
TOL_LEMMA_GAP = -1e-9  # criterion 2, lower bounds
TOL_LEMMA_DIAG = 1e-10  # criterion 2, S-term residuals
TOL_SPECTRUM = 1e-10  # criteria 6 and 9, spectra compared entrywise
TOL_EXPONENT = 0.05  # criterion 10, relative
TOL_DOUBLING = 0.1  # criterion 10, relative


@dataclass
class Checks:
    """Outcome of one experiment's checks, in the order they ran."""

    items: list = field(default_factory=list)  # (name, value, ok)

    def at_most(self, name: str, value: float, tol: float):
        value = float(value)
        self.items.append((name, value, value <= tol))

    def at_least(self, name: str, value: float, tol: float):
        value = float(value)
        self.items.append((name, value, value >= tol))

    def exact_zero(self, name: str, value: float):
        value = float(value)
        self.items.append((name, value, value == 0.0))

    def holds(self, name: str, cond: bool, value=None):
        self.items.append((name, value, bool(cond)))

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.items if not ok)


@dataclass(frozen=True)
class Experiment:
    """One schedule slot: a kind, the arguments it was run with, and the
    largest square matrix (dimension) that oil builds for it."""

    kind: str
    params: dict
    max_dim: int
    run: Callable[[], Checks]


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


# --------------------------------------------------------------------------
# window-identities
# --------------------------------------------------------------------------

# (window dimension d, bandwidth of a, bandwidth of b, run the inverse
# identity).  d = 129..385 crosses the 2 MiB per-core L2 at d ~ 362 (one
# complex matrix is d^2 * 16 bytes); the doubled-window inverse identity
# (2d x 2d products) runs only where it fits the run length.  Every pair
# satisfies the depth-2 guard d > 4 (bw_a + bw_b) and, with the inverse,
# the depth-3 guard d > 6 bw_a.  The counts per size put the median and the
# 90th percentile of the latencies inside a size class, not on a boundary.
WINDOW_SLOTS = (
    (129, 1, 2, True),
    (129, 4, 8, True),
    (129, 16, 8, True),
    (129, 2, 16, True),
    (129, 8, 1, True),
    (193, 32, 4, False),
    (193, 16, 16, False),
    (193, 2, 32, False),
    (193, 8, 2, False),
    (257, 32, 16, False),
    (257, 1, 32, False),
    (257, 16, 4, False),
    (385, 32, 32, False),
    (385, 4, 16, False),
)


def edge_power_symbol(rng: np.random.Generator, bw: int):
    """Seeded symbol with a coefficient at every degree in [-bw, bw].

    Magnitudes follow the power law (1 + bw - |k|)^-alpha, alpha in [2, 3],
    largest at the band edges, with uniform random phases.  The edge
    coefficients dominate the rest (sum of (1+j)^-2 over j >= 1 is < 1), so
    each Hankel corner is a well-conditioned triangular block and its
    numerical rank equals the analytic degree bw, as Kronecker's theorem
    says it must in exact arithmetic.
    """
    alpha = rng.uniform(2.0, 3.0)
    degs = np.arange(-bw, bw + 1)
    amps = (1.0 + bw - np.abs(degs)) ** -alpha * np.exp(2j * np.pi * rng.random(degs.size))
    return hardy.make_symbol(zip(degs.tolist(), amps.tolist()))


def _coefficient_lookup(sym, reach: int):
    """Dense array c with c[k + reach] = coefficient of sym at degree k."""
    c = np.zeros(2 * reach + 1, dtype=complex)
    for deg, amp in sym.coefficients:
        c[deg + reach] = amp
    return c


def _hankel_product_oracle(a, b, h: int) -> np.ndarray:
    """Widom's T(ab) - T(a)T(b) = H(a)H(b~) on the Hardy block, by index arithmetic.

    Entry (j, k), j, k >= 0, is sum over t >= 1 of a_{j+t} b_{-t-k}: the
    product of the two Hankel matrices, built from the coefficients alone.
    """
    reach = h + a.bandwidth + b.bandwidth + 1
    ca, cb = _coefficient_lookup(a, reach), _coefficient_lookup(b, reach)
    t = np.arange(1, a.bandwidth + b.bandwidth + 1)
    j = np.arange(h + 1)
    left = ca[reach + j[:, None] + t[None, :]]  # a_{j+t}
    right = cb[reach - t[:, None] - j[None, :]]  # b_{-t-k}
    return left @ right


def _commutator_spectrum_oracle(a, d: int) -> np.ndarray:
    """Singular values of [P, M_a] from its two off-diagonal blocks.

    P M_a (1-P) and (1-P) M_a P have all their nonzero entries in a D x D
    corner (D the analytic and co-analytic degree), so the spectrum is the
    union of the two corner spectra, padded with zeros to length d.
    """
    reach = 2 * a.bandwidth + 1
    c = _coefficient_lookup(a, reach)
    vals = []
    pos = max((deg for deg, _ in a.coefficients if deg > 0), default=0)
    neg = max((-deg for deg, _ in a.coefficients if deg < 0), default=0)
    if pos:
        i = np.arange(pos)
        vals.append(_svd(c[reach + i[:, None] + i[None, :] + 1], compute_uv=False))
    if neg:
        i = np.arange(neg)
        vals.append(_svd(c[reach - i[:, None] - i[None, :] - 1], compute_uv=False))
    merged = np.sort(np.concatenate(vals + [np.zeros(d)]))[::-1]
    return merged[:d]


def _window_experiment(a, b, d: int, with_inverse: bool, p: float) -> Checks:
    checks = Checks()
    h = (d - 1) // 2
    w = hardy.Window(-h, h)

    product, adjoint = hardy.splitting_defect(a, b, w)
    sl = hardy.guard_slice(w, 2, a.bandwidth + b.bandwidth)
    expected = np.zeros((d, d), dtype=complex)
    expected[h:, h:] = _hankel_product_oracle(a, b, h)
    checks.at_most("hankel_product", _maxabs((product.entries - expected)[sl, sl]), TOL_IDENTITY)
    checks.at_most("adjoint_defect", _maxabs(adjoint.entries[sl, sl]), TOL_IDENTITY)

    degree = max((-deg for deg, _ in a.coefficients if deg < 0), default=0)
    rank = hardy.numerical_rank(hardy.hankel_operator(a, w).entries)
    checks.holds("kronecker_rank", rank == degree, rank)

    s = spectral.singular_values(hardy.projection_commutator(a, w))
    oracle = _commutator_spectrum_oracle(a, d)
    checks.at_most("commutator_blocks", _maxabs(s.values - oracle), TOL_SPECTRUM)
    n_max = 1 << (d.bit_length() - 1)
    verdict = spectral.summability_classify(s.values, spectral.IdealSpec.schatten(p), n_max)
    direct = [float(np.sum(oracle[:n] ** p)) for n in verdict.evidence["N"]]
    checks.at_most(
        "classify_partial_sums",
        _maxabs(np.subtract(verdict.evidence["partial_sums"], direct)) / max(direct[-1], 1.0),
        TOL_SPECTRUM,
    )

    if with_inverse:
        r_u, r_p, r_id = extensions.inverse_identity_residuals(a, w)
        checks.exact_zero("inverse_unitary", r_u)
        checks.exact_zero("inverse_projection", r_p)
        checks.at_most("inverse_identity", r_id, TOL_IDENTITY)
    return checks


def window_identities(seed: int, workdir: str) -> list[Experiment]:
    out = []
    for slot, (d, bw_a, bw_b, with_inverse) in enumerate(WINDOW_SLOTS):
        rng = _rng(seed, 1, slot)
        a, b = edge_power_symbol(rng, bw_a), edge_power_symbol(rng, bw_b)
        p = float(rng.choice([1.0, 2.0]))
        out.append(
            Experiment(
                kind=f"window-d{d}" + ("-inverse" if with_inverse else ""),
                params={"d": d, "bandwidths": [bw_a, bw_b], "inverse": with_inverse, "p": p},
                max_dim=2 * d if with_inverse else d,
                run=lambda a=a, b=b, d=d, inv=with_inverse, p=p: _window_experiment(a, b, d, inv, p),
            )
        )
    return out


# --------------------------------------------------------------------------
# lemma-trials
# --------------------------------------------------------------------------

FAMILIES = ("paper_formula", "pure_power")
LEMMA_SWEEP_N_MAX = 2**20


def _lemma_experiment(params, trials: int) -> Checks:
    checks = Checks()
    rep = deformation.lemma_lower_bound_report(params, trials)
    checks.at_least("min_gap", rep.min_gap, TOL_LEMMA_GAP)
    checks.at_least("min_norm_margin", rep.min_norm_margin, TOL_LEMMA_GAP)
    checks.at_most("s1_max_residual", rep.s1_max_residual, TOL_LEMMA_DIAG)
    checks.at_most("s2_max_residual", rep.s2_max_residual, TOL_LEMMA_DIAG)
    return checks


def _deformation_experiment(eps: float, family: str, modes: int) -> Checks:
    checks = Checks()
    hw = hardy.Window(0, modes - 1)
    checks.at_most("quadratic_identity", deformation.quadratic_identity_residual(eps, hw), TOL_IDENTITY)
    lam = deformation.lambda_sequence(eps, family, modes)
    t = deformation.deformation_operator(lam, hw)
    z = hardy.make_symbol([(1, 1.0)])
    comp = deformation.deformed_compression(t, z, hw).entries
    ks = np.arange(modes - 1)
    coeff = 1.0 + lam[ks + 1] + lam[ks] + lam[ks] * lam[ks + 1]
    checks.at_most("shift_coefficients", _maxabs(comp[ks + 1, ks] - coeff), TOL_IDENTITY)
    w = hardy.Window(-16, modes - 1)
    zbar = hardy.make_symbol([(-1, 1.0)])
    both = hardy.make_symbol([(1, 1.0), (-1, 1.0)])
    for name, a, b in (("defect_expansion_z_zbar", z, zbar), ("defect_expansion_both", both, both)):
        checks.at_most(name, deformation.deformation_defect_residuals(t, a, b, w), TOL_IDENTITY)
    return checks


def _sweep_experiment(p: float, low: float, high: float, family: str) -> Checks:
    """Sweep two orders on either side of 1/p; verdicts and rates are known."""
    checks = Checks()
    rep = deformation.epsilon_sweep(p, [low, high], family, LEMMA_SWEEP_N_MAX)
    lo_pt, hi_pt = rep.points
    if family == "pure_power":
        checks.holds("low_divergent", lo_pt.verdict_p.verdict == "divergent")
        checks.holds("high_summable", hi_pt.verdict_p.verdict == "summable")
        expected = 2.0 ** (1.0 - p * low)
        checks.at_most("doubling_ratio", abs(lo_pt.doubling_ratio_p - expected) / expected, TOL_DOUBLING)
        rate = 1.0
    else:
        rate = 2.0
    for name, pt in (("exponent_low", lo_pt), ("exponent_high", hi_pt)):
        target = rate * pt.eps
        checks.at_most(name, abs(pt.measured_exponent - target) / target, TOL_EXPONENT)
    return checks


# Cycle of 24 slots, two halves of 12.  Sorted by latency: 16 lemma trials
# at N=128 (67%), 2 deformation checks and 2 sweeps, then 4 lemma trials at
# N=512 (17%), so the median sits among the N=128 trials and the 90th
# percentile among the N=512 ones, each away from a class boundary.  Each
# kind alternates between the two lambda families as it recurs.
LEMMA_SLOTS = tuple(
    ("lemma", 512) if i % 12 in (4, 10)
    else ("deformation", 256) if i % 12 == 2
    else ("sweep", LEMMA_SWEEP_N_MAX) if i % 12 == 8
    else ("lemma", 128)
    for i in range(24)
)
LEMMA_TRIALS = {128: 4, 512: 1}


def lemma_trials(seed: int, workdir: str) -> list[Experiment]:
    out = []
    seen = Counter()
    for slot, (kind, size) in enumerate(LEMMA_SLOTS):
        rng = _rng(seed, 2, slot)
        family = FAMILIES[seen[kind, size] % 2]
        seen[kind, size] += 1
        if kind == "lemma":
            params = deformation.DeformationParams(
                eps=float(rng.uniform(0.3, 0.7)),
                p=float(rng.choice([1.0, 2.0])),
                family=family,
                N=size,
                M=size + 2,
                seed=int(rng.integers(2**31)),
            )
            trials = LEMMA_TRIALS[size]
            record = {"N": size, "M": size + 2, "trials": trials, "eps": params.eps,
                      "p": params.p, "family": family, "seed": params.seed}
            run = lambda params=params, trials=trials: _lemma_experiment(params, trials)
            max_dim = size + 2
        elif kind == "deformation":
            eps = float(rng.uniform(0.3, 0.7))
            record = {"modes": size, "eps": eps, "family": family}
            run = lambda eps=eps, family=family, size=size: _deformation_experiment(eps, family, size)
            max_dim = size + 16
        else:
            p = 2.0
            low, high = float(rng.uniform(0.2, 0.35)), float(rng.uniform(0.75, 0.9))
            record = {"p": p, "grid": [low, high], "family": family, "N_max": size}
            run = lambda p=p, low=low, high=high, family=family: _sweep_experiment(p, low, high, family)
            max_dim = 0
        out.append(Experiment(kind=f"{kind}-{size}", params=record, max_dim=max_dim, run=run))
    return out


# --------------------------------------------------------------------------
# dilation-batch
# --------------------------------------------------------------------------


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _dilation_experiment(dims, map_seed: int, pairs) -> Checks:
    """The stinespring-check suite (criterion 5) on one seeded cp map."""
    checks = Checks()
    n, m, r = dims
    cp = stinespring.random_cp_contraction(n, m, r, map_seed)
    dil = stinespring.dilation_build(cp)
    for a, b in pairs:
        sa = (a + a.conj().T) / 2
        r1, r2 = stinespring.defect_identity_residuals(dil, sa, b)
        checks.at_most("ekv1", r1, TOL_DILATION)
        checks.at_most("ekv2", r2, TOL_DILATION)
        checks.at_most("compression", _norm(dil.blocks(a)[0] - cp.apply(a), 2), TOL_DILATION)
        hom = dil.rep(a @ b) - dil.rep(a) @ dil.rep(b)
        checks.at_most("homomorphism", _norm(hom, 2), TOL_DILATION)
    return checks


def _sum_demo_experiment(size: int, pairs) -> Checks:
    """The sum-demo suite (criterion 6): exact isometries, merged spectra, swaps."""
    checks = Checks()
    iso = extensions.interleaving_isometries(size)
    v1, v2 = iso.V1, iso.V2
    checks.exact_zero("v1_isometry", _maxabs(v1.conj().T @ v1 - np.eye(size)))
    checks.exact_zero("v2_isometry", _maxabs(v2.conj().T @ v2 - np.eye(size)))
    checks.exact_zero("isometry_sum", _maxabs(v1 @ v1.conj().T + v2 @ v2.conj().T - np.eye(2 * size)))
    w = hardy.Window(0, size - 1)
    swap = extensions.interleaving_swap(size)
    for a, b in pairs:
        wa, wb = hardy.WindowedOperator(w, a), hardy.WindowedOperator(w, b)
        s_ab = extensions.extension_sum(wa, wb).entries
        s_ba = extensions.extension_sum(wb, wa).entries
        merged = np.sort(np.concatenate([_svd(a, compute_uv=False), _svd(b, compute_uv=False)]))[::-1]
        checks.at_most("spectrum_merge", _maxabs(_svd(s_ab, compute_uv=False) - merged), TOL_SPECTRUM)
        checks.at_most("swap_conjugation", _norm(s_ba - swap @ s_ab @ swap.conj().T, 2), TOL_DILATION)
    return checks


# Cycle of 48 slots: 37 small maps (77%), 10 extension-sum batches (21%),
# 1 large map.  Tiny calls dominate the count, so per-call overhead sets the
# median (small maps) and the 90th percentile (extension sums, about twice
# as long); the single (32,32,8) map carries most of the flops.
DILATION_SMALL = ((4, 4, 3), 8)  # (n, m, r), pairs per map
DILATION_LARGE = ((32, 32, 8), 1)
SUM_DEMO = (32, 8)  # block size, pairs
DILATION_SLOTS = tuple(
    "large" if i == 23 else "sum" if i % 5 == 2 else "small" for i in range(48)
)


def dilation_batch(seed: int, workdir: str) -> list[Experiment]:
    out = []
    for slot, kind in enumerate(DILATION_SLOTS):
        rng = _rng(seed, 3, slot)
        if kind == "sum":
            size, count = SUM_DEMO
            pairs = [(_gaussian(rng, size), _gaussian(rng, size)) for _ in range(count)]
            out.append(
                Experiment(
                    kind="sum-demo",
                    params={"size": size, "pairs": count},
                    max_dim=2 * size,
                    run=lambda size=size, pairs=pairs: _sum_demo_experiment(size, pairs),
                )
            )
            continue
        dims, count = DILATION_LARGE if kind == "large" else DILATION_SMALL
        n, m, r = dims
        map_seed = int(rng.integers(2**31))
        pairs = [(_gaussian(rng, n), _gaussian(rng, n)) for _ in range(count)]
        out.append(
            Experiment(
                kind=f"dilation-{n}-{m}-{r}",
                params={"dims": list(dims), "map_seed": map_seed, "pairs": count},
                max_dim=n * r + m,
                run=lambda dims=dims, map_seed=map_seed, pairs=pairs: _dilation_experiment(
                    dims, map_seed, pairs
                ),
            )
        )
    return out


# --------------------------------------------------------------------------
# cli-readme
# --------------------------------------------------------------------------

# README invocations, in cycle order.  Trial counts are lowered to fit the
# run length: stinespring-check 20x20 -> 4x5, lemma-check 100 -> 10 trials.
# Sorted by latency the 10 slots are spectrum, defect, inverse-check,
# stinespring-check, sweep x2, sum-demo, lemma-check, deformation-check x2,
# so the median and the 90th percentile each fall inside a repeated slot.
CLI_SLOTS = (
    ("defect", ["--symbol-a", "{dir}/z.json", "--symbol-b", "{dir}/zbar.json",
                "--out", "{dir}/defect.json"]),
    ("spectrum", ["--symbol", "{dir}/z.json", "--op", "commutator", "--format", "csv",
                  "--out", "{dir}/sigma.csv"]),
    ("sweep", ["--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "8",
               "--family", "power", "--max-index", "65536", "--out", "{dir}/sweep.json"]),
    ("stinespring-check", ["--maps", "4", "--pairs", "5", "--out", "{dir}/stine.json"]),
    ("deformation-check", ["--eps", "0.4", "--modes", "256", "--family", "paper",
                           "--out", "{dir}/deformation.json"]),
    ("sum-demo", ["--size", "32", "--trials", "50", "--out", "{dir}/sum.json"]),
    ("inverse-check", ["--out", "{dir}/inverse.json"]),
    ("lemma-check", ["--p", "2", "--eps", "0.4", "--modes", "128", "--trials", "10",
                     "--out", "{dir}/lemma.json"]),
    ("sweep", ["--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "8",
               "--family", "power", "--max-index", "65536", "--out", "{dir}/sweep.json"]),
    ("deformation-check", ["--eps", "0.4", "--modes", "256", "--family", "paper",
                           "--out", "{dir}/deformation.json"]),
)
CLI_MAX_DIM = {"deformation-check": 272, "sweep": 0, "stinespring-check": 16, "sum-demo": 64,
               "lemma-check": 130, "inverse-check": 146, "defect": 81, "spectrum": 81}


class CliSession:
    """Runs oil subcommands in-process and remembers each output's first bytes.

    A later invocation with the same arguments must exit 0, print PASS and
    write byte-identical output; anything else is a failed check.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.first_bytes: dict[tuple, bytes] = {}
        with open(os.path.join(workdir, "z.json"), "w") as fh:
            fh.write("[[1, 1, 0]]\n")
        with open(os.path.join(workdir, "zbar.json"), "w") as fh:
            fh.write("[[-1, 1, 0]]\n")

    def argv(self, command: str, template, seed: int) -> list[str]:
        return [command] + [t.format(dir=self.workdir) for t in template] + ["--seed", str(seed)]

    def invoke(self, argv: list[str]) -> Checks:
        checks = Checks()
        out_path = argv[argv.index("--out") + 1]
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(argv)
        checks.holds("exit_code", code == 0, code)
        if code != 0:
            return checks
        checks.holds("printed_pass", captured.getvalue().strip() == f"{argv[0]}: PASS")
        with open(out_path, "rb") as fh:
            data = fh.read()
        if out_path.endswith(".json"):
            checks.holds("report_pass", json.loads(data)["pass"] is True)
        key = tuple(argv)
        first = self.first_bytes.setdefault(key, data)
        checks.holds("byte_identical", data == first, len(data))
        return checks


def cli_readme(seed: int, workdir: str) -> list[Experiment]:
    session = CliSession(workdir)
    cli_seed = int(_rng(seed, 4).integers(2**31))
    out = []
    for command, template in CLI_SLOTS:
        argv = session.argv(command, template, cli_seed)
        out.append(
            Experiment(
                kind=command,
                params={"argv": [arg.replace(workdir, "$TMP") for arg in argv]},
                max_dim=CLI_MAX_DIM[command],
                run=lambda argv=argv: session.invoke(argv),
            )
        )
    return out


WORKLOADS = {
    "window-identities": window_identities,
    "lemma-trials": lemma_trials,
    "dilation-batch": dilation_batch,
    "cli-readme": cli_readme,
}
