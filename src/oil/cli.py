"""Command-line driver: one subcommand per experiment family.

Exit status: 0 when every checked tolerance holds, 1 when an assertion
fails, an internal check of a construction fails (an overflow among
them), memory runs out or a report cannot be written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial

import numpy as np

from . import __version__, deformation, extensions, hardy, spectral, stinespring
from .hardy import TOLERANCES as TOL
from .reporting import UsageError, load_symbol_file, write_report


def _within(value, kind: str) -> bool:
    """Whether a residual passes TOL[kind]: at most tol, a lower bound down to -tol, an exact one only at +-0.0."""
    return {"lower_bound": -value, "exact": abs(value)}.get(kind, value) <= TOL[kind]


def _cmd_defect(args):
    a = load_symbol_file(args.symbol_a)
    b = load_symbol_file(args.symbol_b) if args.symbol_b else a
    w = hardy.Window(args.lo, args.hi)
    bw = a.bandwidth + b.bandwidth
    sl, q = hardy.guard_slice(w, 2, bw), w.hardy
    v = slice(max(sl.start - q.start, 0), max(sl.stop - q.start, 0))  # sl within q, in q's indices
    if v.stop - v.start <= bw:  # then some diagonal of the band has no entry with both ends guard-valid
        raise hardy.GuardBandError(
            f"window [{w.lo},{w.hi}] has {v.stop - v.start} guard-valid Hardy modes, at most bw = {bw}: "
            f"need hi >= {sl.start + v.start + bw}"
        )
    product, adjoint = hardy.splitting_defect(a, b, w)
    ((e, _, corner), _), ((_, _, diagonals),) = product.blocks, adjoint.blocks  # corner: mode 0's block
    ma, mb = (hardy.multiplication_operator(x, w).entries for x in (a, b))
    # P M_a (1-P) M_b P: a_{j-l} b_{l-k} vanishes unless mode l >= -min(bw_a, bw_b)
    n, _ = hardy._corners(w, min(a.bandwidth, b.bandwidth))
    resid = (corner - ma[e, n] @ mb[n, e])[v, v]
    lengths = np.arange(diagonals.shape[0], 0, -1)  # entries per diagonal of the Toeplitz view, main one first
    nonzero = lengths @ (diagonals[:, 0] != 0) + lengths[1:] @ (diagonals[0, 1:] != 0)
    checks = {
        "hankel_product": (hardy._schur_bound(resid, np.arange(resid.shape[1])), "identity"),
        "adjoint_defect": (float(nonzero), "exact"),
    }
    results = {
        "defect_norm": max(hardy._opnorm(x) for _, _, x in product.blocks),
        "window": [args.lo, args.hi],
        "bandwidths": [a.bandwidth, b.bandwidth],
    }
    return results, checks


# spectrum --op: the name of each operator's builder in hardy, looked up at call time
SPECTRUM_OPS = {"toeplitz": "toeplitz_compress", "hankel": "hankel_operator",
                "commutator": "projection_commutator", "mult": "multiplication_operator"}


def _cmd_spectrum(args):
    a = load_symbol_file(args.symbol)
    w = hardy.Window(args.lo, args.hi)
    op = getattr(hardy, SPECTRUM_OPS[args.op])(a, w)
    s = spectral.singular_values(op)
    if args.out and args.format == "csv":
        spectral.export_spectrum_csv(s, args.out)
    results = {
        "operator": args.op,
        "rank": hardy._rank(s.values),
        "spectrum_head": s.values[:16],
        "schatten_2": spectral.schatten_norm(s, 2.0),
    }
    return results, {}


def _cmd_stinespring(args):
    rng = np.random.default_rng(args.seed)
    # k Gaussian probe vectors, drawn from a stream of their own so that they move none of the pairs' draws
    k, head, tail = 4, slice(None, args.m), slice(args.m, None)
    probe = np.random.default_rng((args.seed, 1)).normal(size=(args.n * args.r + args.m, k))
    worst = {"compression": 0.0, "ekv1": 0.0, "ekv2": 0.0, "homomorphism": 0.0}
    for i in range(args.maps):
        cp = stinespring.random_cp_contraction(args.n, args.m, args.r, args.seed ^ (i + 1))
        d = stinespring.dilation_build(cp)
        for _ in range(args.pairs):
            a = rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
            b = rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
            sa = (a + a.conj().T) / 2
            blocks = d.rep(sa, head, tail), d.rep(sa, tail, head), d.rep(b, tail, head)  # pi12(sa), pi21(sa), pi21(b)
            r1, r2 = stinespring.block_residuals(cp, sa, b, *blocks)
            worst["ekv1"] = max(worst["ekv1"], r1)
            worst["ekv2"] = max(worst["ekv2"], r2)
            worst["compression"] = max(worst["compression"], hardy._opnorm(d.rep(a, head, head) - cp.apply(a)))
            # E ||X v||^2 = ||X||_F^2 for a standard normal v: an estimate of ||pi(ab) - pi(a) pi(b)||_F, not a bound
            hom = d.rep_times(a, d.rep_times(b, probe)) - d.rep_times(a @ b, probe)
            worst["homomorphism"] = max(worst["homomorphism"], hardy._frobenius(hom) / np.sqrt(k))
    results = {"maps": args.maps, "pairs": args.pairs, "dims": [args.n, args.m, args.r]}
    return results, {name: (v, "numerical") for name, v in worst.items()}


def _cmd_sum_demo(args):
    rng = np.random.default_rng(args.seed)
    n = args.size
    w = hardy.Window(0, n - 1)
    worst_merge, swaps = 0.0, 0
    swap = extensions.swap_order(n)
    for _ in range(args.trials):
        a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        wa, wb = hardy.WindowedOperator(w, a), hardy.WindowedOperator(w, b)
        s_ab = extensions.extension_sum(wa, wb)
        s_ba = extensions.extension_sum(wb, wa)
        merged = np.sort(np.concatenate([np.linalg.svd(x, compute_uv=False) for x in (a, b)]))[::-1]
        got = np.linalg.svd(s_ab.entries, compute_uv=False)
        worst_merge = max(worst_merge, float(np.max(np.abs(got - merged))))
        # S_ba = swap S_ab swap^*: the swap is a permutation, so the conjugation is an index map
        swaps += np.count_nonzero(s_ba.entries != s_ab.entries[swap][:, swap])
    checks = {
        "isometry_relations": (float(extensions.isometry_relations(n)), "exact"),
        "spectrum_merge": (worst_merge, "numerical"),
        "swap_conjugation": (float(swaps), "exact"),
    }
    return {"size": n, "trials": args.trials}, checks


def _cmd_inverse(args):
    if args.symbol:
        a = load_symbol_file(args.symbol)
    else:
        a = hardy.make_symbol([(1, 1.0), (-1, 1.0)])
    w = hardy.Window(args.lo, args.hi)
    r_u, r_p, r_id = extensions.inverse_identity_residuals(a, w)
    checks = {"unitary": (r_u, "exact"), "projection": (r_p, "exact"), "identity": (r_id, "exact")}
    return {"window": [args.lo, args.hi], "bandwidth": a.bandwidth}, checks


def _cmd_deformation(args):
    hw = hardy.Window(0, args.modes - 1)
    lam = deformation.lambda_sequence(args.eps, args.family, args.modes)
    t = deformation.deformation_operator(lam, hw)
    z = hardy.make_symbol([(1, 1.0)])
    q, mz = 1.0 + t, hardy.multiplication_operator(z, hw).entries  # Q = P + T, P the identity on hw
    ks = np.arange(args.modes - 1)
    coeff = 1.0 + lam[ks + 1] + lam[ks] + lam[ks] * lam[ks + 1]
    # entry (k+1, k) of (P+T) M_z (P+T), from M_z's subdiagonal
    r_prpcalc = float(np.max(np.abs(q[ks + 1] * mz[ks + 1, ks] * q[ks] - coeff)))

    w = hardy.Window(-16, args.modes - 1)
    zbar, both = hardy.make_symbol([(-1, 1.0)]), hardy.make_symbol([(1, 1.0), (-1, 1.0)])
    r_defect = max(deformation.deformation_defect_residuals(t, x, y, w) for x, y in ((z, zbar), (both, both)))
    residuals = {"shift_coefficients": r_prpcalc, "defect_expansion": r_defect}
    if args.family == "paper_formula":  # the identity's K z^k = k^eps z^k fixes paper_formula's lambda
        residuals["quadratic_identity"] = deformation.quadratic_identity_residual(args.eps, hw)
    checks = {name: (v, "identity") for name, v in residuals.items()}
    return {"eps": args.eps, "family": args.family, "modes": args.modes}, checks


def _cmd_lemma(args):
    if args.ambient is not None and args.ambient < args.modes + 2:
        raise UsageError(f"--ambient {args.ambient} must be at least --modes + 2 = {args.modes + 2}")
    params = deformation.DeformationParams(
        eps=args.eps,
        p=args.p,
        family=args.family,
        N=args.modes,
        M=args.ambient if args.ambient is not None else args.modes + 2,
        seed=args.seed,
    )
    rep = deformation.lemma_lower_bound_report(params, args.trials)
    checks = {
        "min_gap": (rep.min_gap, "lower_bound"),
        "min_norm_margin": (rep.min_norm_margin, "lower_bound"),
        "s1_max_residual": (rep.s1_max_residual, "numerical"),
        "s2_max_residual": (rep.s2_max_residual, "numerical"),
    }
    results = {
        "trials": rep.trials,
        "rhs_norm": rep.rhs_norm,
        "lhs_norm_min": min(rep.lhs_norms),
        "min_gaps_head": rep.min_gaps[:16],
    }
    return results, checks


def _cmd_sweep(args):
    if not 0.0 < args.eps_min < args.eps_max < 2.0 / args.p:  # also rejects nan
        raise UsageError(
            f"the grid needs 0 < --eps-min < --eps-max < 2/p = {2.0 / args.p:g}, "
            f"got --eps-min {args.eps_min} and --eps-max {args.eps_max}"
        )
    grid = [
        args.eps_min + i * (args.eps_max - args.eps_min) / (args.steps - 1)
        for i in range(args.steps)
    ]
    rep = deformation.epsilon_sweep(args.p, grid, args.family, args.max_index)
    return dataclasses.asdict(rep), {}


def _count(text: str, least: int = 1) -> int:
    """argparse type of the counts, sizes, seed and steps: an integer >= least."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return value


def _positive(text: str, least: float = 0.0) -> float:
    """argparse type of --eps and --p: float(text), finite, > 0 and >= least."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (0.0 < value < np.inf and value >= least):  # also rejects nan
        bound = f">= {least:g}" if least else "> 0"
        raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")
    return value


def _power_of_two(text: str) -> int:
    """argparse type of --max-index: a power of two >= 32, the sweep's N_max."""
    value = _count(text, least=32)
    if value & (value - 1):
        raise argparse.ArgumentTypeError(f"expected a power of two >= 32, got {text!r}")
    return value


_FAMILY_ALIASES = {"power": "pure_power", "paper": "paper_formula"}


def _family(text: str) -> str:
    """argparse type of --family: a lambda family's name or alias, read as its name."""
    name = _FAMILY_ALIASES.get(text, text)
    if name not in deformation.FAMILIES:
        raise argparse.ArgumentTypeError(f"unknown family {text!r}")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, formats=("json",)):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--seed", type=partial(_count, least=0), default=42)
        return p

    p = command("defect", _cmd_defect, "Toeplitz splitting defects of two symbols")
    p.add_argument("--symbol-a", required=True)
    p.add_argument("--symbol-b", default=None)
    p.add_argument("--lo", type=int, default=-40)
    p.add_argument("--hi", type=int, default=40)

    p = command("spectrum", _cmd_spectrum, "singular values of a windowed operator", ("json", "csv"))
    p.add_argument("--symbol", required=True)
    p.add_argument("--op", choices=SPECTRUM_OPS, default="commutator")
    p.add_argument("--lo", type=int, default=-40)
    p.add_argument("--hi", type=int, default=40)

    p = command("stinespring-check", _cmd_stinespring, "dilation block identities on random cp maps")
    p.add_argument("--n", type=_count, default=4)
    p.add_argument("--m", type=_count, default=4)
    p.add_argument("--r", type=_count, default=3)
    p.add_argument("--maps", type=_count, default=20)
    p.add_argument("--pairs", type=_count, default=20)

    p = command("sum-demo", _cmd_sum_demo, "interleaved extension sum on random pairs")
    p.add_argument("--size", type=_count, default=32)
    p.add_argument("--trials", type=_count, default=50)

    p = command("inverse-check", _cmd_inverse, "doubled-window inverse identity")
    p.add_argument("--symbol", default=None)
    p.add_argument("--lo", type=int, default=-12)
    p.add_argument("--hi", type=int, default=60)

    p = command("deformation-check", _cmd_deformation, "quadratic identity and defect expansion")
    p.add_argument("--eps", type=_positive, required=True)
    # the defect expansion's depth-4 guard band on [-16, modes - 1] reaches mode 0, where Q starts, from 9 up
    p.add_argument("--modes", type=partial(_count, least=9), default=256)
    p.add_argument("--family", type=_family, default="paper")

    p = command("lemma-check", _cmd_lemma, "unitary-quantified lower bound for a(z)=z")
    p.add_argument("--p", type=partial(_positive, least=1.0), required=True)
    p.add_argument("--eps", type=_positive, required=True)
    p.add_argument("--modes", type=_count, default=128)
    p.add_argument("--ambient", type=_count, default=None)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--family", type=_family, default="paper")

    p = command("sweep", _cmd_sweep, "epsilon sweep with summability verdicts")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--steps", type=partial(_count, least=2), default=8)
    p.add_argument("--family", type=_family, default="power")
    p.add_argument("--max-index", type=_power_of_two, default=65536)

    return parser


def dispatch(args) -> int:
    try:
        results, checks = args.handler(args)  # checks: {name: (residual, kind of TOL)}
        passed = all(_within(value, kind) for value, kind in checks.values())
        if args.out and args.format == "json":
            params = {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "handler", "out", "seed") and v is not None
            }
            report = {
                "command": args.command,
                "params": params,
                "seed": args.seed,
                "results": results,
                "residuals": {name: value for name, (value, _) in checks.items()},
                "pass": passed,
                "tool_version": __version__,
            }
            write_report(report, args.out)
    except (RuntimeError, np.linalg.LinAlgError, FloatingPointError) as exc:  # LinAlgError is a ValueError
        print(f"oil: internal check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # reporting.UsageError among them
        print(f"oil: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # symbol files are read as UsageError, so this is the CSV or JSON output
        print(f"oil: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"oil: out of memory: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if passed else "FAIL"
    print(f"{args.command}: {status}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
