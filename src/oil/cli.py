"""Command-line driver: one subcommand per experiment family.

Exit status: 0 when every checked tolerance holds, 1 when an assertion
fails, an internal check of a construction fails or a report cannot be
written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import deformation, extensions, hardy, spectral, stinespring
from .hardy import TOLERANCES as TOL
from .reporting import UsageError, build_report, load_symbol_file, write_report

DEFAULT_SEED = 42


def _seed_default() -> int:
    env = os.environ.get("OIL_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"OIL_SEED must be an integer, got {env!r}") from exc


def _cmd_defect(args):
    a = load_symbol_file(args.symbol_a)
    b = load_symbol_file(args.symbol_b) if args.symbol_b else a
    w = hardy.Window(args.lo, args.hi)
    product, adjoint = hardy.splitting_defect(a, b, w)
    sl = hardy.guard_slice(w, 2, a.bandwidth + b.bandwidth)
    ma = hardy.multiplication_operator(a, w).entries
    mb = hardy.multiplication_operator(b, w).entries
    # P M_a (1-P) M_b P: the product of the two Hankel blocks
    hankel_form = hardy._quadrants(hardy._quadrants(ma, w, "+-") @ mb, w, "++")
    r_hankel = hardy._opnorm((product.entries - hankel_form)[sl, sl])
    r_adjoint = hardy._opnorm(adjoint.entries[sl, sl])
    residuals = {"hankel_product": r_hankel, "adjoint_defect": r_adjoint}
    results = {
        "defect_norm": product.norm(),
        "window": [args.lo, args.hi],
        "bandwidths": [a.bandwidth, b.bandwidth],
    }
    passed = r_hankel <= TOL["identity"] and r_adjoint <= TOL["identity"]
    return passed, results, residuals


def _cmd_spectrum(args):
    a = load_symbol_file(args.symbol)
    w = hardy.Window(args.lo, args.hi)
    ops = {
        "toeplitz": hardy.toeplitz_compress,
        "hankel": hardy.hankel_operator,
        "commutator": hardy.projection_commutator,
        "mult": hardy.multiplication_operator,
    }
    op = ops[args.op](a, w)
    s = spectral.singular_values(op)
    if args.out and args.format == "csv":
        spectral.export_spectrum_csv(s, args.out)
    results = {
        "operator": args.op,
        "rank": hardy._rank(s.values),
        "spectrum_head": s.values[:16],
        "schatten_2": spectral.schatten_norm(s, 2.0),
    }
    return True, results, {}


def _cmd_stinespring(args):
    rng = np.random.default_rng(args.seed)
    worst = {"compression": 0.0, "ekv1": 0.0, "ekv2": 0.0, "homomorphism": 0.0}
    for i in range(args.maps):
        cp = stinespring.random_cp_contraction(args.n, args.m, args.r, args.seed ^ (i + 1))
        d = stinespring.dilation_build(cp)
        for _ in range(args.pairs):
            a = rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
            b = rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
            sa = (a + a.conj().T) / 2
            r1, r2 = stinespring.defect_identity_residuals(d, sa, b)
            worst["ekv1"] = max(worst["ekv1"], r1)
            worst["ekv2"] = max(worst["ekv2"], r2)
            pia = d.rep(a)
            worst["compression"] = max(
                worst["compression"], hardy._opnorm(pia[: args.m, : args.m] - cp.apply(a))
            )
            hom = d.rep(a @ b) - pia @ d.rep(b)
            worst["homomorphism"] = max(worst["homomorphism"], hardy._opnorm(hom))
    results = {"maps": args.maps, "pairs": args.pairs, "dims": [args.n, args.m, args.r]}
    passed = all(v <= TOL["numerical"] for v in worst.values())
    return passed, results, worst


def _cmd_sum_demo(args):
    rng = np.random.default_rng(args.seed)
    w = hardy.Window(0, args.size - 1)
    worst_merge = 0.0
    worst_swap = 0.0
    pair = extensions.interleaving_isometries(args.size)
    v1, v2 = pair.V1, pair.V2
    # the products with V1, V2 and the swap below are the relations under test
    relations = max(
        hardy._opnorm(v1.conj().T @ v1 - np.eye(args.size)),
        hardy._opnorm(v2.conj().T @ v2 - np.eye(args.size)),
        hardy._opnorm(v1 @ v1.conj().T + v2 @ v2.conj().T - np.eye(2 * args.size)),
        hardy._opnorm(v1.conj().T @ v2),
    )
    swap = extensions.interleaving_swap(args.size)
    for _ in range(args.trials):
        a = rng.normal(size=(args.size, args.size)) + 1j * rng.normal(size=(args.size, args.size))
        b = rng.normal(size=(args.size, args.size)) + 1j * rng.normal(size=(args.size, args.size))
        wa = hardy.WindowedOperator(w, a)
        wb = hardy.WindowedOperator(w, b)
        s_ab = extensions.extension_sum(wa, wb)
        s_ba = extensions.extension_sum(wb, wa)
        merged = np.sort(
            np.concatenate(
                [
                    np.linalg.svd(a, compute_uv=False),
                    np.linalg.svd(b, compute_uv=False),
                ]
            )
        )[::-1]
        got = np.linalg.svd(s_ab.entries, compute_uv=False)
        worst_merge = max(worst_merge, float(np.max(np.abs(got - merged))))
        worst_swap = max(
            worst_swap, hardy._opnorm(s_ba.entries - swap @ s_ab.entries @ swap.conj().T)
        )
    residuals = {"isometry_relations": relations, "spectrum_merge": worst_merge, "swap_conjugation": worst_swap}
    passed = relations == 0.0 and worst_merge <= TOL["numerical"] and worst_swap <= TOL["numerical"]
    return passed, {"size": args.size, "trials": args.trials}, residuals


def _cmd_inverse(args):
    if args.symbol:
        a = load_symbol_file(args.symbol)
    else:
        a = hardy.make_symbol([(1, 1.0), (-1, 1.0)])
    w = hardy.Window(args.lo, args.hi)
    r_u, r_p, r_id = extensions.inverse_identity_residuals(a, w)
    residuals = {"unitary": r_u, "projection": r_p, "identity": r_id}
    passed = r_u == 0.0 and r_p == 0.0 and r_id == 0.0
    return passed, {"window": [args.lo, args.hi], "bandwidth": a.bandwidth}, residuals


def _cmd_deformation(args):
    hw = hardy.Window(0, args.modes - 1)
    r_quad = deformation.quadratic_identity_residual(args.eps, hw)

    lam = deformation.lambda_sequence(args.eps, args.family, args.modes)
    t = deformation.deformation_operator(lam, hw)
    z = hardy.make_symbol([(1, 1.0)])
    comp = deformation.deformed_compression(t, z, hw)
    ks = np.arange(args.modes - 1)
    coeff = 1.0 + lam[ks + 1] + lam[ks] + lam[ks] * lam[ks + 1]
    r_prpcalc = float(np.max(np.abs(comp.entries[ks + 1, ks] - coeff)))

    w = hardy.Window(-16, args.modes - 1)
    zbar = hardy.make_symbol([(-1, 1.0)])
    both = hardy.make_symbol([(1, 1.0), (-1, 1.0)])
    r_defect = max(
        deformation.deformation_defect_residuals(t, z, zbar, w),
        deformation.deformation_defect_residuals(t, both, both, w),
    )
    residuals = {"quadratic_identity": r_quad, "shift_coefficients": r_prpcalc, "defect_expansion": r_defect}
    passed = all(v <= TOL["identity"] for v in residuals.values())
    return passed, {"eps": args.eps, "family": args.family, "modes": args.modes}, residuals


def _cmd_lemma(args):
    params = deformation.DeformationParams(
        eps=args.eps,
        p=args.p,
        family=args.family,
        N=args.modes,
        M=args.ambient if args.ambient else args.modes + 2,
        seed=args.seed,
    )
    rep = deformation.lemma_lower_bound_report(params, args.trials)
    residuals = {
        "min_gap": rep.min_gap,
        "min_norm_margin": rep.min_norm_margin,
        "s1_max_residual": rep.s1_max_residual,
        "s2_max_residual": rep.s2_max_residual,
    }
    results = {
        "trials": rep.trials,
        "rhs_norm": rep.rhs_norm,
        "lhs_norm_min": min(rep.lhs_norms),
        "min_gaps_head": rep.min_gaps[:16],
    }
    passed = (
        rep.min_gap >= -TOL["lower_bound"]
        and rep.min_norm_margin >= -TOL["lower_bound"]
        and rep.s1_max_residual <= TOL["numerical"]
        and rep.s2_max_residual <= TOL["numerical"]
    )
    return passed, results, residuals


def _cmd_sweep(args):
    if args.steps < 2:
        raise UsageError("need at least 2 sweep steps")
    grid = [
        args.eps_min + i * (args.eps_max - args.eps_min) / (args.steps - 1)
        for i in range(args.steps)
    ]
    rep = deformation.epsilon_sweep(
        args.p, grid, args.family, args.max_index, with_lemma=args.with_lemma, seed=args.seed
    )
    results = {
        "family": rep.family,
        "N_max": rep.N_max,
        "exponent_note": rep.exponent_note,
        "points": [
            {
                "eps": pt.eps,
                "measured_exponent": pt.measured_exponent,
                "verdict_p": pt.verdict_p,
                "verdict_2p": pt.verdict_2p,
                "doubling_ratio_p": pt.doubling_ratio_p,
                "lemma_min_gap": pt.lemma_min_gap,
            }
            for pt in rep.points
        ],
        "pair_separations": list(rep.pair_separations),
    }
    return True, results, {}


def _count(text: str) -> int:
    """argparse type of the counts and sizes: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


_FAMILY_ALIASES = {
    "power": "pure_power",
    "pure_power": "pure_power",
    "paper": "paper_formula",
    "paper_formula": "paper_formula",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("defect", help="Toeplitz splitting defects of two symbols")
    p.add_argument("--symbol-a", required=True)
    p.add_argument("--symbol-b", default=None)
    p.add_argument("--lo", type=int, default=-40)
    p.add_argument("--hi", type=int, default=40)
    common(p)

    p = sub.add_parser("spectrum", help="singular values of a windowed operator")
    p.add_argument("--symbol", required=True)
    p.add_argument("--op", choices=["toeplitz", "hankel", "commutator", "mult"], default="commutator")
    p.add_argument("--lo", type=int, default=-40)
    p.add_argument("--hi", type=int, default=40)
    common(p)

    p = sub.add_parser("stinespring-check", help="dilation block identities on random cp maps")
    p.add_argument("--n", type=_count, default=4)
    p.add_argument("--m", type=_count, default=4)
    p.add_argument("--r", type=_count, default=3)
    p.add_argument("--maps", type=_count, default=20)
    p.add_argument("--pairs", type=_count, default=20)
    common(p)

    p = sub.add_parser("sum-demo", help="interleaved extension sum on random pairs")
    p.add_argument("--size", type=_count, default=32)
    p.add_argument("--trials", type=_count, default=50)
    common(p)

    p = sub.add_parser("inverse-check", help="doubled-window inverse identity")
    p.add_argument("--symbol", default=None)
    p.add_argument("--lo", type=int, default=-12)
    p.add_argument("--hi", type=int, default=60)
    common(p)

    p = sub.add_parser("deformation-check", help="quadratic identity and defect expansion")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--modes", type=_count, default=256)
    p.add_argument("--family", default="paper")
    common(p)

    p = sub.add_parser("lemma-check", help="unitary-quantified lower bound for a(z)=z")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--modes", type=_count, default=128)
    p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--family", default="paper")
    common(p)

    p = sub.add_parser("sweep", help="epsilon sweep with summability verdicts")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--family", default="power")
    p.add_argument("--max-index", type=int, default=65536)
    p.add_argument("--with-lemma", action="store_true")
    common(p)

    return parser


_HANDLERS = {
    "defect": _cmd_defect,
    "spectrum": _cmd_spectrum,
    "stinespring-check": _cmd_stinespring,
    "sum-demo": _cmd_sum_demo,
    "inverse-check": _cmd_inverse,
    "deformation-check": _cmd_deformation,
    "lemma-check": _cmd_lemma,
    "sweep": _cmd_sweep,
}


def dispatch(args) -> int:
    try:
        if args.seed is None:
            args.seed = _seed_default()
        if hasattr(args, "family"):
            if args.family not in _FAMILY_ALIASES:
                raise UsageError(f"unknown family {args.family!r}")
            args.family = _FAMILY_ALIASES[args.family]
        if args.format == "csv" and args.command != "spectrum":
            raise UsageError("--format csv applies only to spectrum")
        passed, results, residuals = _HANDLERS[args.command](args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"oil: internal check failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"oil: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # symbol files are read as UsageError, so this is the CSV export
        print(f"oil: cannot write spectrum: {exc}", file=sys.stderr)
        return 1
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "out", "seed") and v is not None
    }
    report = build_report(args.command, params, args.seed, results, residuals, passed)
    if args.out and args.format == "json":
        try:
            write_report(report, args.out)
        except OSError as exc:
            print(f"oil: cannot write report: {exc}", file=sys.stderr)
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
