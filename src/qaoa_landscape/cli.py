"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed inputs)
and on inputs too large for the memory at hand, 2 on computation errors (a
numeric contract failed while running).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .analytic import MODES, PAPER_MODE, UniformModel, summary_analytic
from .core import MAX_GRID_POINTS, AngleGrid, ComputationError, UsageError, default_grid
from .experiments import (
    DEFAULT_GAMMA_C, run_landscape_comparison, run_sat_alpha, run_success_comparison,
)
from .landscape import LandscapeGrid, f1
from .optimize import best_angles
from .problems import FAMILIES, FAMILY_PARAMS, MAX_ALPHA, build_ensemble
from .structure import StructuralSummary, aggregate
from . import storage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _parse_grid(text: str) -> AngleGrid:
    try:
        beta_steps, gamma_steps = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"grid must look like '100x100', got {text!r}") from None
    return default_grid(beta_steps, gamma_steps)


def _seed(text: str) -> int:
    """A --seed value; numpy seeds its streams from non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _family_params(args) -> dict:
    keys = (key for spec in FAMILY_PARAMS.values() for key in spec)
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _cmd_gen(args) -> int:
    ensemble = build_ensemble(args.family, args.n, args.count, _family_params(args), args.seed)
    storage.save_ensemble(ensemble, args.out)
    return 0


def _ensemble_summary(path: str) -> StructuralSummary:
    ensemble = storage.load_ensemble(path)
    return aggregate([inst.target for inst in ensemble.instances])


def _cmd_summarize(args) -> int:
    storage.save_summary(_ensemble_summary(args.ensemble), args.out)
    return 0


def _cmd_analytic_uniform(args) -> int:
    model = UniformModel(n=args.n, t_size=args.t_size, mode=args.mode)
    storage.save_summary(summary_analytic(model), args.out)
    return 0


def _cmd_landscape(args) -> int:
    grid = _parse_grid(args.grid)
    if args.gamma_c is not None and not np.isfinite(args.gamma_c):
        raise UsageError(f"gamma-c must be finite, got {args.gamma_c!r}")
    prefix = Path(args.out_prefix)
    if args.summary is not None:
        summary = storage.load_summary(args.summary)
        betas, gammas = grid.betas(), grid.gammas()
        if args.gamma_c is not None:  # one more gamma column: the cross-section
            gammas = np.append(gammas, args.gamma_c)
        values = f1(summary, betas, gammas)
        approx = values[:, : grid.gamma_steps].ravel()
        storage.grid_to_csv(LandscapeGrid(grid=grid, values=approx), f"{prefix}_approx.csv")
        if args.gamma_c is not None:
            storage.curve_to_csv(betas, values[:, -1], f"{prefix}_cross.csv")
        return 0
    ensemble = storage.load_ensemble(args.ensemble)
    gamma_c = args.gamma_c if args.gamma_c is not None else DEFAULT_GAMMA_C
    result = run_landscape_comparison(ensemble, grid, gamma_c=gamma_c)
    del ensemble  # its targets are not needed for the files: the writers reuse their memory
    storage.grid_to_csv(result.mean, f"{prefix}_mean.csv")
    storage.grid_to_csv(result.approx, f"{prefix}_approx.csv")
    storage.grid_to_csv(result.error, f"{prefix}_error.csv")
    storage.grid_to_csv(result.bound, f"{prefix}_bound.csv")
    storage.cross_section_to_csv(result.cross_section, f"{prefix}_cross.csv")
    return 0


def _cmd_optimize(args) -> int:
    if args.instance is not None:
        if args.ensemble is None:
            raise UsageError("--instance requires --ensemble")
        ensemble = storage.load_ensemble(args.ensemble)
        matches = [inst for inst in ensemble.instances if inst.id == args.instance]
        if not matches:
            raise UsageError(f"no instance with id {args.instance}")
        result = best_angles(matches[0].target)
    elif args.summary is not None:
        result = best_angles(storage.load_summary(args.summary))
    else:
        result = best_angles(_ensemble_summary(args.ensemble))
    storage.save_optresult(result, args.out)
    return 0


def _cmd_compare(args) -> int:
    ensemble = storage.load_ensemble(args.ensemble)
    report = run_success_comparison(ensemble, args.shots, args.seed)
    prefix = Path(args.out_prefix)
    storage.save_report(report, f"{prefix}.csv", f"{prefix}.json")
    config = {
        "ensemble": args.ensemble,
        "seed": args.seed,
        "family": ensemble.family,
        "n": ensemble.n,
        "count": len(ensemble.instances),
        "params": ensemble.params,
        "optimizer": {"shots": args.shots},
        "out_dir": str(prefix.parent),
    }
    storage.write_json(config, f"{prefix}_config.json")
    return 0


def _cmd_sat_alpha(args) -> int:
    try:
        alphas = tuple(float(a) for a in args.alphas.split(","))
    except ValueError:
        raise UsageError(f"alphas must be comma-separated numbers, got {args.alphas!r}") from None
    tags = {}  # each alpha's files are named by its %g form, so two alike would overwrite
    for alpha in alphas:
        tag = f"a{alpha:g}"
        if tag in tags:
            raise UsageError(f"alphas {tags[tag]!r} and {alpha!r} would both write files tagged {tag}")
        tags[tag] = alpha
    results = run_sat_alpha(args.n, alphas, args.count, args.shots, args.seed)
    prefix = Path(args.out_prefix)
    combined = []
    for tag, (alpha, _ensemble, report) in zip(tags, results):
        storage.save_report(report, f"{prefix}_{tag}.csv", f"{prefix}_{tag}.json")
        combined.append(storage.report_to_dict(report) | {"alpha": alpha})
    storage.write_json(combined, f"{prefix}_summary.json")
    return 0


@functools.cache  # parsing keeps no state in the parser: one tree serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="qaoa-landscape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a problem ensemble")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--t-size", dest="t_size", type=int)
    p.add_argument("--num-seeds", dest="num_seeds", type=int)
    p.add_argument("--per-seed", dest="per_seed", type=int)
    p.add_argument("--dedupe", choices=("retry", "drop"))
    p.add_argument("--clauses", dest="num_clauses", type=int, help=f"at most {MAX_ALPHA:g} * n")
    p.add_argument("--k", type=int)
    p.add_argument("--edge-prob", dest="edge_prob", type=float)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("summarize", help="aggregate ensemble structure statistics")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser("analytic-uniform", help="closed-form summary for uniform sampling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-size", dest="t_size", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default=PAPER_MODE)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_analytic_uniform)

    p = sub.add_parser("landscape", help="evaluate landscapes on an angle grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--summary")
    group.add_argument("--ensemble")
    p.add_argument(
        "--grid", default="100x100", help=f"BETASxGAMMAS lattice, at most {MAX_GRID_POINTS} points"
    )
    p.add_argument("--gamma-c", dest="gamma_c", type=float)
    p.add_argument("--threads", type=int, help="accepted; has no effect")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(handler=_cmd_landscape)

    p = sub.add_parser("optimize", help="search the best angles")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--summary")
    group.add_argument("--ensemble")
    p.add_argument("--instance", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("compare", help="standard vs non-iterative pipelines")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--shots", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--threads", type=int, help="accepted; has no effect")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sat-alpha", help="two-arm study across SAT clause densities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphas", default="2,4,6", help=f"clause densities, each in (0, {MAX_ALPHA:g}]")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--shots", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--threads", type=int, help="accepted; has no effect")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(handler=_cmd_sat_alpha)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # until sizes are refused up front, an input too large
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
