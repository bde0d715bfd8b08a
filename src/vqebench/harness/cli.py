"""Command-line driver: run experiments, analyze runs, rank optimizers,
print the family catalog.

Each command loads only the layers it runs: `run` the simulator, the
ensemble and the optimizers; `analyze` and `rank` the runs CSV
(`records`), the reports and the statistics layer; `catalog` the catalog
and its noise rules (`vqebench.qsim.noise`).  `catalog` needs no numpy,
and the other three commands need numpy alone.
"""
from __future__ import annotations

import argparse
import math
import sys

from ..errors import VqeBenchError
from .records import read_records

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _checked(cast, ok, domain: str):
    """An argparse type: cast the text, reject values outside the domain."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {domain}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite_float = _checked(float, math.isfinite, "a finite number")
_open_unit_float = _checked(float, lambda v: 0.0 < v < 1.0, "in the open interval (0, 1)")


class _ReferencePair(argparse.Action):
    """``--reference E0 E1``: the ground energy may not lie above the
    excited one, or every distance would be taken to a swapped pair."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] > values[1]:
            raise argparse.ArgumentError(self, f"E0 {values[0]!r} is above E1 {values[1]!r}")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqebench",
        description="Benchmark variational eigensolver optimizers under noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment grid")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", required=True, help="output runs CSV")
    run.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker processes")

    analyze = sub.add_parser("analyze", help="per-optimizer statistical battery")
    analyze.add_argument("--runs", required=True, help="runs CSV")
    analyze.add_argument(
        "--per-optimizer", required=True, dest="out_dir", help="output directory"
    )
    # stats.permutation.DEFAULT_N_PERM, written out so that parsing loads no stats
    analyze.add_argument("--n-perm", type=_positive_int, default=9999, help="permutation budget")
    analyze.add_argument("--seed", type=_non_negative_int, default=0, help="permutation RNG seed")

    rank = sub.add_parser("rank", help="rank optimizers against a reference")
    rank.add_argument("--runs", required=True, help="runs CSV")
    rank.add_argument(
        "--reference",
        required=True,
        nargs=2,
        type=_finite_float,
        action=_ReferencePair,
        metavar=("E0", "E1"),
        help="reference ground and excited energies",
    )
    rank.add_argument("--out", default="rank", help="output directory")
    rank.add_argument("--alpha", type=_open_unit_float, default=0.05, help="significance level")

    sub.add_parser("catalog", help="list the benchmark noise families")
    return parser


def run_experiment(cfg, out_path=None, jobs: int = 1, progress=None):
    """`runner.run_experiment`, whose module (and the simulator, ensemble
    and optimizers with it) loads on the first call.  `_cmd_run` calls it
    through this module, as it does `read_records`."""
    from .runner import run_experiment as run

    return run(cfg, out_path=out_path, jobs=jobs, progress=progress)


def _cmd_run(args) -> int:
    from .config import load_config

    try:
        cfg = load_config(args.config)
    except VqeBenchError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    done = [0]

    def progress(record):
        done[0] += 1
        print(
            f"[{done[0]}] {record.family} / {record.optimizer} / seed {record.seed}: "
            f"e_sa={record.e_sa:.6g} evals={record.n_evals}",
            file=sys.stderr,
        )

    run_experiment(cfg, out_path=args.out, jobs=args.jobs, progress=progress)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .reports import analyze_runs

    records = read_records(args.runs)
    optimizers = analyze_runs(records, args.out_dir, n_perm=args.n_perm, seed=args.seed)
    print(f"analyzed {len(optimizers)} optimizers into {args.out_dir}")
    return EXIT_OK


def _cmd_rank(args) -> int:
    from .reports import rank_runs

    records = read_records(args.runs)
    summary = rank_runs(records, tuple(args.reference), args.out, alpha=args.alpha)
    for opt in summary["optimizers"]:
        m = summary["metrics"][opt]
        place = summary.get("tied_places", {}).get(opt, "-")
        print(
            f"{opt}: mean_distance={m['mean_distance']:.6g} "
            f"avg_place={m['avg_place']:.2f} wins={m['wins']} place={place}"
        )
    return EXIT_OK


def _cmd_catalog(_args) -> int:
    from .catalog import family_catalog

    for family in family_catalog():
        print(family.name)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "rank": _cmd_rank,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (VqeBenchError, OSError) as exc:  # bad input data or an unwritable output path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
