"""Command-line entry point.

Exit codes: 0 all checks passed, 1 assertion failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ExperimentConfig,
    run_box_sweep,
    run_fiber_scan,
    run_gamma_sweep,
    run_solve,
    run_verify,
    run_vl_sign,
)
from .experiments.config import KINDS
from .problem import ConfigError
from .solver import SolveFailure

_DRIVERS = {
    "solve": run_solve,
    "verify": run_verify,
    "gamma-sweep": run_gamma_sweep,
    "vl-sign": run_vl_sign,
    "box-sweep": run_box_sweep,
    "fiber-scan": run_fiber_scan,
}


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choquard-gs",
        description="Ground states of a semirelativistic Choquard equation on a periodic box",
    )
    parser.add_argument("kind", choices=KINDS, help="experiment to run")
    parser.add_argument("--config", required=True, help="problem config file")
    parser.add_argument("--out", default="choquard_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1, choices=(1,),
                        help="starts run one at a time; only 1 is accepted")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="loosen verification tolerances by this factor")
    parser.add_argument("--multistarts", type=int, default=4)
    parser.add_argument("--max-iters", type=int, default=2000)
    parser.add_argument("--eps-list", type=_float_list, default=None,
                        help="amplitudes for gamma-sweep, e.g. 0.5,0.25,0.1,0.05,0")
    parser.add_argument("--box-list", type=_float_list, default=None,
                        help="half-periods for box sweeps, e.g. 8,16,32")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    kwargs = dict(
        kind=args.kind,
        problem_path=args.config,
        out_dir=args.out,
        seed=args.seed,
        tolerance_scale=args.tol_scale,
        multistarts=args.multistarts,
        max_iters=args.max_iters,
    )
    if args.eps_list is not None:
        kwargs["eps_list"] = args.eps_list
    if args.box_list is not None:
        kwargs["box_list"] = args.box_list
    try:
        ecfg = ExperimentConfig(**kwargs)
        return _DRIVERS[args.kind](ecfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolveFailure as exc:
        print(f"solve failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
