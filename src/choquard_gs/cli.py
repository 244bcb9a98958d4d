"""Command-line entry point.

Exit codes: 0 all checks passed, 1 assertion failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments.config import ExperimentConfig
from .experiments.drivers import KINDS, run
from .problem import ConfigError


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """Each destination but workers is an ExperimentConfig field, whose default
    applies when the option is absent."""
    parser = argparse.ArgumentParser(
        prog="choquard-gs",
        description="Ground states of a semirelativistic Choquard equation on a periodic box",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("kind", choices=KINDS, help="experiment to run")
    parser.add_argument("--config", dest="problem_path", required=True,
                        help="problem config file")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int, choices=(1,),
                        help="starts run one at a time; only 1 is accepted")
    parser.add_argument("--tol-scale", dest="tolerance_scale", type=float,
                        help="loosen verification tolerances by this factor")
    parser.add_argument("--multistarts", type=int)
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--eps-list", type=_float_list,
                        help="amplitudes for gamma-sweep, e.g. 0.5,0.25,0.1,0.05,0")
    parser.add_argument("--box-list", type=_float_list,
                        help="half-periods for box sweeps, e.g. 8,16,32")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.pop("workers", None)
    try:
        return run(ExperimentConfig(**args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
