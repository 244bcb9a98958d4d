"""What the benchmark in bench/ uses of the package, so a refactor cannot
silently break it; the benchmark's own tests are too slow for this suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

from choquard_gs.cli import build_parser
from choquard_gs.experiments import drivers

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_timed_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    spec.loader.exec_module(tracing)
    for _, modname, attr in tracing.TIMED:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"


def test_drivers_keep_solve_best():
    assert callable(drivers._solve_best)


def test_cli_accepts_one_worker():
    args = build_parser().parse_args(["solve", "--config", "problem.ini", "--workers", "1"])
    assert args.workers == 1
