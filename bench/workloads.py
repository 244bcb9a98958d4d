"""The benchmark's workloads: one set-up, one timed repetition, and the checks
on what each repetition produced.

Every workload runs in this process with one worker. Drivers are called
through the package's CLI entry point, so argument parsing, report writing and
field I/O are part of the timed work, as they are for a user.
"""

from __future__ import annotations

import contextlib
import json
import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import choquard_gs as cg
from choquard_gs import cli
from choquard_gs.problem import Descriptor, load_problem_config

# converged starts of one multistart batch must reach the same level
LEVEL_RTOL = 1e-8

SWEEP_EPS = "1.0,0.8,0.6,0.5,0.4,0.3,0.2,0.15,0.1,0.05,0.02,0"

PROBLEM_2D = """\
[params]
N = 2
m = 1.0
p = 2.0
q = 3.0
alpha = 1.0
L = {L}
n = {n}

[potential.Vp]
tag = constant
value = 1.0

[potential.Vl]
tag = zero

[potential.Gamma]
tag = zero
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (package or input files missing)."""


@dataclass
class Outcome:
    """One repetition: operations attempted and failed, final levels in call
    order, and every correctness problem found."""

    attempted: int
    failed: int
    levels: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    reference_level: float | None = None
    iterations: int = 0


def solve_outcome(tracer, mark: tuple[int, int], rc: int) -> Outcome:
    """Outcome of a repetition whose operations are solver starts.

    mark is (solves, batches) recorded by the tracer before the repetition.
    """
    recs = tracer.solves[mark[0]:]
    levels = [r.level for r in recs]
    attempted = max(len(recs), 1)
    failed = sum(r.status != "converged" for r in recs)
    problems = []
    if rc != 0:
        problems.append(f"driver exited with code {rc}")
    if not all(math.isfinite(c) for c in levels):
        problems.append("non-finite level")
    if problems:
        failed = attempted
    for batch in tracer.batches[mark[1]:]:
        conv = [r.level for r in batch if r.status == "converged"]
        if conv and max(conv) - min(conv) > LEVEL_RTOL * abs(min(conv)):
            problems.append(f"converged starts disagree: levels {min(conv)!r} .. {max(conv)!r}")
    return Outcome(attempted, failed, levels, problems,
                   iterations=sum(r.iterations for r in recs))


class Workload:
    """Base: a problem config, one set-up and one repetition."""

    name = ""
    # reference chunks timed before each repetition (see run.Reference): about
    # a fifth of a repetition when the benchmark was written, and fixed, so the
    # reference does not follow the program's speed
    ref_chunks = 15
    # rows of the reference's buffer (see run.Reference): the workload's
    # working set in grid-sized arrays
    ref_rows = 1

    def __init__(self, root: Path, out: Path, smoke: bool):
        self.root = root
        self.out = out
        self.smoke = smoke

    def _config(self, rel: str) -> Path:
        path = self.root / rel
        if not path.is_file():
            raise BenchError(f"config file missing: {rel}")
        return path

    def configs(self) -> dict[str, str]:
        """Text of every problem config the workload uses, for provenance hashes."""
        return {self.config.name: self.config.read_text(encoding="utf-8")}

    def problem(self):
        return load_problem_config(self.config)

    def setup(self) -> None:
        """What the drivers do before solving: load, validate, build the context."""
        params, pot = self.problem()
        if not cg.validate(params, pot).all_passed:
            raise BenchError(f"{self.name} problem fails validation")
        cg.build_context(params, pot)

    def run(self, seed: int, tracer) -> Outcome:
        raise NotImplementedError

    def check_outputs(self, last: Outcome) -> list[str]:
        """Untimed checks on the files the last repetition wrote."""
        return []

    def _driver(self, args: list[str]) -> int:
        log = self.out / "driver.log"
        with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                return cli.main(args + ["--out", str(self.out / "driver"), "--workers", "1"])
            except Exception:  # a driver that crashes fails its run, as it would for a user
                traceback.print_exc(file=fh)
                return 1


class Solve2D(Workload):
    """The solve driver on a generated N=2 config, n=128, Gamma=0, 16 starts: the
    FFT-bound hot path on cache-resident arrays, plus field and report I/O and
    the driver's re-solve of the winner. Each start takes 30-55 iterations;
    with Gamma != 0 a start takes about 600, and two starts vary by a tenth
    between seeds."""

    name = "solve-2d"
    ref_chunks = 120

    def __init__(self, root, out, smoke):
        super().__init__(root, out, smoke)
        self.config = out / "problem_2d.ini"
        n, L = (16, 2) if smoke else (128, 8)
        self.starts = "2" if smoke else "16"
        self.config.write_text(PROBLEM_2D.format(n=n, L=L), encoding="utf-8")

    def run(self, seed, tracer):
        mark = (len(tracer.solves), len(tracer.batches))
        rc = self._driver(["solve", "--config", str(self.config), "--seed", str(seed),
                           "--multistarts", self.starts])
        return solve_outcome(tracer, mark, rc)

    def check_outputs(self, last):
        out = self.out / "driver"
        problems = []
        try:
            e_val = json.loads((out / "energy.json").read_text(encoding="utf-8"))["e_val"]
            u = cg.load_field(out / "u_final.cgsf")
        except (OSError, ValueError, KeyError) as exc:
            return [f"solve outputs unreadable: {exc}"]
        params, pot = self.problem()
        ctx = cg.build_context(params, pot)
        e_file = cg.energy_value(ctx, u)
        if abs(e_file - e_val) > 1e-10 * abs(e_val):
            problems.append(f"u_final.cgsf energy {e_file!r} != energy.json {e_val!r}")
        if last.levels and abs(min(last.levels) - e_val) > LEVEL_RTOL * abs(e_val):
            problems.append(f"energy.json {e_val!r} is not the best level {min(last.levels)!r}")
        return problems


class Sweep1D(Workload):
    """The gamma-sweep driver: 16 starts at the first eps, then warm-started solves
    down to eps=0. Bound by Python overhead, not transforms; its eps=0 level is
    the one level_rel_err measures."""

    name = "sweep-1d"

    def __init__(self, root, out, smoke):
        super().__init__(root, out, smoke)
        self.config = self._config("configs/smoke.ini" if smoke else "configs/gamma_sweep.ini")
        self.starts, self.eps = ("2", "0.5,0.1,0") if smoke else ("16", SWEEP_EPS)

    def run(self, seed, tracer):
        mark = (len(tracer.solves), len(tracer.batches))
        rc = self._driver(["gamma-sweep", "--config", str(self.config), "--seed", str(seed),
                           "--multistarts", self.starts, "--eps-list", self.eps])
        outcome = solve_outcome(tracer, mark, rc)
        if outcome.levels:
            outcome.reference_level = outcome.levels[-1]
        return outcome


class Verify1D(Workload):
    """The verify driver: never calls the solver, uses energy and operators on
    independent random fields, and is dominated by the extension layer."""

    name = "verify-1d"
    ref_chunks = 120
    ref_rows = 384   # the extension's half-space grid: nx=384 rows of the field

    def __init__(self, root, out, smoke):
        super().__init__(root, out, smoke)
        self.config = self._config("configs/smoke.ini" if smoke else "configs/verify.ini")

    def run(self, seed, tracer):
        report = self.out / "driver" / "report.md"
        report.unlink(missing_ok=True)
        args = ["verify", "--config", str(self.config), "--seed", str(seed)]
        rc = self._driver(args + (["--tol-scale", "10"] if self.smoke else []))
        lines = report.read_text(encoding="utf-8").splitlines() if report.is_file() else []
        passed = [ln for ln in lines if ln.startswith("- [PASS]")]
        failed = [ln[len("- [FAIL] "):] for ln in lines if ln.startswith("- [FAIL]")]
        attempted = max(len(passed) + len(failed), 1)
        problems = [f"check failed: {name}" for name in failed]
        if rc != 0:
            problems.append(f"driver exited with code {rc}")
        return Outcome(attempted, attempted if rc != 0 else len(failed), [], problems)


WORKLOADS = {w.name: w for w in (Solve2D, Sweep1D, Verify1D)}


def level_ladder(root: Path, smoke: bool) -> tuple[int, dict[int, float]]:
    """Ground levels of the sweep's eps=0 problem over a doubling n-ladder.

    Returns the sweep's own n and the level at each n; every solve starts
    from a centred Gaussian and must converge.
    """
    path = root / ("configs/smoke.ini" if smoke else "configs/gamma_sweep.ini")
    if not path.is_file():
        raise BenchError(f"config file missing: {path.relative_to(root)}")
    params, pot = load_problem_config(path)
    pot = replace(pot, Gamma=Descriptor("zero"))
    ns = [8 * 2**k for k in range(5)] if smoke else [64 * 2**k for k in range(8)]
    levels = {}
    for n in ns:
        ctx = cg.build_context(replace(params, n=n), pot)
        r = cg.solve(ctx, cg.gaussian_field(ctx.grid, np.zeros(params.N), 2.0),
                     cg.SolverConfig())
        if r.status != "converged":
            raise BenchError(f"level ladder did not converge at n={n}: {r.status}")
        levels[n] = float(r.energy_trace[-1])
    return params.n, levels


def aitken_limit(c1: float, c2: float, c3: float) -> float:
    """Aitken delta-squared limit of three successive levels."""
    d1, d2 = c2 - c1, c3 - c2
    return c3 - d2 * d2 / (d2 - d1)
