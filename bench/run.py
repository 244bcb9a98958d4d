#!/usr/bin/env python3
"""Benchmark for choquard-gs: time to a ground state, memory and level error.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of solve-2d, sweep-1d, verify-1d, or ``all``, which runs each
workload in its own process and prints one table. The package is imported
from ``src/`` next to this directory, never from an installed copy.

With ``--trace 0`` the run times 11 set-ups, each in a fresh process, then
repeats the workload for about S seconds, alternating with a fixed reference
computation, and reports end-to-end metrics: the workload's time in units of
the reference's time, the median set-up, peak memory and the level error (see
README.md for why these statistics). With ``--trace 1`` it alternates plain
and traced repetitions and reports per-layer metrics; layers are timed by
wrapping the package's functions from outside (see tracing.py). Every
repetition's outputs are checked. The last line of standard output is a
JSON object with keys correct, attempted, failed and metrics; the full record,
with provenance and every level at full precision, goes to
``.bench_out/<workload>/``. ``--smoke`` runs tiny sizes in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("solve-2d", "sweep-1d", "verify-1d")

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, glibc malloc.h
MIN_REPS = 2   # at least two timed repetitions, so reproducibility is checked
# set-ups per run, at least, each in a fresh process: inside one long-lived
# process the allocator's state makes set-up time bimodal
SETUPS = 11


def pin_environment() -> None:
    """One process, one thread: CHOQUARD_GS_THREADS would override --workers.

    glibc's malloc is pinned to keep freed blocks up to 32 MiB in the heap and
    not to trim it. By default it maps and unmaps arrays of a few hundred KiB
    for a while after start, and on a small VM unmapping can cost ten times
    the arithmetic (a 128x128 transform loop took 64 ms instead of 5 ms)
    depending on the state of the host.
    """
    os.environ.pop("CHOQUARD_GS_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):   # not glibc
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


def import_package():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import choquard_gs
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import choquard_gs from {src}: {exc}") from None
    if src not in Path(choquard_gs.__file__).resolve().parents:
        raise SystemExit(f"bench: choquard_gs resolved to {choquard_gs.__file__}, not {src}")
    return choquard_gs


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blob_hash(text: str) -> str:
    data = text.encode()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def keep_going(durations: list[float], started: float, seconds: float, minimum: int) -> bool:
    """Run another round unless the minimum is met and it would overrun."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


class Reference:
    """A fixed numpy computation, timed in chunks alternately with the workload.

    Other tenants of a shared machine slow everything on it, by up to 2x, for
    periods longer than a run. Reference time measured over the same period
    slows with it, so the workload's time in reference units stays put. A
    chunk is a Python loop of transforms on an array of the workload's grid
    shape, each result stored in turn into one of `rows` rows of a buffer, so
    that contention for the caches slows both alike. It never calls the
    package.
    """

    def __init__(self, shape: tuple[int, ...], rows: int):
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(0).standard_normal(shape) + 0j
        self.buf = np.zeros((rows,) + shape)
        self.k = np.exp(-np.arange(self.a.size).reshape(shape) / self.a.size)
        self.loops = max(1, min(512, 2**17 // self.a.size))
        self.chunks, self.seconds = 0, 0.0
        self.blocks: list[list[float]] = []

    def _chunk(self) -> float:
        np = self.np
        t = time.perf_counter()
        x = self.a
        for i in range(self.loops):
            x = np.fft.ifftn(np.fft.fftn(x) * self.k) + self.a
            x = x / np.sqrt(np.vdot(x, x).real)
            self.buf[i % len(self.buf)] = x.real
        return time.perf_counter() - t

    def block(self, chunks: int) -> None:
        """Run one untimed chunk, to refill the caches the workload evicted,
        then `chunks` timed ones."""
        self._chunk()
        times = [self._chunk() for _ in range(chunks)]
        self.blocks.append(times)
        self.chunks += chunks
        self.seconds += sum(times)

    def chunk_s(self) -> float:
        return self.seconds / self.chunks


def input_seed(seed: int, k: int) -> int:
    """Seed of the k-th input of a run: each round of a run solves a new input,
    so a run's time averages over inputs whose iteration counts differ."""
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def timed_rep(workload, seed, tracer) -> tuple[float, object]:
    gc.collect()
    t = time.perf_counter()
    outcome = workload.run(seed, tracer)
    return time.perf_counter() - t, outcome


def cold_setup(args) -> float:
    """Seconds of one set-up, timed by setup_once.py in a fresh process."""
    from workloads import BenchError

    cmd = [sys.executable, str(Path(__file__).with_name("setup_once.py")), args.workload]
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def per_layer(tracer, reps: int, traced: list[float], plain: list[float]) -> dict:
    """Per-layer metrics per traced repetition, from spans and solver records."""
    tot = tracer.layer_totals()
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0}

    def layer(name):
        return tot.get(name, zero)

    iters = sum(r.iterations for r in tracer.solves) / reps
    solves = layer("solver.solve")
    fft = layer("fft")
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls_and_cost(name):
        t = layer(name)
        put(f"{name}.calls", t["calls"] / reps, "count")
        put(f"{name}.us_per_call", 1e6 * t["s"] / t["calls"] if t["calls"] else 0.0, "us")

    put("fft.calls", fft["calls"] / reps, "count")
    put("fft.s", fft["s"] / reps, "s")
    put("fft.calls_per_iter", fft["calls"] / reps / iters if iters else 0.0, "count/iter")
    put("fft.points", tracer.counters.get("fft.points", 0.0) / reps, "count")
    put("fft.computed_mb", tracer.counters.get("fft.computed_bytes", 0.0) / reps / 1e6, "MB")
    for name in ("operators.apply_sqrt", "operators.riesz_convolve", "energy.precondition",
                 "energy.grad_energy", "energy.qdg"):
        calls_and_cost(name)
    put("solver.iters", iters, "count")
    put("solver.ms_per_iter", 1e3 * solves["s"] / reps / iters if iters else 0.0, "ms")
    trials = (tracer.solver_side_qdg_calls() - solves["calls"]) / reps
    put("solver.ls_trials_per_iter", trials / iters if iters else 0.0, "count/iter")
    put("solver.solve.calls", solves["calls"] / reps, "count")
    put("solver.solve.self_s", solves["self_s"] / reps, "s")
    put("solver.multistart.starts", tracer.counters.get("solver.multistart.starts", 0.0) / reps,
        "count")
    put("solver.recenters", sum(r.recenters for r in tracer.solves) / reps, "count")
    for name in ("grid.field_new", "nehari.nehari_t_from_qdg", "extension.harmonic_extend",
                 "extension.volume_integrals", "extension.check_trace_inequalities",
                 "extension.dtn_apply"):
        calls_and_cost(name)
    put("extension.wall_share", tracer.covered_s("extension.") / sum(traced), "fraction")
    for name in ("nehari.check_J_conditions", "energy.estimate_d_bound", "problem.validate",
                 "energy.build_context", "operators.build_riesz", "grid.save_field",
                 "experiments.report_write"):
        put(f"{name}.s", layer(name)["s"] / reps, "s")
    put("trace.overhead_s", statistics.median(traced) - statistics.median(plain), "s")
    return out


def measure(workload, args, plain, traced) -> dict:
    """Repeat the workload for about args.seconds, after one untimed warm-up.

    Untraced: rounds of a cold set-up, a reference block and a repetition,
    then a last reference block and set-ups up to SETUPS; spreading set-ups
    over the run lets their median see the same load as the repetitions.
    Traced: rounds of a plain and a traced repetition, so the tracing overhead
    is their difference. Round k runs input k; the warm-up runs input 0 too,
    so every run repeats one input.
    """
    m = {"walls": [], "traced_walls": [], "setups": [], "outcomes": [], "inputs": [0],
         "ref": None}
    if not args.trace:
        params, _ = workload.problem()
        m["ref"] = Reference((params.n,) * params.N, workload.ref_rows)
    started = time.perf_counter()
    with plain:
        m["outcomes"].append(timed_rep(workload, input_seed(args.seed, 0), plain)[1])
    rounds: list[float] = []
    while keep_going(rounds, started, args.seconds, 1 if args.trace else MIN_REPS):
        t0 = time.perf_counter()
        if args.trace:
            reps = ((plain, m["walls"]), (traced, m["traced_walls"]))
        else:
            m["setups"].append(cold_setup(args))
            m["ref"].block(workload.ref_chunks)
            reps = ((plain, m["walls"]),)
        for tracer, walls in reps:
            with tracer:
                wall, outcome = timed_rep(workload, input_seed(args.seed, len(rounds)), tracer)
            walls.append(wall)
            m["outcomes"].append(outcome)
            m["inputs"].append(len(rounds))
        rounds.append(time.perf_counter() - t0)
    if not args.trace:
        m["ref"].block(workload.ref_chunks)
        m["setups"] += [cold_setup(args) for _ in range(SETUPS - len(m["setups"]))]
    return m


def find_problems(outcomes, inputs, n_ref: int, ladder: dict, c_ref: float) -> list[str]:
    """Per-repetition problems, reproducibility, and the eps=0 level cross-check.

    Repetitions of one input must give the same levels bit for bit; those of
    other inputs, the same levels to LEVEL_RTOL, as every start reaches the
    ground state.
    """
    from workloads import LEVEL_RTOL

    problems = []
    first = {}
    for i, (o, k) in enumerate(zip(outcomes, inputs)):
        problems += [f"repetition {i}: {p}" for p in o.problems]
        same = outcomes[first.setdefault(k, i)]
        if o.levels != same.levels:
            problems.append(f"repetition {i}: levels differ from repetition {first[k]} "
                            f"(same input)")
        ref = outcomes[0].levels
        if len(o.levels) != len(ref) or any(abs(a - b) > LEVEL_RTOL * abs(b)
                                            for a, b in zip(o.levels, ref)):
            problems.append(f"repetition {i}: levels differ from repetition 0 beyond "
                            f"{LEVEL_RTOL:g}")
    if abs(c_ref - ladder[n_ref]) > 1e-8 * abs(ladder[n_ref]):
        problems.append(f"eps=0 level {c_ref!r} differs from the ladder's n={n_ref} level "
                        f"{ladder[n_ref]!r}")
    return problems


def run_one(args) -> int:
    pin_environment()
    cg = import_package()
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS, BenchError, aitken_limit, level_ladder

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    traced = Tracer(timed=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, out_dir, args.smoke)
        n_ref, ladder = level_ladder(ROOT, args.smoke)
        m = measure(workload, args, Tracer(timed=False), traced)
        output_problems = workload.check_outputs(m["outcomes"][-1])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    c_inf = aitken_limit(*(ladder[n] for n in sorted(ladder)[-3:]))
    outcomes, walls, setups = m["outcomes"], m["walls"], m["setups"]
    ref = outcomes[-1].reference_level
    c_ref = ladder[n_ref] if ref is None else ref
    problems = output_problems + find_problems(outcomes, m["inputs"], n_ref, ladder, c_ref)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    if args.trace:
        values = per_layer(traced, len(m["traced_walls"]), m["traced_walls"], walls)
        detail = {name: f"per traced rep, {len(m['traced_walls'])} traced reps"
                  for name in values}
        np.savez(out_dir / f"spans-seed{args.seed}.npz", names=np.array(traced.names),
                 **traced.span_arrays())
    else:
        # repetitions differ only in their seeded inputs, whose work differs by a
        # few per cent, so most of the spread among them is other tenants' load
        # on the machine; the mean over the run, in units of the reference timed
        # over the same period, is the estimate least affected by it
        q1, wall_med, q3 = quartiles(walls)
        s1, setup_s, s3 = quartiles(setups)
        ref_s = m["ref"].chunk_s()
        values = {
            "wall_rel": (statistics.fmean(walls) / ref_s, "ref"),
            "setup_s": (setup_s, "s"),
            "peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "level_rel_err": (abs(c_ref - c_inf) / abs(c_inf), "ratio"),
        }
        detail = {
            "wall_rel": f"mean of {len(walls)} reps over mean of {m['ref'].chunks} "
                        f"reference chunks ({1e3 * ref_s:.2f} ms)",
            "setup_s": f"median of {len(setups)} set-ups, q1 {s1:.5f} q3 {s3:.5f}",
            "peak_mb": "max resident set of this process, 1 sample",
            "level_rel_err": f"c_{n_ref}={c_ref!r}, c_inf={c_inf!r} "
                             f"(Aitken of n={sorted(ladder)[-3:]}), 1 sample",
        }

    ops = "checks" if args.workload == "verify-1d" else "solver starts"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    for name, (value, unit) in values.items():
        print(f"  {name:46s} {value:14.6g} {unit:10s} {detail[name]}")
    if not args.trace:
        print(f"  {'wall_s':46s} {wall_med:14.6g} {'s':10s} median of {len(walls)} reps, "
              f"q1 {q1:.4f} q3 {q3:.4f}, fastest {min(walls):.4f}")
    print(f"  {'failed_frac':46s} {failed / attempted:14.6g} {'ratio':10s} "
          f"{failed} of {attempted} {ops} over {len(outcomes)} reps (1 warm-up)")
    for p in problems:
        print(f"  PROBLEM: {p}")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "provenance": {
            "git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count(), "package": cg.__version__,
            "config_hashes": {k: blob_hash(v) for k, v in workload.configs().items()},
        },
        "correct": not problems, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "metrics": {k: dict(v, detail=detail[k]) for k, v in metrics.items()},
        "wall_s_samples": walls, "traced_wall_s_samples": m["traced_walls"],
        "setup_s_samples": setups,
        "ref_chunk_s": m["ref"].chunk_s() if m["ref"] else None,
        "ref_block_samples": m["ref"].blocks if m["ref"] else [],
        "levels_per_rep": [o.levels for o in outcomes],
        "solver_iterations_per_rep": [o.iterations for o in outcomes],
        "ladder": {str(n): c for n, c in ladder.items()}, "c_inf": c_inf, "c_ref": c_ref,
    }
    result_path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
