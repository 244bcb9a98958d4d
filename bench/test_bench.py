"""Tests of the benchmark itself: the metric schema and the tracer's patching.

Run with ``python -m pytest bench``; the smoke runs take about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, r in result["workloads"].items():
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, name
        assert {m: v["unit"] for m, v in r["metrics"].items()} == expected, name
        assert all(isinstance(v["value"], float) for v in r["metrics"].values()), name


def test_tracer_wraps_every_binding_and_restores_it():
    import choquard_gs as cg
    from choquard_gs import solver
    from choquard_gs.experiments import drivers

    bindings = [(solver, "solve"), (drivers, "solve"), (cg, "solve"), (np.fft, "fftn")]
    originals = [getattr(m, a) for m, a in bindings]
    ctx = cg.build_context(cg.ProblemParams(N=1, m=1.0, p=2.0, q=3.0, alpha=0.5, L=4.0, n=32),
                           cg.PotentialSpec(cg.Descriptor("constant", {"value": 1.0}),
                                            cg.Descriptor("zero"), "zero", cg.Descriptor("zero")))
    u = cg.gaussian_field(ctx.grid, [0.0], 1.0)
    with Tracer(timed=True) as tracer:
        assert all(getattr(m, a) is not orig for (m, a), orig in zip(bindings, originals))
        drivers._solve_best(ctx, [u, u], cg.SolverConfig())   # drivers' own binding
        cg.multistart(ctx, 2, cg.SolverConfig())               # solver's internal calls
    assert [getattr(m, a) for m, a in bindings] == originals
    assert len(tracer.solves) == 4
    assert [len(b) for b in tracer.batches] == [2]
    totals = tracer.layer_totals()
    assert totals["solver.solve"]["calls"] == 4
    assert totals["solver.multistart"]["calls"] == 1
    assert totals["fft"]["calls"] > 0
    for layer in totals.values():
        assert 0.0 <= layer["self_s"] <= layer["s"] + 1e-12
