import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from choquard_gs.cli import main
from choquard_gs.energy import EnergyContext, build_context
from choquard_gs.experiments.config import ExperimentConfig, Report, blob_hash
from choquard_gs.experiments.drivers import (
    KINDS,
    TRACE_FIELDS,
    _embed,
    _run_all_suites,
    _suite_trace,
    run,
)
from choquard_gs.extension import build_wall
from choquard_gs.grid import Field, dft, gaussian_field, load_field
from choquard_gs.problem import ConfigError
from conftest import config_context, const_potential, count_calls, make_params

DEFAULT_CONFIG = """
[params]
N = 1
m = 1.0
p = 2.0
q = 3.0
alpha = 0.5
L = 16
n = 128

[potential.Vp]
tag = constant
value = 1.0

[potential.Vl]
tag = zero

[potential.Gamma]
tag = cosine
amplitude = 0.5
"""

SMOKE_CONFIG = DEFAULT_CONFIG.replace("L = 16", "L = 4").replace("n = 128", "n = 8")

VL_CONFIG = """
[params]
N = 1
m = 1.0
p = 2.0
q = 3.0
alpha = 0.5
L = 8
n = 128

[potential.Vp]
tag = constant
value = 1.0

[potential.Vl]
tag = inverse-power
sign = negative
amplitude = -0.3
width = 2.0
power = 2.0

[potential.Gamma]
tag = zero
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(DEFAULT_CONFIG, encoding="utf-8")
    return path


def test_blob_hash_stable():
    assert blob_hash(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"


def test_report_collects_checks(tmp_path):
    rep = Report("demo")
    rep.add_check("first", True, "fine")
    rep.add_check("second", False, "broken")
    assert not rep.all_passed
    rep.add_metric(a=1, b=2.5)
    out = rep.write(tmp_path)
    text = out.read_text()
    assert "[PASS] first" in text and "[FAIL] second" in text
    assert (tmp_path / "metrics.csv").read_text().startswith("a,b")


def test_experiment_config_validation(config_path, tmp_path):
    # the kind is checked where it is looked up, before anything is written
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="unknown experiment kind 'warp'"):
        run(ExperimentConfig(kind="warp", problem_path=str(config_path), out_dir=str(out)))
    assert not out.exists()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="solve", problem_path="missing.ini")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="solve", problem_path=str(config_path), eps_list=[])


def test_cli_requires_valid_kind(config_path):
    assert main(["warp-drive", "--config", str(config_path)]) == 2


def test_cli_rejects_more_than_one_worker(config_path, tmp_path):
    # starts run one at a time; --workers stays only as the value 1
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path),
                 "--multistarts", "1", "--workers", "2"]) == 2


@pytest.mark.parametrize("extra", [[], ["--workers", "1"]])
def test_cli_passes_options_through_as_experiment_config(config_path, monkeypatch, extra):
    from dataclasses import fields

    from choquard_gs import cli

    dests = {a.dest for a in cli.build_parser()._actions} - {"help", "workers"}
    assert dests <= {f.name for f in fields(ExperimentConfig)}
    seen = []
    monkeypatch.setattr(cli, "run", lambda ecfg: seen.append(ecfg) or 0)
    assert main(["solve", "--config", str(config_path)] + extra) == 0
    assert seen == [ExperimentConfig("solve", str(config_path))]


def test_readme_synopsis_matches_parser():
    from choquard_gs.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = re.search(r"```\n(choquard-gs .*?)```", readme, re.S).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", synopsis))
    defined = set(re.findall(r"--[a-z][a-z-]*", build_parser().format_usage()))
    assert documented == defined
    kinds = re.match(r"choquard-gs <([a-z|-]*)>", synopsis).group(1)
    assert tuple(kinds.split("|")) == tuple(KINDS)


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("args", [
    ["solve", "--multistarts", "0"],
    ["solve", "--multistarts", "-3"],
    ["solve", "--max-iters", "0"],
    ["solve", "--seed", "-1"],
    ["verify", "--seed", "-3"],
    ["gamma-sweep", "--max-iters", "0"],
    ["verify", "--tol-scale", "-1"],
    ["verify", "--tol-scale", "0"],
    ["gamma-sweep", "--eps-list", "nan,0"],
    ["gamma-sweep", "--eps-list", "inf,0"],
    ["box-sweep", "--box-list", "nan"],
    ["box-sweep", "--box-list", "8,inf"],
    ["box-sweep", "--box-list", "0"],
    ["vl-sign", "--box-list", "-4"],
    ["box-sweep", "--box-list", "8"],
    ["box-sweep", "--box-list", "8,8,16"],
    ["vl-sign", "--box-list", "8,16,8"],
])
def test_cli_bad_counts_are_config_errors(config_path, tmp_path, args, capsys):
    # a negative seed and the sweep lists are checked before any solve; vl-sign needs a localized part
    # to get that far, and a box sweep two distinct boxes to difference
    if args[0] == "vl-sign":
        config_path.write_text(VL_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(args + ["--config", str(config_path), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_readme_solver_config_fields_match_dataclass():
    import dataclasses

    from choquard_gs.solver import SolverConfig

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"`SolverConfig` fields: ([^.]*)\.", readme).group(1)
    documented = re.findall(r"`([a-z_]+)`", sentence)
    assert documented == [f.name for f in dataclasses.fields(SolverConfig)]


def test_cli_solve_writes_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(config_path), "--out", str(out),
                 "--multistarts", "2", "--seed", "1"])
    assert code == 0
    assert (out / "report.md").exists()
    assert (out / "metrics.csv").exists()
    report = (out / "report.md").read_text()
    assert "content hash" in report
    energy_rec = json.loads((out / "energy.json").read_text())
    assert energy_rec["e_val"] > 0
    field = load_field(out / "u_final.cgsf")
    assert field.grid.n == 128
    meta = json.loads((out / "u_final.cgsf.meta.json").read_text())
    assert meta["experiment"] == "solve"
    trace_lines = (out / "trace.ndjson").read_text().strip().splitlines()
    assert json.loads(trace_lines[-1])["residual"] <= json.loads(trace_lines[0])["residual"]


def test_cli_solve_runs_name_the_start_each_start_joined(tmp_path):
    out = tmp_path / "out"
    config = Path(__file__).resolve().parents[1] / "configs" / "gamma_sweep.ini"
    assert main(["solve", "--config", str(config), "--out", str(out),
                 "--multistarts", "16", "--seed", "1"]) == 0
    runs = [line for line in (out / "report.md").read_text().splitlines()
            if line.startswith("- start ")]
    assert len(runs) == 8 and "joined" not in runs[0]
    for line in runs[1:]:
        assert re.search(r", joined start 0 at iteration \d+$", line)
    # the winner is start 0, whose rows trace.ndjson writes
    rows = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
    assert len(rows) == int(re.search(r"iterations=(\d+)", runs[0])[1]) + 1
    assert all(row["accept"] != "join" for row in rows)


def test_cli_verify_default_passes(config_path, tmp_path):
    out = tmp_path / "verify"
    code = main(["verify", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    text = (out / "report.md").read_text()
    assert "all checks passed" in text


def test_cli_verify_smoke_resolution(tmp_path):
    path = tmp_path / "smoke.ini"
    path.write_text(SMOKE_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(path), "--out", str(out), "--tol-scale", "10"])
    assert code == 0


def test_verify_fails_with_corrupted_kernel(config_path, tmp_path):
    params, pot = make_params(), const_potential()
    ctx = build_context(params, pot)
    # the plain-sampling bias: the origin weight dropped
    samples = ctx.kernel.kernel_samples.copy()
    samples[(0,) * ctx.grid.N] = 0.0
    corrupted = replace(ctx.kernel, kernel_samples=samples,
                        conv_multiplier=ctx.grid.cell_volume * dft(samples).real)
    bad_ctx = EnergyContext(params, ctx.grid, ctx.sqrt_op, corrupted,
                            ctx.Vp, ctx.Vl, ctx.Gamma)
    rep = Report("corrupted kernel")
    _run_all_suites(bad_ctx, rep, 1.0, seed=0)
    assert not rep.all_passed
    failed = [name for name, ok, _ in rep.checks if not ok]
    assert "production kernel carries the zeta-corrected weights" in failed


def test_cli_fiber_scan(config_path, tmp_path):
    out = tmp_path / "fs"
    code = main(["fiber-scan", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    csv = (out / "fiber_scan.csv").read_text().splitlines()
    assert csv[0] == "t,energy,residual"
    assert len(csv) == 42


def test_cli_runs_as_module(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "fs"
    proc = subprocess.run([sys.executable, "-m", "choquard_gs.cli", "fiber-scan",
                           "--config", str(root / "configs" / "smoke.ini"), "--out", str(out)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.md").is_file()


def test_cli_non_finite_potential_is_a_configuration_error(tmp_path, capsys):
    # width = 0 puts 0/0 at the bump's centre
    root = Path(__file__).resolve().parents[1]
    text = (root / "configs" / "vl_sign.ini").read_text(encoding="utf-8")
    path = tmp_path / "vl.ini"
    path.write_text(text.replace("width = 2.0", "width = 0"), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "potential descriptors sampled ([potential.Vl] tag 'inverse-power'" in err
    assert "Warning" not in err
    assert not (tmp_path / "o").exists()


def test_gamma_sweep_requires_zero_vl(tmp_path):
    path = tmp_path / "vl.ini"
    path.write_text(VL_CONFIG, encoding="utf-8")
    assert main(["gamma-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_embed_preserves_values():
    small = build_context(make_params(L=4.0, n=64), const_potential()).grid
    big = build_context(make_params(L=8.0, n=128), const_potential()).grid
    u = gaussian_field(small, [0.0], 1.0)
    v = _embed(u, big)
    assert v.values.shape == (128,)
    assert np.max(np.abs(v.values)) == np.max(np.abs(u.values))
    assert float(np.sum(v.values**2)) == pytest.approx(float(np.sum(u.values**2)))


def test_cli_gamma_sweep_small(config_path, tmp_path):
    out = tmp_path / "gs"
    code = main(["gamma-sweep", "--config", str(config_path), "--out", str(out),
                 "--eps-list", "0.4,0.1,0", "--multistarts", "2"])
    assert code == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("eps,")
    assert len(metrics) == 4


@pytest.mark.parametrize("N,n,L,amplitude", [(1, 128, 16.0, 0.0), (1, 64, 8.0, -0.4),
                                              (2, 16, 4.0, 0.3)])
def test_aligned_distance_matches_exhaustive_search(N, n, L, amplitude, rng):
    # the loop over every sign and roll with an exact Q each, as the sweep
    # computed it before the rolls were ranked by inner products; V_l makes
    # the potential part of Q(roll u) move with the roll
    from choquard_gs.energy import b_values, qdg
    from choquard_gs.experiments.drivers import _aligned_distance
    from choquard_gs.grid import random_smooth_field, shift
    from choquard_gs.problem import Descriptor, PotentialSpec

    def exhaustive(ctx, u, ref):
        best = np.inf
        for offsets in np.ndindex(*(7,) * ctx.grid.N):
            cand = shift(u, np.array(offsets, dtype=float) - 3.0)
            for sign in (1.0, -1.0):
                best = min(best, qdg(ctx, sign * cand.values - ref.values)[0])
        return float(np.sqrt(max(best, 0.0)))

    vl = (Descriptor("inverse-power", {"amplitude": amplitude, "width": 1.0}) if amplitude
          else Descriptor("zero"))
    sign = "zero" if not amplitude else ("negative" if amplitude < 0 else "positive")
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}), vl, sign, Descriptor("zero"))
    ctx = build_context(make_params(N=N, n=n, L=L), pot)
    for _ in range(3):
        u, ref = random_smooth_field(ctx.grid, rng), random_smooth_field(ctx.grid, rng)
        b_ref = b_values(ctx, ref.values)
        assert (_aligned_distance(ctx, u, ref, b_ref)
                == pytest.approx(exhaustive(ctx, u, ref), rel=1e-12))
        # a signed lattice translate of ref is at distance 0
        back = Field(ctx.grid, -shift(ref, np.full(N, -2.0)).values)
        assert _aligned_distance(ctx, back, ref, b_ref) <= 1e-7 * np.sqrt(qdg(ctx, ref.values)[0])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_stacked_epstein_oracle_matches_the_per_call_fractions(N):
    # Z(N - alpha) and Z(N - alpha - 2) from one stack of four continued
    # fractions, bit for bit as one call per fraction, at every shipped alpha
    from choquard_gs.experiments.drivers import _epstein_oracle
    from choquard_gs.problem import load_problem_config
    from oracles import epstein_oracle_per_call

    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    alphas = sorted({load_problem_config(path)[0].alpha for path in configs})
    assert alphas == [0.5]
    for alpha in alphas + [0.25, 0.75]:
        s = (N - alpha, N - alpha - 2.0)
        got = _epstein_oracle(N, s)
        want = [epstein_oracle_per_call(N, x) for x in s]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_cli_vl_sign_small(tmp_path):
    path = tmp_path / "vl.ini"
    path.write_text(VL_CONFIG, encoding="utf-8")
    out = tmp_path / "vs"
    code = main(["vl-sign", "--config", str(path), "--out", str(out),
                 "--box-list", "8,16", "--multistarts", "2"])
    assert code == 0
    text = (out / "report.md").read_text()
    assert "escape signature" in text


def test_cli_box_sweep_small(tmp_path):
    # boxes small enough that truncation gaps dominate the spacing error
    path = tmp_path / "fine.ini"
    path.write_text(DEFAULT_CONFIG.replace("n = 128", "n = 256"), encoding="utf-8")
    out = tmp_path / "bs"
    code = main(["box-sweep", "--config", str(path), "--out", str(out),
                 "--box-list", "2,4,8", "--multistarts", "2"])
    assert code == 0
    metrics = (out / "metrics.csv").read_text()
    assert metrics.startswith("L,c,tail_mass")


def test_cli_box_sweep_default_config_passes(tmp_path):
    # the README example: at n=256 the spacing shift stays below the box gap
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bs"
    assert main(["box-sweep", "--config", str(root / "configs" / "default.ini"),
                 "--out", str(out)]) == 0
    assert "all checks passed" in (out / "report.md").read_text()


def test_gamma_sweep_reruns_bit_identically(config_path, tmp_path):
    args = ["gamma-sweep", "--config", str(config_path), "--eps-list", "0.3,0",
            "--multistarts", "2", "--seed", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_gamma_sweep_table_matches_the_per_context_projection(tmp_path, monkeypatch):
    # each level's sandwich top and distance, as the sweep computed them before
    # it took Q and D of the limit state and B of it once: a projection and a
    # B u0 per context, compared by repr with metrics.csv
    import choquard_gs.experiments.drivers as drivers
    from choquard_gs.energy import b_values, gamma_values
    from oracles import project_to_nehari

    solved = []

    def recording(solver):
        def wrapper(ctx, *args):
            out = solver(ctx, *args)
            solved.append((ctx, out[0] if isinstance(out, tuple) else out))
            return out
        return wrapper

    monkeypatch.setattr(drivers, "multistart", recording(drivers.multistart))
    monkeypatch.setattr(drivers, "_solve_best", recording(drivers._solve_best))
    config = Path(__file__).resolve().parents[1] / "configs" / "gamma_sweep.ini"
    out = tmp_path / "sweep"
    assert main(["gamma-sweep", "--config", str(config), "--eps-list", "0.5,0.2,0",
                 "--multistarts", "2", "--seed", "3", "--out", str(out)]) == 0
    ctx0, limit = solved[-1]
    u0, c0 = limit.u_final, limit.energy_trace[-1]
    rows = []
    for ctx, r in solved:
        s_i, _ = project_to_nehari(ctx, u0)
        upper = c0 + s_i**ctx.params.q / ctx.params.q * gamma_values(ctx, u0.values)
        dist = drivers._aligned_distance(ctx0, r.u_final, u0, b_values(ctx0, u0.values))
        rows.append(",".join(repr(float(v)) for v in (r.energy_trace[-1], upper, dist)))
    got = [line.split(",", 1)[1] for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert got == rows


@pytest.mark.parametrize("kind", KINDS)
def test_invalid_problem_exits_2_naming_the_check(kind, config_path, tmp_path, capsys):
    config_path.write_text(DEFAULT_CONFIG.replace("n = 128", "n = 127"), encoding="utf-8")
    out = tmp_path / "out"
    assert main([kind, "--config", str(config_path), "--out", str(out)]) == 2
    assert "grid points even and >= 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, bad, check", [
    ("L = 16", "L = 1e400", "box half-period positive integer"),
    ("m = 1.0", "m = inf", "mass positive"),
])
def test_non_finite_box_or_mass_exits_2_naming_the_check(line, bad, check, config_path,
                                                         tmp_path, capsys):
    config_path.write_text(DEFAULT_CONFIG.replace(line, bad), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
    assert check in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["solve", "gamma-sweep", "vl-sign", "box-sweep"])
def test_solve_failure_leaves_a_failed_report(kind, config_path, tmp_path):
    # no start converges in one iteration: every kind that solves still
    # writes its report, with the failure as a check
    if kind == "vl-sign":
        config_path.write_text(VL_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main([kind, "--config", str(config_path), "--out", str(out),
                 "--multistarts", "1", "--max-iters", "1"]) == 1
    report = (out / "report.md").read_text()
    assert "- [FAIL] every solve converged -- none of 1 starts converged" in report
    assert "FAILURES present" in report


def test_gamma_sweep_warm_point_failure_is_a_failed_check(config_path, tmp_path, monkeypatch):
    # the first point runs multistart; the warm-started ones go through the
    # drivers' own solve binding and the rule that accepts every other solve
    from choquard_gs.experiments import drivers

    solve = drivers.solve
    monkeypatch.setattr(drivers, "solve",
                        lambda ctx, u, cfg: replace(solve(ctx, u, cfg), status="max_iters"))
    out = tmp_path / "out"
    assert main(["gamma-sweep", "--config", str(config_path), "--out", str(out),
                 "--eps-list", "0.5,0", "--multistarts", "1"]) == 1
    report = (out / "report.md").read_text()
    assert "- [FAIL] every solve converged -- none of 1 starts converged" in report


FAST_RUNS = {
    "solve": ["--multistarts", "1"],
    "verify": [],
    "fiber-scan": [],
    "gamma-sweep": ["--eps-list", "0.5,0", "--multistarts", "1"],
    "vl-sign": ["--box-list", "8,16", "--multistarts", "1"],
    "box-sweep": ["--box-list", "4,8"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_built_context_is_validated_once(kind, tmp_path, monkeypatch):
    from choquard_gs import problem

    validated = count_calls(monkeypatch, problem.validate)
    built = count_calls(monkeypatch, build_context)
    path = tmp_path / "problem.ini"
    path.write_text(VL_CONFIG if kind == "vl-sign" else SMOKE_CONFIG, encoding="utf-8")
    main([kind, "--config", str(path), "--out", str(tmp_path / "out"), "--tol-scale", "10"]
         + FAST_RUNS[kind])
    report = (tmp_path / "out" / "report.md").read_text()
    assert report.startswith(f"# {KINDS[kind][0]}\n")
    assert f"- kind: {kind}\n" in report
    assert len(built) >= 1
    assert len(validated) == len(built)


def test_box_sweep_reaches_the_ground_level_under_a_cosine_factor(tmp_path):
    # the cosine Gamma peaks at the origin; an even start there stops at a
    # saddle at 0.27051362 on the smallest box
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bs"
    main(["box-sweep", "--config", str(root / "configs" / "gamma_sweep.ini"),
          "--out", str(out), "--box-list", "8,16"])
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0].startswith("L,c,")
    L, c = rows[1].split(",")[:2]
    assert float(L) == 8.0
    assert float(c) == pytest.approx(0.26825225, abs=5e-9)


def test_verify_builds_one_wall(monkeypatch):
    from choquard_gs import extension
    from choquard_gs.grid import Grid

    grid_builds = count_calls(monkeypatch, Grid.axis_freqs)  # one per |xi|^2 table
    walls = count_calls(monkeypatch, extension.build_wall)
    extends = count_calls(monkeypatch, extension.harmonic_extend)
    checked = count_calls(monkeypatch, extension.check_trace_inequalities)
    ctx = config_context("verify.ini")
    rep = Report("verify suites")
    _run_all_suites(ctx, rep, 1.0, 0)
    assert all(ok for _, ok, _ in rep.checks)
    assert sum(g is ctx.grid for g, in grid_builds) == 1
    assert walls == [(ctx.grid, ctx.params.m)]
    # one extension of all the trace suite's fields, checked once
    (traces, wall), = extends
    assert wall.m == ctx.params.m
    assert traces.shape == (TRACE_FIELDS,) + ctx.grid.shape
    (v, p), = checked
    assert v.wall is wall and v.trace is traces and p == ctx.params.p
    assert "values" not in v.__dict__  # no wall rows built


@pytest.mark.parametrize("N, stages", [(1, {"rfft": 1}), (2, {"rfft": 1, "fft": 1})])
def test_trace_suite_costs_one_forward_transform(monkeypatch, N, stages):
    # the trace suite's fields are extended as one stack: one forward transform
    # call (its per-axis stages in 2-D) for all of them, and no inverse
    if N == 1:
        ctx = config_context("verify.ini")
    else:
        ctx = build_context(make_params(N=2, n=16, L=4.0, alpha=1.5), const_potential())
    wall = build_wall(ctx.grid, ctx.params.m)
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    rep = Report("trace suite")
    _suite_trace(ctx, wall, rep, 1.0, np.random.default_rng(0))
    assert len(rep.checks) == 3 and rep.all_passed
    assert calls == stages


CONFIGS = sorted(p.name for p in (Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("name", CONFIGS)
def test_verify_passes_and_reruns_byte_identically(name, tmp_path):
    assert len(CONFIGS) == 5
    config = Path(__file__).resolve().parents[1] / "configs" / name
    reports = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        args = ["verify", "--config", str(config), "--out", str(out), "--seed", "7"]
        assert main(args + (["--tol-scale", "10"] if name == "smoke.ini" else [])) == 0
        reports.append((out / "report.md").read_bytes())
    assert reports[0] == reports[1]


def test_verify_passes_at_ten_seeds(tmp_path):
    # every seed draws other random test fields; the verify-1d benchmark runs
    # a new seed in each repetition
    config = Path(__file__).resolve().parents[1] / "configs" / "verify.ini"
    for seed in range(10):
        out = tmp_path / str(seed)
        assert main(["verify", "--config", str(config), "--out", str(out),
                     "--seed", str(seed)]) == 0, f"seed {seed}"


def test_exit_codes_of_every_kind_on_every_shipped_config(tmp_path):
    # the exit-code table ROADMAP records, seed 7, smoke.ini at --tol-scale 10:
    # gamma-sweep needs V_l = 0 and vl-sign a nonzero V_l (both exit 2 otherwise);
    # box-sweep's spacing and tail-mass checks fail (1) off default.ini
    assert set(KINDS) == {"solve", "verify", "fiber-scan", "gamma-sweep", "vl-sign",
                          "box-sweep"}
    want, got = {}, {}
    for name in CONFIGS:
        want[name] = {"solve": 0, "verify": 0, "fiber-scan": 0,
                      "gamma-sweep": 2 if name == "vl_sign.ini" else 0,
                      "vl-sign": 0 if name == "vl_sign.ini" else 2,
                      "box-sweep": 0 if name == "default.ini" else 1}
        config = Path(__file__).resolve().parents[1] / "configs" / name
        tol = ["--tol-scale", "10"] if name == "smoke.ini" else []
        got[name] = {kind: main([kind, "--config", str(config), "--seed", "7",
                                 "--out", str(tmp_path / name / kind)] + tol)
                     for kind in KINDS}
    assert got == want
