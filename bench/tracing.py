"""Layer tracing from outside the package.

The package imports functions by name (``solver`` binds ``qdg`` itself,
``experiments.drivers`` binds ``solve``), so patching only the defining module
misses most calls. ``Tracer.install`` therefore replaces every binding of each
timed function: the module globals of every loaded ``choquard_gs`` module and
the attribute on the defining module or class. ``restore`` puts the originals
back.

Spans are kept in memory as parallel arrays (name, start, end, parent); a
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

PACKAGE = "choquard_gs"

# numpy.fft entry points; internal calls between them go through the private
# module and are not counted twice
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (span name, module, attribute); "Class.method" attributes patch the class
TIMED = (
    ("problem.validate", "problem", "validate"),
    ("grid.field_new", "grid", "Field.__init__"),
    ("grid.save_field", "grid", "save_field"),
    ("operators.apply_sqrt", "operators", "apply_sqrt"),
    ("operators.riesz_convolve", "operators", "riesz_convolve"),
    ("operators.build_riesz", "operators", "build_riesz"),
    ("energy.build_context", "energy", "build_context"),
    ("energy.grad_energy", "energy", "grad_energy"),
    ("energy.qdg", "energy", "qdg"),
    ("energy.precondition", "energy", "precondition"),
    ("energy.estimate_d_bound", "energy", "estimate_d_bound"),
    ("nehari.nehari_t_from_qdg", "nehari", "nehari_t_from_qdg"),
    ("nehari.check_J_conditions", "nehari", "check_J_conditions"),
    ("solver.solve", "solver", "solve"),
    ("solver.multistart", "solver", "multistart"),
    ("extension.harmonic_extend", "extension", "harmonic_extend"),
    ("extension.volume_integrals", "extension", "volume_integrals"),
    ("extension.check_trace_inequalities", "extension", "check_trace_inequalities"),
    ("extension.dtn_apply", "extension", "dtn_apply"),
    ("experiments.report_write", "experiments.config", "Report.write"),
)


@dataclass
class SolveRecord:
    """What one call of ``solve`` returned, levels kept at full precision."""

    status: str
    iterations: int
    level: float
    recenters: int


class Tracer:
    """Wraps the package's timed functions; with ``timed=False`` only observes.

    Observing records every ``solve`` result and every ``multistart`` batch,
    which the benchmark needs for its correctness checks and failure counts,
    and adds one plain call per solve. Timing adds a span per call of every
    function in ``TIMED`` and of numpy's FFT.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.solves: list[SolveRecord] = []
        self.batches: list[list[SolveRecord]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks run after the wrapped call returns, outside its span

    def _on_solve(self, args, kwargs, result) -> None:
        trace = result.energy_trace
        level = float(trace[-1]) if len(trace) else float("nan")
        self.solves.append(SolveRecord(result.status, int(result.iterations), level,
                                       len(result.shifts_applied)))

    def _on_multistart(self, args, kwargs, result) -> None:
        k = args[1] if len(args) > 1 else kwargs["k"]
        self.count("solver.multistart.starts", k)
        self.batches.append(self.solves[-len(result[1]):])

    def _on_fft(self, args, kwargs, result) -> None:
        a = args[0] if args else kwargs["a"]
        size = int(np.size(a))
        self.count("fft.points", size)
        # computed from array sizes: the input read once, the output written once
        self.count("fft.computed_bytes", size * np.asarray(a).itemsize + result.nbytes)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- wrapping

    def _wrap(self, name: str, fn, hook):
        if not self.timed:
            def observed(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(args, kwargs, out)
                return out
            return observed

        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, perf = self._stack, time.perf_counter
        name_ids, t0, t1, parent = self.name_id, self.t0, self.t1, self.parent

        def timed(*args, **kwargs):
            idx = len(t0)
            name_ids.append(nid)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return timed

    def _replace_everywhere(self, owner, attr: str, original, wrapper) -> None:
        self._set(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, holder, key, value) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def install(self) -> None:
        hooks = {"solver.solve": self._on_solve, "solver.multistart": self._on_multistart}
        for name, modname, attr in TIMED:
            if not self.timed and name not in hooks:
                continue
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            self._replace_everywhere(owner, attr, original,
                                     self._wrap(name, original, hooks.get(name)))
        if self.timed:
            fft = sys.modules["numpy.fft"]
            for attr in FFT_FUNCS:
                original = getattr(fft, attr)
                self._replace_everywhere(fft, attr, original,
                                         self._wrap("fft", original, self._on_fft))

    def restore(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- span arithmetic

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        s = self.span_arrays()
        dur = s["t1"] - s["t0"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        selfs = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = s["name_id"] == nid
            out[name] = {"calls": float(np.count_nonzero(mask)),
                         "s": float(np.sum(dur[mask])),
                         "self_s": float(np.sum(selfs[mask]))}
        return out

    def covered_s(self, prefix: str) -> float:
        """Wall time under spans whose name starts with prefix (nested ones once)."""
        s = self.span_arrays()
        match = np.array([self.names[i].startswith(prefix) for i in range(len(self.names))],
                         dtype=bool)
        if not match.size:
            return 0.0
        hit = match[s["name_id"]].tolist()
        parent = s["parent"].tolist()
        dur = (s["t1"] - s["t0"]).tolist()
        # covered[i]: span i is a matching span or lies inside one; parents are
        # recorded before their children, so one forward pass settles it
        covered = [False] * len(hit)
        total = 0.0
        for i, p in enumerate(parent):
            above = p >= 0 and covered[p]
            covered[i] = above or hit[i]
            if hit[i] and not above:
                total += dur[i]
        return total

    def solver_side_qdg_calls(self) -> int:
        """qdg calls made directly by solve (projection of the start and line-search trials)."""
        if "energy.qdg" not in self._ids or "solver.solve" not in self._ids:
            return 0
        s = self.span_arrays()
        qdg = s["name_id"] == self._ids["energy.qdg"]
        parents = s["parent"][qdg]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(s["name_id"][parents] == self._ids["solver.solve"]))
