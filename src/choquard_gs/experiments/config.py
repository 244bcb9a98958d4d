"""Experiment configuration and report plumbing."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..problem import ConfigError
from ..solver import SolverConfig


@dataclass
class ExperimentConfig:
    kind: str
    problem_path: str
    out_dir: str = "choquard_out"
    seed: int = 0
    tolerance_scale: float = 1.0
    multistarts: int = 4
    max_iters: int = 2000
    eps_list: list[float] = field(default_factory=lambda: [0.5, 0.25, 0.1, 0.05, 0.0])
    box_list: list[float] = field(default_factory=lambda: [8.0, 16.0, 32.0])

    def __post_init__(self):
        if not Path(self.problem_path).is_file():
            raise ConfigError(f"problem config not found: {self.problem_path}")
        if not self.eps_list:
            raise ConfigError("sweep list of amplitudes is empty")
        if not self.box_list:
            raise ConfigError("sweep list of box sizes is empty")
        if not all(np.isfinite(e) for e in self.eps_list):
            raise ConfigError(f"amplitudes must be finite, got {self.eps_list}")
        if not all(np.isfinite(L) and L > 0 for L in self.box_list):
            raise ConfigError(f"box half-periods must be finite and positive, got {self.box_list}")
        if len(set(self.box_list)) < len(self.box_list):
            raise ConfigError(f"box half-periods must not repeat, got {self.box_list}")
        if self.multistarts < 1:
            raise ConfigError(f"need at least one start, got {self.multistarts}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.tolerance_scale > 0:
            raise ConfigError(f"tolerance scale must be positive, got {self.tolerance_scale}")

    @property
    def solver_config(self) -> SolverConfig:
        return SolverConfig(max_iters=self.max_iters, seed=self.seed)


def blob_hash(data: bytes) -> str:
    """Content hash in git object style."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


class Report:
    """Accumulates a markdown-style report, pass/fail checks, and CSV metrics."""

    def __init__(self, title: str):
        self.title = title
        self.lines: list[str] = [f"# {title}", ""]
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics_rows: list[dict] = []

    def section(self, name: str) -> None:
        self.lines += ["", f"## {name}", ""]

    def add_line(self, text: str) -> None:
        self.lines.append(text)

    def add_check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        mark = "PASS" if ok else "FAIL"
        self.lines.append(f"- [{mark}] {name}" + (f" -- {detail}" if detail else ""))
        print(f"[{mark}] {name}" + (f": {detail}" if detail else ""))

    def add_metric(self, **row) -> None:
        self.metrics_rows.append(row)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def embed_inputs(self, config_text: str, extra: dict) -> None:
        self.section("Resolved inputs")
        self.lines.append(f"content hash: `{blob_hash(config_text.encode())}`")
        self.lines += [f"- {key}: {val}" for key, val in sorted(extra.items())]
        self.lines += ["", "```ini", config_text.rstrip("\n"), "```"]

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary = "all checks passed" if self.all_passed else "FAILURES present"
        body = "\n".join(self.lines + ["", f"**Summary: {summary}** "
                                           f"({sum(ok for _, ok, _ in self.checks)}/{len(self.checks)})", ""])
        (out / "report.md").write_text(body, encoding="utf-8")
        if self.metrics_rows:
            # every row holds the first row's keys, each with a number
            keys = list(self.metrics_rows[0])

            def cell(v):
                if isinstance(v, (int, np.integer)):
                    return str(int(v))
                return repr(float(v))

            lines = [",".join(keys)]
            for row in self.metrics_rows:
                lines.append(",".join(cell(row[k]) for k in keys))
            (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out / "report.md"
