import sys
from pathlib import Path

import numpy as np
import pytest

from choquard_gs import PotentialSpec, ProblemParams, build_context, build_wall
from choquard_gs.problem import Descriptor, load_problem_config


def make_params(**overrides) -> ProblemParams:
    base = dict(N=1, m=1.0, p=2.0, q=3.0, alpha=0.5, L=16.0, n=128)
    base.update(overrides)
    return ProblemParams(**base)


def config_context(name: str):
    """The context of a shipped config under configs/."""
    params, pot = load_problem_config(Path(__file__).resolve().parents[1] / "configs" / name)
    return build_context(params, pot)


def const_potential(value: float = 1.0) -> PotentialSpec:
    return PotentialSpec(Descriptor("constant", {"value": value}),
                         Descriptor("zero"), "zero", Descriptor("zero"))


def gamma_potential(amplitude: float = 0.5) -> PotentialSpec:
    return PotentialSpec(Descriptor("constant", {"value": 1.0}),
                         Descriptor("zero"), "zero",
                         Descriptor("cosine", {"amplitude": amplitude}))


def count_calls(monkeypatch, fn) -> list:
    """Replace every binding of fn in the package, module attributes and the
    methods of its classes alike, by a wrapper that records each call's
    arguments (self first, for a method); returns the record."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "choquard_gs":
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for owner in [module, *classes]:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        monkeypatch.setattr(owner, attr, wrapped)
    return calls


def column(result, key: str) -> np.ndarray:
    """One key of a SolverResult's history, one entry per iterate."""
    return np.array([row[key] for row in result.history])


def moves(result) -> dict:
    """iter -> shift of the rows of a SolverResult's history that record one."""
    return {row["iter"]: row["shift"] for row in result.history if row["shift"] is not None}


def refined_wall(wall, factor: int = 2):
    """The same wall span and clustering profile with factor-times more nodes."""
    return build_wall(wall.grid, wall.m, nx=factor * wall.nx)


@pytest.fixture(scope="session")
def ctx_const():
    """Translation-invariant context: V = 1, Gamma = 0, N = 1."""
    return build_context(make_params(), const_potential())


@pytest.fixture(scope="session")
def ctx_gamma():
    """Context with a periodic non-negative local factor."""
    return build_context(make_params(), gamma_potential())


@pytest.fixture(scope="session")
def ctx_solver():
    """The default solve problem: L = 16, n = 256."""
    return build_context(make_params(n=256), const_potential())


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
