from pathlib import Path

import numpy as np
import pytest

from choquard_gs import PotentialSpec, ProblemParams, build_context
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
