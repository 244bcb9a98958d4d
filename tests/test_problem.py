import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from choquard_gs.energy import build_context
from choquard_gs.grid import Grid, shift
from choquard_gs.problem import (
    PROFILES,
    REQUIRED,
    ConfigError,
    Descriptor,
    PotentialSpec,
    ProblemParams,
    load_problem_config,
    resolved_config_text,
    sample_potentials,
    validate,
)
from conftest import const_potential, make_params
from oracles import potential_profile


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report_dict(report):
    return {c.name: c.passed for c in report.checks}


def test_validate_passes_reference_case():
    # N=1, p=2, alpha=0.5, q=3, m=1: 0*2-1 = -1 < 0.5 < 1 and 2 < 3 < min(4, inf)
    rep = validate(make_params(), const_potential())
    assert rep.all_passed
    rep2 = validate(make_params(), const_potential())
    assert rep.checks == rep2.checks  # deterministic


def test_validate_dimension_two_window():
    # N=2, p=2: lower bound (N-1)p - N = 0 < alpha = 0.5 < 2 passes
    params = make_params(N=2, alpha=0.5, L=4.0, n=16)
    rep = validate(params, const_potential())
    assert rep.all_passed
    # alpha = 2.5 violates the upper bound alpha < N
    bad = validate(make_params(N=2, alpha=2.5, L=4.0, n=16), const_potential())
    d = report_dict(bad)
    assert not d["exponent window upper: alpha < N"]
    assert not bad.all_passed


def test_validate_flags_each_exponent_condition():
    d = report_dict(validate(make_params(q=1.5), const_potential()))
    assert not d["local exponent: 2 < q"]
    d = report_dict(validate(make_params(q=4.5), const_potential()))
    assert not d["local exponent: q < min(2p, 2N/(N-1))"]
    d = report_dict(validate(make_params(p=1.5, alpha=0.3, q=2.5), const_potential()))
    assert not d["convolution exponent: p >= 2"]
    d = report_dict(validate(make_params(m=-1.0), const_potential()))
    assert not d["mass positive"]


def test_validate_requires_integer_box():
    d = report_dict(validate(make_params(L=16.5), const_potential()))
    assert not d["box half-period positive integer"]


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("key, check", [("L", "box half-period positive integer"),
                                        ("m", "mass positive")])
def test_validate_rejects_non_finite_box_and_mass(key, check, value):
    d = report_dict(validate(make_params(**{key: value}), const_potential()))
    assert not d[check]


def test_sign_mode_witness():
    # declared negative but actually positive somewhere: witness reported
    pot = PotentialSpec(Descriptor("constant", {"value": 2.0}),
                        Descriptor("gaussian-bump", {"amplitude": 0.1, "width": 1.0}),
                        "negative", Descriptor("zero"))
    rep = validate(make_params(), pot)
    checks = {c.name: c for c in rep.checks}
    bad = checks["Vl strictly negative"]
    assert not bad.passed
    assert "x=" in bad.witness and "value=" in bad.witness


def test_essinf_check_with_deep_well():
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("gaussian-bump", {"amplitude": -1.5, "width": 1.0}),
                        "negative", Descriptor("zero"))
    rep = validate(make_params(), pot)
    d = report_dict(rep)
    assert not d["essinf V > 0"]


def test_positive_sign_mode_uses_vp_floor():
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("inverse-power", {"amplitude": 0.3, "width": 2.0}),
                        "positive", Descriptor("zero"))
    rep = validate(make_params(), pot)
    assert rep.all_passed


def test_sample_potentials_reference_values():
    params = make_params()
    grid = params.make_grid()
    pot = PotentialSpec(Descriptor("constant", {"value": 2.0}),
                        Descriptor("gaussian-bump", {"amplitude": -0.5, "width": 1.0}),
                        "negative", Descriptor("zero"))
    vp, vl, gam = sample_potentials(pot, grid)
    assert np.all(vp.values == 2.0)
    assert not np.any(gam.values)
    center = np.argmin(np.abs(grid.axis_coords))
    assert vl.values[center] == pytest.approx(-0.5)
    assert np.argmin(vl.values) == center
    assert abs(vl.values[0]) < 1e-100  # decays toward the box faces


def test_periodic_sampling_is_exactly_tiled():
    params = make_params()
    grid = params.make_grid()
    pot = PotentialSpec(Descriptor("cosine", {"offset": 2.0, "amplitude": 0.5}),
                        Descriptor("zero"), "zero",
                        Descriptor("cosine", {"amplitude": 0.3}))
    vp, _, gam = sample_potentials(pot, grid)
    cpu = grid.cells_per_unit()
    assert np.array_equal(np.roll(vp.values, cpu), vp.values)
    assert np.array_equal(np.roll(gam.values, cpu), gam.values)
    assert np.min(gam.values) >= 0.0
    # unit-lattice shifts leave the sampled fields bitwise unchanged
    assert np.array_equal(shift(vp, [1.0]).values, vp.values)


def test_gamma_cosine_profile_2d():
    # amplitude * prod_i (1 + cos 2 pi x_i)/2: the amplitude on the unit lattice,
    # zero wherever a coordinate is a half-integer, half of it a quarter off
    params = make_params(N=2, alpha=1.0, L=4.0, n=32)
    grid = params.make_grid()
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}), Descriptor("zero"), "zero",
                        Descriptor("cosine", {"amplitude": 0.7}))
    gam = sample_potentials(pot, grid)[2].values
    x = grid.axis_coords
    lattice = np.flatnonzero(x == np.round(x))
    half = np.flatnonzero(x - np.floor(x) == 0.5)
    quarter = np.flatnonzero(x - np.floor(x) == 0.25)
    assert len(lattice) == len(half) == 8
    assert np.allclose(gam[np.ix_(lattice, lattice)], 0.7, rtol=1e-14, atol=0.0)
    assert np.allclose(gam[half, :], 0.0, rtol=0.0, atol=1e-14)
    assert np.allclose(gam[:, half], 0.0, rtol=0.0, atol=1e-14)
    assert np.allclose(gam[np.ix_(quarter, lattice)], 0.35, rtol=1e-14, atol=0.0)
    assert np.allclose(gam[np.ix_(lattice, quarter)], 0.35, rtol=1e-14, atol=0.0)


def test_unknown_tag_raises():
    pot = PotentialSpec(Descriptor("sawtooth", {"value": 1.0}),
                        Descriptor("zero"), "zero", Descriptor("zero"))
    with pytest.raises(ConfigError):
        sample_potentials(pot, make_params().make_grid())


SECTION_INDEX = {"potential.Vp": 0, "potential.Vl": 1, "potential.Gamma": 2}
# a value for every key any tag reads, none of them a default
GIVEN = {"value": 1.25, "amplitude": 0.7, "offset": 1.5, "width": 1.3, "power": 3.0,
         "center": 0.5}


def spec_with(section, desc):
    """A spec whose section holds desc, Vp a constant and the other parts zero."""
    parts = [Descriptor("constant", {"value": 1.0}), Descriptor("zero"), Descriptor("zero")]
    parts[SECTION_INDEX[section]] = desc
    vp, vl, gamma = parts
    return PotentialSpec(vp, vl, "positive", gamma)


@pytest.mark.parametrize("given", [False, True], ids=["defaults", "given"])
@pytest.mark.parametrize("grid", [Grid(1, 4.0, 32), Grid(2, 2.0, 16), Grid(3, 2.0, 16)],
                         ids=["N1", "N2", "N3"])
@pytest.mark.parametrize("section, tag", [(s, t) for s, tags in PROFILES.items() for t in tags])
def test_sampled_profile_matches_closed_form(section, tag, grid, given):
    # "defaults" passes only the required keys, so every default is read once
    keys, _ = PROFILES[section][tag]
    params = {k: GIVEN[k] for k, default in keys.items() if given or default is REQUIRED}
    pot = spec_with(section, Descriptor(tag, params))
    sampled = sample_potentials(pot, grid)[SECTION_INDEX[section]].values
    expected = potential_profile(section, tag, params, grid)
    np.testing.assert_allclose(sampled, expected, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("section, tag", [("potential.Vp", "zero"), ("potential.Vl", "sawtooth"),
                                          ("potential.Gamma", "gaussian-bump")])
def test_unknown_tag_names_its_section(section, tag):
    # Vp has no tag zero; the loader never accepted one
    with pytest.raises(ConfigError, match=rf"^\[{re.escape(section)}\] unknown tag '{tag}'"):
        sample_potentials(spec_with(section, Descriptor(tag)), make_params().make_grid())


def sampling_check(pot):
    checks = {c.name: c for c in validate(make_params(), pot).checks}
    return checks["potential descriptors sampled"]


def test_missing_required_key_fails_sampling_and_names_the_key():
    check = sampling_check(spec_with("potential.Vl", Descriptor("gaussian-bump", {"width": 1.0})))
    assert not check.passed
    assert check.witness == "[potential.Vl] tag 'gaussian-bump': missing key 'amplitude'"


@pytest.mark.parametrize("section, desc", [
    ("potential.Vp", Descriptor("constant", {"value": np.inf})),
    ("potential.Vl", Descriptor("gaussian-bump", {"amplitude": 0.5, "width": 0.0})),
    ("potential.Gamma", Descriptor("cosine", {"amplitude": np.nan})),
], ids=["Vp-inf", "Vl-zero-width", "Gamma-nan"])
def test_non_finite_potential_fails_sampling_check(section, desc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0/0 at the bump's centre must not warn
        check = sampling_check(spec_with(section, desc))
    assert not check.passed
    assert check.witness.startswith(f"[{section}] tag '{desc.tag}'")
    assert "non-finite" in check.witness


CONFIG_OK = """
[params]
N = 1
m = 1.0
p = 2.0
q = 3.0
alpha = 0.5
L = 16
n = 256

[potential.Vp]
tag = constant
value = 1.0

[potential.Vl]
tag = gaussian-bump
sign = negative
amplitude = -0.3
width = 2.0

[potential.Gamma]
tag = zero
"""


def test_load_problem_config(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(CONFIG_OK, encoding="utf-8")
    params, pot = load_problem_config(path)
    assert params == ProblemParams(1, 1.0, 2.0, 3.0, 0.5, 16.0, 256)
    assert pot.Vl.tag == "gaussian-bump"
    assert pot.Vl_sign == "negative"
    assert pot.Vl.get("amplitude") == -0.3
    assert validate(params, pot).all_passed
    text = resolved_config_text(params, pot)
    assert "[potential.Vl]" in text and "sign = negative" in text


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(CONFIG_OK.replace("width = 2.0", "width = 2.0\nwobble = 1"),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_problem_config(path)


@pytest.mark.parametrize("section, replacement, key", [
    ("[potential.Gamma]\ntag = zero",
     "[potential.Gamma]\ntag = cosine\namplitude = 0.5\noffset = 0.2", "offset"),
    ("value = 1.0", "value = 1\namplitude = 7", "amplitude"),
    ("tag = gaussian-bump\nsign = negative\namplitude = -0.3\nwidth = 2.0",
     "tag = zero\nwidth = 3", "width"),
], ids=["Gamma-cosine", "Vp-constant", "Vl-zero"])
def test_config_rejects_key_its_tag_does_not_read(tmp_path, section, replacement, key):
    # each key is read by another tag of the same section, never by this one
    path = tmp_path / "problem.ini"
    assert CONFIG_OK.count(section) == 1
    path.write_text(CONFIG_OK.replace(section, replacement), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"unknown keys for tag .*'{key}'"):
        load_problem_config(path)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    assert validate(*load_problem_config(path)).all_passed


def test_config_rejects_missing_section(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(CONFIG_OK.replace("[potential.Gamma]\ntag = zero", ""), encoding="utf-8")
    with pytest.raises(ConfigError, match="missing sections"):
        load_problem_config(path)


def test_config_rejects_sign_tag_mismatch(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(CONFIG_OK.replace("sign = negative", "sign = flat"), encoding="utf-8")
    with pytest.raises(ConfigError, match="sign"):
        load_problem_config(path)


def test_sign_zero_samples_the_vl_it_is_given():
    # sign 'zero' samples Vl as given, so "Vl identically zero" tests the
    # descriptor: a bump under sign 'zero' fails that check and nothing else
    pot = PotentialSpec(Descriptor("constant", {"value": 1.0}),
                        Descriptor("gaussian-bump", {"amplitude": -0.5}), "zero",
                        Descriptor("zero"))
    rep = validate(make_params(), pot)
    assert [c.name for c in rep.failures()] == ["Vl identically zero"]
    assert np.min(rep.potentials[1].values) == pytest.approx(-0.5)
    with pytest.raises(ConfigError, match="Vl identically zero"):
        build_context(make_params(), pot)


def test_config_rejects_sign_zero_with_a_nonzero_tag(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(CONFIG_OK.replace("sign = negative", "sign = zero"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^\[potential.Vl\] sign 'zero' requires tag 'zero'$"):
        load_problem_config(path)


def test_shipped_configs_sample_vl_from_their_descriptor():
    # under sign 'zero' the loader admits only tag zero, whose samples are
    # the zeros the sign mode stood for
    zero_sign = 0
    for path in sorted(CONFIGS.glob("*.ini")):
        params, pot = load_problem_config(path)
        if pot.Vl_sign == "zero":
            zero_sign += 1
            grid = params.make_grid()
            assert pot.Vl.tag == "zero"
            assert sample_potentials(pot, grid)[1].values.tobytes() == np.zeros(grid.shape).tobytes()
    assert zero_sign == 4
