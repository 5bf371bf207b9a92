"""Mini-language parsing and run-configuration validation."""
import json
import math

import pytest

from gmc import heisenberg as hb
from gmc import mollify as mo
from gmc import torus as tr
from gmc.config import QuadratureSpec
from gmc.errors import BudgetExceeded, SpecParseError
from gmc.specs import (
    GRID_POINTS,
    RunConfig,
    get_model,
    parse_grid,
    parse_mollifier,
    parse_n_list,
    parse_test_function,
    parse_vector,
)
from gmc.vectors import GrowthClass

_F = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)


def test_get_model():
    assert get_model("torus") is tr.TORUS
    assert get_model("heisenberg") is hb.HEISENBERG
    quad64 = QuadratureSpec(truncation=64)
    assert get_model("torus", quad64) is tr.TORUS
    assert get_model("heisenberg", quad64).smooth_by(_F, hb.unit_vector(0)).stop == 64
    with pytest.raises(SpecParseError):
        get_model("so3")


@pytest.mark.parametrize(
    "spec,check",
    [
        ("unit:3", lambda v: v.coeff(3) == 1 and v.coeff(2) == 0),
        ("comb", lambda v: v.coeff(100) == 1),
        ("poly:2", lambda v: v.coeff(-4) == 16),
        ("geometric:0.5", lambda v: abs(v.coeff(2) - 0.25) < 1e-15),
        ("formula:invsq", lambda v: abs(v.coeff(1) - 0.5) < 1e-15),
        ("formula:alternating", lambda v: v.coeff(3) == -1),
    ],
)
def test_parse_torus_vectors(spec, check):
    v = parse_vector("torus", spec)
    assert check(v)


@pytest.mark.parametrize(
    "spec,check",
    [
        ("e:2", lambda v: v.coeff(2) == 1),
        ("delta", lambda v: v.growth is GrowthClass.POLYNOMIAL_GROWTH),
        ("gauss", lambda v: v.growth is GrowthClass.RAPID_DECAY),
        ("gauss:0.9", lambda v: abs(v.coeff(1)) < 1e-12),
        ("poly-growth:1.5", lambda v: abs(v.coeff(3) - 4.0**1.5) < 1e-12),
    ],
)
def test_parse_heisenberg_vectors(spec, check):
    v = parse_vector("heisenberg", spec)
    assert check(v)


@pytest.mark.parametrize(
    "group,spec,token",
    [
        ("torus", "delta", "delta"),
        ("torus", "unit:x", "x"),
        ("torus", "formula:nope", "nope"),
        ("heisenberg", "comb", "comb"),
        ("heisenberg", "e:1.5", "1.5"),
    ],
)
def test_parse_vector_errors_name_token(group, spec, token):
    with pytest.raises(SpecParseError, match=token):
        parse_vector(group, spec)


def test_parse_vector_from_json(tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(tr.geometric(0.5, extent=4).to_json()))
    v = parse_vector("torus", f"json:{path}")
    assert abs(v.coeff(8) - 0.5**8) < 1e-15


def test_parse_band_profiles():
    f = parse_test_function("torus", "band:3:fejer")
    assert f.bandwidth == 3
    g = parse_test_function("torus", "band:1:1,2j,1")
    assert g.fhat(0) == 2j
    with pytest.raises(SpecParseError, match="xyz"):
        parse_test_function("torus", "band:2:xyz")
    with pytest.raises(SpecParseError):
        parse_test_function("torus", "band:2:1,2")
    with pytest.raises(SpecParseError):
        parse_test_function("torus", "bump3:radius=0.2")


def test_parse_bump3():
    f = parse_test_function("heisenberg", "bump3:center=(0,0,0):radius=0.3:mass=1")
    assert abs(f.integral(80) - 1.0) < 1e-9
    g = parse_test_function("heisenberg", "bump3:center=(0.5,0,0):radius=0.2:mass=2")
    assert abs(g.integral(80) - 2.0) < 1e-9
    assert abs(g((0.5, 0, 0))) > 0
    with pytest.raises(SpecParseError):
        parse_test_function("heisenberg", "bump3:radius=-1")
    with pytest.raises(SpecParseError, match="flavor"):
        parse_test_function("heisenberg", "bump3:flavor=hot")


def test_parse_mollifier_spec():
    assert parse_mollifier("mollifier:n=8:radius=0.5") == (8, 0.5)
    assert parse_mollifier("mollifier:n=2") == (2, 0.25)
    with pytest.raises(SpecParseError):
        parse_mollifier("mollifier:radius=0.5")
    with pytest.raises(SpecParseError):
        parse_mollifier("bump:n=2")


def test_parse_grid():
    ps, qs = parse_grid("-1:1:5,0:2:3")
    assert len(ps) == 5 and ps[0] == -1 and ps[-1] == 1
    assert len(qs) == 3 and qs[-1] == 2
    with pytest.raises(SpecParseError):
        parse_grid("-1:1:5")
    with pytest.raises(SpecParseError):
        parse_grid("-1:1:0,0:1:2")


def test_parse_grid_refuses_a_grid_past_the_point_budget():
    ps, qs = parse_grid("0:1:3000,0:1:3000")
    assert len(ps) == len(qs) == 3000
    ps, qs = parse_grid("0:1:4096,-1:1:4096")  # exactly GRID_POINTS
    assert len(ps) * len(qs) == GRID_POINTS
    for spec in ("0:1:100000,0:1:100000", "0:1:4097,0:1:4096", "0:1:1,0:1:100000000000000000000"):
        with pytest.raises(BudgetExceeded):
            parse_grid(spec)


def test_parse_n_list():
    assert parse_n_list("2,4,8") == [2, 4, 8]
    with pytest.raises(SpecParseError):
        parse_n_list("2,0")
    with pytest.raises(SpecParseError):
        parse_n_list("2,x")


def test_runconfig_validation(tmp_path):
    cfg = RunConfig(seed=7)
    assert cfg.tolerance_table().torus_exact == 1e-13
    with pytest.raises(SpecParseError):
        RunConfig(tolerances={"not_a_key": 1e-3})
    with pytest.raises(SpecParseError):
        RunConfig(tolerances={"torus_exact": -1})
    with pytest.raises(SpecParseError):
        RunConfig(quadrature={"truncation": -4})
    # wrong types: integer fields take real ints only, check_tol a finite positive number
    for kwargs in (
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": True},
        {"quadrature": {"truncation": 40.5}},
        {"quadrature": {"truncation": True}},
        {"quadrature": {"truncation": 40.0}},
        {"quadrature": {"check_tol": math.inf}},
        {"quadrature": {"check_tol": math.nan}},
        {"quadrature": {"check_tol": "1e-6"}},
        {"tolerances": {"torus_exact": True}},
        {"tolerances": [1e-3]},
        {"quadrature": 40},
        {"output": 5},
    ):
        with pytest.raises(SpecParseError):
            RunConfig(**kwargs)
    assert RunConfig(quadrature={"truncation": 48, "check_tol": 1e-5}).quadrature_spec().truncation == 48

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "unknown_key": 1}))
    with pytest.raises(SpecParseError, match="unknown_key"):
        RunConfig.from_json(str(path))
    # the group comes from the command and the truncation from the quadrature table
    for key, value in (("group", "torus"), ("truncation", 40)):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(SpecParseError, match=key):
            RunConfig.from_json(str(path))
    path.write_text("5")
    with pytest.raises(SpecParseError, match="object"):
        RunConfig.from_json(str(path))
    path.write_text(json.dumps({"tolerances": {"heisenberg_fd": 1e-3}}))
    cfg2 = RunConfig.from_json(str(path))
    assert cfg2.tolerance_table().heisenberg_fd == 1e-3
