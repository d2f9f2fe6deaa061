"""Config parsing round-trips and report serialization."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurroots._json import dumps
from schurroots.config import (RunConfig, build_model_from_config, complex_to_pair,
                               matrix_to_lists)
from schurroots.errors import ConfigError
from schurroots.report import (atomic_write, config_sha256, identity_row,
                               render_report, sanitize, write_csv)

from conftest import wide_models

BASE = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.2]]]}}


def test_round_trip_fixed_point():
    cfg = RunConfig.from_dict(BASE)
    d1 = cfg.to_dict()
    cfg2 = RunConfig.from_dict(d1)
    assert cfg2.to_dict() == d1
    assert cfg2.canonical_json() == cfg.canonical_json()


def test_defaults_materialized():
    cfg = RunConfig.from_dict(BASE)
    assert cfg.contour_kind == "semicircle"
    assert cfg.sides == (1, -1)
    assert cfg.nodes_per_unit == 200
    assert cfg.tol == 1e-12
    assert cfg.coupling_scale == 1.0
    d = cfg.to_dict()
    assert d["contour"]["kind"] == "semicircle"
    assert d["verify"]["seed"] == 0


def test_model_from_config():
    cfg = RunConfig.from_dict(BASE)
    model = build_model_from_config(cfg)
    assert model.n == 1 and model.m == 1
    assert model.feshbach


def test_config_validation_errors():
    bad = [
        {},  # no model
        {"model": {"interval": [-1.0], "a1": [[0.0]], "b": [[[0.2]]]}},
        {"model": {**BASE["model"]}, "contour": {"kind": "triangle"}},
        {"model": {**BASE["model"]}, "contour": {"sides": [2]}},
        {"model": {**BASE["model"]}, "contour": {"sides": []}},
        {"model": {**BASE["model"]}, "contour": {"kind": "rectangle"}},
        {"model": {**BASE["model"]}, "solver": {"coupling_scale": 1.5}},
        {"model": {**BASE["model"]}, "solver": {"tol": -1.0}},
        {"model": {"interval": [-1.0, "inf"], "a1": [[0.0]], "b": [[[0.2]]]}},
        {"model": {**BASE["model"]}, "contour": {"kind": "rectangle", "depth": 0.0}},
        {"model": {**BASE["model"]}, "contour": {"kind": "rectangle", "depth": -1.0}},
        {"model": {"interval": [-1.0, 1.0], "a1": [], "b": [[[0.2]]]}},
        {"model": {"interval": [-1.0, 1.0], "a1": [[]], "b": [[[0.2]]]}},
        {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[]]}},
        {"model": {"interval": [-1.0, 1.0], "a1": [[0.0], [0.0, 1.0]], "b": [[[0.2]]]}},
    ]
    for data in bad:
        with pytest.raises((ConfigError, ValueError)):
            RunConfig.from_dict(data)


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(p))


def test_from_file_round_trip(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(BASE))
    cfg = RunConfig.from_file(str(p))
    assert cfg.interval == (-1.0, 1.0)


def test_config_sha_stable():
    c1 = RunConfig.from_dict(BASE)
    c2 = RunConfig.from_dict(json.loads(json.dumps(BASE)))
    assert config_sha256(c1) == config_sha256(c2)
    other = RunConfig.from_dict(
        {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.3]]]}})
    assert config_sha256(other) != config_sha256(c1)


def test_identity_row():
    row = identity_row("x", 1e-12, 1e-9)
    assert row["passed"]
    row = identity_row("x", 2e-9, 1e-9)
    assert not row["passed"]
    row = identity_row("x", float("nan"), 1e-9)
    assert not row["passed"]
    row = identity_row("x", float("inf"), 1e-9)
    assert not row["passed"]


def test_sanitize():
    obj = {"a": np.float64(1.5), "b": np.int64(3), "c": [np.complex128(1 + 2j)],
           "d": float("inf"), "e": np.bool_(True)}
    clean = sanitize(obj)
    assert clean["a"] == 1.5 and isinstance(clean["a"], float)
    assert clean["b"] == 3 and isinstance(clean["b"], int)
    assert clean["d"] == "inf"
    assert clean["e"] is True
    # complex becomes a [re, im] pair
    assert clean["c"][0] == [1.0, 2.0]
    json.dumps(clean, allow_nan=False)


def test_render_report_sorted_json():
    text = render_report(sanitize({"b": 1, "a": {"z": 2.0, "y": [1, 2]}}))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": {"z": 2.0, "y": [1, 2]}}
    assert text.index('"a"') < text.index('"b"')


def test_atomic_write(tmp_path):
    target = tmp_path / "out" / "report.json"
    target.parent.mkdir()
    atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write(str(target), "world\n")
    assert target.read_text() == "world\n"
    leftovers = [f for f in os.listdir(target.parent) if f != "report.json"]
    assert leftovers == []


def test_write_csv(tmp_path):
    p = tmp_path / "rows.csv"
    write_csv(str(p), [(0.5, 0, 0.1, -0.2, "physical-complex")])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "t,trajectory_id,re,im,label"
    assert lines[1] == "0.5,0,0.1,-0.2,physical-complex"


_KEYS = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600", "+1"])
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16])


def _values(floats):
    """JSON-like values: nested dicts, lists and tuples of the scalars,
    floats drawn from floats, and [re, im] pairs and lists of them."""
    pairs = st.lists(floats, min_size=2, max_size=2) | st.tuples(floats, floats)
    scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
               | floats | floats.map(np.float64) | _KEYS | pairs
               | st.lists(pairs, max_size=4))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                       | st.dictionaries(_KEYS, inner, max_size=4)),
        max_leaves=24)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
_ANY_FLOAT = st.floats() | _EDGE_FLOATS


@settings(max_examples=400, deadline=None)
@given(_values(_FINITE))
@example({"b": [], "a": {}, "c": [[1.0, -0.0], (5e-324, 1e308)], "\u00e9\n": [[[0.5, 2]]]})
def test_writer_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_values(_ANY_FLOAT))
@example([[1.0, float("nan")], [2.0, 3.0]])
@example({"x": [[float("inf"), 0.0]]})
def test_writer_matches_json_dumps_on_non_finite_floats(value):
    assert dumps(value, allow_nan=True) == json.dumps(value, sort_keys=True, indent=2)
    try:
        ref = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_report(value)
    else:
        assert render_report(value) == ref + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_report_refuses_non_finite(bad):
    for report in ({"a": bad}, {"x": [[1.0, bad]]}, [[[0.0, 1.0], [bad, 2.0]]]):
        with pytest.raises(ValueError, match="Out of range float values"):
            render_report(report)


def test_writer_refuses_what_json_refuses():
    for value in ({1: 2.0}, {"a": np.int64(3)}, {"a": {1.0, 2.0}}, [np.zeros(2)],
                  [[np.zeros(2), np.zeros(2)]]):
        with pytest.raises(TypeError):
            dumps(value)


def _config_data(model, kind="semicircle", depth=None):
    return {"model": {"interval": list(model.interval), "a1": model.a1.tolist(),
                      "b": [np.real(c).tolist() for c in model.b.coefficients]},
            "contour": {"kind": kind, "depth": depth},
            "sweep": {"t_grid": [k / 8 for k in range(1, 9)]}}


def test_canonical_json_is_the_json_dumps_form(friedrichs_model, model_zoo):
    models = [friedrichs_model] + model_zoo + wide_models(1, 2)
    for model in models:
        for kind, depth in (("semicircle", None), ("rectangle", 0.5)):
            cfg = RunConfig.from_dict(_config_data(model, kind, depth))
            ref = json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n"
            assert cfg.canonical_json() == ref
    # the pairs of matrix_to_lists are those of complex_to_pair per entry
    rng = np.random.default_rng(3)
    mats = [model.a1 for model in models] + [
        rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)),
        np.array([[-0.0 + 0.0j, 0.0 - 0.0j, complex(5e-324, -1e308)]]),
        np.array(2.5)]
    for mat in mats:
        ref = [[complex_to_pair(v) for v in row] for row in np.atleast_2d(mat)]
        got = matrix_to_lists(mat)
        assert json.dumps(got) == json.dumps(ref)
        assert all(type(x) is float for row in got for pair in row for x in pair)


def test_sanitize_passes_finite_float_lists_through():
    pair = [1.5, -0.0]
    assert sanitize(pair) == pair and sanitize(pair) is not pair
    assert sanitize((1.0, 2.0)) == [1.0, 2.0]
    # a non-finite entry, or a sum that overflows, takes the general path
    assert sanitize([1.0, float("inf")]) == [1.0, "inf"]
    assert sanitize([1e308, 1e308]) == [1e308, 1e308]
    assert sanitize([float("nan"), 1.0]) == ["nan", 1.0]
    assert sanitize([np.float64(1.0), 2.0]) == [1.0, 2.0]
    assert sanitize([True, 1.0]) == [True, 1.0]
