"""Config parsing round-trips and report serialization."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurroots._json import dumps
from schurroots.config import RunConfig, build_model_from_config, matrix_to_lists
from schurroots.errors import ConfigError
from schurroots.report import (atomic_write, config_sha256, identity_row,
                               render_report, write_csv)

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
    assert cfg.depth is None
    d = cfg.to_dict()
    assert d["contour"]["kind"] == "semicircle"
    assert d["verify"]["seed"] == 0
    # only the inputs that set the numbers: the coupling strength is b
    # itself, the output paths are flags and the Picard tolerance and
    # iteration bound are the program's
    assert set(d) == {"model", "contour", "sweep", "verify"}
    # V0's node density is the program's, not a setting; a semicircle's
    # depth is None, half the interval length
    assert set(d["contour"]) == {"kind", "sides", "depth"}


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


def test_render_report_sorted_json():
    text = render_report({"b": 1, "a": {"z": 2.0, "y": [1, 2]}})
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


def _values(floats, extra=st.nothing()):
    """JSON-like values: nested dicts, lists and tuples of the scalars,
    floats drawn from floats, [re, im] pairs and lists of them, and the
    scalars of extra."""
    pairs = st.lists(floats, min_size=2, max_size=2) | st.tuples(floats, floats)
    scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
               | floats | floats.map(np.float64) | _KEYS | pairs
               | st.lists(pairs, max_size=4) | extra)
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


def _reference_sanitize(obj):
    """The general path of the report walk that ran before _json.dumps
    owned the number format: numpy scalars to Python values, complex
    numbers to [re, im] pairs and NaN or an infinity to the string of its
    repr."""
    if isinstance(obj, dict):
        return {k: _reference_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return [float(np.real(obj)), float(np.imag(obj))]
    return obj


# numpy scalars and complex numbers as a report holds them; _reference_sanitize
# wrote the parts of a complex number unchecked, so they are finite here
_REPORT_SCALARS = (st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64) | st.booleans().map(np.bool_)
                   | st.complex_numbers(allow_nan=False, allow_infinity=False)
                   | st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128))


@settings(max_examples=400, deadline=None)
@given(_values(_ANY_FLOAT, _REPORT_SCALARS))
@example([[1.0, float("nan")], [2.0, 3.0]])
@example({"x": [[float("inf"), 0.0]], "y": np.float64("-inf"), "z": [np.int64(3), 1j]})
@example({"a": np.float64(1.5), "b": np.int64(3), "c": [np.complex128(1 + 2j)],
          "d": float("inf"), "e": np.bool_(True), "f": (1.0, -0.0), "g": [1e308, 1e308]})
def test_writer_matches_json_dumps_on_non_finite_floats(value):
    # the writer owns the number format: its text is that of json.dumps
    # after the reference walk, so NaN and the infinities come out strings
    ref = json.dumps(_reference_sanitize(value), sort_keys=True, indent=2,
                     allow_nan=False)
    assert dumps(value) == ref
    assert render_report(value) == ref + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_report_writes_non_finite_as_strings(bad):
    text = repr(bad)
    for report, parsed in (({"a": bad}, {"a": text}),
                           ({"x": [[1.0, bad]]}, {"x": [[1.0, text]]}),
                           ([[[0.0, 1.0], [bad, 2.0]]], [[[0.0, 1.0], [text, 2.0]]]),
                           ({"z": complex(bad, 1.0)}, {"z": [text, 1.0]})):
        assert json.loads(render_report(report)) == parsed


def test_writer_refuses_what_json_refuses():
    for value in ({1: 2.0}, {"a": {1.0, 2.0}}, [np.zeros(2)], [[np.zeros(2), np.zeros(2)]],
                  {"a": np.array(1.0)}, [np.str_("a"), np.zeros((2, 2))]):
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
    # the pairs of matrix_to_lists are those of each entry's real and
    # imaginary part as Python floats
    def complex_to_pair(z):
        return [float(np.real(z)), float(np.imag(z))]

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
