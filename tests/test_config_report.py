"""Config parsing round-trips and report serialization."""

import csv
import io
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurroots._json import dumps
from schurroots import config as config_module
from schurroots.config import (RunConfig, build_model_from_config, matrix_from_lists,
                               matrix_to_lists, pair_to_complex)
from schurroots import report as report_module
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


_BAD_CONFIGS = [
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


def test_config_validation_errors():
    for data in _BAD_CONFIGS:
        with pytest.raises((ConfigError, ValueError)):
            RunConfig.from_dict(data)


def _reference_matrix_from_lists(rows, name):
    """matrix_from_lists as it read every matrix before the one-array parse
    of real matrices: entry by entry, each by pair_to_complex."""
    try:
        mat = np.array([[pair_to_complex(v, name) for v in row] for row in rows],
                       dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed matrix {name}: {exc}") from exc
    if mat.ndim != 2 or mat.size == 0:
        raise ConfigError(f"malformed matrix {name}: expected nonempty rows, got {rows!r}")
    return mat


def _parse_outcome(parse, rows):
    try:
        return parse(rows, "model.a1").tobytes()
    except ConfigError as exc:
        return f"ConfigError: {exc}"


_MATRIX_CASES = [
    [[0.0]], [[-0.0, 1]], [[1, 2], [3, 4]], [[5e-324, -1e308], [2 ** 60 + 1, -(2 ** 70)]],
    [[10 ** 300, 0.5]], [[10 ** 400]], [[-(10 ** 400), 1.0]], [[True]], [[0.0, False]],
    [[float("nan")]], [[1.0, float("inf")]], [[-float("inf")]], [], [[]], [[], []],
    [[0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0]], [[[0.1, 0.2]]], [[(0.1, 0.2)]],
    [[[True, 0.0]]], [[[0.1, float("nan")]]], [[[0.1]]], [["1.0"]], [[None]], "ab",
    [0.1, 0.2], 0.5, None, [[0.1, [0.2, 0.3]]], ((0.1, 0.2),), [(0.1, 0.2)],
    [[np.float64(0.5)]], [[{}]],
]


@pytest.mark.parametrize("rows", _MATRIX_CASES, ids=[repr(c)[:40] for c in _MATRIX_CASES])
def test_matrix_parse_matches_the_per_entry_parse(rows):
    # the same matrix to the byte, or a ConfigError with the same text
    assert (_parse_outcome(matrix_from_lists, rows)
            == _parse_outcome(_reference_matrix_from_lists, rows))


def test_bad_configs_keep_their_messages(monkeypatch):
    # every malformed config above, and every a1 / b entry of the matrix
    # cases, gives from_dict's message of the per-entry parse
    datas = _BAD_CONFIGS + [{"model": {**BASE["model"], key: rows}}
                            for rows in _MATRIX_CASES for key in ("a1", "b")]

    def messages():
        out = []
        for data in datas:
            try:
                cfg = RunConfig.from_dict(data)
            except (ConfigError, ValueError) as exc:
                out.append(f"{type(exc).__name__}: {exc}")
            else:
                out.append(cfg.canonical_json())
        return out

    got = messages()
    monkeypatch.setattr(config_module, "matrix_from_lists", _reference_matrix_from_lists)
    assert got == messages()
    assert sum(text.startswith("ConfigError") for text in got) >= 40


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_takes_the_umask_mode(tmp_path, umask, mode):
    # a report and a sweep CSV get the mode open(path, "w") would give,
    # 0o666 less the umask, with their bytes as given
    report, rows = tmp_path / "report.json", tmp_path / "rows.csv"
    previous = os.umask(umask)
    try:
        atomic_write(str(report), "a\r\n\u00e9\n")
        write_csv(str(rows), [(0.5, 0, 0.1, -0.2, "physical-complex")])
    finally:
        os.umask(previous)
    for path in (report, rows):
        assert stat.S_IMODE(path.stat().st_mode) == mode
    assert report.read_bytes() == "a\r\n\u00e9\n".encode("utf-8")
    assert rows.read_bytes().endswith(b"physical-complex\r\n")
    assert sorted(os.listdir(tmp_path)) == ["report.json", "rows.csv"]


def test_atomic_write_skips_taken_temp_names(tmp_path, monkeypatch):
    # a file or a symlink, dangling or not, at a temp name is neither
    # followed nor truncated: the write takes the next free name
    victim = tmp_path / "victim.txt"
    victim.write_text("keep")
    taken = [report_module._temp_path(str(tmp_path), k) for k in range(3)]
    with open(taken[0], "w") as fh:
        fh.write("old")
    os.symlink(victim, taken[1])
    os.symlink(tmp_path / "nowhere", taken[2])
    target = tmp_path / "report.json"
    atomic_write(str(target), "new\n")
    assert target.read_text() == "new\n"
    assert open(taken[0]).read() == "old" and victim.read_text() == "keep"
    assert os.readlink(taken[1]) == str(victim) and not (tmp_path / "nowhere").exists()
    names = sorted(os.listdir(tmp_path))
    assert names == sorted(["report.json", "victim.txt"] + [os.path.basename(t) for t in taken])
    # with every name taken the write refuses and leaves the target as it was
    monkeypatch.setattr(report_module, "_TEMP_NAMES", 3)
    with pytest.raises(FileExistsError):
        atomic_write(str(target), "newer\n")
    assert target.read_text() == "new\n" and sorted(os.listdir(tmp_path)) == names


def test_atomic_write_loops_on_short_writes_and_cleans_up(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    text = "".join(f"{k!r},\u00e9\r\n" for k in range(200))
    write = os.write
    # at most 7 bytes per call, which splits the two-byte characters too
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
    atomic_write(str(target), text)
    assert target.read_bytes() == text.encode("utf-8")

    def failing(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", failing)
    with pytest.raises(OSError, match="No space left"):
        atomic_write(str(target), "lost\n")
    assert target.read_bytes() == text.encode("utf-8")
    assert os.listdir(tmp_path) == ["report.json"]


def test_write_csv(tmp_path):
    p = tmp_path / "rows.csv"
    write_csv(str(p), [(0.5, 0, 0.1, -0.2, "physical-complex")])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "t,trajectory_id,re,im,label"
    assert lines[1] == "0.5,0,0.1,-0.2,physical-complex"


def _reference_csv(rows) -> bytes:
    """The sweep CSV as csv.writer wrote it before the rows were joined in
    one pass."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "trajectory_id", "re", "im", "label"])
    for row in rows:
        writer.writerow([repr(float(row[0])), row[1],
                         repr(float(row[2])), repr(float(row[3])), row[4]])
    return buf.getvalue().encode("utf-8")


def test_write_csv_matches_csv_writer(tmp_path):
    # negative zeros, exponents, subnormals, non-finite numbers, numpy
    # scalars, every label and labels that csv.writer quotes
    rng = np.random.default_rng(8)
    numbers = [0.0, -0.0, 1e-300, 5e-324, -2.5e-7, 1e16, 1.7976931348623157e308, 0.1,
               float("nan"), float("inf"), -float("inf"), np.float64(-0.0), np.float64(3e22)]
    numbers += list(rng.normal(size=20) * 10.0 ** rng.integers(-30, 30, size=20))
    labels = ["real", "resonance", "physical-complex", "", "a,b", 'say "x"', "two\nlines",
              "cr\rlf", " padded "]
    rows = [(numbers[k % len(numbers)], k if k % 3 else np.int64(k),
             numbers[(3 * k + 1) % len(numbers)], numbers[(7 * k + 2) % len(numbers)],
             labels[k % len(labels)]) for k in range(120)]
    for case in (rows, rows[:1], []):
        p = tmp_path / "rows.csv"
        write_csv(str(p), case)
        assert p.read_bytes() == _reference_csv(case)


_KEYS = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600", "+1"])
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16])


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


def _values(floats, extra=st.nothing()):
    """JSON-like values: nested dicts, lists and tuples of the scalars,
    floats drawn from floats, [re, im] pairs and lists of them, and the
    scalars of extra; subclasses of float, int, str, list and dict among
    them, which the writer takes by isinstance, as json does."""
    pairs = (st.lists(floats, min_size=2, max_size=2) | st.tuples(floats, floats)
             | st.lists(floats.map(_Float), min_size=2, max_size=2).map(_List))
    scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
               | floats | floats.map(np.float64) | floats.map(_Float)
               | st.integers().map(_Int) | _KEYS | _KEYS.map(_Str) | pairs
               | st.lists(pairs, max_size=4) | extra)
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                       | st.lists(inner, max_size=4).map(_List)
                       | st.dictionaries(_KEYS, inner, max_size=4)
                       | st.dictionaries(_KEYS, inner, max_size=4).map(_Dict)),
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


def test_writer_on_matrices_subclasses_and_report_scalars():
    # a matrix of matrix_to_lists is written row by row, each row of pairs
    # in one pass; the exact-type dispatch and the isinstance chain below
    # it give json's text for subclasses, and the report's own form for
    # numpy scalars, complex numbers and non-finite floats
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        mat = matrix_to_lists(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for value in (mat, {"x": mat, "z": mat}, [mat, mat[0]]):
            assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)
    sub = _Dict(a=_List([_Float(0.1), _Int(3), _Str("\u00e9")]), b=[_Float(-0.0), 2.5])
    assert dumps(sub) == json.dumps(sub, sort_keys=True, indent=2)
    nan, inf = float("nan"), float("inf")
    for value, ref in ((np.float64(1.5), "1.5"), (np.int64(-7), "-7"), (np.bool_(True), "true"),
                       (np.bool_(False), "false"), (complex(1.5, -0.0), "[\n  1.5,\n  -0.0\n]"),
                       (nan, '"nan"'), (inf, '"inf"'), (-inf, '"-inf"'),
                       ([[1.0, inf]], '[\n  [\n    1.0,\n    "inf"\n  ]\n]'),
                       ([(nan, 0.5)], '[\n  [\n    "nan",\n    0.5\n  ]\n]')):
        assert dumps(value) == ref


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
