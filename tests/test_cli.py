"""Command-line behavior: subcommands, exit codes, reports, and CSV."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import schurroots as sr
from schurroots._json import dumps
from schurroots.cli import main
from schurroots.config import RunConfig, build_model_from_config
from schurroots.contour import _RectangleDistance
from schurroots.errors import NumericsError
from schurroots.identities import identity_table
from schurroots.model import SpectralModel
from schurroots.report import admissibility_block

from conftest import EP_B, EP_E0

BASE = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.2]]]}}
INADMISSIBLE = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]],
                          "b": [[[float(np.sqrt(0.1))]]]}}
# two decoupled Friedrichs channels (b = 0.2 and 0.15): the eigenvalues of
# each side share the real part 0 exactly
DECOUPLED = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0, 0.0], [0.0, 0.0]],
                       "b": [[[0.2, 0.0], [0.0, 0.15]]]},
             "sweep": {"t_grid": [0.5, 1.0]}}


def with_coupling(data, t):
    """data with every coefficient of model.b scaled by t: the config of a
    run at coupling t."""
    b = (t * np.array(data["model"]["b"])).tolist()
    return {**data, "model": {**data["model"], "b": b}}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code, out = run(capsys, ["solve", "--config", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "ok"
    assert rep["command"] == "solve"
    assert rep["feshbach"] is True
    assert set(rep["solutions"]) == {"+1", "-1"}
    lam = rep["solutions"]["+1"]["eigenvalues"][0]
    assert lam["label"] == "physical-complex"
    assert abs(lam["eigenvalue"][1] + 0.11639390461355939) < 1e-9
    # the provenance names no kernel backend: there is one
    assert "kernel_backend" not in rep["provenance"]


def test_solve_builds_no_gauss_legendre_rule(tmp_path, capsys, monkeypatch):
    # a semicircle's V0 takes its rule in the angle and the Picard map is
    # a closed form, so the contours' own Gauss-Legendre rules, built only
    # when read, are never built
    import schurroots.contour as contour_mod
    built = []
    for name in ("_semicircle_rule", "_rectangle_rule"):
        original = getattr(contour_mod, name)
        monkeypatch.setattr(contour_mod, name,
                            lambda *args, _f=original: built.append(1) or _f(*args))
    code, out = run(capsys, ["solve", "--config", write_cfg(tmp_path, BASE)])
    assert code == 0
    assert built == []


def test_solve_out_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out_path = tmp_path / "report.json"
    code, out = run(capsys, ["solve", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["status"] == "ok"


def test_solve_inadmissible_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, INADMISSIBLE)
    code, out = run(capsys, ["solve", "--config", cfg])
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "inadmissible"
    assert rep["admissibility"]["admissible"] is False


# Every row of the identity table, in the order verify writes them
IDENTITY_ROWS = [
    "sheets-crosspath", "factorization", "factor-conditioning",
    "omega-bound", "omega-adjoint", "omega-two-path", "projection-inverse",
    "moment-similarity", "root-reconstruction", "root-contour",
    "root-equation", "riccati-pointwise", "riccati-adjoint",
    "j-orthogonality", "y-norm-floor", "y-norm-ceiling", "localization",
    "boundary-imag", "density",
]


def test_verify_all_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code, out = run(capsys, ["verify", "--config", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_identities_pass"] is True
    assert [r["name"] for r in rep["identities"]] == IDENTITY_ROWS
    assert all(r["passed"] for r in rep["identities"])


def test_verify_passes_at_partial_coupling(tmp_path, capsys, model_zoo):
    # a weaker coupling is a smaller b: every row passes on b scaled by 0.6
    for data in (BASE, _zoo_config(model_zoo)):
        cfg = write_cfg(tmp_path, with_coupling(data, 0.6))
        code, out = run(capsys, ["verify", "--config", cfg])
        assert code == 0
        rows = json.loads(out)["identities"]
        assert [r["name"] for r in rows] == IDENTITY_ROWS
        assert all(r["passed"] for r in rows), rows


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
def test_verify_passes_near_an_exceptional_point(tmp_path, capsys, delta):
    # the default reconstruction ring keeps its distance from the merging
    # eigenvalues, so projection-inverse holds at unchanged tolerances; from
    # delta = 1e-4 on, the Picard map falls back to the contour sum where
    # the eigenbasis of Z is ill-conditioned
    e = EP_E0 * (1.0 + delta)
    data = {"model": {"interval": [-1.0, 1.0], "a1": [[-e, 0.0], [0.0, e]],
                      "b": [EP_B.tolist()]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    rows = json.loads(out)["identities"]
    assert code == 0, [r for r in rows if not r["passed"]]
    assert [r["name"] for r in rows] == IDENTITY_ROWS


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("b", [3e-3, 1e-4, 1e-100, 1e-120, 1e-150, 5e-155])
def test_verify_passes_at_weak_coupling(tmp_path, capsys, b):
    # Im z is about -pi b^2 (2.8e-5 and 3.1e-8, down to 7.9e-309, which is
    # subnormal but has a finite reciprocal): the spectrum nearly touches
    # the interval, and the graded interval quadratures still meet every
    # tolerance; near the pole the norm-ceiling integrand's smin(Z - mu)^2
    # underflows, so it divides by smin twice
    data = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[b]]]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    rows = json.loads(out)["identities"]
    assert code == 0, [r for r in rows if not r["passed"]]
    assert [r["name"] for r in rows] == IDENTITY_ROWS


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("b", [1e-155, 1e-160])
def test_verify_refuses_a_pole_on_the_path(tmp_path, capsys, b):
    # Im z = -pi b^2 (3.1e-310, 3.1e-320) has no finite reciprocal, so the
    # resolvent would overflow at the graded nodes: compute_Y refuses the
    # eigenvalue as a pole on the interval, naming it, with no warning
    data = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[b]]]}}
    code = main(["verify", "--config", write_cfg(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(r"numerical failure: eigenvalue -\S+j of Z lies on the interval "
                        r"\[-1\.0, 1\.0\]: a pole on the integration path\n", err), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_passes_with_an_eigenvalue_far_below_the_interval(tmp_path, capsys):
    # the root is about -2.9458i: compute_Y's test for a pole on the path
    # must not overflow where |Im z| > 1
    data = {"model": {"interval": [-30.0, 30.0], "a1": [[0.0]], "b": [[[1.0]]]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    rep = json.loads(out)
    assert code == 0, [r for r in rep["identities"] if not r["passed"]]
    (entry,) = rep["solutions"]["+1"]["eigenvalues"]
    assert entry["eigenvalue"][1] < -1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_passes_on_a_short_interval(tmp_path, capsys):
    # boundary-imag's Richardson offsets are half-lengths of the interval:
    # in absolute units they reached a hundredth of [-1e-3, 1e-3], and the
    # row read 2.5e-10 against its tolerance of 1e-10
    data = {"model": {"interval": [-1e-3, 1e-3], "a1": [[0.0]], "b": [[[0.0025]]]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    rows = {r["name"]: r for r in json.loads(out)["identities"]}
    assert code == 0, [r for r in rows.values() if not r["passed"]]
    assert rows["boundary-imag"]["residual"] <= 1e-15
@pytest.mark.parametrize("eigs", [(-0.5, 0.5), (-0.3, 0.3), (-0.6, 0.0, 0.6)])
def test_verify_passes_with_spread_a1(tmp_path, capsys, eigs):
    # the eigenvalues of a1 lie further apart than d/2 allows one
    # reconstruction circle to reach: the moments are summed over one circle
    # per eigenvalue, and every row passes at unchanged tolerances
    n = len(eigs)
    data = {"model": {"interval": [-1.0, 1.0], "a1": np.diag(eigs).tolist(),
                      "b": [(0.05 * np.eye(n)).tolist()]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    rows = json.loads(out)["identities"]
    assert code == 0, [r for r in rows if not r["passed"]]
    assert [r["name"] for r in rows] == IDENTITY_ROWS


def _readme_config() -> dict:
    """The configuration example of README.md, its one JSON block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", text, re.S)
    return json.loads(block)


README_CONFIG = _readme_config()


def _readme_run(tmp_path, command, data=README_CONFIG) -> dict:
    """main on data with the README's paths given as flags; exit 0, and
    the report."""
    argv = [command, "--config", write_cfg(tmp_path, data),
            "--out", str(tmp_path / "report.json")]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "traj.csv")]
    assert main(argv) == 0
    return json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
def test_readme_config_runs(tmp_path, command):
    # every key of the documented example is a key the config knows, since
    # an unknown one exits 4
    _readme_run(tmp_path, command)


def test_verify_report_holds_the_identity_table(tmp_path):
    # verify's rows are identity_table of the two roots and verify.seed
    rep = _readme_run(tmp_path, "verify")
    cfg = RunConfig.from_dict(README_CONFIG)
    model = build_model_from_config(cfg)
    roots = {side: sr.solve_basic(model, sr.make_contour(model, side, cfg.contour_kind, cfg.depth))
             for side in (1, -1)}
    assert rep["identities"] == json.loads(dumps(identity_table(roots, cfg.seed)[0]))
    # V0 takes its own rule in the angle, the flat coupling's first level
    # of 129 nodes, and the report states no other node count
    assert rep["admissibility"]["variation_nodes"] == 129
    assert "node_counts" not in rep["provenance"]


def test_verify_corrupted_root_fails(tmp_path, capsys, monkeypatch):
    # each solved root shifted by 0.01 I before verify checks it
    import schurroots.cli as cli_mod

    solve = cli_mod.solve_basic

    def shifted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        shift = 0.01 * np.eye(sol.model.n)
        return dataclasses.replace(sol, x=sol.x + shift, z_op=sol.z_op + shift)

    monkeypatch.setattr(cli_mod, "solve_basic", shifted)
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, BASE)])
    assert code == 3
    rep = json.loads(out)
    assert rep["all_identities_pass"] is False
    failed = {r["name"] for r in rep["identities"] if not r["passed"]}
    # a shifted root must break the factorization and the root equation
    assert "factorization" in failed
    assert "root-equation" in failed


def test_verify_determinism(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    _, out1 = run(capsys, ["verify", "--config", cfg])
    _, out2 = run(capsys, ["verify", "--config", cfg])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1["provenance"].pop("wall_time_s")
    r2["provenance"].pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_sweep_csv(tmp_path, capsys):
    data = dict(BASE)
    data["sweep"] = {"t_grid": [0.2, 0.6, 1.0]}
    cfg = write_cfg(tmp_path, data)
    csv_path = tmp_path / "rows.csv"
    code, _ = run(capsys, ["sweep", "--config", cfg, "--out-csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,trajectory_id,re,im,label"
    body = [ln.split(",") for ln in lines[1:]]
    # one trajectory per side, three t values each
    assert len(body) == 6
    assert {row[1] for row in body} == {"0", "1"}
    for row in body:
        assert row[4] == "physical-complex"
        assert abs(float(row[3])) > 1e-8  # never inside the real band


def test_sweep_requires_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code, _ = run(capsys, ["sweep", "--config", cfg,
                           "--out-csv", str(tmp_path / "x.csv")])
    assert code == 4


def test_sweep_inadmissible(tmp_path, capsys):
    data = dict(INADMISSIBLE)
    data["sweep"] = {"t_grid": [0.5, 1.0]}
    cfg = write_cfg(tmp_path, data)
    csv_path = tmp_path / "rows.csv"
    code, out = run(capsys, ["sweep", "--config", cfg, "--out-csv", str(csv_path)])
    assert code == 2
    assert not csv_path.exists()


def test_sweep_from_zero_coupling(tmp_path, capsys, monkeypatch):
    # a grid may start at t = 0, where X = 0 and the eigenvalues of Z = A1
    # are real; the physical residuals are evaluated once, for the last t
    # of the one solved path
    import schurroots.rootsolver as rootsolver_mod

    residuals = _count_calls(monkeypatch, rootsolver_mod, "m1_physical")
    cfg = write_cfg(tmp_path, _with("sweep", {"t_grid": [0.0, 0.5, 1.0]}))
    csv_path = tmp_path / "rows.csv"
    code, out = run(capsys, ["sweep", "--config", cfg, "--out-csv", str(csv_path)])
    assert code == 0
    rows = [ln.split(",") for ln in csv_path.read_text().strip().split("\n")[1:]]
    assert [row[4] for row in rows if float(row[0]) == 0.0] == ["real", "real"]
    assert len(residuals) == 1
    for block in json.loads(out)["solutions"].values():
        assert block["eigenvalues"][0]["physical_residual"] is not None


def test_friedrichs_command(capsys):
    code, out = run(capsys, ["friedrichs", "--alpha", "1.0", "--b", "0.2"])
    assert code == 0
    assert "y = 0.11639390461355939" in out
    assert "winding_upper = 1" in out
    assert "winding_lower = 1" in out


def test_consecutive_main_calls_parse_independently(tmp_path, capsys):
    sweep_cfg = write_cfg(tmp_path, {**BASE, "sweep": {"t_grid": [0.5, 1.0]}})
    csv_path = tmp_path / "a.csv"
    code, _ = run(capsys, ["sweep", "--config", sweep_cfg, "--out-csv", str(csv_path)])
    assert code == 0 and csv_path.exists()
    csv_path.unlink()
    # the earlier --out-csv does not carry over: sweep needs one again
    code, _ = run(capsys, ["sweep", "--config", sweep_cfg])
    assert code == 4 and not csv_path.exists()
    assert run(capsys, ["friedrichs", "--alpha", "1.0", "--a1", "0.3", "--b", "0.2"])[0] == 4
    # a refused argv leaves the next call's parse alone
    code, out = run(capsys, ["friedrichs", "--alpha", "1.0", "--b", "0.2"])
    assert code == 0 and "y = 0.11639390461355939" in out
    report_path = tmp_path / "r.json"
    cfg = write_cfg(tmp_path, BASE, "solve.json")
    assert run(capsys, ["solve", "--config", cfg, "--out", str(report_path)]) == (0, "")
    code, out = run(capsys, ["solve", "--config", cfg])
    assert code == 0 and json.loads(out)["command"] == "solve"


def test_friedrichs_rejects_shifted(capsys):
    # the closed forms hold for a1 = 0 only: friedrichs takes no a1 flag,
    # not even one that asks for 0
    for a1 in ("0.3", "0"):
        code = main(["friedrichs", "--alpha", "1.0", "--a1", a1, "--b", "0.2"])
        assert code == 4
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("args, expected", [
    (["--alpha", "inf", "--b", "0.2"], 4),
    (["--alpha", "1e308", "--b", "0.2"], 3),
    (["--alpha", "1.0", "--b", "nan"], 4),
    (["--alpha", "1.0", "--b", "inf"], 4),
    (["--alpha", "1.0", "--b", "1e200"], 3),
])
def test_friedrichs_extreme_values_keep_the_exit_codes(capsys, args, expected):
    # a non-finite parameter is a config error; a finite one too large for
    # the oracle's fixed point or winding rectangle is a numerical failure
    assert main(["friedrichs"] + args) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_friedrichs_tiny_fixed_point_converges(capsys):
    # y = b^2 pi ~ 1.95e-156 here (alpha / y overflows, so arctan is pi/2);
    # solve_y must converge relative to y, and the winding quotients of
    # values near 1e155 must not overflow (a RuntimeWarning fails the test)
    b = 7.875885070113774e-79
    code, out = run(capsys, ["friedrichs", "--alpha=9.122900711414225e+154", f"--b={b!r}"])
    assert code == 0
    values = dict(line.split(" = ", 1) for line in out.splitlines())
    assert abs(float(values["y"]) - b * b * math.pi) <= 1e-14 * b * b * math.pi
    assert float(values["normalization_residual"]) <= 1e-14
    assert values["winding_upper"] == values["winding_lower"] == "1"


_ANY_FLOAT = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, 0.2, 1.0])


@settings(max_examples=40, deadline=None)
@given(_ANY_FLOAT, _ANY_FLOAT)
def test_friedrichs_exit_code_contract(alpha, b):
    # every float pair ends in 0, 3 or 4: main raises nothing. As in
    # test_exit_code_contract_on_small_configs, warnings (an overflow at
    # extreme scales) are recorded rather than raised. "=" keeps a negative
    # value from being parsed as an option.
    argv = ["friedrichs", f"--alpha={alpha!r}", f"--b={b!r}"]
    with (contextlib.redirect_stderr(io.StringIO()),
          contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings(record=True)):
        # record=True keeps the active filters, and an "error" filter
        # would still raise the warning out of main
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 3, 4)


def test_config_errors_exit_4(tmp_path, capsys):
    code, _ = run(capsys, ["solve", "--config", str(tmp_path / "nope.json")])
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _ = run(capsys, ["solve", "--config", str(bad)])
    assert code == 4
    code, _ = run(capsys, ["solve"])  # argparse error, remapped
    assert code == 4
    code, _ = run(capsys, ["frobnicate"])
    assert code == 4


def _with(section, values):
    return {**BASE, section: values}


@pytest.mark.parametrize("command, data, named", [
    ("verify", _with("verify", {"seed": -1}), "verify.seed"),
    ("solve", _with("contour", {"sides": "ab"}), "contour.sides"),
    ("sweep", _with("sweep", {"t_grid": [1.0, 0.5]}), "sweep.t_grid"),
    ("sweep", _with("sweep", {"t_grid": [0.5, 1.5]}), "sweep.t_grid"),
    # a semicircle's depth is half the interval length: it takes none,
    # not even that one
    ("solve", _with("contour", {"kind": "semicircle", "depth": 0.7}), "contour.depth"),
    ("solve", _with("contour", {"kind": "semicircle", "depth": 1.0}), "contour.depth"),
    ("solve", _with("contour", {"kind": "rectangle", "depth": 100.0}), "quadrature nodes"),
    # the Picard tolerance and iteration bound are the program's: the
    # solver section is unknown, whatever it holds
    ("solve", _with("solver", {"max_iter": 2.7}), "section 'solver'"),
    # V0's node density is the program's, so the key is unknown at any value
    ("solve", _with("contour", {"nodes_per_unit": 250.9}),
     "unknown config key contour.nodes_per_unit"),
    ("solve", _with("contour", {"nodes_per_unit": 200}),
     "unknown config key contour.nodes_per_unit"),
    ("verify", _with("verify", {"seed": 1.9}), "verify.seed"),
    # keys the config does not know: settings of an older schema (the
    # verify sample counts, corrupt_z, the solver section and the output
    # paths), a misspelling and a stray section
    ("verify", _with("verify", {"riccati_samples": 0}), "verify.riccati_samples"),
    ("verify", _with("verify", {"lens_points": 0}), "verify.lens_points"),
    ("verify", _with("verify", {"trial_count": 0}), "verify.trial_count"),
    ("verify", _with("verify", {"boundary_points": 0}), "verify.boundary_points"),
    ("verify", _with("verify", {"factor_points": -3}), "verify.factor_points"),
    ("verify", _with("verify", {"trial_count": 10_001}), "verify.trial_count"),
    ("verify", _with("verify", {"lens_points": 2.5}), "verify.lens_points"),
    ("verify", _with("verify", {"factor_points": "30"}), "verify.factor_points"),
    ("verify", _with("verify", {"corrupt_z": float("nan")}), "verify.corrupt_z"),
    ("verify", _with("verify", {"corrupt_z": float("inf")}), "verify.corrupt_z"),
    ("verify", _with("verify", {"corrupt_z": "0.1"}), "verify.corrupt_z"),
    ("solve", _with("solver", {"tau_real": float("nan")}), "section 'solver'"),
    ("solve", _with("solver", {"tau_real": -1e-3}), "section 'solver'"),
    ("solve", _with("solver", {"quad_tol": 1e-6}), "section 'solver'"),
    ("solve", _with("solver", {"coupling_scale": 0.6}), "section 'solver'"),
    ("verify", _with("solver", {"coupling_scale": 1.0}), "section 'solver'"),
    ("solve", _with("solver", {"tolerance": 1e-9}), "section 'solver'"),
    ("solve", {**BASE, "solvers": {"tol": 1e-9}}, "section 'solvers'"),
    ("sweep", {**BASE, "contour": {"sides": [1, 1]},
               "sweep": {"t_grid": [0.5, 1.0]}}, "sides"),
    # JSON true and false are not numbers, in a matrix entry or a pair part
    ("solve", {"model": {**BASE["model"], "a1": [[True]]}}, "model.a1"),
    ("solve", {"model": {**BASE["model"], "b": [[[False]]]}}, "model.b[0]"),
    ("solve", {"model": {**BASE["model"], "b": [[[0.2]], [[True]]]}}, "model.b[1]"),
    ("solve", {"model": {**BASE["model"], "a1": [[[True, 0.0]]]}}, "model.a1"),
    # a JSON integer too large for a float, in every scalar and a matrix
    ("solve", {"model": {**BASE["model"], "interval": [-1, 10 ** 400]}}, "model.interval"),
    ("solve", _with("contour", {"kind": "rectangle", "depth": 10 ** 400}), "contour.depth"),
    ("solve", _with("solver", {"tol": 10 ** 400}), "section 'solver'"),
    ("sweep", _with("sweep", {"t_grid": [0.5, 10 ** 400]}), "sweep.t_grid"),
    ("solve", {"model": {**BASE["model"], "a1": [[10 ** 400]]}}, "model.a1"),
    # an output section, valid or not: the paths are flags only
    ("solve", _with("output", {"report": "r.json"}), "section 'output'"),
    ("solve", _with("output", {"report": 5}), "section 'output'"),
    ("verify", _with("output", {"report": ["r.json"]}), "section 'output'"),
    ("sweep", {**_with("output", {"csv": "t.csv"}), "sweep": {"t_grid": [0.5, 1.0]}},
     "section 'output'"),
    ("sweep", {**_with("output", {"csv": 5}), "sweep": {"t_grid": [0.5, 1.0]}},
     "section 'output'"),
], ids=["negative-seed", "sides-not-ints", "decreasing-t-grid",
        "t-grid-above-1", "semicircle-depth", "semicircle-half-length-depth",
        "rectangle-node-cap",
        "fractional-max-iter", "fractional-nodes-per-unit",
        "nodes-per-unit-key", "fractional-seed",
        "zero-riccati-samples", "zero-lens-points", "zero-trial-count",
        "zero-boundary-points", "negative-factor-points",
        "trial-count-above-cap", "fractional-lens-points",
        "string-factor-points", "nan-corrupt-z", "infinite-corrupt-z",
        "string-corrupt-z", "nan-tau-real", "negative-tau-real", "quad-tol",
        "coupling-scale", "unit-coupling-scale", "misspelled-key",
        "unknown-section", "repeated-side", "boolean-a1-entry",
        "boolean-b-entry", "boolean-second-b-entry", "boolean-pair-part",
        "huge-integer-interval", "huge-integer-depth", "huge-integer-tol",
        "huge-integer-t-grid", "huge-integer-a1-entry", "report-path",
        "numeric-report-path", "list-report-path", "csv-path", "numeric-csv-path"])
def test_bad_config_values_exit_4(tmp_path, capsys, command, data, named):
    # exit 4 with no traceback, and the message names the key, section or
    # matrix at fault
    argv = [command, "--config", write_cfg(tmp_path, data)]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("config error:")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("contour", [{}, {"kind": "rectangle", "depth": 0.5}],
                         ids=["semicircle", "rectangle"])
def test_solve_evaluates_variation_once_per_side(tmp_path, capsys, monkeypatch, contour):
    # a real model's second side is the conjugate of the first side's root,
    # which carries its report, and of its classification, so V0 is
    # evaluated and the spectrum classified once, for the first side
    # requested; on a rectangle too, as solve makes no depth search. The
    # coupling 0.1 keeps the depth-0.5 rectangle admissible
    import schurroots.cli as cli_mod
    import schurroots.contour as contour_mod

    calls = []
    original = contour_mod._variation

    def counting(model, contour):
        calls.append(contour.side)
        return original(model, contour)

    monkeypatch.setattr(contour_mod, "_variation", counting)
    classified = _count_calls(monkeypatch, cli_mod, "classify")
    for sides in ([1, -1], [-1]):
        calls.clear()
        classified.clear()
        data = {"model": {**BASE["model"], "b": [[[0.1]]]},
                "contour": {**contour, "sides": sides}}
        code, _ = run(capsys, ["solve", "--config", write_cfg(tmp_path, data)])
        assert code == 0
        assert calls == sides[:1]
        assert len(classified) == 1


def test_sweep_evaluates_variation_once_per_side(tmp_path, capsys, monkeypatch):
    # homotopy_path evaluates V0 once, at t = 1, and rescales it for every
    # t of the grid; side -1 takes its path, reports included, as the
    # conjugate of side +1's, with no tracking step
    import schurroots.contour as contour_mod
    import schurroots.rootsolver as rootsolver_mod

    calls = []
    original = contour_mod._variation

    def counting(model, contour):
        calls.append(contour.side)
        return original(model, contour)

    monkeypatch.setattr(contour_mod, "_variation", counting)
    pairings = _count_calls(monkeypatch, rootsolver_mod, "_pair")
    cfg = write_cfg(tmp_path, _with("sweep", {"t_grid": [0.5, 1.0]}))
    code, _ = run(capsys, ["sweep", "--config", cfg,
                           "--out-csv", str(tmp_path / "t.csv")])
    assert code == 0
    assert calls == [1]
    # one pairing, from t = 0.5 to t = 1 on side +1
    assert len(pairings) == 1


@pytest.mark.parametrize("exc_type", [NumericsError, np.linalg.LinAlgError])
@pytest.mark.parametrize("name, failed", [
    ("compute_Omega", {"omega-bound", "omega-adjoint", "omega-two-path",
                       "projection-inverse", "moment-similarity"}),
    ("reconstruct_from_contour", {"projection-inverse", "root-reconstruction"}),
])
def test_verify_side_failure_fails_its_rows(tmp_path, capsys, monkeypatch,
                                            name, failed, exc_type):
    # a per-side value that fails on side -1 only fails exactly the rows
    # that read it, each with the failure as its note, in a written report
    import schurroots.identities as identities_mod

    original = getattr(identities_mod, name)
    message = f"injected {name} failure"

    def failing(sol, *args, **kwargs):
        if sol.side == -1:
            raise exc_type(message)
        return original(sol, *args, **kwargs)

    monkeypatch.setattr(identities_mod, name, failing)
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, BASE)])
    assert code == 3
    rows = {r["name"]: r for r in json.loads(out)["identities"]}
    assert len(rows) == 19
    assert {n for n, r in rows.items() if not r["passed"]} == failed
    for n in failed:
        assert rows[n]["note"] == message
        assert rows[n]["residual"] == "inf"


def _with_variation(root, variation):
    """The root with its admissibility report's V0 replaced."""
    return dataclasses.replace(root, report=dataclasses.replace(root.report,
                                                                variation=variation))


def test_omega_bound_is_judged_by_its_row_alone():
    # side +1's V0 scaled by 1e-3 puts its bound V0 / (d^2/4) far below
    # ||Omega||: omega-bound fails with its signed margin, and the rows that
    # only read Omega pass
    model = sr.build_model((-1.0, 1.0), [[0.0]], [[[0.2]]])
    roots = {side: sr.solve_basic(model, sr.make_contour(model, side)) for side in (1, -1)}
    exact = roots[1]
    roots[1] = _with_variation(exact, 1e-3 * exact.report.variation)
    rows = {r["name"]: r for r in identity_table(roots, 0)[0]}
    assert len(rows) == 19
    assert [n for n, r in rows.items() if not r["passed"]] == ["omega-bound"]
    om = sr.compute_Omega(roots[1], roots[-1])
    assert om.norm > om.bound
    assert rows["omega-bound"]["residual"] == om.norm - om.bound
    assert 0.078 < rows["omega-bound"]["residual"] < 0.079
    assert "note" not in rows["omega-bound"]
    # d = 1 on the unit semicircle, so V0 = ||Omega||/4 puts the bound at
    # ||Omega|| exactly: a nonzero Omega at its bound fails, by the least
    # positive margin
    norm = sr.compute_Omega(exact, roots[-1]).norm
    roots[1] = _with_variation(exact, 0.25 * norm)
    assert sr.compute_Omega(roots[1], roots[-1]).bound == norm
    row = identity_table(roots, 0)[0][3]
    assert row["name"] == "omega-bound" and not row["passed"]
    assert row["residual"] == math.ulp(0.0)


def test_verify_counts_variation_and_quadratures(tmp_path, capsys, monkeypatch):
    # one V0 per root, each on its own contour (side -1 does not borrow
    # side +1's report), and 8 adaptive quadratures: B^*Y, the deformed
    # Omega, the norm-ceiling integral and the stacked Y^* x0 of the
    # J-pairing (1 each per side); the Gram matrix and <x0, Y x1> are
    # closed forms. Each side's Omega is one contour sum, read by every
    # row that needs it.
    import schurroots.contour as contour_mod
    import schurroots.riccati as riccati_mod

    variations, quads = [], []
    original_variation = contour_mod._variation
    original_quad = riccati_mod.adaptive_quad

    def counting_variation(model, contour):
        variations.append(contour.side)
        return original_variation(model, contour)

    def counting_quad(*args, **kwargs):
        quads.append(1)
        return original_quad(*args, **kwargs)

    monkeypatch.setattr(contour_mod, "_variation", counting_variation)
    monkeypatch.setattr(riccati_mod, "adaptive_quad", counting_quad)
    sandwiches = _count_calls(monkeypatch, riccati_mod, "sandwich_sum")
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, BASE)])
    assert code == 0
    report = json.loads(out)
    assert report["all_identities_pass"] is True
    assert [b["gram_route"] for b in report["riccati"].values()] == ["closed-form"] * 2
    assert variations == [1, -1]
    assert len(quads) == 8
    assert len(sandwiches) == 2


@pytest.mark.parametrize("coupling, depth", [(1.0, 0.5), (0.5, 0.2)])
def test_rectangle_verify_evaluates_variation_per_root_and_scanned_depth(
        tmp_path, capsys, monkeypatch, model_zoo, coupling, depth):
    # V0 once per root, then, for each side's localization row, once per
    # depth that optimize_r0 scans: 33 of the family (0.5 depth, 2 depth),
    # and h* when it lies strictly inside, as in the family (0.25, 1.0) of
    # the first zoo model but not in its (0.1, 0.4) at half the coupling
    import schurroots.contour as contour_mod

    calls = []
    original = contour_mod._variation

    def counting(model, contour):
        calls.append((contour.side, contour.depth))
        return original(model, contour)

    monkeypatch.setattr(contour_mod, "_variation", counting)
    model = model_zoo[0].scaled(coupling)
    data = {"model": {"interval": list(model.interval), "a1": model.a1.tolist(),
                      "b": [np.real(c).tolist() for c in model.b.coefficients]},
            "contour": {"kind": "rectangle", "depth": depth}}
    code, _ = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    assert code == 0
    kink = _RectangleDistance(model, model.interval).kink
    scan = np.linspace(0.5 * depth, 2.0 * depth, 33).tolist()
    if 0.5 * depth < kink < 2.0 * depth:
        scan.append(kink)
    assert calls[:2] == [(1, depth), (-1, depth)]
    assert calls[2:] == [(1, h) for h in scan] + [(-1, h) for h in scan]
    assert len(calls) == {0.5: 70, 0.2: 68}[depth]


def test_verify_margin_rows_are_signed(tmp_path, capsys, model_zoo):
    # a 2x2 model whose roots sit well inside the r_min disks and whose
    # ||Y||^2 stays well below the norm-ceiling integral: both rows report
    # the room left as a negative residual instead of a clamped 0.0
    model = next(m for m in model_zoo if m.n == 2)
    data = {"model": {"interval": list(model.interval),
                      "a1": np.real(model.a1).tolist(),
                      "b": [np.real(c).tolist() for c in model.b.coefficients]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)["identities"]}
    assert len(rows) == 19
    for name in ("localization", "y-norm-ceiling"):
        assert rows[name]["passed"]
        assert rows[name]["residual"] < -1e-3, rows[name]


@pytest.mark.parametrize("command, where", [
    ("solve", "--out"), ("verify", "--out"), ("sweep", "--out"), ("sweep", "--out-csv")])
def test_unwritable_output_path_exits_4(tmp_path, capsys, command, where):
    # a report or CSV path inside a missing directory is a config error
    # naming the path, with no traceback; sweep writes its CSV first and
    # removes it when the report cannot be written, so no file is left
    missing = str(tmp_path / "missing" / "out.file")
    data = {**BASE, "sweep": {"t_grid": [0.5, 1.0]}}
    argv = [command]
    if where == "--out":
        argv += ["--out", missing]
    if command == "sweep":
        argv += ["--out-csv", missing if where == "--out-csv" else str(tmp_path / "t.csv")]
    code = main(argv + ["--config", write_cfg(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"config error: cannot write {missing}:")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_output_path_that_is_a_directory_exits_4(tmp_path, capsys, command):
    # --out naming an existing directory passes mkstemp and fails at the
    # rename: atomic_write removes its temp file, and sweep its CSV
    target = tmp_path / "out"
    target.mkdir()
    argv = [command, "--out", str(target)]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    data = {**BASE, "sweep": {"t_grid": [0.5, 1.0]}}
    code = main(argv + ["--config", write_cfg(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"config error: cannot write {target}:")
    assert "Is a directory" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_one_inadmissible_side_marks_the_report(tmp_path, capsys, monkeypatch,
                                                command):
    # only side -1 fails admissibility, in the solver: the report is
    # inadmissible and shows side -1's block, the command exits 2 with no
    # traceback. A real model's side -1 is the conjugate of side +1, so
    # the model is taken as complex here to solve side -1 on its own.
    import schurroots.rootsolver as rootsolver_mod

    monkeypatch.setattr(SpectralModel, "is_real", property(lambda self: False))

    original = rootsolver_mod.admissibility

    def one_side_fails(model, contour, *args):
        rep = original(model, contour, *args)
        if contour.side == -1:
            rep = rootsolver_mod.admissibility_at(rep.distance ** 2, rep.distance)
        return rep

    monkeypatch.setattr(rootsolver_mod, "admissibility", one_side_fails)
    argv = [command, "--config", write_cfg(tmp_path, _with("sweep", {"t_grid": [0.5, 1.0]}))]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    rep = json.loads(captured.out)
    assert rep["status"] == "inadmissible"
    # side -1's block: its V0 was set to d^2 at t = 1
    assert rep["admissibility"]["admissible"] is False
    assert rep["admissibility"]["variation"] == rep["admissibility"]["distance"] ** 2
    assert "solutions" not in rep
    assert not (tmp_path / "t.csv").exists()


# a real 2x2 model, admissible on both sides at every coupling used here
TWO_BY_TWO = {"model": {"interval": [-1.0, 1.0], "a1": [[0.1, 0.02], [0.02, -0.1]],
                        "b": [[[0.1, 0.0], [0.0, 0.1], [0.03, 0.02]]]}}


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_report_block_is_the_roots_own(tmp_path, capsys, monkeypatch, command):
    # every root a command solves carries admissibility(model, contour, t)
    # of its own contour and coupling, and the report's block is that of
    # the first side's root: on b scaled by 0.6 at t = 1 for solve and
    # verify, at the largest t of the grid for sweep
    import schurroots.cli as cli_mod

    roots = []

    def recording(name):
        original = getattr(cli_mod, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            roots.extend([(sol, t) for t, sol, _ in out] if name == "homotopy_path"
                         else [(out, kwargs.get("t", 1.0))])
            return out
        monkeypatch.setattr(cli_mod, name, wrapper)

    recording("solve_basic")
    recording("homotopy_path")
    data = {**with_coupling(TWO_BY_TWO, 0.6), "sweep": {"t_grid": [0.3, 0.7]}}
    argv = [command, "--config", write_cfg(tmp_path, data)]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    code, out = run(capsys, argv)
    assert code == 0
    model = build_model_from_config(RunConfig.from_dict(data))
    assert len(roots) == {"solve": 1, "verify": 2, "sweep": 2}[command]
    for sol, t in roots:
        assert sol.report == sr.admissibility(model, sol.contour, t)
    t_end = 0.7 if command == "sweep" else 1.0
    first = sr.admissibility(model, sr.make_contour(model, 1), t_end)
    block = json.loads(out)["admissibility"]
    assert "r0_upper_bound" not in block
    assert block == admissibility_block(first)


def _zoo_config(model_zoo):
    model = next(m for m in model_zoo if m.n == 2)
    return {"model": {"interval": list(model.interval),
                      "a1": np.real(model.a1).tolist(),
                      "b": [np.real(c).tolist() for c in model.b.coefficients]},
            "sweep": {"t_grid": [0.5, 1.0]}}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _assert_conjugate_entries(source, derived):
    """Entry k of the derived side's eigenvalues is entry k of the source
    side's, conjugated, with every other field kept."""
    assert len(derived) == len(source)
    for src, drv in zip(source, derived):
        re, im = src["eigenvalue"]
        assert drv == {**src, "eigenvalue": [re, -im]}


def _assert_conjugate_trajectories(csv_text):
    """Trajectory n + k of the sweep CSV is trajectory k conjugated."""
    rows = [ln.split(",") for ln in csv_text.strip().split("\n")[1:]]
    points = {(t, int(k)): (float(re), float(im), label)
              for t, k, re, im, label in rows}
    n = len({k for _, k in points}) // 2
    for (t, k), (re, im, label) in points.items():
        if k < n:
            assert points[(t, n + k)] == (re, -im, label)


def test_solve_and_sweep_make_no_contour_sum_call(tmp_path, capsys, monkeypatch,
                                                  model_zoo):
    # the Picard map is evaluated in closed form, so the contour sum that
    # used to run once per step never runs, and no step falls back. The
    # derived side -1 is side +1 conjugated entry for entry, in side +1's
    # order, also where eigenvalues share a real part (DECOUPLED)
    import schurroots.rootsolver as rootsolver_mod

    calls = _count_calls(monkeypatch, rootsolver_mod, "resolvent_sum")
    csv_path = tmp_path / "t.csv"
    for data in (_with("sweep", {"t_grid": [0.5, 1.0]}), _zoo_config(model_zoo),
                 DECOUPLED):
        cfg = write_cfg(tmp_path, data)
        code, out = run(capsys, ["solve", "--config", cfg])
        assert code == 0
        solutions = json.loads(out)["solutions"]
        for block in solutions.values():
            assert block["contour_fallbacks"] == 0
        _assert_conjugate_entries(solutions["+1"]["eigenvalues"],
                                  solutions["-1"]["eigenvalues"])
        code, out = run(capsys, ["sweep", "--config", cfg,
                                 "--out-csv", str(csv_path)])
        assert code == 0
        for block in json.loads(out)["solutions"].values():
            assert block["contour_fallbacks"] == 0
        _assert_conjugate_trajectories(csv_path.read_text())
    assert calls == []


def test_verify_calls_transformator_once_per_side(tmp_path, capsys, monkeypatch,
                                                 model_zoo):
    # the root-contour row is the only contour sum of the root
    import schurroots.identities as identities_mod

    for data in (BASE, _zoo_config(model_zoo)):
        calls = _count_calls(monkeypatch, identities_mod, "transformator")
        code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["identities"]}
        assert rows["root-contour"]["passed"]
        assert len(calls) == 2


def test_verify_builds_twelve_analytic_rules(tmp_path, capsys, monkeypatch, model_zoo):
    # six contour sums per side, each on its own rule: sheets-crosspath,
    # factorization (F1 and M1 on one rule), factor-conditioning, Omega, the
    # reconstruction rings and root-contour
    import schurroots.contour as contour_mod
    import schurroots.riccati as riccati_mod
    import schurroots.rootsolver as rootsolver_mod
    import schurroots.schur as schur_mod

    calls = []
    original = contour_mod.analytic_rule

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (contour_mod, riccati_mod, rootsolver_mod, schur_mod):
        monkeypatch.setattr(module, "analytic_rule", counting)
    for data in (BASE, _zoo_config(model_zoo)):
        calls.clear()
        code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
        assert code == 0
        assert all(r["passed"] for r in json.loads(out)["identities"])
        assert len(calls) == 12


def _run_report(tmp_path, capsys, command, data, name):
    """The report and CSV text of one command run, with the wall time
    dropped."""
    argv = [command, "--config", write_cfg(tmp_path, data, f"{name}.json")]
    csv_path = tmp_path / f"{name}.csv"
    if command == "sweep":
        argv += ["--out-csv", str(csv_path)]
    code, out = run(capsys, argv)
    assert code == 0
    rep = json.loads(out)
    rep["provenance"].pop("wall_time_s")
    return rep, csv_path.read_text() if command == "sweep" else None


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_side_order_gives_the_same_blocks(tmp_path, capsys, model_zoo, command):
    # side -1 alone is solved; [-1, 1] derives +1 from -1 and [1, -1]
    # derives -1 from +1: every side's block is the same in all of them
    data = _zoo_config(model_zoo)
    reps = {}
    for sides in ([1], [-1], [1, -1], [-1, 1]):
        cfg = {**data, "contour": {"sides": sides}}
        reps[tuple(sides)], _ = _run_report(tmp_path, capsys, command, cfg,
                                            "".join(map(str, sides)))
    assert reps[(1, -1)]["provenance"]["derived_sides"] == {"-1": "conjugate of +1"}
    assert reps[(-1, 1)]["provenance"]["derived_sides"] == {"+1": "conjugate of -1"}
    assert reps[(-1,)]["provenance"]["derived_sides"] == {}
    for key in ("+1", "-1"):
        blocks = [rep["solutions"][key] for rep in reps.values()
                  if key in rep["solutions"]]
        assert len(blocks) == 3
        assert all(block == blocks[0] for block in blocks)


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_derived_side_matches_the_solved_side(tmp_path, capsys, monkeypatch,
                                              model_zoo, command):
    # with the realness predicate forced off every side is solved on its
    # own; the report and CSV differ from the derived run only in
    # provenance.derived_sides
    data = _zoo_config(model_zoo)
    derived, derived_csv = _run_report(tmp_path, capsys, command, data, "derived")
    monkeypatch.setattr(SpectralModel, "is_real", property(lambda self: False))
    solved, solved_csv = _run_report(tmp_path, capsys, command, data, "solved")
    if command == "verify":
        assert "derived_sides" not in derived["provenance"]
    else:
        assert derived["provenance"].pop("derived_sides") == {"-1": "conjugate of +1"}
        assert solved["provenance"].pop("derived_sides") == {}
    assert json.dumps(derived, sort_keys=True) == json.dumps(solved, sort_keys=True)
    assert derived_csv == solved_csv


# b = 1e200 overflows b^* b: the density has non-finite coefficients
OVERFLOWING = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[1e200]]]},
               "sweep": {"t_grid": [0.5, 1.0]}}


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_non_finite_density_exits_4(tmp_path, capsys, command):
    argv = [command, "--config", write_cfg(tmp_path, OVERFLOWING)]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("config error:") and "non-finite" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


# hi - lo = 2e308 is not a float: the semicircle's V0 took NaN norms
# (exit 2, or exit 1 with every RuntimeWarning an error)
OVERFLOWING_INTERVAL = {"model": {"interval": [-1e308, 1e308], "a1": [[0.0]],
                                  "b": [[[0.2]]]}}


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_interval_whose_length_overflows_exits_4(tmp_path, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", write_cfg(tmp_path, OVERFLOWING_INTERVAL)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("config error:") and "interval (-1e+308, 1e+308)" in err
    assert "Traceback" not in err


def _localization(model, roots, radius):
    """The localization row's residual of the roots against radius(side):
    the largest distance of an eigenvalue of Z to sigma1, less the radius,
    over both sides."""
    return max(float(np.min(np.abs(lam - model.sigma1))) - radius(side)
               for side, sol in roots.items() for lam in sol.eigenvalues())


def _rectangle_roots(model, depth):
    return {side: sr.solve_basic(model, sr.make_contour(model, side, "rectangle", depth))
            for side in (1, -1)}


def _check_own_localization(data, rep, depth):
    """verify's localization residual is that of the depth's roots against
    their own r_min."""
    model = build_model_from_config(RunConfig.from_dict(data))
    roots = _rectangle_roots(model, depth)
    rows = {r["name"]: r for r in rep["identities"]}
    want = _localization(model, roots, lambda side: roots[side].report.r_min)
    assert rows["localization"]["residual"] == want


def test_rectangle_r0_is_taken_at_the_kink(tmp_path, capsys, model_zoo):
    # the depth family (0.25, 1.0) of a depth-0.5 rectangle holds the kink
    # h* of d(h), where a zoo model's r_min is least: verify's localization
    # row reads r0 = r_min(h*) of each side, below the configured r_min
    data = {**_zoo_config(model_zoo), "contour": {"kind": "rectangle", "depth": 0.5}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    assert code == 0
    rep = json.loads(out)
    adm = rep["admissibility"]
    assert "r0_upper_bound" not in adm
    model = build_model_from_config(RunConfig.from_dict(data))
    kink = _RectangleDistance(model, model.interval).kink
    at_kink = {side: sr.admissibility(model, sr.make_contour(model, side, "rectangle", kink))
               for side in (1, -1)}
    assert at_kink[1].r_min < adm["r_min"]
    rows = {r["name"]: r for r in rep["identities"]}
    want = _localization(model, _rectangle_roots(model, 0.5),
                         lambda side: at_kink[side].r_min)
    assert rows["localization"]["residual"] == want
    assert rows["localization"]["passed"]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("depth", [4.0, 5.0])
def test_deep_rectangle_keeps_the_exit_code_contract(tmp_path, capsys, command,
                                                     depth):
    # at 0.5 depth >= hi - lo the depth family is empty: localization reads
    # the configured rectangle's own r_min, as for a semicircle
    data = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.05]]]},
            "contour": {"kind": "rectangle", "depth": depth, "sides": [1]}}
    code = main([command, "--config", write_cfg(tmp_path, data)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in captured.err
    rep = json.loads(captured.out)
    if rep["status"] == "ok":
        assert "r0_upper_bound" not in rep["admissibility"]
        if command == "verify":
            _check_own_localization(data, rep, depth)


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_admissible_rectangle_between_scanned_depths_exits_0(tmp_path, capsys, command):
    # V0 = 0.2498 < d^2/4 = 0.25 at depth 1, but the admissible depths lie
    # in about (0.9995, 1.0016), between the scanned depths 0.96875 and
    # 1.015625 of the family (0.5, 2.0): localization reads the configured
    # rectangle's own r_min
    data = {"model": {"interval": [-1, 1], "a1": [[0]], "b": [[[0.2499]]]},
            "contour": {"kind": "rectangle", "depth": 1.0}}
    code = main([command, "--config", write_cfg(tmp_path, data)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    rep = json.loads(captured.out)
    assert "r0_upper_bound" not in rep["admissibility"]
    if command == "verify":
        assert len(rep["identities"]) == 19 and rep["all_identities_pass"]
        _check_own_localization(data, rep, 1.0)


def test_localization_fails_a_root_between_r0_and_r_min():
    # a1 = 0.2, b = 0.1 on the depth-0.5 rectangle: r0 = 0.0479 at h* = 0.8,
    # the root's own r_min = 0.0697 and ||X|| = 0.0310. X scaled by 1.9 puts
    # Z's eigenvalue 0.059 from sigma1, inside the r_min disk but outside
    # r0's: localization fails, by its distance past r0
    model = sr.build_model((-1.0, 1.0), [[0.2]], [[[0.1]]])
    roots = _rectangle_roots(model, 0.5)
    for side, sol in roots.items():
        assert sr.optimize_r0(sol) == (0.8, pytest.approx(0.0479, abs=1e-4))
        assert sol.report.r_min == pytest.approx(0.0697, abs=1e-4)
        roots[side] = dataclasses.replace(sol, x=1.9 * sol.x,
                                          z_op=sol.model.a1 + 1.9 * sol.x)
    row = next(r for r in identity_table(roots, 0)[0] if r["name"] == "localization")
    assert not row["passed"]
    assert row["residual"] == _localization(
        model, roots, lambda side: sr.optimize_r0(roots[side])[1])
    assert 0.011 < row["residual"] < 0.012
    # against the root's own r_min the scaled root would pass
    assert _localization(model, roots, lambda side: roots[side].report.r_min) < 0


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_semicircle_over_a_long_interval_exits_0(tmp_path, capsys, command):
    # a semicircle's counts (629, in half-lengths of the interval) hold over
    # (-30, 30), where 200 nodes per unit of absolute arclength asked for
    # 18850 and exited 4; V0's rule is sized in the angle, so the scale
    # cannot change it either
    data = {"model": {"interval": [-30.0, 30.0], "a1": [[0.0]], "b": [[[0.01]]]}}
    code = main([command, "--config", write_cfg(tmp_path, data)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    rep = json.loads(captured.out)
    assert rep["admissibility"]["variation_nodes"] == 129
    if command == "verify":
        assert len(rep["identities"]) == 19 and rep["all_identities_pass"]


def test_density_is_checked_by_verify_only(tmp_path, capsys, monkeypatch):
    # solve and sweep never evaluate the density margin; verify does once,
    # as its last row
    import schurroots.identities as identities_mod
    import schurroots.model as model_mod

    in_table = _count_calls(monkeypatch, identities_mod, "density_margin")
    in_model = _count_calls(monkeypatch, model_mod, "density_margin")
    cfg = write_cfg(tmp_path, _with("sweep", {"t_grid": [0.5, 1.0]}))
    assert run(capsys, ["solve", "--config", cfg])[0] == 0
    assert run(capsys, ["sweep", "--config", cfg,
                        "--out-csv", str(tmp_path / "t.csv")])[0] == 0
    assert in_table == [] and in_model == []
    code, out = run(capsys, ["verify", "--config", cfg])
    assert code == 0
    assert len(in_table) + len(in_model) == 1
    row = json.loads(out)["identities"][-1]
    assert row["name"] == "density"
    assert row["passed"] and row["residual"] < 0.0


def test_corrupted_density_fails_the_density_row(tmp_path, capsys, monkeypatch):
    # K' shifted by 1e-3 I is no longer b^* b: the density row fails and
    # verify exits 3
    import schurroots.model as model_mod

    original = model_mod.kprime_of

    def shifted(model):
        coeffs = original(model).coefficients.copy()
        coeffs[0] += 1e-3 * np.eye(model.n)
        return model_mod.MatrixPolynomial(coeffs)

    monkeypatch.setattr(model_mod, "kprime_of", shifted)
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, BASE)])
    assert code == 3
    rows = {r["name"]: r for r in json.loads(out)["identities"]}
    assert not rows["density"]["passed"]
    assert rows["density"]["residual"] > 0.0


@st.composite
def small_configs(draw):
    """Config dicts that allocate nothing large: n <= 3, at most about a
    thousand nodes per contour segment and short t grids.
    The model may have sigma1 outside the interval or be inadmissible."""
    small = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    lo = draw(st.floats(-2.0, 1.0, allow_nan=False, allow_infinity=False))
    width = draw(st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False))
    centre = draw(st.floats(lo - 0.5, lo + width + 0.5, allow_nan=False,
                            allow_infinity=False))
    pert = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n))
    a1 = [[(centre if i == j else 0.0) + 0.1 * (pert[i][j] + pert[j][i])
           for j in range(n)] for i in range(n)]
    scale = draw(st.sampled_from([0.01, 0.05, 0.2, 1.0]))
    b = [[[scale * draw(small) for _ in range(n)] for _ in range(m)]
         for _ in range(draw(st.integers(1, 3)))]
    contour = {"kind": draw(st.sampled_from(["semicircle", "rectangle"])),
               "sides": draw(st.sampled_from([[1], [-1], [1, -1], [-1, 1]]))}
    if contour["kind"] == "rectangle":
        contour["depth"] = draw(st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False))
    t_grid = sorted(set(draw(st.lists(st.floats(0.05, 1.0, allow_nan=False),
                                      min_size=1, max_size=3))))
    data = {"model": {"interval": [lo, lo + width], "a1": a1, "b": b},
            "contour": contour,
            "sweep": {"t_grid": t_grid}}
    if draw(st.integers(0, 3)) == 3:
        # one malformed value; a huge depth is refused before any rule is
        # built, and contour.nodes_per_unit and the solver and output
        # sections are unknown to the config
        section, key = draw(st.sampled_from([
            ("model", "interval"), ("model", "a1"), ("model", "b"),
            ("contour", "kind"), ("contour", "sides"), ("contour", "depth"),
            ("contour", "nodes_per_unit"), ("solver", "tol"), ("solver", "max_iter"),
            ("solver", "coupling_scale"), ("sweep", "t_grid"), ("output", "report"),
            ("output", "csv")]))
        data.setdefault(section, {})[key] = draw(st.sampled_from(
            [None, "x", -1, 0, -0.5, 2.5, True, [], [[]], {}, float("nan"), 1e300]))
    return data


DEEP_RECTANGLE = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.05]]]},
                  "contour": {"kind": "rectangle", "depth": 5.0, "sides": [1]},
                  "sweep": {"t_grid": [0.5, 1.0]}}
# zero coupling and a1 = 0.5 I: the two eigenvalues coincide at every t, so
# sweep warns that it cannot pair the trajectories
AMBIGUOUS_PAIRING = {"model": {"interval": [0.0, 1.0], "a1": [[0.5, 0.0], [0.0, 0.5]],
                               "b": [[[0.0, 0.0]]]},
                     "sweep": {"t_grid": [0.5, 1.0]}}
# the Friedrichs coupling over half-lengths 1e20 and 1e200: r_min cancelled
# to 0 on both (solve exited 3), and on the second d^2 overflows a float
HUGE_INTERVALS = [{"model": {"interval": [-half, half], "a1": [[0.0]], "b": [[[0.2]]]}}
                  for half in (1e20, 1e200)]
# and over 1e200 a rectangle, whose distance squared the interval length,
# and a coupling too strong for the semicircle, whose message squared d
HUGE_RECTANGLE = {**HUGE_INTERVALS[1], "contour": {"kind": "rectangle", "depth": 1e199}}
HUGE_COUPLING = {"model": {**HUGE_INTERVALS[1]["model"], "b": [[[1e100]]]}}
# an eigenvalue at the endpoint a, which the rounded centre of the
# semicircle puts a unit in the last place outside it: the physical moment
# there divided by zero (exit 1)
ENDPOINT_OFF_THE_ROUNDED_CIRCLE = {
    "model": {"interval": [-2.0, -1.4371961158354563], "a1": [[-2.0]], "b": [[[0.0]]]},
    "contour": {"kind": "semicircle", "sides": [1]}, "sweep": {"t_grid": [1.0]}}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["solve", "sweep"]), small_configs())
@example("solve", DEEP_RECTANGLE)
@example("sweep", DEEP_RECTANGLE)
@example("solve", {**DEEP_RECTANGLE, "contour": {"kind": "rectangle", "depth": -1.0}})
@example("sweep", AMBIGUOUS_PAIRING)
@example("solve", HUGE_INTERVALS[0])
@example("solve", HUGE_INTERVALS[1])
@example("solve", ENDPOINT_OFF_THE_ROUNDED_CIRCLE)
def test_exit_code_contract_on_small_configs(command, data):
    # every input ends in 0, 2, 3 or 4: main raises nothing, so nothing
    # prints a traceback
    code, err, _ = _main_on(command, data)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@pytest.mark.parametrize("data", HUGE_INTERVALS, ids=["1e20", "1e200"])
def test_verify_of_huge_intervals_warns_of_nothing(data):
    # with every RuntimeWarning an error, verify over the huge intervals
    # keeps the exit code contract, and its J-orthogonality row, whose
    # trial poles sit off the interval in its own half-lengths, passes
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        report_path = os.path.join(tmp, "report.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--config", path, "--out", report_path])
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    assert code in (0, 3)
    rows = {row["name"]: row for row in report["identities"]}
    assert rows["j-orthogonality"]["passed"]


def _main_on(command, data):
    """main on data written to a temporary config: (exit code, stderr,
    report dict or None). Warnings (such as a sweep's eigenvalue-jump
    RuntimeWarning) are part of the contract, so they are recorded here
    rather than raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        report_path = os.path.join(tmp, "report.json")
        argv = [command, "--config", path, "--out", report_path]
        if command == "sweep":
            argv += ["--out-csv", os.path.join(tmp, "rows.csv")]
        err = io.StringIO()
        with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
              warnings.catch_warnings(record=True)):
            # record=True keeps the active filters, and an "error" filter
            # would still raise the warning out of main
            warnings.simplefilter("always")
            code = main(argv)
        report = None
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
    return code, err.getvalue(), report


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
@example(HUGE_INTERVALS[0])
@example(HUGE_INTERVALS[1])
def test_verify_exit_code_contract_on_small_configs(data):
    # the verify twin of test_exit_code_contract_on_small_configs; a
    # report written with exit 2 is inadmissible, with no solutions
    code, err, report = _main_on("verify", data)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2 and report is not None:
        assert report["status"] == "inadmissible"
        assert "solutions" not in report


@pytest.mark.parametrize("data, solved", [(HUGE_INTERVALS[0], 0), (HUGE_INTERVALS[1], 0),
                                          (HUGE_RECTANGLE, 0), (HUGE_COUPLING, 2)])
def test_huge_intervals_keep_the_exit_codes(data, solved):
    # solve exits 0, or 2 on the inadmissible coupling; verify may fail rows
    # at this scale (exit 3), with no traceback
    code, err, _ = _main_on("solve", data)
    assert code == solved, err
    code, err, _ = _main_on("verify", data)
    assert code in (solved, 3) and "Traceback" not in err


def test_sweep_warns_of_an_ambiguous_pairing_and_exits_0(tmp_path):
    # the warning is the CLI's message, not a failure: main returns 0
    argv = ["sweep", "--config", write_cfg(tmp_path, AMBIGUOUS_PAIRING),
            "--out", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "t.csv")]
    with pytest.warns(RuntimeWarning, match="ambiguous trajectory pairing"):
        assert main(argv) == 0


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_no_convergence_exits_3(monkeypatch, command):
    # a Picard iteration that does not meet its tolerance within the
    # program's iteration bound is a numerical failure, not a traceback
    import schurroots.rootsolver as rootsolver_mod

    monkeypatch.setattr(rootsolver_mod, "_MAX_ITER", 1)
    code, err, report = _main_on(command, {**BASE, "sweep": {"t_grid": [0.5, 1.0]}})
    assert code == 3
    assert "numerical failure: no convergence in 1 iterations" in err
    assert "Traceback" not in err
    assert report is None


def test_verify_of_an_inadmissible_contour_writes_its_report():
    # the Friedrichs model is inadmissible on the depth-0.5 rectangle
    data = {**BASE, "contour": {"kind": "rectangle", "depth": 0.5}}
    code, _, report = _main_on("verify", data)
    assert code == 2
    assert report["status"] == "inadmissible"
    assert report["admissibility"]["admissible"] is False
    assert "solutions" not in report


@pytest.mark.parametrize("data", [
    {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.0]]]}},
])
def test_verify_passes_at_zero_coupling(tmp_path, capsys, data):
    # V0 = 0, so the Omega bound is 0 and Omega is exactly 0: a zero Omega
    # meets the bound
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    assert code == 0
    report = json.loads(out)
    assert report["admissibility"]["variation"] == 0.0
    assert len(report["identities"]) == 19
    assert all(row["passed"] for row in report["identities"]), report["identities"]


def test_verify_passes_on_a_non_feshbach_model(tmp_path, capsys):
    # sigma1 = {1.5} lies outside the interval and off the lens: every
    # Picard step, the residual check included, takes the closed form with
    # the physical moment there, so root-contour compares it with the
    # contour sum; the root is exactly real and the Gram matrix is a
    # quadrature
    data = {"model": {"interval": [-1.0, 1.0], "a1": [[1.5]], "b": [[[0.1]]]}}
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
    assert code == 0
    report = json.loads(out)
    assert report["feshbach"] is False
    assert [b["contour_fallbacks"] for b in report["solutions"].values()] == [0, 0]
    assert [b["z"][0][0][1] for b in report["solutions"].values()] == [0.0, 0.0]
    assert [b["gram_route"] for b in report["riccati"].values()] == ["quadrature"] * 2
    assert len(report["identities"]) == 19
    assert all(row["passed"] for row in report["identities"]), report["identities"]


def test_verify_decomposes_each_root_once(tmp_path, capsys, monkeypatch, model_zoo):
    # each root is decomposed once, by the residual check of its Picard
    # iteration, and carries that eigensystem: solve, verify and sweep take
    # no np.linalg.eig or eigvals outside _picard
    import schurroots.rootsolver as rootsolver_mod

    inside, calls = [], []
    original_picard = rootsolver_mod._picard

    def picard(*args, **kwargs):
        inside.append(1)
        try:
            return original_picard(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(rootsolver_mod, "_picard", picard)
    for name in ("eig", "eigvals"):
        def counting(mat, _original=getattr(np.linalg, name), _name=name):
            if not inside:
                calls.append(_name)
            return _original(mat)

        monkeypatch.setattr(np.linalg, name, counting)
    zoo = _zoo_config(model_zoo)
    for command, data in [("verify", BASE), ("verify", zoo), ("solve", zoo),
                          ("solve", DECOUPLED), ("sweep", zoo), ("sweep", DECOUPLED)]:
        calls.clear()
        argv = [command, "--config", write_cfg(tmp_path, data)]
        if command == "sweep":
            argv += ["--out-csv", str(tmp_path / "t.csv")]
        code, _ = run(capsys, argv)
        assert code == 0
        assert calls == [], (command, calls)
