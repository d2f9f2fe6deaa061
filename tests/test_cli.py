"""Command-line behavior: subcommands, exit codes, reports, and CSV."""

import json

import numpy as np
import pytest

from schurroots.cli import main
from schurroots.errors import NumericsError
from schurroots.model import SpectralModel

BASE = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.2]]]}}
INADMISSIBLE = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]],
                          "b": [[[float(np.sqrt(0.1))]]]}}
# two decoupled Friedrichs channels (b = 0.2 and 0.15): the eigenvalues of
# each side share the real part 0 exactly
DECOUPLED = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0, 0.0], [0.0, 0.0]],
                       "b": [[[0.2, 0.0], [0.0, 0.15]]]},
             "sweep": {"t_grid": [0.5, 1.0]}}


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
    assert rep["provenance"]["kernel_backend"] == "numpy"


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


def test_verify_all_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code, out = run(capsys, ["verify", "--config", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_identities_pass"] is True
    names = [r["name"] for r in rep["identities"]]
    for expected in ("sheets-crosspath", "factorization", "omega-bound",
                     "projection-inverse", "moment-similarity",
                     "root-reconstruction", "root-equation",
                     "riccati-pointwise", "riccati-adjoint",
                     "j-orthogonality", "y-norm-floor", "y-norm-ceiling",
                     "localization", "boundary-imag"):
        assert expected in names
    assert all(r["passed"] for r in rep["identities"])


# The configuration example of README.md
README_CONFIG = {
    "model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.2]]]},
    "contour": {"kind": "semicircle", "sides": [1, -1]},
    "solver": {"tol": 1e-12, "max_iter": 200, "coupling_scale": 1.0},
    "sweep": {"t_grid": [0.25, 0.5, 0.75, 1.0]},
    "verify": {"seed": 20260819, "lens_points": 50},
    "output": {"report": "report.json", "csv": "traj.csv"},
}


def test_verify_passes_at_one_node_per_unit(tmp_path, monkeypatch):
    # V0 keeps its 200-node floor; the lens points of sheets-crosspath, which
    # a guard of 10 node spacings of that rule refused, are summed on their
    # own analytic rule
    monkeypatch.chdir(tmp_path)
    data = json.loads(json.dumps(README_CONFIG))
    data["contour"]["nodes_per_unit"] = 1
    assert main(["verify", "--config", write_cfg(tmp_path, data)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["provenance"]["node_counts"] == {"1": 200, "-1": 200}
    assert len(rep["identities"]) == 19
    assert all(row["passed"] for row in rep["identities"]), rep["identities"]


def test_verify_corrupted_root_fails(tmp_path, capsys):
    data = dict(BASE)
    data["verify"] = {"corrupt_z": 0.01}
    cfg = write_cfg(tmp_path, data)
    code, out = run(capsys, ["verify", "--config", cfg])
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
    # --a1 falls back to its default after a call that set it
    code, out = run(capsys, ["friedrichs", "--alpha", "1.0", "--b", "0.2"])
    assert code == 0 and "y = 0.11639390461355939" in out
    report_path = tmp_path / "r.json"
    cfg = write_cfg(tmp_path, BASE, "solve.json")
    assert run(capsys, ["solve", "--config", cfg, "--out", str(report_path)]) == (0, "")
    code, out = run(capsys, ["solve", "--config", cfg])
    assert code == 0 and json.loads(out)["command"] == "solve"


def test_friedrichs_rejects_shifted(capsys):
    code, _ = run(capsys, ["friedrichs", "--alpha", "1.0", "--a1", "0.3",
                           "--b", "0.2"])
    assert code == 4


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


@pytest.mark.parametrize("command, data", [
    ("verify", _with("verify", {"seed": -1})),
    ("solve", _with("contour", {"sides": "ab"})),
    ("sweep", _with("sweep", {"t_grid": [1.0, 0.5]})),
    ("sweep", _with("sweep", {"t_grid": [0.5, 1.5]})),
    ("solve", _with("contour", {"kind": "semicircle", "depth": 0.7})),
    ("solve", _with("contour", {"kind": "rectangle", "depth": 100.0})),
    ("verify", _with("verify", {"riccati_samples": 0})),
    ("verify", _with("verify", {"lens_points": 0})),
    ("verify", _with("verify", {"trial_count": 0})),
    ("verify", _with("verify", {"boundary_points": 0})),
    ("verify", _with("verify", {"factor_points": -3})),
    ("verify", _with("verify", {"trial_count": 10_001})),
    ("verify", _with("verify", {"lens_points": 2.5})),
    ("verify", _with("verify", {"factor_points": "30"})),
    ("solve", _with("solver", {"max_iter": 2.7})),
    ("solve", _with("contour", {"nodes_per_unit": 250.9})),
    ("verify", _with("verify", {"seed": 1.9})),
    ("verify", _with("verify", {"corrupt_z": float("nan")})),
    ("verify", _with("verify", {"corrupt_z": float("inf")})),
    ("verify", _with("verify", {"corrupt_z": "0.1"})),
    ("solve", _with("solver", {"tau_real": float("nan")})),
    ("solve", _with("solver", {"tau_real": -1e-3})),
    ("sweep", {**BASE, "contour": {"sides": [1, 1]},
               "sweep": {"t_grid": [0.5, 1.0]}}),
], ids=["negative-seed", "sides-not-ints", "decreasing-t-grid",
        "t-grid-above-1", "semicircle-depth", "rectangle-node-cap",
        "zero-riccati-samples", "zero-lens-points", "zero-trial-count",
        "zero-boundary-points", "negative-factor-points",
        "trial-count-above-cap", "fractional-lens-points",
        "string-factor-points", "fractional-max-iter",
        "fractional-nodes-per-unit", "fractional-seed", "nan-corrupt-z",
        "infinite-corrupt-z", "string-corrupt-z", "nan-tau-real",
        "negative-tau-real", "repeated-side"])
def test_bad_config_values_exit_4(tmp_path, capsys, command, data):
    argv = [command, "--config", write_cfg(tmp_path, data)]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_solve_evaluates_variation_once_per_side(tmp_path, capsys, monkeypatch):
    # a real model's second side shares the first side's report and takes
    # the conjugate of its classification, so V0 is evaluated and the
    # spectrum classified once, for the first side requested
    import schurroots.cli as cli_mod
    import schurroots.contour as contour_mod

    calls = []
    original = contour_mod.variation

    def counting(model, contour):
        calls.append(contour.side)
        return original(model, contour)

    monkeypatch.setattr(contour_mod, "variation", counting)
    classified = _count_calls(monkeypatch, cli_mod, "classify")
    for sides in ([1, -1], [-1]):
        calls.clear()
        classified.clear()
        cfg = write_cfg(tmp_path, _with("contour", {"sides": sides}))
        code, _ = run(capsys, ["solve", "--config", cfg])
        assert code == 0
        assert calls == sides[:1]
        assert len(classified) == 1


def test_sweep_evaluates_variation_once_per_side(tmp_path, capsys, monkeypatch):
    # the t = 1 report of the prologue feeds homotopy_path, which rescales
    # it for every t of the grid; side -1 shares the report of side +1 and
    # takes its path as the conjugate of side +1's, with no tracking step
    import schurroots.contour as contour_mod
    import schurroots.rootsolver as rootsolver_mod

    calls = []
    original = contour_mod.variation

    def counting(model, contour):
        calls.append(contour.side)
        return original(model, contour)

    monkeypatch.setattr(contour_mod, "variation", counting)
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
    import schurroots.cli as cli_mod

    original = getattr(cli_mod, name)
    message = f"injected {name} failure"

    def failing(model, contour, *args, **kwargs):
        if contour.side == -1:
            raise exc_type(message)
        return original(model, contour, *args, **kwargs)

    monkeypatch.setattr(cli_mod, name, failing)
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, BASE)])
    assert code == 3
    rows = {r["name"]: r for r in json.loads(out)["identities"]}
    assert len(rows) == 19
    assert {n for n, r in rows.items() if not r["passed"]} == failed
    for n in failed:
        assert rows[n]["note"] == message
        assert rows[n]["residual"] == "inf"


def test_verify_counts_variation_and_quadratures(tmp_path, capsys, monkeypatch):
    # one V0, shared by the mirrored side -1 contour of this real model,
    # and 12 adaptive quadratures: Gram and B^*Y (2 per
    # side), the deformed Omega, the norm-ceiling integral and the two
    # stacked J-orthogonality pairings (1, 1 and 2 per side). Each side's
    # Omega is one contour sum, read by every row that needs it.
    import schurroots.contour as contour_mod
    import schurroots.riccati as riccati_mod

    variations, quads = [], []
    original_variation = contour_mod.variation
    original_quad = riccati_mod.adaptive_quad

    def counting_variation(model, contour):
        variations.append(contour.side)
        return original_variation(model, contour)

    def counting_quad(*args, **kwargs):
        quads.append(1)
        return original_quad(*args, **kwargs)

    monkeypatch.setattr(contour_mod, "variation", counting_variation)
    monkeypatch.setattr(riccati_mod, "adaptive_quad", counting_quad)
    sandwiches = _count_calls(monkeypatch, riccati_mod, "sandwich_sum")
    code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, BASE)])
    assert code == 0
    assert json.loads(out)["all_identities_pass"] is True
    assert variations == [1]
    assert len(quads) == 12
    assert len(sandwiches) == 2


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


def test_report_path_from_config(tmp_path, capsys):
    data = dict(BASE)
    data["output"] = {"report": str(tmp_path / "via_cfg.json")}
    cfg = write_cfg(tmp_path, data)
    code, _ = run(capsys, ["solve", "--config", cfg])
    assert code == 0
    rep = json.loads((tmp_path / "via_cfg.json").read_text())
    assert rep["status"] == "ok"


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_one_inadmissible_side_marks_the_report(tmp_path, capsys, monkeypatch,
                                                command):
    # only side -1 fails admissibility: the report is inadmissible and
    # shows side -1's block, the command exits 2 with no traceback. A real
    # model's side -1 shares the report of side +1, so the model is taken
    # as complex here to evaluate side -1 on its own.
    import schurroots.cli as cli_mod

    monkeypatch.setattr(SpectralModel, "is_real", property(lambda self: False))

    original = cli_mod.admissibility

    def one_side_fails(model, contour, *args):
        rep = original(model, contour, *args)
        if contour.side == -1:
            rep = cli_mod.admissibility_at(rep.distance ** 2, rep.distance)
        return rep

    monkeypatch.setattr(cli_mod, "admissibility", one_side_fails)
    argv = [command, "--config", write_cfg(tmp_path, _with("sweep", {"t_grid": [0.5, 1.0]}))]
    if command == "sweep":
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    rep = json.loads(captured.out)
    assert rep["status"] == "inadmissible"
    assert rep["admissibility"]["admissible"] is False
    assert "solutions" not in rep
    assert not (tmp_path / "t.csv").exists()


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
    import schurroots.cli as cli_mod

    for data in (BASE, _zoo_config(model_zoo)):
        calls = _count_calls(monkeypatch, cli_mod, "transformator")
        code, out = run(capsys, ["verify", "--config", write_cfg(tmp_path, data)])
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["identities"]}
        assert rows["root-contour"]["passed"]
        assert len(calls) == 2


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


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("depth", [4.0, 5.0])
def test_deep_rectangle_keeps_the_exit_code_contract(tmp_path, capsys, command,
                                                     depth):
    # at 0.5 depth >= hi - lo the depth family is empty: r0 is the
    # configured rectangle's r_min, as for a semicircle
    data = {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[0.05]]]},
            "contour": {"kind": "rectangle", "depth": depth, "sides": [1]}}
    code = main([command, "--config", write_cfg(tmp_path, data)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in captured.err
    rep = json.loads(captured.out)
    if rep["status"] == "ok":
        adm = rep["admissibility"]
        assert adm["r0_upper_bound"] == adm["r_min"]


def test_density_is_checked_by_verify_only(tmp_path, capsys, monkeypatch):
    # solve and sweep never evaluate the density margin; verify does once,
    # as its last row
    import schurroots.cli as cli_mod
    import schurroots.model as model_mod

    in_cli = _count_calls(monkeypatch, cli_mod, "density_margin")
    in_model = _count_calls(monkeypatch, model_mod, "density_margin")
    cfg = write_cfg(tmp_path, _with("sweep", {"t_grid": [0.5, 1.0]}))
    assert run(capsys, ["solve", "--config", cfg])[0] == 0
    assert run(capsys, ["sweep", "--config", cfg,
                        "--out-csv", str(tmp_path / "t.csv")])[0] == 0
    assert in_cli == [] and in_model == []
    code, out = run(capsys, ["verify", "--config", cfg])
    assert code == 0
    assert len(in_cli) + len(in_model) == 1
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
