"""Acceptance gate.

Eight criteria, one test (and one printed pass/fail line) per criterion.
Criterion 4 runs the full identity battery on the scalar reference model
plus the twenty random admissible models from the zoo, both sides each.
"""

import json

import numpy as np
import pytest

import schurroots as sr
import schurroots.friedrichs as fr
from schurroots.cli import main
from schurroots.identities import identity_table

Y_ORACLE = 0.11639390461355939
R_MIN_ORACLE = 0.14738648089387119
R_MAX_ORACLE = 0.6455092298188968

IDENTITY_ROWS_4 = {
    "a": ("sheets-crosspath",),
    "b": ("factorization", "factor-conditioning"),
    "c": ("omega-bound", "omega-adjoint", "omega-two-path"),
    "d": ("projection-inverse", "moment-similarity", "root-reconstruction"),
    "e": ("root-contour", "root-equation", "riccati-pointwise",
          "riccati-adjoint"),
    "f": ("boundary-imag",),
    "g": ("j-orthogonality",),
}


def _line(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


@pytest.fixture(scope="module")
def suite(friedrichs_model, model_zoo):
    """Identity tables for all 21 models, computed once."""
    out = []
    for tag, model in [("friedrichs", friedrichs_model)] + [
            (f"zoo[{k}]", m) for k, m in enumerate(model_zoo)]:
        contours = {s: sr.make_contour(model, s) for s in (1, -1)}
        roots = {s: sr.solve_basic(model, contours[s]) for s in (1, -1)}
        rows, rics, clss = identity_table(roots, 417)
        out.append({"tag": tag, "model": model, "contours": contours,
                    "rows": {r["name"]: r for r in rows}, "sols": roots,
                    "rics": rics, "clss": clss})
    return out


def test_criterion_1_oracle_root(friedrichs_model, friedrichs_contours):
    worst = 0.0
    for side in (1, -1):
        sol = sr.solve_basic(friedrichs_model, friedrichs_contours[side])
        worst = max(worst, abs(sol.z_op[0, 0] - (-1j * side * Y_ORACLE)))
        assert np.linalg.norm(sol.x, 2) <= sol.report.r_min
        assert abs(sol.report.r_min - R_MIN_ORACLE) <= 1e-12
        assert abs(sol.report.r_max - R_MAX_ORACLE) <= 1e-12
    ok = worst <= 1e-9
    _line(1, ok, f"closed-form root reproduced, |dz| = {worst:.3e} <= 1e-9, "
                 f"radii frozen to 1e-12")
    assert ok


def test_criterion_2_angular_norm(friedrichs_model, friedrichs_contours):
    worst = 0.0
    present = True
    for side in (1, -1):
        sol = sr.solve_basic(friedrichs_model, friedrichs_contours[side])
        ric = sr.compute_Y(sol)
        worst = max(worst, abs(ric.y_norm - 1.0))
        present = present and sr.check_one_in_spectrum(ric).present
    ok = worst <= 1e-8 and present
    _line(2, ok, f"|‖Y‖ - 1| = {worst:.3e} <= 1e-8 and 1-in-spectrum verdict "
                 f"present on both sides")
    assert ok


def test_criterion_3_norm_floor_and_ceiling(suite):
    worst_floor = 0.0
    worst_ceiling = 0.0
    for entry in suite[1:]:  # the twenty random models
        for side in (1, -1):
            labels = [e.label for e in entry["clss"][side].entries]
            assert "real" not in labels, (entry["tag"], labels)
            rf = entry["rows"]["y-norm-floor"]["residual"]
            rc = entry["rows"]["y-norm-ceiling"]["residual"]
            worst_floor = max(worst_floor, rf)
            worst_ceiling = max(worst_ceiling, rc)
    ok = worst_floor <= 1e-8 and worst_ceiling <= 1e-8
    _line(3, ok, f"20 models: ‖Y‖ >= 1 (slack {worst_floor:.3e}) and "
                 f"‖Y‖^2 <= mode-sum integral (slack {worst_ceiling:.3e})")
    assert ok


def test_criterion_4_identity_suite(suite):
    failures = []
    for entry in suite:
        for part, names in IDENTITY_ROWS_4.items():
            for name in names:
                row = entry["rows"][name]
                if not row["passed"]:
                    failures.append((entry["tag"], part, name,
                                     row["residual"]))
    ok = not failures
    _line(4, ok, "sheets/factorization/Omega/reconstruction/Riccati/boundary/"
                 f"J-orthogonality identities on 21 models x 2 sides"
                 + (f"; failures: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_5_localization(suite):
    worst = -np.inf
    for entry in suite:
        worst = max(worst, entry["rows"]["localization"]["residual"])
    ok = worst <= 1e-9
    _line(5, ok, f"spec(Z) inside the r_min-neighborhood of sigma1, "
                 f"max overshoot {worst:.3e} <= 1e-9")
    assert ok


def test_criterion_6_feshbach_classification(suite, friedrichs_model,
                                             friedrichs_contours, model_zoo):
    # semiboundedness gate holds for every suite model by construction
    for entry in suite:
        model = entry["model"]
        region = np.linspace(*model.interval, 201)
        assert sr.check_semibounded_density(model, region, 1e-7).passed
        for side in (1, -1):
            labels = [e.label for e in entry["clss"][side].entries]
            assert labels.count("real") == 0, (entry["tag"], labels)
            assert labels.count("resonance") == 0, (entry["tag"], labels)

    # homotopy trajectories stay clear of the real band for t > 0
    grid = [0.25, 0.5, 0.75, 1.0]
    min_gap = np.inf
    cases = [(friedrichs_model, friedrichs_contours[1])]
    for model in model_zoo[:3]:
        cases.append((model, sr.make_contour(model, 1)))
    for model, contour in cases:
        tau = 1e-8 * (1.0 + np.linalg.norm(model.a1, 2))
        for t, _, cls in sr.homotopy_path(model, contour, grid):
            for e in cls.entries:
                assert e.label == "physical-complex", (t, e)
                min_gap = min(min_gap, abs(e.eigenvalue.imag) / tau)
    ok = min_gap > 1.0
    _line(6, ok, f"zero real/resonance labels; homotopy stays "
                 f"{min_gap:.1f}x tau_real away from the band")
    assert ok


def test_criterion_7_contour_independence(suite):
    worst_family = 0.0
    worst_conj = 0.0
    for entry in suite:
        model = entry["model"]
        depth = 0.9 if model is suite[0]["model"] else 0.5
        rect = sr.make_contour(model, 1, kind="rectangle", depth=depth)
        sol_rect = sr.solve_basic(model, rect)
        worst_family = max(worst_family, float(np.max(np.abs(
            sol_rect.z_op - entry["sols"][1].z_op))))
        worst_conj = max(worst_conj, float(np.max(np.abs(
            entry["sols"][-1].x - np.conj(entry["sols"][1].x)))))
    ok = worst_family <= 1e-8 and worst_conj <= 1e-8
    _line(7, ok, f"semicircle vs rectangle {worst_family:.3e} <= 1e-8; "
                 f"conjugate symmetry {worst_conj:.3e} <= 1e-8")
    assert ok


def test_criterion_8_beyond_contraction(tmp_path, capsys):
    b = float(np.sqrt(0.1))
    cfg = tmp_path / "strong.json"
    cfg.write_text(json.dumps(
        {"model": {"interval": [-1.0, 1.0], "a1": [[0.0]], "b": [[[b]]]}}))
    code = main(["solve", "--config", str(cfg)])
    capsys.readouterr()
    params = fr.FriedrichsParams(1.0, b)
    zp, zm, _, _ = fr.oracle_solution(params)
    resid = max(abs(fr.closed_m1(params, zp)), abs(fr.closed_m1(params, zm)))
    ok = code == 2 and resid <= 1e-12
    _line(8, ok, f"generic solver refuses (exit {code}); closed-form root "
                 f"residual {resid:.3e} <= 1e-12")
    assert ok
