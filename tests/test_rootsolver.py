"""Fixed-point root solver, classification, and the coupling homotopy.

Independent oracle for the scalar reference model: bisection on
f(y) = y - 2 b^2 arctan(alpha / y), which is strictly increasing from
negative values at 0+ to positive values at b^2 pi. The frozen root for
alpha = 1, b = 0.2 is below; the generic solver must land on -i y (side
+1) and +i y (side -1).
"""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import logm

import schurroots as sr
from schurroots import rootsolver
from schurroots.errors import AdmissibilityError
from schurroots.rootsolver import RootSolution, _PicardMap, transformator

from conftest import wide_models

Y_ORACLE = 0.11639390461355939


def bisect_y(alpha, b, lo=1e-12, hi=None, steps=200):
    hi = hi if hi is not None else b * b * np.pi + 1e-9
    f = lambda y: y - 2 * b * b * np.arctan(alpha / y)
    assert f(lo) < 0 < f(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_frozen_oracle_value():
    assert abs(bisect_y(1.0, 0.2) - Y_ORACLE) < 1e-14


def test_scalar_root_both_sides(friedrichs_model, friedrichs_contours):
    for side in (1, -1):
        sol = sr.solve_basic(friedrichs_model, friedrichs_contours[side])
        expect = -1j * side * Y_ORACLE
        assert abs(sol.z_op[0, 0] - expect) < 1e-9
        assert sol.residual < 1e-11
        assert np.linalg.norm(sol.x, 2) <= sol.r_min + 1e-9


def test_picard_contraction(friedrichs_model, friedrichs_contours):
    # manual iteration through the public transformator
    c = friedrichs_contours[1]
    a1 = friedrichs_model.a1.astype(np.complex128)
    x = np.zeros((1, 1), dtype=np.complex128)
    steps = []
    for _ in range(12):
        x_new = transformator(friedrichs_model, c, a1 + x)
        steps.append(np.linalg.norm(x_new - x, 2))
        x = x_new
    ratios = [steps[k + 1] / steps[k] for k in range(1, len(steps) - 1)]
    assert all(r <= 0.95 for r in ratios)
    # and the limit agrees with solve_basic
    sol = sr.solve_basic(friedrichs_model, c)
    assert abs(x[0, 0] - sol.x[0, 0]) < 1e-10


def test_fixed_point_property(zoo_solutions):
    for model, contours, sols in zoo_solutions[:6]:
        for side in (1, -1):
            sol = sols[side]
            fx = transformator(model, contours[side], model.a1 + sol.x)
            assert np.linalg.norm(fx - sol.x, 2) < 1e-10


def test_contour_independence(friedrichs_model, friedrichs_contours):
    rect = sr.make_contour(friedrichs_model, 1, kind="rectangle", depth=0.9)
    s_semi = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    s_rect = sr.solve_basic(friedrichs_model, rect)
    assert np.max(np.abs(s_semi.z_op - s_rect.z_op)) < 1e-8


def test_conjugate_symmetry(zoo_solutions):
    for model, contours, sols in zoo_solutions:
        assert np.max(np.abs(sols[-1].x - np.conj(sols[1].x))) < 1e-8


def test_root_property(zoo_solutions):
    # every eigenpair of Z annihilates the continued Schur complement
    for model, contours, sols in zoo_solutions[:6]:
        for side in (1, -1):
            sol = sols[side]
            vals, vecs = np.linalg.eig(sol.z_op)
            for k, lam in enumerate(vals):
                m1 = sr.m1_continued(model, contours[side], complex(lam))
                assert np.linalg.norm(m1 @ vecs[:, k]) <= 1e-7


def test_solution_record_fields(friedrichs_model, friedrichs_contours):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    assert sol.side == 1
    assert sol.coupling_scale == 1.0
    assert sol.iterations > 1
    assert 0 < sol.r_min < sol.r_max
    assert sol.final_step_norm < 1e-12 * max(1.0, np.linalg.norm(sol.x, 2))
    assert np.max(np.abs(sol.eigenvalues()
                         - np.sort_complex(np.linalg.eigvals(sol.z_op)))) == 0


def test_t_validation(friedrichs_model, friedrichs_contours):
    with pytest.raises(ValueError):
        sr.solve_basic(friedrichs_model, friedrichs_contours[1], t=1.5)
    with pytest.raises(ValueError):
        sr.solve_basic(friedrichs_model, friedrichs_contours[1], t=-0.1)


def test_zero_coupling_real_labels(friedrichs_model, friedrichs_contours):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1], t=0.0)
    assert np.max(np.abs(sol.x)) == 0.0
    cls = sr.classify(friedrichs_model, friedrichs_contours[1], sol)
    assert [e.label for e in cls.entries] == ["real"]


def test_classify_scalar(friedrichs_model, friedrichs_contours):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    cls = sr.classify(friedrichs_model, friedrichs_contours[1], sol)
    assert cls.count("physical-complex") == 1
    entry = cls.entries[0]
    assert entry.multiplicity == 1
    assert entry.physical_residual < 1e-9


def _fake_solution(z, side):
    z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    return RootSolution(side=side, x=z.copy(), z_op=z, coupling_scale=1.0,
                        iterations=1, final_step_norm=0.0, r_min=0.5,
                        r_max=0.8, residual=0.0)


def test_classify_labels(friedrichs_model, friedrichs_contours):
    cases = [
        (0.1 + 0.05j, 1, "resonance"),
        (0.1 - 0.05j, 1, "physical-complex"),
        (0.1 - 0.05j, -1, "resonance"),
        (0.1 + 1e-12j, 1, "real"),
    ]
    for z, side, expect in cases:
        sol = _fake_solution([[z]], side)
        cls = sr.classify(friedrichs_model, friedrichs_contours[side], sol)
        assert [e.label for e in cls.entries] == [expect], (z, side)


def test_classify_multiplicity(friedrichs_model, friedrichs_contours):
    z = np.diag([0.1 + 0.2j, 0.1 + 0.2j + 1e-13, -0.3 + 0.1j])
    sol = _fake_solution(z, 1)
    cls = sr.classify(friedrichs_model, friedrichs_contours[1], sol)
    mults = sorted(e.multiplicity for e in cls.entries)
    assert mults == [1, 2]
    assert sum(e.multiplicity for e in cls.entries) == 3


def test_classify_residuals_follow_their_labels(friedrichs_model,
                                                friedrichs_contours):
    # one batched M1 evaluation serves every physical-complex entry, each
    # with its own point's residual, and the other entries get None
    z = np.diag([0.1 - 0.05j, 0.2 + 0.1j, -0.3 - 0.2j])
    cls = sr.classify(friedrichs_model, friedrichs_contours[1], _fake_solution(z, 1))
    labels = [e.label for e in cls.entries]
    assert labels.count("physical-complex") == 2 and labels.count("resonance") == 1
    for e in cls.entries:
        if e.label == "physical-complex":
            m1 = sr.m1_physical(friedrichs_model, e.eigenvalue)
            assert e.physical_residual == np.linalg.svd(m1, compute_uv=False)[-1]
        else:
            assert e.physical_residual is None


def test_classify_side_mismatch(friedrichs_model, friedrichs_contours):
    sol = _fake_solution([[0.1j]], 1)
    with pytest.raises(ValueError):
        sr.classify(friedrichs_model, friedrichs_contours[-1], sol)


def test_homotopy_trajectories(friedrichs_model, friedrichs_contours):
    grid = [0.1, 0.3, 0.5, 0.8, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the smooth path must not warn
        path = sr.homotopy_path(friedrichs_model, friedrichs_contours[1], grid)
    assert [t for t, _, _ in path] == grid
    lam_prev = None
    for t, sol, cls in path:
        assert len(cls.entries) == 1
        lam = cls.entries[0].eigenvalue
        assert cls.entries[0].label == "physical-complex"
        assert lam.imag < 0  # side +1 root stays in the lower half-plane
        if lam_prev is not None:
            assert abs(lam - lam_prev) < 0.12
        lam_prev = lam
    # endpoint agrees with the direct solve
    end = path[-1][1]
    direct = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    assert np.max(np.abs(end.z_op - direct.z_op)) < 1e-10


def test_homotopy_scaled_warm_start(model_zoo):
    # starting each t at X(t_prev) (t / t_prev)^2 takes fewer Picard
    # iterations than starting at X(t_prev), to the same roots within the
    # Picard tolerance
    grid = [k / 8 for k in range(1, 9)]
    for model in model_zoo[:4] + wide_models(1, 2):
        contour = sr.make_contour(model, 1)
        base = sr.admissibility(model, contour)
        path = sr.homotopy_path(model, contour, grid, report=base)
        x = np.zeros((model.n, model.n), dtype=np.complex128)
        unscaled = 0
        for t, sol, _ in path:
            rep = sr.admissibility_at(base.variation, base.distance, t)
            ref = rootsolver._picard(model, contour, rep, t, 1e-12, 500, x)
            x = ref.x
            unscaled += ref.iterations
            assert np.linalg.norm(sol.x - ref.x, 2) <= 1e-12 * np.linalg.norm(ref.x, 2)
        assert sum(sol.iterations for _, sol, _ in path) < unscaled


def test_homotopy_validation(friedrichs_model, friedrichs_contours):
    c = friedrichs_contours[1]
    with pytest.raises(ValueError):
        sr.homotopy_path(friedrichs_model, c, [])
    with pytest.raises(ValueError):
        sr.homotopy_path(friedrichs_model, c, [0.5, 0.5])
    with pytest.raises(ValueError):
        sr.homotopy_path(friedrichs_model, c, [0.5, 1.2])


def test_homotopy_inadmissible():
    model = sr.build_model((-1.0, 1.0), [[0.0]], [[[np.sqrt(0.1)]]])
    c = sr.make_contour(model, 1)
    with pytest.raises(AdmissibilityError):
        sr.homotopy_path(model, c, [0.5, 1.0])
    # small couplings on the same model are fine
    path = sr.homotopy_path(model, c, [0.2, 0.4])
    assert len(path) == 2


def _count_variation(monkeypatch):
    calls = []
    original = sr.contour.variation

    def counting(model, contour):
        calls.append(contour)
        return original(model, contour)

    monkeypatch.setattr(sr.contour, "variation", counting)
    return calls


def test_homotopy_evaluates_variation_once(monkeypatch, friedrichs_model,
                                           friedrichs_contours):
    calls = _count_variation(monkeypatch)
    grid = np.linspace(0.3, 1.0, 8)
    for side in (1, -1):
        path = sr.homotopy_path(friedrichs_model, friedrichs_contours[side], grid)
        assert len(path) == 8
    assert [c.side for c in calls] == [1, -1]


def test_solve_basic_reuses_report(monkeypatch, friedrichs_model,
                                   friedrichs_contours):
    c = friedrichs_contours[1]
    rep = sr.admissibility(friedrichs_model, c, 0.8)
    calls = _count_variation(monkeypatch)
    reused = sr.solve_basic(friedrichs_model, c, 0.8, report=rep)
    assert calls == []
    fresh = sr.solve_basic(friedrichs_model, c, 0.8)
    assert len(calls) == 1
    assert np.array_equal(reused.x, fresh.x)
    bad = sr.admissibility_at(rep.variation, rep.distance, 10.0)
    with pytest.raises(AdmissibilityError):
        sr.solve_basic(friedrichs_model, c, 0.8, report=bad)


def test_transformator_gap_guard(friedrichs_model, friedrichs_contours):
    c = friedrichs_contours[1]
    node = complex(c.nodes[len(c.nodes) // 2])
    with pytest.raises(sr.NumericsError):
        transformator(friedrichs_model, c, np.array([[node]]))


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported lazily by the homotopy pairing only
    src = os.path.dirname(os.path.dirname(sr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, schurroots; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def logm_picard_map(model, side, z, t=1.0):
    """t^2 sum_s C_s g_s(Z) with the matrix functions taken directly:
    q_s(Z) by matrix Horner and the logarithms by scipy.linalg.logm."""
    a, b = model.interval
    eye = np.eye(z.shape[0])
    log = logm(b * eye - z) - logm(z - a * eye) - 1j * np.pi * side * eye
    out = np.zeros_like(z, dtype=np.complex128)
    q = np.zeros_like(out)
    zp = eye.astype(np.complex128)
    for s, c in enumerate(model.kprime.coefficients * (t * t)):
        out += c @ (q + zp @ log)
        q = z @ q + (b ** (s + 1) - a ** (s + 1)) / (s + 1) * eye
        zp = zp @ z
    return out


def test_closed_map_matches_logm_reference(model_zoo):
    # at each converged root, on both contour kinds: the eigenbasis (n >= 2)
    # and scalar (n = 1) evaluations against an independent matrix-function
    # route; the contour sum itself only reaches about 2e-14 here
    worst = 0.0
    for model in model_zoo + wide_models(1):
        for kind, depth in (("semicircle", None), ("rectangle", 0.5)):
            for side in (1, -1):
                contour = sr.make_contour(model, side, kind, depth)
                sol = sr.solve_basic(model, contour)
                assert sol.contour_fallbacks == 0
                ref = logm_picard_map(model, side, sol.z_op)
                got = _PicardMap(model, contour, 1.0)(sol.z_op)
                worst = max(worst, np.linalg.norm(got - ref, 2)
                            / np.linalg.norm(ref, 2))
    assert worst <= 1e-14, worst


def test_closed_form_root_is_contour_free(friedrichs_model, zoo_solutions):
    # the closed map reads the contour only through its side: a semicircle
    # and a rectangle give the same root, bit for bit, and the scalar path
    # lands on the Friedrichs oracle up to the Picard stopping error
    for side in (1, -1):
        semi = sr.solve_basic(friedrichs_model, sr.make_contour(friedrichs_model, side))
        rect = sr.solve_basic(friedrichs_model, sr.make_contour(
            friedrichs_model, side, "rectangle", 0.9))
        assert np.array_equal(semi.x, rect.x)
        assert abs(semi.z_op[0, 0] - (-1j * side * Y_ORACLE)) <= 1e-13
        tight = sr.solve_basic(friedrichs_model, sr.make_contour(friedrichs_model, side),
                               tol=1e-15)
        assert abs(tight.z_op[0, 0] - (-1j * side * Y_ORACLE)) <= 1e-15
    for model, contours, sols in zoo_solutions[:6]:
        rect = sr.make_contour(model, 1, "rectangle", 0.5)
        assert np.array_equal(sr.solve_basic(model, rect).x, sols[1].x)


def test_contour_sum_reproduces_closed_form_root(friedrichs_model, zoo_solutions):
    # solve no longer touches the contour, so the contour sum on either kind
    # is an independent check of the root it returns
    cases = [(friedrichs_model, 0.9)] + [(m, 0.5) for m, _, _ in zoo_solutions]
    worst = 0.0
    for model, depth in cases:
        for side in (1, -1):
            sol = sr.solve_basic(model, sr.make_contour(model, side))
            for kind, d in (("semicircle", None), ("rectangle", depth)):
                w = transformator(model, sr.make_contour(model, side, kind, d), sol.z_op)
                worst = max(worst, np.linalg.norm(w - sol.x, 2))
    assert worst <= 1e-12, worst


def _outside_model():
    # sigma1 = {1.5} lies right of the interval; admissible on both sides
    return sr.build_model((-1.0, 1.0), [[1.5]], [[[0.05]]])


@pytest.mark.parametrize("case", ["near-defective", "outside-lens", "real-off-interval",
                                  "one-of-two-outside-lens"])
def test_map_falls_back_to_the_contour_sum(model_zoo, case):
    # where the closed form does not apply, the map is the contour sum
    if case == "near-defective":
        # an eigenvector matrix with cond(V) ~ 1e9
        model = next(m for m in model_zoo if m.n == 2)
        lam = 0.1 + 0.05j
        z = np.array([[lam, 1.0], [0.0, lam + 1e-9]])
    elif case == "one-of-two-outside-lens":
        # a well-conditioned Z whose first eigenvalue the moments cover (the
        # other half-plane) and whose second lies beyond the semicircle
        model = next(m for m in model_zoo if m.n == 2)
        z = np.diag([0.1 - 0.05j, 1.5 + 1e-3j])
    else:
        # the side-l moments would jump by 2 pi i on these points
        model = _outside_model()
        z = np.array([[1.5 + 1e-3j if case == "outside-lens" else 1.5 + 0j]])
    contour = sr.make_contour(model, 1)
    step_map = _PicardMap(model, contour, 1.0)
    got = step_map(z)
    assert step_map.fallbacks == 1
    assert np.array_equal(got, transformator(model, contour, z))


def test_fallback_steps_are_counted(monkeypatch, model_zoo):
    model = next(m for m in model_zoo if m.n == 2)
    contour = sr.make_contour(model, 1)
    closed = sr.solve_basic(model, contour)
    assert closed.contour_fallbacks == 0
    monkeypatch.setattr(rootsolver, "_COND_LIMIT", 0.0)
    summed = sr.solve_basic(model, contour)
    # every step plus the residual check took the contour sum
    assert summed.contour_fallbacks == summed.iterations + 1
    assert summed.iterations == closed.iterations
    assert np.linalg.norm(summed.x - closed.x, 2) <= 1e-13 * np.linalg.norm(closed.x, 2)
    # sigma1 outside the interval: the first step (Z = A1, real) falls back
    outside = _outside_model()
    for side in (1, -1):
        sol = sr.solve_basic(outside, sr.make_contour(outside, side))
        assert sol.contour_fallbacks >= 1
        fx = transformator(outside, sr.make_contour(outside, side), sol.z_op)
        assert np.linalg.norm(fx - sol.x, 2) <= 1e-12


def reference_picard(model, contour, rep, t, tol, max_iter, x0):
    """The Picard loop with every test on spectral norms (one SVD each):
    (iterations, final step norm, X), or the NumericsError message."""
    step_map = _PicardMap(model, contour, t)
    a1 = model.a1.astype(np.complex128)
    x = np.asarray(x0, dtype=np.complex128).copy()
    step = np.inf
    for it in range(1, max_iter + 1):
        xn = step_map(a1 + x)
        step = float(np.linalg.norm(xn - x, 2))
        x = xn
        norm_x = float(np.linalg.norm(x, 2))
        if norm_x > rep.r_max + 1e-9:
            return (f"iterate escaped the r_max ball "
                    f"({norm_x:.6g} > {rep.r_max:.6g})")
        if step <= tol * max(1.0, norm_x):
            return it, step, x
    return f"no convergence in {max_iter} iterations (step {step:.3e})"


def _picard_outcome(model, contour, rep, t, tol, max_iter, x0):
    try:
        sol = rootsolver._picard(model, contour, rep, t, tol, max_iter, x0)
    except sr.NumericsError as exc:
        return str(exc)
    return sol.iterations, sol.final_step_norm, sol.x


def _same_outcome(got, ref):
    if isinstance(ref, str):
        return got == ref
    return (not isinstance(got, str) and got[0] == ref[0] and got[1] == ref[1]
            and got[2].tobytes() == ref[2].tobytes())


def test_picard_norm_certificates_match_spectral_norm_tests(model_zoo,
                                                             friedrichs_model):
    # the Frobenius-bound tests make the decisions the spectral norms make:
    # the same iterations, final step norm and X, bit for bit, on the zoo
    # (cold start at t = 1 and the warm-started grid of the sweep) and on
    # the wide-sweep models of seeds 1 and 2 along that grid
    t_grid = [k / 8 for k in range(1, 9)]
    cases = 0

    def check(model, contour, base, t, x0):
        nonlocal cases
        rep = sr.admissibility_at(base.variation, base.distance, t)
        ref = reference_picard(model, contour, rep, t, 1e-12, 500, x0)
        assert not isinstance(ref, str), ref
        got = _picard_outcome(model, contour, rep, t, 1e-12, 500, x0)
        assert _same_outcome(got, ref), (got, ref)
        cases += 1
        return ref[2]

    for model in [friedrichs_model] + model_zoo + wide_models(1, 2):
        contour = sr.make_contour(model, 1)
        base = sr.admissibility(model, contour)
        zero = np.zeros((model.n, model.n), dtype=np.complex128)
        if model.n < 4:
            check(model, contour, base, 1.0, zero)
        x0, t_prev = zero, None
        for t in t_grid:
            x0 = check(model, contour, base, t, x0 * (t / t_prev) ** 2 if t_prev else x0)
            t_prev = t
    assert cases == 21 * 9 + 6 * 8


@pytest.mark.parametrize("tol, max_iter, r_max", [
    (1e-12, 3, None), (1e-12, 500, 0.05)],
    ids=["few-iterations", "small-r-max"])
def test_picard_failures_match_spectral_norm_tests(friedrichs_model,
                                                   friedrichs_contours,
                                                   tol, max_iter, r_max):
    # no convergence and the r_max escape raise with the messages of the
    # spectral norm tests
    contour = friedrichs_contours[1]
    rep = sr.admissibility(friedrichs_model, contour)
    if r_max is not None:
        rep = dataclasses.replace(rep, r_max=r_max)
    x0 = np.zeros((1, 1), dtype=np.complex128)
    ref = reference_picard(friedrichs_model, contour, rep, 1.0, tol, max_iter, x0)
    assert isinstance(ref, str)
    assert _picard_outcome(friedrichs_model, contour, rep, 1.0, tol, max_iter,
                           x0) == ref
