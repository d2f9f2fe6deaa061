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
from schurroots._kernels import spectral_norms
from schurroots.errors import AdmissibilityError, NumericsError
from schurroots.rootsolver import (_COND_LIMIT, RootSolution, _cond_within, _PicardMap,
                                   transformator)
from schurroots.schur import _cut_quotients_at

from conftest import BCOUP, EP_B, RECT_DEPTH, hard_models, wide_models

Y_ORACLE = 0.11639390461355939
EPS = np.finfo(np.float64).eps


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
        assert np.linalg.norm(sol.x, 2) <= sol.report.r_min + 1e-9


def _contour_sum(model, contour, z):
    # transformator with the spectrum of z taken here
    return transformator(model, contour, z, np.linalg.eigvals(z))


def test_picard_contraction(friedrichs_model, friedrichs_contours):
    # manual iteration through the public transformator
    c = friedrichs_contours[1]
    a1 = friedrichs_model.a1.astype(np.complex128)
    x = np.zeros((1, 1), dtype=np.complex128)
    steps = []
    for _ in range(12):
        x_new = _contour_sum(friedrichs_model, c, a1 + x)
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
            fx = _contour_sum(model, contours[side], model.a1 + sol.x)
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
    # the root carries what it was solved from; at t = 1 the scaled model
    # is the model itself
    assert sol.model is friedrichs_model and sol.contour is friedrichs_contours[1]
    assert sol.report == sr.admissibility(friedrichs_model, friedrichs_contours[1])
    assert 0 < sol.report.r_min < sol.report.r_max
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
    cls = sr.classify(sol)
    assert [e.label for e in cls.entries] == ["real"]


def test_classify_scalar(friedrichs_model, friedrichs_contours):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    cls = sr.classify(sol)
    assert cls.count("physical-complex") == 1
    entry = cls.entries[0]
    assert entry.multiplicity == 1
    assert entry.physical_residual < 1e-9


def _fake_solution(z, model, contour):
    z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    return RootSolution(x=z.copy(), z_op=z, model=model, contour=contour,
                        report=sr.admissibility(model, contour),
                        coupling_scale=1.0, iterations=1, final_step_norm=0.0,
                        residual=0.0)


def test_classify_labels(friedrichs_model, friedrichs_contours):
    cases = [
        (0.1 + 0.05j, 1, "resonance"),
        (0.1 - 0.05j, 1, "physical-complex"),
        (0.1 - 0.05j, -1, "resonance"),
        (0.1 + 1e-12j, 1, "real"),
    ]
    for z, side, expect in cases:
        sol = _fake_solution([[z]], friedrichs_model, friedrichs_contours[side])
        cls = sr.classify(sol)
        assert [e.label for e in cls.entries] == [expect], (z, side)


def test_classify_multiplicity(friedrichs_model, friedrichs_contours):
    z = np.diag([0.1 + 0.2j, 0.1 + 0.2j + 1e-13, -0.3 + 0.1j])
    sol = _fake_solution(z, friedrichs_model, friedrichs_contours[1])
    cls = sr.classify(sol)
    mults = sorted(e.multiplicity for e in cls.entries)
    assert mults == [1, 2]
    assert sum(e.multiplicity for e in cls.entries) == 3


def test_classify_residuals_follow_their_labels():
    # for n >= 3 one batched M1 evaluation serves every physical-complex
    # entry, each with its own point's residual, and the other entries get
    # None
    model = sr.build_model((-1.0, 1.0), np.diag([-0.6, 0.0, 0.6]).tolist(),
                           [(0.05 * np.eye(3)).tolist()])
    z = np.diag([0.1 - 0.05j, 0.2 + 0.1j, -0.3 - 0.2j])
    cls = sr.classify(_fake_solution(z, model, sr.make_contour(model, 1)))
    labels = [e.label for e in cls.entries]
    assert labels.count("physical-complex") == 2 and labels.count("resonance") == 1
    for e in cls.entries:
        if e.label == "physical-complex":
            m1 = sr.m1_physical(model, np.array([e.eigenvalue]))[0]
            assert e.physical_residual == np.linalg.svd(m1, compute_uv=False)[-1]
        else:
            assert e.physical_residual is None


def _mp_m1_singular_values(model, lam):
    """(sigma_min, sigma_max) of the physical-sheet M1(lam) = a1 - lam +
    sum_s g_s(lam) C_s in 50-digit arithmetic, from the model's floats and
    the point, with the moments g_s(z) = z^s Log((b - z)/(a - z)) + sum_{j=1
    .. s} z^(s-j) (b^j - a^j)/j."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = (mpmath.mpf(v) for v in model.interval)
        z = mpmath.mpc(lam.real, lam.imag)
        log = mpmath.log((b - z) / (a - z))
        coeffs = model.kprime.coefficients
        moments = [z ** s * log + sum(z ** (s - j) * (b ** j - a ** j) / j
                                      for j in range(1, s + 1))
                   for s in range(coeffs.shape[0])]
        n = model.n
        m1 = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                m1[i, j] = (mpmath.mpc(complex(model.a1[i, j])) - (z if i == j else 0)
                            + sum(g * mpmath.mpc(complex(c))
                                  for g, c in zip(moments, coeffs[:, i, j])))
        svals = mpmath.svd_c(m1, compute_uv=False)
        svals = [svals[k] for k in range(n)]
        return float(min(svals)), float(max(svals))


def _small_models(friedrichs_model, model_zoo):
    return ([friedrichs_model] + model_zoo
            + [model for _, model in hard_models() if model.n <= 2])


def test_small_physical_residual_against_mpmath(friedrichs_model, model_zoo):
    # for n <= 2 the residual is sigma_min of M1 at the point in Python
    # numbers; against 50 digits it is within 8 eps (1 + ||M1||), at the
    # physical-complex eigenvalues of every root (Friedrichs, the zoo, the
    # hard models with the exceptional-point family) and at points off the
    # spectrum, where sigma_min is of order one
    off_spectrum = [1.5 + 1.0j, -2.0 - 0.5j, 0.5 - 2.0j, 0.25 + 0.75j]
    eigen_points = 0
    for model in _small_models(friedrichs_model, model_zoo):
        for side in (1, -1):
            sol = sr.solve_basic(model, sr.make_contour(model, side))
            cases = [(e.eigenvalue, e.physical_residual) for e in sr.classify(sol).entries
                     if e.label == "physical-complex"]
            eigen_points += len(cases)
            resids = rootsolver._physical_residuals(
                sol, off_spectrum, ["physical-complex"] * len(off_spectrum))
            for k, (lam, resid) in enumerate(cases + list(zip(off_spectrum, resids))):
                smin, smax = _mp_m1_singular_values(sol.model, lam)
                assert abs(resid - smin) <= 8 * EPS * (1.0 + smax), (model, side, lam)
                assert (smin >= 0.1) if k >= len(cases) else (smin <= 1e-12)
    assert eigen_points >= 2 * len(model_zoo)


def _reference_classify(sol):
    """(eigenvalue, multiplicity, label) per entry of classify by the
    NumPy algorithm that runs for n >= 3: np.sort_complex, clusters
    grown against np.mean of the cluster so far, each entry at its
    np.mean."""
    tau = 1e-8 * (1.0 + float(spectral_norms(sol.model.a1)))
    eigs = np.sort_complex(sol.eigensystem.values)
    radius = 1e-8 * (1.0 + float(np.max(np.abs(eigs))))
    clusters = []
    for lam in eigs:
        if clusters and abs(lam - np.mean(clusters[-1])) <= radius:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    out = []
    for group in clusters:
        lam = complex(np.mean(group))
        if abs(lam.imag) <= tau:
            label = "real"
        else:
            label = "resonance" if (lam.imag > 0) == (sol.side > 0) else "physical-complex"
        out.append((lam, len(group), label))
    return out


def _bits(z):
    return np.array([z], dtype=np.complex128).view(np.uint64).tolist()


def test_small_classify_matches_the_numpy_algorithm(friedrichs_model, model_zoo):
    # for n <= 2 the sort, the clusters and their means run in Python
    # numbers and give NumPy's entries to the bit: on every root, and on
    # diagonal Z with a pair that merges within the radius and one just
    # outside it, equal real parts in both orders, a double eigenvalue,
    # real eigenvalues and zeros of both signs
    sols = [sr.solve_basic(model, sr.make_contour(model, side))
            for model in _small_models(friedrichs_model, model_zoo) for side in (1, -1)]
    pair_model = next(m for m in model_zoo if m.n == 2)
    radius = 1e-8 * (1.0 + abs(0.1 + 0.2j))
    diagonals = [
        (0.1 + 0.2j, 0.1 + 0.2j + 1e-13), (0.1 + 0.2j + 1e-13j, 0.1 + 0.2j),
        (0.1 - 0.2j, 0.1 - 0.2j + 0.999 * radius), (0.1 - 0.2j, 0.1 - 0.2j + 1.5 * radius),
        (0.1 - 0.3j, 0.1 + 0.2j), (0.1 + 0.2j, 0.1 - 0.3j), (0.1 - 0.2j, 0.1 - 0.2j),
        (0.3, -0.3), (complex(-0.0, -0.2), complex(0.0, 0.3)),
        (complex(0.0, -0.0), complex(-0.0, 0.0)), (complex(-0.0, -0.1), complex(-0.5, -0.0)),
    ]
    for side in (1, -1):
        contour = sr.make_contour(pair_model, side)
        sols += [_fake_solution(np.diag(d), pair_model, contour) for d in diagonals]
        contour = sr.make_contour(friedrichs_model, side)
        sols += [_fake_solution([[z]], friedrichs_model, contour)
                 for z in (complex(-0.0, -0.1), complex(0.2, -0.0))]
    merged = 0
    for sol in sols:
        got = [(_bits(e.eigenvalue), e.multiplicity, e.label) for e in sr.classify(sol).entries]
        ref = [(_bits(lam), mult, label) for lam, mult, label in _reference_classify(sol)]
        assert got == ref, sol.z_op
        merged += any(mult == 2 for _, mult, _ in got)
    # per side: the two near pairs, the pair within the radius, the double
    # eigenvalue and the two zeros
    assert merged == 2 * 5


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


def _scaled_start_path(model, contour, grid):
    """The roots of homotopy_path's grid when each t starts from the
    previous X scaled by (t / t_prev)^2, the start homotopy_path falls back
    to."""
    base = sr.admissibility(model, contour)
    x = np.zeros((model.n, model.n), dtype=np.complex128)
    roots, t_prev = [], None
    for t in grid:
        rep = sr.admissibility_at(base.variation, base.distance, t)
        x0 = x * (t / t_prev) ** 2 if t_prev else x
        roots.append(rootsolver._picard(model, contour, rep, t, x0))
        x, t_prev = roots[-1].x, t
    return roots


def _tight_solve(model, contour, t=1.0):
    """solve_basic with the Picard stop tolerance 1e-15 in place of the
    program's 1e-12."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootsolver, "_TOL", 1e-15)
        return sr.solve_basic(model, contour, t)


def _assert_within_banach_bound(model, sol):
    # the map contracts on the r_min ball with q = r_min / (d - r_min), so
    # the root of a much tighter solve lies within q / (1 - q) times the
    # final step of sol.x, up to the rounding of that solve
    rep = sol.report
    q = rep.r_min / (rep.distance - rep.r_min)
    ref = _tight_solve(model, sol.contour, sol.coupling_scale)
    bound = q / (1.0 - q) * sol.final_step_norm + 1e-15 * np.linalg.norm(ref.x, 2)
    assert np.linalg.norm(sol.x - ref.x, 2) <= bound


def test_homotopy_roots_within_their_banach_bound(model_zoo, friedrichs_model):
    # wherever a path starts a t, it ends within the a-posteriori error
    # bound of its last step
    for model in [friedrichs_model] + model_zoo + wide_models(1, 2):
        for kind, depth in (("semicircle", None), ("rectangle", RECT_DEPTH)):
            contour = sr.make_contour(model, 1, kind, depth)
            if not sr.admissibility(model, contour).admissible:
                continue  # the Friedrichs model on the rectangle
            for grid in ([k / 8 for k in range(1, 9)], [0.3, 1.0]):
                for _, sol, _ in sr.homotopy_path(model, contour, grid):
                    _assert_within_banach_bound(model, sol)


def test_homotopy_extrapolated_start(model_zoo):
    # starting each t from the extrapolation through the roots already
    # solved takes fewer Picard iterations than the scaled previous X
    grid = [k / 8 for k in range(1, 9)]
    extrapolated = scaled = 0
    for model in model_zoo[:4] + wide_models(1, 2):
        contour = sr.make_contour(model, 1)
        extrapolated += sum(sol.iterations
                            for _, sol, _ in sr.homotopy_path(model, contour, grid))
        scaled += sum(sol.iterations for sol in _scaled_start_path(model, contour, grid))
    assert extrapolated < 0.75 * scaled


def test_homotopy_grid_from_zero(model_zoo, friedrichs_model):
    # t = 0 is a point of the grid, not a second known point X(0) = 0
    for model in [friedrichs_model] + model_zoo[:4]:
        contour = sr.make_contour(model, 1)
        path = sr.homotopy_path(model, contour, [0.0, 0.5, 1.0])
        t, sol, cls = path[0]
        assert t == 0.0 and not np.any(sol.x)
        assert {e.label for e in cls.entries} == {"real"}
        for _, sol, _ in path[1:]:
            _assert_within_banach_bound(model, sol)


@pytest.mark.parametrize("start", ["inside", "outside", "nan"])
def test_homotopy_starts_inside_the_r_max_ball(monkeypatch, model_zoo,
                                               friedrichs_model, start):
    # an extrapolated start is kept when its spectral norm is below r_max,
    # the radius of the ball on which the map contracts, and is otherwise
    # replaced by the scaled previous X, with the same roots bit for bit.
    # For n >= 2 the Frobenius bounds of 0.9 r_max I and of 1.2 r_max on
    # one entry straddle r_max, so the spectral norm decides
    grid = [k / 8 for k in range(1, 9)]
    for model in [friedrichs_model] + model_zoo[:4] + wide_models(1):
        contour = sr.make_contour(model, 1)
        base = sr.admissibility(model, contour)

        def fake_start(t):
            r_max = sr.admissibility_at(base.variation, base.distance, t).r_max
            if start == "inside":
                return 0.9 * r_max * np.eye(model.n, dtype=np.complex128)
            x0 = np.zeros((model.n, model.n), dtype=np.complex128)
            x0[0, 0] = 1.2 * r_max if start == "outside" else np.nan
            return x0

        monkeypatch.setattr(rootsolver, "_extrapolate", lambda known, s: fake_start(
            next(t for t in grid if t * t == s)))
        path = sr.homotopy_path(model, contour, grid)
        if start == "inside":
            refs = [rootsolver._picard(model, contour, sol.report, t, fake_start(t))
                    for t, sol, _ in path]
        else:
            refs = _scaled_start_path(model, contour, grid)
        for (_, sol, _), ref in zip(path, refs):
            assert sol.x.tobytes() == ref.x.tobytes()
            assert sol.iterations == ref.iterations


def test_homotopy_physical_residuals_at_the_last_t(monkeypatch, model_zoo,
                                                   friedrichs_model):
    # one residual evaluation per path, for the entries of its last t;
    # they are classify's residuals of that root
    calls = []
    original = rootsolver._physical_residuals

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(rootsolver, "_physical_residuals", counting)
    for model in [friedrichs_model] + model_zoo[:4] + wide_models(1):
        calls.clear()
        path = sr.homotopy_path(model, sr.make_contour(model, 1),
                                [k / 8 for k in range(1, 9)])
        assert len(calls) == 1
        for _, _, cls in path[:-1]:
            assert all(e.physical_residual is None for e in cls.entries)
        _, sol, cls = path[-1]
        resids = {e.eigenvalue: e.physical_residual for e in sr.classify(sol).entries}
        for e in cls.entries:
            assert e.label == "physical-complex"
            assert e.physical_residual == resids[e.eigenvalue]


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
    original = sr.contour._variation

    def counting(model, contour):
        calls.append(contour)
        return original(model, contour)

    monkeypatch.setattr(sr.contour, "_variation", counting)
    return calls


def test_homotopy_evaluates_variation_once(monkeypatch, friedrichs_model,
                                           friedrichs_contours):
    calls = _count_variation(monkeypatch)
    grid = np.linspace(0.3, 1.0, 8)
    for side in (1, -1):
        path = sr.homotopy_path(friedrichs_model, friedrichs_contours[side], grid)
        assert len(path) == 8
    assert [c.side for c in calls] == [1, -1]


def test_a_root_carries_its_own_report(monkeypatch, model_zoo):
    # each root's report is admissibility(model, contour, t) of its own
    # contour and coupling, bit for bit, from one V0 per solve or path
    calls = _count_variation(monkeypatch)
    grid = [0.25, 0.6, 1.0]
    for model in model_zoo[:4]:
        for kind, depth in (("semicircle", None), ("rectangle", RECT_DEPTH)):
            for side in (1, -1):
                contour = sr.make_contour(model, side, kind, depth)
                calls.clear()
                sol = sr.solve_basic(model, contour, 0.6)
                path = sr.homotopy_path(model, contour, grid)
                assert len(calls) == 2
                assert sol.report == sr.admissibility(model, sol.contour, 0.6)
                for t, root, _ in path:
                    assert root.report == sr.admissibility(model, root.contour, t)


def test_solve_basic_refuses_an_inadmissible_contour(friedrichs_model):
    # the Friedrichs model on the depth-0.5 rectangle: the error carries
    # the report of that contour at that coupling
    contour = sr.make_contour(friedrichs_model, 1, "rectangle", RECT_DEPTH)
    with pytest.raises(AdmissibilityError) as info:
        sr.solve_basic(friedrichs_model, contour, 0.8)
    assert info.value.report == sr.admissibility(friedrichs_model, contour, 0.8)
    assert not info.value.report.admissible


def test_transformator_gap_guard():
    # the Friedrichs model on [-1, 1] and scaled by 1e-150: an eigenvalue
    # within _SPEC_GUARD half-lengths of a node is refused, one 1e-5
    # half-lengths off it is summed
    for scale in (1.0, 1e-150):
        model = sr.build_model((-scale, scale), [[0.0]], [[[BCOUP * np.sqrt(scale)]]])
        c = sr.make_contour(model, 1)
        node = complex(c.nodes[len(c.nodes) // 2])
        with pytest.raises(sr.NumericsError):
            _contour_sum(model, c, np.array([[node]]))
        assert np.isfinite(_contour_sum(model, c, np.array([[node * (1.0 - 1e-5)]]))).all()


def test_contour_sums_run_at_a_root_on_a_tiny_interval():
    # over [-1e-150, 1e-150] every eigenvalue lies within 1e-6 of every
    # node; in half-lengths the root lies far from the contour, and its
    # contour sums run: the map at the root, which equals the closed form,
    # and the sandwich of compute_Omega
    model = sr.build_model((-1e-150, 1e-150), [[0.0]], [[[2e-76]]])
    sols = {side: sr.solve_basic(model, sr.make_contour(model, side)) for side in (1, -1)}
    for side, sol in sols.items():
        w = transformator(model, sol.contour, sol.z_op, sol.eigensystem.values)
        closed = _PicardMap(model, sol.contour, 1.0)(sol.z_op)
        assert abs(w[0, 0] - closed[0, 0]) <= 1e-13 * abs(closed[0, 0])
        omega = sr.compute_Omega(sol, sols[-side])
        assert np.isfinite(omega.omega).all() and omega.norm > 0.0


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
        tight = _tight_solve(friedrichs_model, sr.make_contour(friedrichs_model, side))
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
                w = transformator(model, sr.make_contour(model, side, kind, d),
                                  sol.z_op, sol.eigensystem.values)
                worst = max(worst, np.linalg.norm(w - sol.x, 2))
    assert worst <= 1e-12, worst


def _outside_model():
    # sigma1 = {1.5} lies right of the interval; admissible on both sides
    return sr.build_model((-1.0, 1.0), [[1.5]], [[[0.05]]])


# the map's message for an eigenvalue on the contour or at an endpoint
ON_THE_CONTOUR = r"of Z lies on the side \+1 contour or at an endpoint"


@pytest.mark.parametrize("case", ["near-defective", "defective", "at-endpoint"])
def test_map_at_an_endpoint_and_at_a_defective_z(model_zoo, case):
    # an eigenvalue at an endpoint, where neither moment is the contour
    # integral, raises NumericsError naming it; an eigenvector matrix with
    # cond(V) ~ 1e9, or a Jordan block, whose two eigenvectors are
    # parallel, takes the stable divided difference and equals the contour
    # sum
    if case != "at-endpoint":
        model = next(m for m in model_zoo if m.n == 2)
        lam = 0.1 + 0.05j
        z = np.array([[lam, 1.0], [0.0, lam + (1e-9 if case == "near-defective" else 0.0)]])
    else:
        model = _outside_model()
        z = np.array([[1.0 + 0j]])
    contour = sr.make_contour(model, 1)
    step_map = _PicardMap(model, contour, 1.0)
    if case == "at-endpoint":
        with pytest.raises(NumericsError, match=r"eigenvalue \(1\+0j\) " + ON_THE_CONTOUR):
            step_map(z)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = step_map(z)
    ref = _contour_sum(model, contour, z)
    assert step_map.fallbacks == 0
    assert np.linalg.norm(got - ref, 2) <= 1e-14 * np.linalg.norm(ref, 2)


def _small_map_cases():
    """(name, model, Z) of 2 x 2 maps the divided difference takes: lam I,
    a Jordan block, a near-defective Z, a close pair on the open interval
    and one in the lens, and, for sigma1 = {1.5} right of the interval,
    the real rotations with eigenvalues 1.5 +- d i, which straddle the
    real axis right of b for d > 0."""
    inside = sr.build_model((-1.0, 1.0), [[0.1, 0.02], [0.02, -0.1]], [EP_B.tolist()])
    cases = []
    for name, lam, gap, off in (("scalar", 0.1 - 0.05j, 0.0, 0.0), ("jordan", 0.1 + 0.05j, 0.0, 1.0),
                                ("near-defective", 0.1 + 0.05j, 1e-9, 1.0),
                                ("interval", 0.3 + 0j, 1e-8, 0.5), ("lens", 0.2 + 0.3j, 1e-9, 0.5)):
        cases.append((name, inside, np.array([[lam, off], [0.0, lam + gap]])))
    outside = sr.build_model((-1.0, 1.0), [[1.5, 0.0], [0.0, 1.5]], [(0.05 * EP_B).tolist()])
    for d in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12, 0.0):
        cases.append((f"outside-{d:g}", outside, np.array([[1.5, d], [-d, 1.5]], dtype=complex)))
    return cases


@pytest.mark.parametrize("name, model, z", [pytest.param(*case, id=case[0])
                                            for case in _small_map_cases()])
def test_small_map_matches_the_contour_sum_without_fallback(name, model, z):
    # one branch that is the integral at both eigenvalues: choosing each
    # eigenvalue's branch apart loses 4e-9 at d = 1e-8 in the outside cases
    for side in (1, -1):
        contour = sr.make_contour(model, side)
        step_map = _PicardMap(model, contour, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_map(z)
        assert step_map.fallbacks == 0
        ref = _contour_sum(model, contour, z)
        assert np.linalg.norm(got - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("n", [1, 3])
def test_an_endpoint_off_the_rounded_circle_raises(n):
    # over this interval the rounded centre puts the endpoint a a unit in
    # the last place outside the semicircle; the closed lens still holds
    # it, so an eigenvalue there raises NumericsError naming it, where the
    # physical moment's logarithm would divide by zero. At t = 0 the
    # coefficients are zero, and the map is exactly zero before any moment
    a, b = -2.0, -1.4371961158354563
    z = np.diag(np.linspace(a, 0.5 * (a + b), n)).astype(complex)
    model = sr.build_model((a, b), z.real.tolist(), [(0.05 * np.eye(n)).tolist()])
    contour = sr.make_contour(model, 1)
    assert abs(a - 0.5 * (a + b)) > contour.depth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"eigenvalue \(-2\+0j\) " + ON_THE_CONTOUR):
            _PicardMap(model, contour, 1.0)(z)
        zero = _PicardMap(model, contour, 0.0)(z)
    assert np.array_equal(zero, np.zeros((n, n))) and not np.signbit(zero.view(float)).any()


@pytest.mark.parametrize("case", ["outside-lens", "real-off-interval",
                                  "one-of-two-outside-lens"])
def test_map_takes_the_physical_moments_off_the_lens(model_zoo, case):
    # off the closed lens the contour integral is the interval integral, so
    # the map takes the physical moments there (the side-l moments would
    # jump by 2 pi i) and the side-l moments at the eigenvalues they cover
    if case == "one-of-two-outside-lens":
        # a well-conditioned Z whose first eigenvalue the side-l moments
        # cover (the other half-plane) and whose second lies beyond the
        # semicircle
        model = next(m for m in model_zoo if m.n == 2)
        z = np.diag([0.1 - 0.05j, 1.5 + 1e-3j])
    else:
        model = _outside_model()
        z = np.array([[1.5 + 1e-3j if case == "outside-lens" else 1.5 + 0j]])
    contour = sr.make_contour(model, 1)
    step_map = _PicardMap(model, contour, 1.0)
    got = step_map(z)
    assert step_map.fallbacks == 0
    ref = _contour_sum(model, contour, z)
    assert np.linalg.norm(got - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)
    if case == "real-off-interval":
        assert got.imag[0, 0] == 0.0


def test_fallback_steps_are_counted(monkeypatch):
    # the n >= 3 map falls back where _COND_LIMIT refuses its eigenbasis
    model = wide_models(1)[0]
    assert model.n == 4
    contour = sr.make_contour(model, 1)
    closed = sr.solve_basic(model, contour)
    assert closed.contour_fallbacks == 0
    monkeypatch.setattr(rootsolver, "_COND_LIMIT", 0.0)
    summed = sr.solve_basic(model, contour)
    # every step plus the residual check took the contour sum
    assert summed.contour_fallbacks == summed.iterations + 1
    assert summed.iterations == closed.iterations
    assert np.linalg.norm(summed.x - closed.x, 2) <= 1e-13 * np.linalg.norm(closed.x, 2)
    # sigma1 outside the interval: every step takes the closed form, the
    # physical moment off the lens, and the root is the contour sum's
    monkeypatch.undo()
    outside = _outside_model()
    for side in (1, -1):
        contour = sr.make_contour(outside, side)
        sol = sr.solve_basic(outside, contour)
        assert sol.contour_fallbacks == 0
        fx = _contour_sum(outside, contour, sol.z_op)
        assert np.linalg.norm(fx - sol.x, 2) <= 1e-12


def reference_picard(model, contour, rep, t, tol, max_iter, x0):
    """The Picard loop with every test on spectral norms (one
    spectral_norms call each, the norm _picard reports): (iterations,
    final step norm, X), or the NumericsError message."""
    step_map = _PicardMap(model, contour, t)
    a1 = model.a1.astype(np.complex128)
    x = np.asarray(x0, dtype=np.complex128).copy()
    step = np.inf
    for it in range(1, max_iter + 1):
        xn = step_map(a1 + x)
        step = float(spectral_norms(xn - x))
        x = xn
        norm_x = float(spectral_norms(x))
        if norm_x > rep.r_max + 1e-9:
            return (f"iterate escaped the r_max ball "
                    f"({norm_x:.6g} > {rep.r_max:.6g})")
        if step <= tol * max(1.0, norm_x):
            return it, step, x
    return f"no convergence in {max_iter} iterations (step {step:.3e})"


def _picard_outcome(monkeypatch, model, contour, rep, t, tol, max_iter, x0):
    """_picard with its stop tolerance and iteration bound set to tol and
    max_iter: (iterations, final step norm, X), or the NumericsError
    message."""
    monkeypatch.setattr(rootsolver, "_TOL", tol)
    monkeypatch.setattr(rootsolver, "_MAX_ITER", max_iter)
    try:
        sol = rootsolver._picard(model, contour, rep, t, x0)
    except sr.NumericsError as exc:
        return str(exc)
    return sol.iterations, sol.final_step_norm, sol.x


def _same_outcome(got, ref):
    if isinstance(ref, str):
        return got == ref
    return (not isinstance(got, str) and got[0] == ref[0] and got[1] == ref[1]
            and got[2].tobytes() == ref[2].tobytes())


def test_picard_norm_certificates_match_spectral_norm_tests(monkeypatch, model_zoo,
                                                             friedrichs_model):
    # the Frobenius-bound tests make the decisions the spectral norms make:
    # the same iterations, final step norm and X, bit for bit, on the zoo
    # (cold start at t = 1 and the sweep's grid, each t started from the
    # scaled previous root) and on the wide-sweep models of seeds 1 and 2
    # along that grid
    t_grid = [k / 8 for k in range(1, 9)]
    cases = 0

    def check(model, contour, base, t, x0):
        nonlocal cases
        rep = sr.admissibility_at(base.variation, base.distance, t)
        ref = reference_picard(model, contour, rep, t, 1e-12, 500, x0)
        assert not isinstance(ref, str), ref
        got = _picard_outcome(monkeypatch, model, contour, rep, t, 1e-12, 500, x0)
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
def test_picard_failures_match_spectral_norm_tests(monkeypatch, friedrichs_model,
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
    assert _picard_outcome(monkeypatch, friedrichs_model, contour, rep, 1.0, tol,
                           max_iter, x0) == ref


def _unit_columns(rng, n, spread):
    """A random complex n x n matrix with unit columns whose singular values
    before the normalization span spread."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    vecs = (q1 * np.geomspace(1.0, spread, n)) @ q2
    return vecs / np.linalg.norm(vecs, axis=0)


def _near_limit(rng, n, target):
    """Unit columns with cond_2 = target up to rounding: two columns at the
    angle whose Gram matrix [[1, c], [c, 1]] has cond (1 + c) / (1 - c) =
    target^2, the others orthonormal to them, all turned by a random
    unitary."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    c = (target ** 2 - 1.0) / (target ** 2 + 1.0)
    vecs = q.copy()
    vecs[:, 1] = c * q[:, 0] + np.sqrt(1.0 - c * c) * q[:, 1]
    return vecs


def test_cond_certificate_decides_as_the_svd(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [_unit_columns(rng, n, spread)
             for n in (2, 3, 4, 8, 16) for spread in np.geomspace(1.0, 3e4, 40)]
    cases += [_near_limit(rng, n, _COND_LIMIT * (1.0 + k * 1e-10))
              for n in (2, 3, 16) for k in range(-10, 11)]
    singular = _unit_columns(rng, 4, 10.0)
    singular[:, 1] = singular[:, 0]
    cases.append(singular)
    conds = [np.linalg.cond(v) for v in cases]
    assert min(conds) < 1.01 and max(conds) > 1e4
    assert sum(abs(c / _COND_LIMIT - 1.0) <= 1e-9 for c in conds) >= 40

    svd_calls = 0
    svd_cond = np.linalg.cond

    def counted_cond(vecs):
        nonlocal svd_calls
        svd_calls += 1
        return svd_cond(vecs)

    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    # the limit of the solver plus limits around the condition numbers
    # drawn, some of which the certificate alone decides
    limits = [_COND_LIMIT] + list(np.geomspace(1.0, 1e5, 30))
    decisions = 0
    for vecs, cond in zip(cases, conds):
        for limit in limits + [cond * (1.0 + 1e-9), cond * (1.0 - 1e-9)]:
            assert _cond_within(vecs, limit) == (cond <= limit)
            decisions += 1
    # the certificate spared the SVD on some decisions, not on all
    assert 0 < svd_calls < decisions - 100


def test_small_map_at_a_scalar_matrix_is_the_moment_sum(model_zoo):
    # Z = lam I: the divided difference is the derivative, times Z - lam I
    # = 0, and the map is W(lam) I exactly, with no fallback
    model = next(m for m in model_zoo if m.n == 2)
    step_map = _PicardMap(model, sr.make_contour(model, 1), 1.0)
    lam = 0.1 - 0.05j
    z = lam * np.eye(2, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = step_map(z)
    assert step_map.fallbacks == 0
    a, b = step_map.contour.endpoints
    moments, _ = _cut_quotients_at(a, b, lam, model.kprime.degree, branch=1)
    want = [sum(g * c for g, c in zip(moments, entry)) for entry in step_map._coeff_entries]
    assert np.array_equal(got, np.reshape(want, (2, 2)))


class _ReferencePicardMap(_PicardMap):
    """The Picard map in LAPACK's eigenbasis, with its eigenbasis test as
    np.linalg.cond(V) <= _COND_LIMIT, an SVD per step, at every n >= 2, and
    its moments taken one eigenvalue at a time: the side-l moment where
    _covered, the physical one off the closed lens, and the contour sum
    when an eigenvalue is on neither or the test fails. fallbacks counts
    every contour sum; the map takes one at n >= 3 on the same test, at n
    = 2 only on the contour or at an endpoint."""

    def __call__(self, zmat):
        if zmat.shape[0] == 1:
            eigs, vecs = zmat[0], None
        else:
            eigs, vecs = np.linalg.eig(zmat)
        self.spectrum = eigs, vecs
        a, b = self.contour.endpoints
        degree = self.coeffs.shape[0] - 1
        rows = []
        for lam, covered in zip(eigs, self._covered(eigs)):
            if covered:
                rows.append(rootsolver._cut_moments(a, b, [lam], degree,
                                                    self.contour.side))
            elif not self.contour.contains_in_lens(lam, closed=True):
                rows.append(rootsolver._cut_moments(a, b, [lam], degree))
            else:
                break
        else:
            moments = np.concatenate(rows)
            if vecs is None:
                return np.einsum("s,sij->ij", moments[0], self.coeffs)
            if np.linalg.cond(vecs) <= rootsolver._COND_LIMIT:
                scaled = np.einsum("sij,jk,ks->ik", self.coeffs, vecs, moments)
                return np.linalg.solve(vecs.T, scaled.T).T
        self.fallbacks += 1
        return transformator(self.model, self.contour, zmat, eigs)


def _recorded_solve(monkeypatch, map_class, model, contour):
    """solve_basic with map_class as the Picard map, every value the map
    returned, and per evaluation whether it took the contour-sum fallback."""
    values, fell_back = [], []

    class Recording(map_class):
        def __call__(self, zmat):
            before = self.fallbacks
            values.append(super().__call__(zmat))
            fell_back.append(self.fallbacks > before)
            return values[-1]

    monkeypatch.setattr(rootsolver, "_PicardMap", Recording)
    return sr.solve_basic(model, contour), values, fell_back


# How far the closed form may differ from the reference's arithmetic,
# relative to the reference's value: for n <= 2 the map runs in Python
# scalars on divided differences, for n >= 3 its moment sum is one matmul
# where the reference's is an einsum. The error of a sum in a basis grows
# like cond(V) eps, and the reference evaluates in a basis only while
# cond(V) <= _COND_LIMIT.
SMALL_MAP_RTOL = 16 * _COND_LIMIT * float(np.finfo(float).eps)
# How far the n = 2 map may differ from the reference's contour sum, where
# cond(V) > _COND_LIMIT: the error of the sum on its analytic_rule
CONTOUR_SUM_RTOL = 1e-14


def _assert_matches_reference(monkeypatch, model, contour):
    """The map's decisions and counts are the reference's at n >= 3; at
    n <= 2 it takes no fallback. Every value and the root are the
    reference's within SMALL_MAP_RTOL, or within CONTOUR_SUM_RTOL where
    the reference took the contour sum at n = 2."""
    sol, values, fell_back = _recorded_solve(monkeypatch, _PicardMap, model, contour)
    ref, ref_values, ref_fell_back = _recorded_solve(monkeypatch, _ReferencePicardMap,
                                                     model, contour)
    assert sol.iterations == ref.iterations
    if model.n >= 3:
        assert fell_back == ref_fell_back
        assert sol.contour_fallbacks == ref.contour_fallbacks
    else:
        assert not any(fell_back) and sol.contour_fallbacks == 0
    for got, want, summed in zip(values + [sol.x], ref_values + [ref.x],
                                 ref_fell_back + [False]):
        rtol = CONTOUR_SUM_RTOL if summed and model.n == 2 else SMALL_MAP_RTOL
        assert np.linalg.norm(got - want, 2) <= rtol * np.linalg.norm(want, 2)
    return sol


def test_picard_iterates_match_the_svd_cond_map(monkeypatch, friedrichs_model, model_zoo):
    for model in [friedrichs_model] + model_zoo + wide_models(1, 2):
        for side in (1, -1):
            _assert_matches_reference(monkeypatch, model, sr.make_contour(model, side))


@pytest.mark.parametrize("name, model", [pytest.param(*case, id=case[0]) for case in hard_models()])
def test_small_map_matches_the_reference_on_hard_models(monkeypatch, name, model):
    # near the exceptional point cond(V) crosses _COND_LIMIT during the
    # iteration: from delta = 1e-4 on, the reference takes the contour sum
    # on 7 of the 11 evaluations, and the map, on its divided differences,
    # on none
    for side in (1, -1):
        sol = _assert_matches_reference(monkeypatch, model, sr.make_contour(model, side))
        if name.startswith("ep-"):
            assert (sol.iterations, sol.contour_fallbacks) == (10, 0)


def test_eigensystem_is_one_eig_per_root(monkeypatch, model_zoo):
    model = next(m for m in model_zoo if m.n == 2)
    sol = sr.solve_basic(model, sr.make_contour(model, 1))
    spec = sol.eigensystem
    assert sol.eigensystem is spec
    assert np.allclose(spec.values, np.linalg.eigvals(sol.z_op), rtol=0, atol=1e-14)
    vecs, inv = spec.basis
    assert vecs is spec.vectors
    assert not spec.values.flags.writeable and not inv.flags.writeable
    rebuilt = vecs @ np.diag(spec.values) @ inv
    assert np.linalg.norm(rebuilt - sol.z_op, 2) <= 1e-14 * np.linalg.norm(sol.z_op, 2)
    assert np.array_equal(sol.eigenvalues(), spec.values)

    # a root built by dataclasses.replace decomposes its own Z
    shift = 0.01 * np.eye(model.n)
    shifted = dataclasses.replace(sol, x=sol.x + shift, z_op=sol.z_op + shift)
    assert np.allclose(np.sort_complex(shifted.eigensystem.values),
                       np.sort_complex(spec.values + 0.01), rtol=0, atol=1e-14)
    assert np.allclose(np.sort_complex(sol.conjugate().eigensystem.values),
                       np.sort_complex(np.conj(spec.values)), rtol=0, atol=1e-14)

    # the basis is kept only within rootsolver's condition limit
    monkeypatch.setattr(rootsolver, "_COND_LIMIT", 1.0 - 1e-6)
    fresh = dataclasses.replace(sol).eigensystem
    assert fresh.basis is None
    assert np.array_equal(fresh.values, spec.values)
