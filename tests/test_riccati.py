"""Angular operator, Gram normalization, Omega, and contour reconstruction.

Independent oracle: the Gram matrix recomputed by brute-force trapezoid
summation of y(mu)^* y(mu) on a million-point grid, sharing nothing with
the closed form (or its quadrature fallback) under test.
"""

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import schurroots as sr
from schurroots.errors import NumericsError
from schurroots._quad import adaptive_quad
from schurroots import riccati
from schurroots.riccati import (RiccatiSolution, _j_pairings, _ring_converged,
                                _smin_branch_points, _trial_l2_norms, _ysn_integrand,
                                factor_F1, rational_trials, ysn_integral)

from conftest import EP_B, EP_E0, hard_models, kprime_crossings, wide_models


def dense_gram(ric, nodes=1_000_001):
    a, b = ric.root.model.interval
    grid = np.linspace(a, b, nodes)
    yv = ric.y_values(grid)
    integrand = np.conj(np.swapaxes(yv, 1, 2)) @ yv
    return np.trapezoid(integrand, grid, axis=0)


@pytest.fixture(scope="module")
def matrix_case(model_zoo):
    model = next(m for m in model_zoo if m.n == 2)
    contours = {s: sr.make_contour(model, s) for s in (1, -1)}
    sols = {s: sr.solve_basic(model, contours[s]) for s in (1, -1)}
    rics = {s: sr.compute_Y(sols[s]) for s in (1, -1)}
    return model, contours, sols, rics


def test_gram_against_dense_grid(friedrichs_model, friedrichs_contours, matrix_case):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    ric = sr.compute_Y(sol)
    assert np.max(np.abs(ric.gram - dense_gram(ric))) < 1e-8

    model, _, _, rics = matrix_case
    assert np.max(np.abs(rics[1].gram - dense_gram(rics[1]))) < 1e-8


def test_gram_is_identity_for_nonreal_spectrum(matrix_case):
    # J-neutrality of the graph subspace forces Y*Y = I
    model, _, _, rics = matrix_case
    for side in (1, -1):
        assert np.max(np.abs(rics[side].gram - np.eye(model.n))) < 1e-10
        assert abs(rics[side].y_norm - 1.0) < 1e-10


def test_scalar_norm_one(friedrichs_model, friedrichs_contours):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    ric = sr.compute_Y(sol)
    assert abs(ric.y_norm - 1.0) < 1e-8
    verdict = sr.check_one_in_spectrum(ric)
    assert verdict.present
    assert verdict.min_distance < 1e-8


def test_zay(matrix_case):
    model, _, sols, rics = matrix_case
    for side in (1, -1):
        assert sr.check_ZAY(rics[side]) < 1e-10


def test_riccati_residuals(matrix_case):
    model, _, _, rics = matrix_case
    mus = np.linspace(-0.93, 0.93, 17)
    for side in (1, -1):
        assert sr.riccati_residual(rics[side], mus) < 1e-10
        assert sr.riccati_residual(rics[side], mus, adjoint=True) < 1e-10


def test_adjoint_values_consistent(matrix_case):
    # ytilde(mu) on the axis is exactly y(mu)^* entrywise
    _, _, _, rics = matrix_case
    ric = rics[1]
    mus = np.linspace(-0.8, 0.8, 5)
    yv = ric.y_values(mus)
    yt = ric.adjoint_values(mus)
    assert np.max(np.abs(yt - np.conj(np.swapaxes(yv, 1, 2)))) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_angular_values_match_pointwise_inverse(n):
    # y(mu) = b(mu) inv(Z - mu) and ytilde(mu) = inv(Z^* - mu) b#(mu)
    # against explicit per-point inverses, off the axis as well as on it
    rng = np.random.default_rng(40 + n)
    coeffs = [rng.normal(size=(n + 1, n)) for _ in range(2)]
    model = sr.build_model((-1.0, 1.0), np.zeros((n, n)), coeffs)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) - 0.5j * np.eye(n)
    # y reads only b and Z from its root
    y = RiccatiSolution(SimpleNamespace(model=model, z_op=z), None, None, None, None)
    mus = np.concatenate([np.linspace(-0.9, 0.9, 7), [0.3 + 0.2j, -0.4 - 0.7j]])
    yv, yt = y.y_values(mus), y.adjoint_values(mus)
    eye = np.eye(n)
    for k, mu in enumerate(mus):
        ref = model.b(np.array([mu]))[0] @ np.linalg.inv(z - mu * eye)
        ref_t = np.linalg.inv(np.conj(z.T) - mu * eye) @ model.b.sharp()(np.array([mu]))[0]
        assert np.allclose(yv[k], ref, rtol=1e-12, atol=1e-13)
        assert np.allclose(yt[k], ref_t, rtol=1e-12, atol=1e-13)


def test_j_orthogonality(matrix_case):
    _, _, _, rics = matrix_case
    for side in (1, -1):
        trials = rational_trials(rics[side], 8, seed=5)
        assert sr.j_orthogonality(rics[side], trials) < 1e-10


def _per_trial_pairings(ric, trials):
    # reference: one pair of adaptive quadratures per trial, each at the
    # default rtol (the J-orthogonality loop before the trials were stacked)
    a, b = ric.root.model.interval
    # the loop started on panels split at Re(spec Z), without grading
    breaks = np.linalg.eigvals(ric.root.z_op).real
    lhs_all, rhs_all = [], []
    for pole, c, x1 in zip(*trials):
        def x0(nodes):
            return c[None, :] / (nodes[:, None] - pole)

        def lhs_panel(nodes):
            yx1 = ric.y_values(nodes) @ x1
            return np.einsum("mi,mi->m", np.conj(x0(nodes)), yx1)

        def rhs_panel(nodes):
            yt = ric.adjoint_values(nodes)
            return np.einsum("mij,mj->mi", yt, x0(nodes))

        lhs, _ = adaptive_quad(lhs_panel, a, b, poles=breaks)
        ystar_x0, _ = adaptive_quad(rhs_panel, a, b, poles=breaks)
        lhs_all.append(complex(lhs))
        rhs_all.append(complex(np.vdot(ystar_x0, x1)))
    return np.array(lhs_all), np.array(rhs_all)


def test_stacked_j_orthogonality_matches_per_trial_loop(
        matrix_case, friedrichs_model, friedrichs_contours):
    _, _, _, rics = matrix_case
    cases = [rics[side] for side in (1, -1)]
    for side in (1, -1):
        sol = sr.solve_basic(friedrichs_model, friedrichs_contours[side])
        cases.append(sr.compute_Y(sol))
    for ric in cases:
        trials = rational_trials(ric, 20, seed=3)
        ref_lhs, ref_rhs = _per_trial_pairings(ric, trials)
        lhs, rhs = _j_pairings(ric, trials)
        assert lhs.shape == rhs.shape == (20,)
        assert np.max(np.abs(lhs - ref_lhs)) <= 1e-12
        assert np.max(np.abs(rhs - ref_rhs)) <= 1e-12
        reference = float(np.max(np.abs(ref_lhs - ref_rhs)))
        assert abs(sr.j_orthogonality(ric, trials) - reference) <= 1e-12


def test_stacked_stop_no_looser_than_per_trial(monkeypatch, matrix_case,
                                               friedrichs_model,
                                               friedrichs_contours):
    # A stacked quadrature stops at rtol * max(1, ||stacked value||) on a
    # summed panel error that bounds every trial's own. That threshold, and
    # the error reached, must meet each trial's per-trial rule
    # 1e-11 * max(1, |value_t|). <x0, Y x1> is a closed form here, so the
    # one stacked quadrature left is that of Y^* x0.
    stops = []
    original = sr.riccati.adaptive_quad

    def recording(*args, **kwargs):
        value, info = original(*args, **kwargs)
        stops.append((value, info["error"], kwargs["rtol"]))
        return value, info

    monkeypatch.setattr(sr.riccati, "adaptive_quad", recording)
    _, _, _, rics = matrix_case
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    for ric in (rics[1], rics[-1], sr.compute_Y(sol)):
        stops.clear()
        _j_pairings(ric, rational_trials(ric, 20, seed=0))
        assert len(stops) == 1
        for value, err, rtol in stops:
            per_trial = np.abs(value) if value.ndim == 1 else np.linalg.norm(value, axis=1)
            rule = 1e-11 * np.min(np.maximum(1.0, per_trial))
            assert rtol * max(1.0, np.linalg.norm(value)) <= rule
            assert err <= rule


def test_trial_l2_norm_closed_form(matrix_case):
    _, _, _, rics = matrix_case
    ric = rics[1]
    a, b = ric.root.model.interval
    grid = np.linspace(a, b, 200_001)
    poles, cs, _ = rational_trials(ric, 5, seed=11)
    norms = _trial_l2_norms(poles, cs, ric.root.model.interval)
    for pole, c, norm in zip(poles, cs, norms):
        x0 = c[None, :] / (grid[:, None] - pole)
        dense = np.sqrt(np.trapezoid(np.sum(np.abs(x0) ** 2, axis=1), grid))
        assert abs(norm - dense) <= 1e-8 * dense


def test_rational_trials_reproducible(matrix_case):
    _, _, _, rics = matrix_case
    model = rics[1].root.model
    poles, cs, x1s = rational_trials(rics[1], 3, seed=9)
    for again, first in zip(rational_trials(rics[1], 3, seed=9), (poles, cs, x1s)):
        assert np.array_equal(again, first)
    assert poles.shape == (3,) and cs.shape == (3, model.m) and x1s.shape == (3, model.n)
    # the draws in their order: pole real parts, signs and heights of the
    # imaginary parts, then the complex Gaussian rows of cs and of x1s
    # (in half-lengths of the interval, 1 here)
    rng = np.random.default_rng(9)
    a, b = model.interval
    assert b - a == 2.0
    re = rng.uniform(a, b, size=3)
    im = rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.3, 1.0, size=3)
    assert np.array_equal(poles, re + 1j * im)
    for rows, width in ((cs, model.m), (x1s, model.n)):
        raw = rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
        assert np.array_equal(rows, raw / np.linalg.norm(raw, axis=1, keepdims=True))


@pytest.mark.parametrize("half", [1e-3, 1e20, 1e200])
def test_trial_poles_scale_with_the_interval(half):
    # the poles over [-half, half] are those over [-1, 1] scaled by half, up
    # to the rounding of the scaling; the unit rows do not change
    def trials(h):
        model = sr.build_model((-h, h), [[0.0]], [[[0.2]]])
        root = SimpleNamespace(model=model)
        return rational_trials(SimpleNamespace(root=root), 20, seed=4)

    unit, scaled = trials(1.0), trials(half)
    assert np.allclose(scaled[0] / half, unit[0], rtol=4e-16, atol=4e-16)
    assert np.all(np.abs(scaled[0].imag) >= 0.3 * half * (1.0 - 1e-15))
    for got, want in zip(scaled[1:], unit[1:]):
        assert np.array_equal(got, want)


def test_ring_test_is_scale_free():
    # the ring's stop test decides on moments of any size as on the same
    # moments divided by a power of two, without overflow in the norms
    rng = np.random.default_rng(2)
    moments = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    for rel in (1e-14, 1e-10, 1e-6):
        previous = moments * (1.0 + rel)
        want = _ring_converged(moments, previous)
        assert want == (np.linalg.norm(moments - previous)
                        <= riccati._RING_RTOL * np.linalg.norm(moments))
        for exponent in (-1000, -500, 500, 1000):
            factor = 2.0 ** exponent
            assert _ring_converged(moments * factor, previous * factor) == want
    zero = np.zeros((2, 3, 3), dtype=complex)
    assert _ring_converged(zero, zero)
    assert not _ring_converged(moments, np.full_like(moments, np.nan))


def test_zero_coupling_short_circuit(friedrichs_model, friedrichs_contours):
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1], t=0.0)
    ric = sr.compute_Y(sol)
    assert ric.y_norm == 0.0
    assert np.max(np.abs(ric.gram)) == 0.0
    assert np.max(np.abs(ric.bstar_y)) == 0.0


def test_compute_y_refuses_only_a_pole_on_the_interval(friedrichs_model,
                                                       friedrichs_contours):
    # at t = 0.01 and 0.001 the root sits about 1e-5 and 1e-7 off the
    # interval; ||Y|| = 1 there as at t = 1
    for t in (0.01, 0.001):
        sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1], t=t)
        assert abs(sr.compute_Y(sol).y_norm - 1.0) < 1e-10
    # a channel that b leaves uncoupled keeps its real eigenvalue 0.5, a
    # pole on the integration path
    model = sr.build_model((-1.0, 1.0), np.diag([-0.5, 0.5]), [[[0.1, 0.0]]])
    sol = sr.solve_basic(model, sr.make_contour(model, 1))
    with pytest.raises(NumericsError, match="lies on the interval"):
        sr.compute_Y(sol)


def test_partial_coupling_reads_the_roots_model():
    # a root solved at t = 0.6 carries model.scaled(0.6): Y and Omega built
    # on it agree with those of the scaled model solved at t = 1
    model = sr.build_model((-1.0, 1.0), [[0.1, 0.02], [0.02, -0.1]],
                           [[[0.1, 0.0], [0.0, 0.1], [0.03, 0.02]]])
    scaled = model.scaled(0.6)
    at_t = {s: sr.solve_basic(model, sr.make_contour(model, s), 0.6) for s in (1, -1)}
    at_one = {s: sr.solve_basic(scaled, sr.make_contour(scaled, s)) for s in (1, -1)}
    for side in (1, -1):
        ric, ref = sr.compute_Y(at_t[side]), sr.compute_Y(at_one[side])
        assert abs(ric.y_norm - 1.0) < 1e-10
        assert np.max(np.abs(ric.gram - ref.gram)) < 1e-12
        assert sr.check_ZAY(ric) < 1e-12
        om = sr.compute_Omega(at_t[side], at_t[-side])
        om_ref = sr.compute_Omega(at_one[side], at_one[-side])
        assert np.max(np.abs(om.omega - om_ref.omega)) < 1e-12
        assert abs(om.bound - om_ref.bound) <= 1e-14 * om.bound
        assert om.norm < om.bound


def test_omega_properties(matrix_case):
    model, contours, sols, _ = matrix_case
    oms = {}
    for side in (1, -1):
        om = sr.compute_Omega(sols[side], sols[-side])
        assert om.norm < om.bound
        oms[side] = om
    # mirror relation between the two sides
    assert np.max(np.abs(oms[-1].omega - np.conj(oms[1].omega.T))) < 1e-10


def test_omega_evaluates_no_v0(monkeypatch, matrix_case):
    # the bound V0 / (d^2/4) comes from the root's admissibility report
    model, contours, sols, _ = matrix_case
    rep = sr.admissibility(model, contours[1])
    calls = []
    original = sr.contour._variation

    def counting(model, contour):
        calls.append(contour.side)
        return original(model, contour)

    monkeypatch.setattr(sr.contour, "_variation", counting)
    om = sr.compute_Omega(sols[1], sols[-1])
    assert calls == []
    assert sols[1].report == rep
    assert om.bound == rep.variation / (0.25 * rep.distance ** 2)


def test_omega_two_path(matrix_case):
    model, contours, sols, _ = matrix_case
    om = sr.compute_Omega(sols[1], sols[-1])
    alt = sr.omega_by_deformation(sols[1], sols[-1])
    assert np.linalg.norm(om.omega - alt, 2) < 1e-9 * (1 + om.norm)


def test_omega_side_validation(matrix_case):
    model, contours, sols, _ = matrix_case
    with pytest.raises(ValueError):
        sr.compute_Omega(sols[1], sols[1])


def test_reconstruction(matrix_case):
    model, contours, sols, _ = matrix_case
    for side in (1, -1):
        om = sr.compute_Omega(sols[side], sols[-side])
        h0, h1, z_rec = sr.reconstruct_from_contour(sols[side])
        target = np.linalg.inv(np.eye(model.n) - om.omega)
        assert np.linalg.norm(h0 - target, 2) < 1e-8 * (1 + np.linalg.norm(h0, 2))
        assert np.linalg.norm(z_rec - sols[side].z_op, 2) < 1e-8
        # first moment is consistent with the zeroth: h1 = h0 adj-similar
        assert np.linalg.norm(h1 - z_rec @ h0, 2) < 1e-8 * (1 + np.linalg.norm(h1, 2))


def _recorded_rings(monkeypatch) -> list:
    """The list that collects the ring points of every analytic_rule call
    of reconstruct_from_contour, which sizes its rule by them."""
    import schurroots.riccati as riccati_mod

    rings = []
    rule = riccati_mod.analytic_rule

    def recording(model, contour, points):
        rings.append(np.asarray(points))
        return rule(model, contour, points)

    monkeypatch.setattr(riccati_mod, "analytic_rule", recording)
    return rings


def test_reconstruction_ring_stays_inside_the_neighborhood(monkeypatch, friedrichs_model,
                                                          zoo_solutions):
    # every ring point lies within radius + dist(center, sigma1) <= d/2 -
    # 0.05 cap of sigma1, so the ring needs no containment check
    rings = _recorded_rings(monkeypatch)
    ep = sr.build_model((-1.0, 1.0), np.diag([-EP_E0, EP_E0]), [EP_B])
    # a spectrum spread wide enough that the radius is its cap, 0.95 cap
    capped = sr.build_model((-1.0, 1.0), np.diag([-0.18, 0.18]), [0.1 * np.eye(2)])
    roots = [sol for _, _, sols in zoo_solutions for sol in sols.values()]
    for model in [friedrichs_model, ep, capped] + wide_models(1):
        roots += [sr.solve_basic(model, sr.make_contour(model, side)) for side in (1, -1)]
    assert len(roots) == 2 * (3 + len(zoo_solutions) + 3)
    for sol in roots:
        rings.clear()
        sr.reconstruct_from_contour(sol)
        (ring,) = rings
        d = sol.report.distance
        sigma1 = sol.model.sigma1
        center = complex(np.mean(sol.eigensystem.values))
        cap = 0.5 * d - float(np.min(np.abs(center - sigma1)))
        worst = float(np.max(np.min(np.abs(ring[:, None] - sigma1[None, :]), axis=1)))
        assert (worst - 0.5 * d) / cap <= -0.05 + 1e-9


def test_reconstruction_needs_circle():
    # a root whose report leaves a d/2-neighborhood smaller than its
    # eigenvalues' distance from sigma1: no circle fits, neither one about
    # all of spec Z nor one per eigenvalue of a1
    a1 = np.diag([-0.5, 0.5])
    model = sr.build_model((-1.0, 1.0), a1, [0.05 * np.eye(2)])
    c = sr.make_contour(model, 1)
    assert sr.admissibility(model, c).admissible
    sol = sr.solve_basic(model, c)
    shrunk = dataclasses.replace(sol, report=dataclasses.replace(sol.report, distance=1e-3))
    with pytest.raises(ValueError, match="no circle fits the d/2-neighborhood"):
        sr.reconstruct_from_contour(shrunk)


@pytest.mark.parametrize("eigs", [(-0.5, 0.5), (-0.3, 0.3), (-0.6, 0.0, 0.6)])
def test_reconstruction_sums_circles_about_spread_sigma1(monkeypatch, eigs):
    # sigma1 spread wider than d/2: the circle about the mean of spec Z does
    # not fit, so each eigenvalue of a1 gets its own circle, each enclosing
    # exactly one eigenvalue of Z, and their moments add up to
    # (I - Omega)^{-1} and to the root
    n = len(eigs)
    model = sr.build_model((-1.0, 1.0), np.diag(eigs), [0.05 * np.eye(n)])
    sols = {side: sr.solve_basic(model, sr.make_contour(model, side)) for side in (1, -1)}
    omegas = {side: sr.compute_Omega(sols[side], sols[-side]).omega for side in (1, -1)}
    rings = _recorded_rings(monkeypatch)
    for side in (1, -1):
        sol = sols[side]
        rings.clear()
        h0, _, z_rec = sr.reconstruct_from_contour(sol)
        (points,) = rings
        assert points.shape == (n * 256,)
        circles = points.reshape(n, 256)
        centers = np.mean(circles, axis=1)
        radii = np.abs(circles[:, 0] - centers)
        inside = np.abs(sol.eigensystem.values[:, None] - centers[None, :]) < radii[None, :]
        assert np.array_equal(np.sum(inside, axis=0), np.ones(n))
        assert np.array_equal(np.sum(inside, axis=1), np.ones(n))
        d = sol.report.distance
        worst = np.max(np.min(np.abs(points[:, None] - model.sigma1[None, :]), axis=1))
        assert worst < 0.5 * d
        target = np.linalg.inv(np.eye(n) - omegas[side])
        assert np.linalg.norm(h0 - target, 2) <= 1e-8 * (1.0 + np.linalg.norm(h0, 2))
        assert np.linalg.norm(z_rec - sol.z_op, 2) <= 1e-8 * (1.0 + np.linalg.norm(sol.z_op, 2))


def test_ysn_bounds_norm(matrix_case, friedrichs_model, friedrichs_contours):
    model, _, _, rics = matrix_case
    for side in (1, -1):
        bound = ysn_integral(rics[side])
        assert rics[side].y_norm ** 2 <= bound + 1e-8
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    ric = sr.compute_Y(sol)
    # scalar case: the bound saturates (single rational mode)
    assert abs(ysn_integral(ric) - ric.y_norm ** 2) < 1e-8


def test_factorization(matrix_case):
    model, contours, sols, _ = matrix_case
    rng = np.random.default_rng(31)
    d = sr.admissibility(model, contours[1]).distance
    for side in (1, -1):
        sol = sols[side]
        for _ in range(10):
            lam = float(rng.choice(model.sigma1))
            z = lam + rng.uniform(0.05, 0.45) * d * np.exp(2j * np.pi * rng.uniform())
            f1, m1_shared = (part[0] for part in factor_F1(sol, np.array([z])))
            m1 = sr.m1_continued(model, contours[side], complex(z))
            prod = f1 @ (sol.z_op - z * np.eye(model.n))
            assert np.linalg.norm(m1 - prod, 2) < 1e-9 * (1 + np.linalg.norm(m1, 2))
            # the M1 summed on F1's rule is M1 on its own rule
            assert np.linalg.norm(m1 - m1_shared, 2) < 1e-13 * (1 + np.linalg.norm(m1, 2))
            assert np.isfinite(np.linalg.cond(f1))


def _square_model(n, rng):
    # the zoo recipe (perfbench workloads.draw_model) at size n x n:
    # clustered interior spectrum and a coupling with orthonormal columns,
    # admissible on both sides
    pert = 0.03 * rng.normal(size=(n, n))
    a1 = 0.1 * np.eye(n) + 0.5 * (pert + pert.T)
    q, _ = np.linalg.qr(rng.normal(size=(n + 1, n)))
    return sr.build_model((-1.0, 1.0), a1, [0.08 * q, 0.015 * rng.normal(size=(n + 1, n))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_F1_batched_matches_per_point(n):
    rng = np.random.default_rng(700 + n)
    model = _square_model(n, rng)
    for side in (1, -1):
        contour = sr.make_contour(model, side)
        rep = sr.admissibility(model, contour)
        assert rep.admissible
        sol = sr.solve_basic(model, contour)
        lam = rng.choice(model.sigma1, size=9)
        zs = lam + rng.uniform(0.05, 0.45, size=9) * rep.distance * np.exp(
            2j * np.pi * rng.uniform(size=9))
        batched = factor_F1(sol, zs)
        per_point = [factor_F1(sol, zs[k:k + 1]) for k in range(9)]
        # F1, then M1
        for part, got in enumerate(batched):
            single = np.concatenate([pair[part] for pair in per_point])
            assert got.shape == (9, n, n)
            assert np.max(np.abs(got - single)) <= 1e-14 * np.max(np.abs(single))


def test_ysn_integrand_matches_svd_form(friedrichs_model, zoo_solutions):
    # ||K'(mu)|| and smin(Z - mu) in closed form for n <= 2, against the
    # two batched SVDs they replace, on the interval and at its ends
    nodes = np.linspace(-1.0, 1.0, 401)
    cases = [(friedrichs_model, {s: sr.solve_basic(
        friedrichs_model, sr.make_contour(friedrichs_model, s)) for s in (1, -1)})]
    cases += [(model, sols) for model, _, sols in zoo_solutions]
    worst = 0.0
    for model, sols in cases:
        for sol in sols.values():
            bv = model.b(nodes)
            kv = np.einsum("mij,mik->mjk", np.conj(bv), bv)
            shifted = sol.z_op[None] - nodes[:, None, None] * np.eye(model.n)[None]
            ref = (np.linalg.norm(kv, ord=2, axis=(1, 2))
                   / np.linalg.svd(shifted, compute_uv=False)[:, -1] ** 2)
            got = _ysn_integrand(model.b, sol.z_op, nodes)
            worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    assert worst <= 1e-12, worst


def _quartic_roots(z):
    """The roots of F^2 - 4 |det|^2 of Z - mu, continued from real mu:
    F(mu) = ||Z - mu||_F^2 = 2 mu^2 - 2 Re(tr Z) mu + ||Z||_F^2, and |det|^2
    = d(mu) dbar(mu) with d(mu) = det(Z - mu) and dbar its coefficients
    conjugated. Its leading two coefficients cancel exactly, and np.roots
    drops them."""
    tr, det = np.trace(z), np.linalg.det(z)
    f = np.array([2.0, -2.0 * tr.real, np.sum(np.abs(z) ** 2)])
    d = np.array([1.0, -tr, det])
    return np.roots((np.polymul(f, f) - 4.0 * np.polymul(d, np.conj(d))).real)


def _branch_point_cases(zoo_solutions):
    """(name, Z): every 2 x 2 zoo root on both sides, lam I, a real and a
    complex diagonal, a Jordan block and a conjugate pair on the diagonal."""
    cases = [(f"zoo[{k}]{side:+d}", sol.z_op) for k, (model, _, sols) in enumerate(zoo_solutions)
             for side, sol in sols.items() if model.n == 2]
    cases += [("scalar", (0.3 - 0.2j) * np.eye(2)),
              ("real-diagonal", np.diag([-0.25, 0.75]).astype(np.complex128)),
              ("complex-diagonal", np.diag([0.1 + 0.3j, -0.4 - 0.05j])),
              ("jordan", np.array([[0.2 + 0.1j, 1.0], [0.0, 0.2 + 0.1j]])),
              ("conjugate-pair", np.diag([0.2 + 0.1j, 0.2 - 0.1j]))]
    return cases


def test_smin_branch_points_against_the_quartic_and_the_svd(zoo_solutions):
    # mu* + i delta against np.roots of F^2 - 4|det|^2, and against the
    # singular values of Z - mu on the real axis: s1^2 - s2^2 = (s1 - s2)(s1
    # + s2) is 2|q| sqrt((mu - mu*)^2 + delta^2), so its minimum over a fine
    # grid sits at mu*, s1 - s2 vanishes there where delta = 0, and its
    # value at mu* +- delta is sqrt(2) times the value at mu*
    kinds = set()
    for name, z in _branch_point_cases(zoo_solutions):
        points = _smin_branch_points(z)
        if name in ("scalar", "conjugate-pair"):
            # s1 = s2 at every real mu (q = 0): no point
            assert points == [], name
            continue
        (point,) = points
        mu, delta = complex(point).real, complex(point).imag
        kinds.add(isinstance(point, complex))
        size = np.linalg.norm(z, 2)
        roots = _quartic_roots(z)
        for target in (complex(mu, delta), complex(mu, -delta)):
            assert np.min(np.abs(roots - target)) <= 1e-7 * size, (name, roots, point)
        width = max(delta, 1e-3 * size)
        grid = mu + width * np.linspace(-20.0, 20.0, 40001)
        sv = np.linalg.svd(z[None] - grid[:, None, None] * np.eye(2), compute_uv=False)
        assert abs(grid[np.argmin(sv[:, 0] ** 2 - sv[:, 1] ** 2)] - mu) <= 1e-3 * width, name
        at = np.linalg.svd(z[None] - np.array([mu, mu - delta, mu + delta])[:, None, None]
                           * np.eye(2), compute_uv=False)
        split = at[:, 0] ** 2 - at[:, 1] ** 2
        if isinstance(point, complex):
            assert np.allclose(split[1:] / split[0], np.sqrt(2.0), rtol=1e-6), name
        else:
            assert at[0, 0] - at[0, 1] <= 1e-7 * size, name
        if name == "real-diagonal":
            assert point == 0.25  # the bisector of the two eigenvalues
        if name == "jordan":
            assert abs(point - complex(0.2, np.hypot(0.1, 0.5))) <= 1e-15
    # the zoo's real kinks (zoo[3] and zoo[12]) and its complex points
    assert kinds == {True, False}
    # n = 1 has no point
    assert all(_smin_branch_points(sol.z_op) == [] for model, _, sols in zoo_solutions
               for sol in sols.values() if model.n == 1)


@pytest.mark.parametrize("exponent", [-500, 500])
def test_smin_branch_points_scale_exactly(zoo_solutions, exponent):
    # Z is divided by a power of two first, so 2^k Z gives 2^k times the
    # point, bit for bit, with no overflow or underflow
    factor = 2.0 ** exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, z in _branch_point_cases(zoo_solutions):
            scaled = _smin_branch_points(factor * z)
            assert scaled == [factor * p for p in _smin_branch_points(z)], name


def test_ceiling_matches_a_reference_with_every_kink_marked(friedrichs_model, zoo_solutions):
    # the ceiling at rtol 1e-9 against one at rtol 1e-13 started graded
    # toward np.roots of the quartic and the crossings of the eigenvalues
    # of K' as well, the kinks the ceiling leaves unmarked, over both sides
    # of Friedrichs, the zoo and hard_models()
    models = [friedrichs_model] + [model for model, _, _ in zoo_solutions]
    models += [model for _, model in hard_models()]
    worst = 0.0
    for model in models:
        for side in (1, -1):
            ric = sr.compute_Y(sr.solve_basic(model, sr.make_contour(model, side)))
            z = ric.root.z_op
            poles = list(ric.root.eigensystem.values) + list(kprime_crossings(model))
            poles += list(_quartic_roots(z)) if model.n == 2 else []
            ref, _ = adaptive_quad(lambda nodes: _ysn_integrand(model.b, z, nodes),
                                   *model.interval, rtol=1e-13, poles=poles)
            worst = max(worst, abs(ysn_integral(ric) - ref.real) / abs(ref.real))
    assert worst <= 1e-9, worst


def test_riccati_reads_the_roots_eigensystem(monkeypatch, matrix_case):
    # once a root's eigensystem is taken, nothing downstream of the root
    # decomposes its Z again
    model, contours, sols, _ = matrix_case
    sols = {side: dataclasses.replace(sol) for side, sol in sols.items()}
    for sol in sols.values():
        assert sol.eigensystem.basis is not None

    def refuse(*args, **kwargs):
        raise AssertionError("a root was decomposed again")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    zs = np.array([0.05 + 0.1j, -0.1 - 0.05j])
    for side in (1, -1):
        sol, other = sols[side], sols[-side]
        ric = sr.compute_Y(sol)
        assert ric.root is sol and ric.gram_route == "closed-form"
        sr.j_orthogonality(ric, rational_trials(ric, 4, seed=1))
        ysn_integral(ric)
        sr.compute_Omega(sol, other)
        sr.omega_by_deformation(sol, other)
        factor_F1(sol, zs)
        sr.reconstruct_from_contour(sol)
        sr.classify(sol)
