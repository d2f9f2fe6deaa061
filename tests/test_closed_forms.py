"""Closed-form Gram matrix and J-pairing against the quadratures they
replaced.

The references are the integrands that compute_Y and _j_pairings summed
by adaptive quadrature before the closed forms: (Z^* - mu)^{-1} K'(mu)
(Z - mu)^{-1} for the Gram matrix and conj(x0_t(mu)) . y(mu) x1_t for
<x0_t, Y x1_t>, summed here at rtol 1e-13.
"""

import dataclasses

import numpy as np
import pytest

import schurroots as sr
from schurroots import riccati, rootsolver
from schurroots._kernels import _sandwich_products
from schurroots._quad import adaptive_quad
from schurroots.riccati import _j_pairings, rational_trials, ysn_integral

from conftest import RECT_DEPTH, wide_models

_REF_RTOL = 1e-13
_AGREE = 1e-13


def gram_reference(model, sol):
    sm = model.scaled(sol.coupling_scale)
    z = sol.z_op
    zh = np.conj(z.T)

    def values(nodes):
        mus = nodes.astype(np.complex128)
        return _sandwich_products(sm.kprime_values(mus), mus, zh, z)

    a, b = model.interval
    gram, _ = adaptive_quad(values, a, b, rtol=_REF_RTOL,
                            poles=np.linalg.eigvals(z))
    return 0.5 * (gram + np.conj(gram.T))


def lhs_reference(ric, trials):
    poles, cs, x1s = trials

    def values(nodes):
        x0 = cs[None] / (nodes.astype(np.complex128)[:, None, None]
                         - poles[None, :, None])
        yx1 = ric.y_values(nodes) @ x1s.T
        return np.einsum("mti,mit->mt", np.conj(x0), yx1)

    a, b = ric.root.model.interval
    lhs, _ = adaptive_quad(values, a, b, rtol=_REF_RTOL,
                           poles=np.concatenate([np.linalg.eigvals(ric.root.z_op), poles]))
    return lhs


def counted_pairings(monkeypatch, ric, trials):
    """(lhs, rhs, number of adaptive quadratures _j_pairings made)."""
    calls = []
    original = riccati.adaptive_quad

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(riccati, "adaptive_quad", counting)
        lhs, rhs = _j_pairings(ric, trials)
    return lhs, rhs, len(calls)


def gram_gap(ric, ref) -> float:
    return float(np.linalg.norm(ric.gram - ref, 2) / np.linalg.norm(ref, 2))


def lhs_gap(ric, lhs, ref) -> float:
    return float(np.max(np.abs(lhs - ref)) / (1.0 + ric.y_norm))


@pytest.fixture(scope="module")
def solved_cases(friedrichs_model, model_zoo):
    """(model, solution) for the Friedrichs model, the zoo and the wide
    models at seeds 1-2, on the semicircle and the depth-0.5 rectangle
    wherever admissible, both sides; then three zoo models at coupling
    scale 0.5 on the semicircle."""
    cases = []
    for model in [friedrichs_model] + model_zoo + wide_models(1, 2):
        for kind, depth in (("semicircle", None), ("rectangle", RECT_DEPTH)):
            for side in (1, -1):
                contour = sr.make_contour(model, side, kind=kind, depth=depth)
                rep = sr.admissibility(model, contour)
                if rep.admissible:
                    cases.append((model, sr.solve_basic(model, contour)))
    # the Friedrichs model is inadmissible on the rectangle
    assert len(cases) == 106
    for model in model_zoo[:3]:
        for side in (1, -1):
            cases.append((model, sr.solve_basic(model, sr.make_contour(model, side), 0.5)))
    return cases


def test_closed_forms_match_their_quadratures(monkeypatch, solved_cases):
    worst_gram = worst_lhs = 0.0
    for model, sol in solved_cases:
        ric = sr.compute_Y(sol)
        assert ric.gram_route == "closed-form"
        worst_gram = max(worst_gram, gram_gap(ric, gram_reference(model, sol)))
        trials = rational_trials(ric, 20, seed=0)
        lhs, _, quads = counted_pairings(monkeypatch, ric, trials)
        # only Y^* x0 was a quadrature
        assert quads == 1
        worst_lhs = max(worst_lhs, lhs_gap(ric, lhs, lhs_reference(ric, trials)))
    assert worst_gram <= _AGREE, worst_gram
    assert worst_lhs <= _AGREE, worst_lhs


def test_confluent_gram_takes_the_closed_form():
    # sigma1 = {1.5} right of the interval: the root has a real eigenvalue,
    # which pairs with its own conjugate exactly, and the divided difference
    # there is the derivative
    model = sr.build_model((-1.0, 1.0), [[1.5]], [[[0.05]]])
    for side in (1, -1):
        sol = sr.solve_basic(model, sr.make_contour(model, side))
        eig = complex(sol.z_op[0, 0])
        assert eig.imag == 0.0 and eig.real > 1.0
        ric = sr.compute_Y(sol)
        assert ric.gram_route == "closed-form"
        assert gram_gap(ric, gram_reference(model, sol)) <= _AGREE


def test_ill_conditioned_basis_falls_back_to_quadrature(monkeypatch, model_zoo):
    model = next(m for m in model_zoo if m.n == 2)
    sol = sr.solve_basic(model, sr.make_contour(model, 1))
    closed = sr.compute_Y(sol)
    # the limit is read when a root's eigensystem is taken, so on a fresh root
    monkeypatch.setattr(rootsolver, "_COND_LIMIT", 0.0)
    ric = sr.compute_Y(dataclasses.replace(sol))
    assert ric.gram_route == "quadrature" and ric.root.eigensystem.basis is None
    assert gram_gap(ric, gram_reference(model, sol)) <= _AGREE
    trials = rational_trials(ric, 20, seed=0)
    lhs, rhs, quads = counted_pairings(monkeypatch, ric, trials)
    assert quads == 2
    assert lhs_gap(ric, lhs, lhs_reference(ric, trials)) <= _AGREE
    closed_lhs, closed_rhs = _j_pairings(closed, trials)
    assert lhs_gap(ric, lhs, closed_lhs) <= _AGREE
    assert np.max(np.abs(rhs - closed_rhs)) <= _AGREE * (1.0 + ric.y_norm)


def test_confluent_trial_pole_takes_the_closed_form(monkeypatch, friedrichs_model,
                                                    friedrichs_contours):
    # a trial pole at conj(d) makes g[q, d] confluent: the derivative
    sol = sr.solve_basic(friedrichs_model, friedrichs_contours[1])
    ric = sr.compute_Y(sol)
    trials = rational_trials(ric, 4, seed=2)
    trials[0][0] = np.conj(complex(sol.z_op[0, 0]))
    lhs, _, quads = counted_pairings(monkeypatch, ric, trials)
    # only Y^* x0 was a quadrature
    assert quads == 1
    assert lhs_gap(ric, lhs, lhs_reference(ric, trials)) <= _AGREE


def test_closed_form_rows_are_not_zero_by_construction(monkeypatch, zoo_solutions):
    # j-orthogonality compares a closed form with a quadrature, and
    # y-norm-ceiling the closed-form ||Y||^2 with a quadrature: neither
    # residual is 0.0 by construction. On n = 1 the ceiling is an identity,
    # ||Y||^2 = 1 equals the integral up to roundoff, and the residual can
    # be 0.0 by coincidence; there, scaling the integrand by 1 + 1e-9 must
    # move the residual by 1e-9 of the integral, so the quadrature path is
    # live
    integrand = riccati._ysn_integrand
    for model, _, sols in zoo_solutions:
        for sol in sols.values():
            ric = sr.compute_Y(sol)
            trials = rational_trials(ric, 20, seed=0)
            assert sr.j_orthogonality(ric, trials) != 0.0
            ysn = ysn_integral(ric)
            if model.n > 1:
                assert ric.y_norm ** 2 - ysn != 0.0
                continue
            with monkeypatch.context() as mp:
                mp.setattr(riccati, "_ysn_integrand",
                           lambda *args: (1.0 + 1e-9) * integrand(*args))
                moved = ysn_integral(ric) - ysn
            assert abs(moved - 1e-9 * ysn) <= 1e-3 * 1e-9 * ysn
