"""Closed-form scalar oracle: transcendental root, winding counts,
and behavior beyond the contraction regime.

The in-file bisection oracle pins the Newton solver; the frozen constant
guards against drift between runs.
"""

import numpy as np
import pytest

import schurroots.friedrichs as fr
from schurroots.errors import ModelError, NumericsError

Y_ORACLE = 0.11639390461355939


def bisect_y(alpha, b, steps=200):
    lo, hi = 1e-12, b * b * np.pi + 1e-9
    f = lambda y: y - 2 * b * b * np.arctan(alpha / y)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_y_frozen():
    y = fr.solve_y(1.0, 0.2)
    assert abs(y - Y_ORACLE) < 1e-13
    assert abs(y - bisect_y(1.0, 0.2)) < 1e-12


def test_solve_y_defining_equation():
    for alpha, b in [(1.0, 0.2), (2.0, 0.5), (0.5, 0.1), (1.0, 0.9), (3.0, 1.5)]:
        y = fr.solve_y(alpha, b)
        assert 0 < y <= b * b * np.pi
        assert abs(y - 2 * b * b * np.arctan(alpha / y)) < 1e-13 * max(1.0, y)


def test_solve_y_monotone_in_b():
    ys = [fr.solve_y(1.0, b) for b in (0.1, 0.2, 0.3, 0.5, 0.8)]
    assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))


def test_params_validation():
    with pytest.raises(ModelError):
        fr.FriedrichsParams(-1.0, 0.2)
    with pytest.raises(ModelError):
        fr.FriedrichsParams(1.0, -0.2)


def test_closed_m1_vanishes_at_roots():
    p = fr.FriedrichsParams(1.0, 0.2)
    zp, zm, y_norm, yfun = fr.oracle_solution(p)
    assert zp == -zm
    assert abs(zp - (-1j * Y_ORACLE)) < 1e-13
    assert abs(fr.closed_m1(p, zp)) < 1e-12
    assert abs(fr.closed_m1(p, zm)) < 1e-12
    assert y_norm == 1.0


def test_closed_m1_cut_rejected():
    p = fr.FriedrichsParams(1.0, 0.2)
    with pytest.raises(ValueError):
        fr.closed_m1(p, 0.3 + 0j)
    # just off the cut is fine
    fr.closed_m1(p, 0.3 + 1e-12j)


def test_oracle_y_function():
    p = fr.FriedrichsParams(1.0, 0.2)
    zp, _, _, yfun = fr.oracle_solution(p)
    mus = np.linspace(-0.9, 0.9, 7)
    got = yfun(mus, side=1)
    expect = -0.2 / (mus + 1j * Y_ORACLE)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_winding_counts():
    for alpha, b in [(1.0, 0.2), (1.0, 0.25), (2.0, 0.3)]:
        p = fr.FriedrichsParams(alpha, b)
        assert fr.winding_count(p, 1) == 1
        assert fr.winding_count(p, -1) == 1


def test_beyond_contraction_regime():
    # b^2 = 0.1 > 1/(4 pi): the fixed-point bound fails yet the closed
    # form still produces honest roots
    b = float(np.sqrt(0.1))
    assert b * b > 1.0 / (4 * np.pi)
    p = fr.FriedrichsParams(1.0, b)
    zp, zm, _, _ = fr.oracle_solution(p)
    assert abs(fr.closed_m1(p, zp)) <= 1e-12
    assert abs(fr.closed_m1(p, zm)) <= 1e-12
    assert fr.winding_count(p, 1) == 1


def test_oracle_requires_symmetric_case():
    # the parameters hold only the symmetric case (a1 = 0); of those, the
    # oracle refuses b = 0
    with pytest.raises(ModelError):
        fr.oracle_solution(fr.FriedrichsParams(1.0, 0.0))
