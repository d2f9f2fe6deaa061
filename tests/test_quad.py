"""Adaptive panel quadrature against closed-form integrals and against
the sequential scheme it replaced."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schurroots as sr
from schurroots import riccati
from schurroots._quad import _RHO, _kronrod_rule, _rule, _start_panels, adaptive_quad
from schurroots.errors import NumericsError

from conftest import kprime_crossings


def test_cubic_exact():
    val, stats = adaptive_quad(lambda x: x ** 3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-13
    assert stats["panels"] >= 1


def test_exponential():
    val, _ = adaptive_quad(lambda x: np.exp(x), -1.0, 1.0)
    assert abs(val - (np.e - 1.0 / np.e)) < 1e-12


def test_oscillatory():
    # int_0^pi sin(7x) dx = 2/7
    val, _ = adaptive_quad(lambda x: np.sin(7 * x), 0.0, np.pi,
                           rtol=1e-12)
    assert abs(val - 2.0 / 7.0) < 1e-11


def test_matrix_valued():
    def f(x):
        return np.stack([np.ones_like(x), x, x ** 2, x ** 3], axis=-1).reshape(-1, 2, 2)

    val, _ = adaptive_quad(f, 0.0, 2.0)
    expect = np.array([[2.0, 2.0], [8.0 / 3.0, 4.0]])
    assert np.max(np.abs(val - expect)) < 1e-12


def test_break_at_kink():
    # |x| on [-1, 1]: a break at 0 makes each panel smooth
    f = lambda x: np.abs(x)
    val, stats = adaptive_quad(f, -1.0, 1.0, poles=(0.0,))
    assert abs(val - 1.0) < 1e-12
    # the kink never sits inside a panel, so few panels suffice
    assert stats["panels"] <= 8


def test_budget_exhaustion():
    # needle too sharp for two panels
    f = lambda x: 1.0 / (1e-8 + x ** 2)
    with pytest.raises(NumericsError):
        adaptive_quad(f, -1.0, 1.0, rtol=1e-13, max_panels=2)


def test_complex_integrand():
    val, _ = adaptive_quad(lambda x: np.exp(1j * x), 0.0, np.pi)
    assert abs(val - 2j) < 1e-12


def test_round_and_panel_counts():
    calls = []

    def f(x):
        calls.append(x.shape[0])
        return np.sin(7 * x)

    _, info = adaptive_quad(f, 0.0, np.pi, rtol=1e-12)
    # one call per round, each on the 33 Gauss-Kronrod nodes (the 16 Gauss
    # nodes and 17 more) of every new panel
    assert len(calls) == info["rounds"] < info["panels"]
    assert sum(calls) == 33 * info["panels"]
    _, info = adaptive_quad(lambda x: x ** 3, 0.0, 1.0)
    assert info["rounds"] == 1 and info["panels"] == 1


def test_kronrod_rule():
    # the 33-node extension of the 16-node Gauss rule: degree 3 * 16 + 1 =
    # 49, the Gauss nodes copied in bit for bit, positive weights summing
    # to the length of [-1, 1]
    x, w = _kronrod_rule(16)
    assert x.shape == w.shape == (33,)
    assert np.array_equal(x[:16], _rule(16)[0])
    assert np.unique(x).shape == (33,) and np.all(np.abs(x) <= 1.0)
    assert np.all(w > 0.0)
    assert abs(np.sum(w) - 2.0) <= 1e-14
    for k in range(50):
        # relative to the integral of |x|^k, 2 / (k + 1), where x^k's is 0
        size = 2.0 / (k + 1)
        exact = size if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 1e-14 * size, k


def test_budget_refused_before_evaluating():
    calls = []

    def f(x):
        calls.append(1)
        return 1.0 / (1e-8 + x ** 2)

    # the first bisection would make 3 panels out of a budget of 2
    with pytest.raises(NumericsError, match="exhausted 2 panels"):
        adaptive_quad(f, -1.0, 1.0, rtol=1e-13, max_panels=2)
    assert len(calls) == 1


@pytest.mark.parametrize("weighted", [
    lambda x: np.sum(np.exp(x)),
    lambda x: np.eye(2) * np.sum(x),
    lambda x: np.exp(x)[:16],
])
def test_weighted_panel_sum_rejected(weighted):
    # a caller still written for f(nodes, weights) -> panel sum must fail
    # loudly rather than broadcast into a wrong value
    with pytest.raises(ValueError, match="one unweighted value per node"):
        adaptive_quad(weighted, 0.0, 1.0)


_FINITE = {"allow_nan": False, "allow_infinity": False}


@st.composite
def graded_starts(draw):
    """(a, b, complex poles, real poles): complex poles at least 1e-4 off
    the axis, feet and real poles within one interval length of it."""
    a = draw(st.floats(-10.0, 10.0, **_FINITE))
    width = draw(st.floats(1e-3, 20.0, **_FINITE))
    b = a + width
    along = st.floats(a - width, b + width, **_FINITE)
    off = st.tuples(st.floats(1e-4, 10.0, **_FINITE), st.sampled_from((-1.0, 1.0)))
    feet = draw(st.lists(st.tuples(along, off), max_size=4))
    return (a, b, [complex(x, sign * h) for x, (h, sign) in feet],
            draw(st.lists(along, max_size=3)))


# real poles alone: four panels, past a budget of three
_REAL_ALONE = (0.0, 1.0, [], [0.25, 0.5, 0.75])
# panels of subnormal width, whose half-width underflows
_SUBNORMAL = ((-5e-324, 1.0, [-1j], []),
              (0.0, 1.0, [-1j], [2.2250738585e-313]))
# |p - a| of the first pole overflows a float, where abs of a complex
# raises OverflowError; the second takes about 27 levels of bisection
_HUGE = (-8e307, 8e307, [8e307 + 1.5e308j, 1e307 + 1e300j], [])


@settings(max_examples=200, deadline=None)
@given(graded_starts())
@example(_REAL_ALONE)
@example(_SUBNORMAL[0])
@example(_SUBNORMAL[1])
@example(_HUGE)
def test_graded_start_partition(start):
    a, b, complex_poles, real_poles = start
    poles = complex_poles + real_poles
    los, his = _start_panels(a, b, poles)
    # the panels tile [a, b]
    assert los[0] == a and his[-1] == b
    assert np.array_equal(los[1:], his[:-1]) and np.all(his > los)
    # every complex pole lies outside every panel's _RHO ellipse: the
    # Bernstein parameter of its preimage in [-1, 1] is at least _RHO. A
    # preimage that is not finite (a panel of subnormal width) is far
    # outside.
    for p in complex_poles:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = (p - 0.5 * (los + his)) / (0.5 * (his - los))
            root = np.sqrt(x - 1.0) * np.sqrt(x + 1.0)
            rho = np.maximum(np.abs(x + root), np.abs(x - root))
        clear = ~np.isfinite(x) | (rho >= _RHO * (1.0 - 1e-9))
        assert np.all(clear), (p, np.min(rho))
    # every real pole inside (a, b) is a panel end
    ends = set(los) | set(his)
    for x in real_poles:
        assert not a < x < b or x in ends
    # a start past the budget is refused before the integrand is called
    calls = []

    def f(nodes):
        calls.append(1)
        return nodes

    with pytest.raises(NumericsError, match="exhausted"):
        adaptive_quad(f, a, b, poles=poles, max_panels=los.shape[0] - 1)
    assert calls == []


def _breadth_first_start(a, b, poles, max_panels):
    """The rule of _start_panels, level by level: the real poles inside
    (a, b) are panel ends, and each level bisects every panel whose _RHO
    ellipse holds a complex pole, testing every complex pole against every
    panel. Distances are math.hypot of the parts, as in _start_panels."""
    poles = [complex(p) for p in poles]
    inner = [p.real for p in poles if p.imag == 0.0 and a < p.real < b]
    ends = np.unique(np.array([a, b] + inner, dtype=float)).tolist()
    graded = [p for p in poles if p.imag != 0.0]
    reach = 0.5 * (_RHO + 1.0 / _RHO)
    panels = list(zip(ends[:-1], ends[1:]))
    while True:
        split = [any(math.hypot(p.real - lo, p.imag) + math.hypot(p.real - hi, p.imag)
                     < reach * (hi - lo) for p in graded)
                 for lo, hi in panels]
        if len(panels) + sum(split) > max_panels:
            raise NumericsError(f"adaptive quadrature exhausted {max_panels} panels")
        if not any(split):
            return np.array([lo for lo, _ in panels]), np.array([hi for _, hi in panels])
        level = []
        for (lo, hi), bisect in zip(panels, split):
            mid = 0.5 * (lo + hi)
            level += [(lo, mid), (mid, hi)] if bisect else [(lo, hi)]
        panels = level


@settings(max_examples=300, deadline=None)
@given(graded_starts(), st.integers(1, 80))
@example(_REAL_ALONE, 3)
@example(_SUBNORMAL[0], 4000)
@example(_SUBNORMAL[1], 4000)
@example(_HUGE, 4000)
@example(_HUGE, 1)
# |p - a| + |p - b| is 2.9 = (b - a)(_RHO + 1/_RHO)/2 in floats: on the
# ellipse, which is outside
@example((-1.0, 1.0, [1.05j], []), 4000)
def test_start_matches_breadth_first_reference(start, max_panels):
    # the depth-first start is the level-by-level partition, float for
    # float, and refuses exactly the budgets that the reference refuses
    a, b, complex_poles, real_poles = start
    poles = complex_poles + real_poles
    try:
        ref = _breadth_first_start(a, b, poles, max_panels)
    except NumericsError:
        with pytest.raises(NumericsError, match=f"exhausted {max_panels} panels"):
            _start_panels(a, b, poles, max_panels)
        return
    los, his = _start_panels(a, b, poles, max_panels)
    assert np.array_equal(los, ref[0]) and np.array_equal(his, ref[1])


def _reference_quad(f, a, b, rtol=1e-11, poles=(), max_panels=4000):
    """The sequential scheme the batched one replaced: two calls of f per
    panel, one panel bisected at a time, worst first out of a heap. It
    starts from the same graded partition, so panel counts compare like
    for like."""

    def panel_value(lo, hi, n):
        x, w = _rule(n)
        half = 0.5 * (hi - lo)
        return np.tensordot(half * w, f(0.5 * (lo + hi) + half * x), axes=1)

    counter = 0
    heap = []
    total = None
    err_by_id = {}

    def push(lo, hi):
        nonlocal counter, total
        coarse = panel_value(lo, hi, 16)
        fine = panel_value(lo, hi, 32)
        err = float(np.linalg.norm(np.ravel(fine - coarse)))
        total = fine if total is None else total + fine
        heapq.heappush(heap, (-err, counter, lo, hi, fine))
        err_by_id[counter] = err
        counter += 1

    for lo, hi in zip(*_start_panels(a, b, poles, max_panels)):
        push(lo, hi)

    while True:
        est = sum(err_by_id.values())
        scale = max(1.0, float(np.linalg.norm(np.ravel(total))))
        if est <= rtol * scale:
            return total, {"panels": counter, "error": est}
        if counter >= max_panels:
            raise NumericsError(f"adaptive quadrature exhausted {max_panels} panels")
        _, cid, lo, hi, fine = heapq.heappop(heap)
        del err_by_id[cid]
        total = total - fine
        mid = 0.5 * (lo + hi)
        push(lo, mid)
        push(mid, hi)


# The Gram matrix and the J-pairing's <x0, Y x1> are closed forms on
# these models; tests/test_closed_forms.py checks them against their
# quadratures.
_FAMILIES = ("bstar_y", "omega", "ysn", "j-rhs")


@pytest.fixture(scope="module")
def riccati_integrands(friedrichs_model, friedrichs_contours, zoo_solutions):
    """(family, f, a, b, rtol, poles, model) of every interval quadrature
    that compute_Y, omega_by_deformation, ysn_integral and the stacked
    J-pairings make, for the Friedrichs model and the zoo on both sides."""
    friedrichs = {s: sr.solve_basic(friedrichs_model, friedrichs_contours[s])
                  for s in (1, -1)}
    cases = [(friedrichs_model, friedrichs)] + [
        (model, sols) for model, _, sols in zoo_solutions]
    captured = []

    def recording(f, a, b, rtol=1e-11, poles=()):
        captured.append((f, a, b, rtol, poles))
        return adaptive_quad(f, a, b, rtol=rtol, poles=poles)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riccati, "adaptive_quad", recording)
        for model, sols in cases:
            for side in (1, -1):
                captured.clear()
                ric = sr.compute_Y(sols[side])
                sr.omega_by_deformation(sols[side], sols[-side])
                sr.ysn_integral(ric)
                riccati._j_pairings(ric, riccati.rational_trials(ric, 20, seed=0))
                assert len(captured) == len(_FAMILIES)
                out.extend((family,) + args + (model,)
                           for family, args in zip(_FAMILIES, captured))
    return out


def test_batched_matches_sequential_reference(riccati_integrands):
    panels = {name: [0, 0] for name in _FAMILIES}
    for family, f, a, b, rtol, poles, _ in riccati_integrands:
        calls = []

        def counted(nodes, f=f):
            calls.append(1)
            return f(nodes)

        value, info = adaptive_quad(counted, a, b, rtol=rtol, poles=poles)
        ref, ref_info = _reference_quad(f, a, b, rtol=rtol, poles=poles)
        tol = rtol * max(1.0, float(np.linalg.norm(np.ravel(value))))
        assert info["error"] <= tol, family
        assert float(np.linalg.norm(np.ravel(value - ref))) <= tol, family
        assert len(calls) == info["rounds"] < info["panels"], family
        panels[family][0] += info["panels"]
        panels[family][1] += ref_info["panels"]
    for family, (batched, reference) in panels.items():
        assert batched <= 1.1 * reference, (family, batched, reference)


def _unmarked_kprime_crossings(model, a, b, poles):
    """The points where the two eigenvalues of K' meet (kprime_crossings)
    that the start on _start_panels(a, b, poles) does not take in: a real
    one in (a, b), a kink of ||K'||, that is no panel end, and a complex
    one, an avoided crossing, inside the _RHO ellipse of a panel."""
    los, his = _start_panels(a, b, poles)
    ends = np.concatenate([los, his])
    reach = 0.5 * (_RHO + 1.0 / _RHO) * (his - los)
    unmarked = []
    for root in kprime_crossings(model):
        if abs(root.imag) <= 1e-6:
            if a < root.real < b and np.min(np.abs(ends - root.real)) > 1e-6:
                unmarked.append(root)
        elif np.any(np.abs(root - los) + np.abs(root - his) < reach):
            unmarked.append(root)
    return unmarked


def test_graded_start_meets_rtol_in_one_round(riccati_integrands):
    # every pole of the rational integrands is known, so the graded start
    # alone meets the tolerance. The norm ceiling's integrand branches
    # where smin(Z - mu) does, which its start takes in (for n = 2, at the
    # closed-form branch points), and where the two eigenvalues of K' cross
    # or nearly cross, which no pole marks: it meets the tolerance in one
    # round on every side whose start leaves no such crossing unmarked,
    # among them 22 of the 24 n = 2 zoo sides
    ceilings = 0
    for family, f, a, b, rtol, poles, model in riccati_integrands:
        if family == "ysn" and _unmarked_kprime_crossings(model, a, b, poles):
            continue
        _, info = adaptive_quad(f, a, b, rtol=rtol, poles=poles)
        assert info["rounds"] == 1, family
        ceilings += family == "ysn" and model.n == 2
    assert ceilings >= 22
