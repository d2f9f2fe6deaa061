"""Transfer-function evaluation on and off the physical sheet.

The independent oracle is direct scipy quadrature of
W1(z) = int K'(mu) / (mu - z) dmu entry by entry, which shares no code
with the evaluation paths under test.
"""

import re

import numpy as np
import pytest
from scipy.integrate import quad

import schurroots as sr
from schurroots.schur import (_cut_moments, m1_continued_many, w1_boundary,
                              w1_physical)


def quad_w1(model, z, entry=(0, 0)):
    i, j = entry
    lo, hi = model.interval

    def fre(mu):
        return (model.kprime_values(np.array([mu]))[0][i, j] / (mu - z)).real

    def fim(mu):
        return (model.kprime_values(np.array([mu]))[0][i, j] / (mu - z)).imag

    re, _ = quad(fre, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(fim, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return complex(re, im)


def test_w1_against_quadrature(friedrichs_model):
    zs = np.array([0.3 + 0.4j, -0.7 - 0.2j, 1.5 + 0.0j, 0.1 + 1e-3j])
    for z, got in zip(zs, w1_physical(friedrichs_model, zs)[:, 0, 0]):
        assert abs(got - quad_w1(friedrichs_model, z)) < 1e-11


def test_w1_matrix_against_quadrature():
    rng = np.random.default_rng(21)
    coeffs = [0.3 * rng.normal(size=(2, 2)) for _ in range(3)]
    model = sr.build_model((-1.0, 1.0), np.zeros((2, 2)), coeffs)
    z = 0.25 + 0.6j
    got = w1_physical(model, np.array([z]))[0]
    for i in range(2):
        for j in range(2):
            assert abs(got[i, j] - quad_w1(model, z, (i, j))) < 1e-10


def test_m1_circle_relation(friedrichs_model):
    # M1(z) = a1 - z + W1(z)
    z = -0.4 + 0.9j
    m1 = sr.m1_physical(friedrichs_model, np.array([z]))[0, 0, 0]
    w1 = w1_physical(friedrichs_model, np.array([z]))[0, 0, 0]
    assert abs(m1 - (0.0 - z + w1)) < 1e-13


def test_on_cut_rejected(friedrichs_model):
    with pytest.raises(ValueError):
        w1_physical(friedrichs_model, np.array([0.3 + 0j]))
    with pytest.raises(ValueError):
        sr.m1_physical(friedrichs_model, np.array([-0.99 + 0j]))
    # off the cut on the real axis is fine
    sr.m1_physical(friedrichs_model, np.array([1.7 + 0j]))


def test_sheets_formula(friedrichs_model, friedrichs_contours):
    # inside the side-l lens: M1(z, Gamma^l) = M1(z) - 2 pi i l K'(z)
    for side in (1, -1):
        z = 0.2 + side * 0.1j
        cont = sr.m1_continued(friedrichs_model, friedrichs_contours[side], z)
        phys = sr.m1_physical(friedrichs_model, np.array([z]))[0]
        kp = friedrichs_model.kprime_values(np.array([z]))[0]
        expect = phys - 2j * np.pi * side * kp
        assert np.max(np.abs(cont - expect)) < 1e-12
        via_op = sr.sheets_value(friedrichs_model, np.array([z]),
                                 friedrichs_contours[side])[0]
        assert np.max(np.abs(via_op - expect)) < 1e-12


def test_continuation_agrees_outside_lens(friedrichs_model, friedrichs_contours):
    # outside the lens the contour value is the physical value
    for z in (0.3 - 0.5j, 1.8 + 0.2j, -0.2 + 1.4j):
        cont = sr.m1_continued(friedrichs_model, friedrichs_contours[1], z)
        phys = sr.m1_physical(friedrichs_model, np.array([z]))[0]
        assert np.max(np.abs(cont - phys)) < 1e-11


def test_continued_many_matches_loop(friedrichs_model, friedrichs_contours):
    zs = np.array([0.1 + 0.2j, -0.3 + 0.4j, 0.5 - 0.6j, 1.4 + 0.0j])
    batch = m1_continued_many(friedrichs_model, friedrichs_contours[1], zs)
    for k, z in enumerate(zs):
        single = sr.m1_continued(friedrichs_model, friedrichs_contours[1], complex(z))
        assert np.max(np.abs(batch[k] - single)) < 1e-14


def test_node_collision_guard(friedrichs_model, friedrichs_contours):
    c = friedrichs_contours[1]
    z = complex(c.nodes[len(c.nodes) // 2])
    with pytest.raises(ValueError):
        sr.m1_continued(friedrichs_model, c, z)


def test_boundary_limits(friedrichs_model):
    eps = 1e-6
    lams = np.array([-0.62, 0.0, 0.37, 0.88])
    for approach in (1, -1):
        wb = w1_boundary(friedrichs_model, lams, approach)[:, 0, 0]
        wl = w1_physical(friedrichs_model, lams + approach * 1j * eps)[:, 0, 0]
        assert np.max(np.abs(wb - wl)) < 1e-5
    # jump across the cut is the residue of the density
    lam = np.array([0.37])
    jump = (w1_boundary(friedrichs_model, lam, 1)
            - w1_boundary(friedrichs_model, lam, -1))[0, 0, 0]
    assert abs(jump - 2j * np.pi * 0.04) < 1e-13


def test_boundary_imag_matrix():
    rng = np.random.default_rng(22)
    coeffs = [0.3 * rng.normal(size=(3, 2)) for _ in range(2)]
    model = sr.build_model((-1.0, 1.0), np.zeros((2, 2)), coeffs)
    lams = np.array([-0.5, 0.11, 0.74])
    kp = model.kprime_values(lams)
    for approach in (1, -1):
        w = w1_boundary(model, lams, approach)
        im_part = (w - np.conj(np.swapaxes(w, 1, 2))) / 2j
        assert np.max(np.abs(im_part - approach * np.pi * kp)) < 1e-12


def test_herglotz_positivity():
    rng = np.random.default_rng(23)
    coeffs = [0.4 * rng.normal(size=(2, 2)) for _ in range(2)]
    model = sr.build_model((-1.0, 1.0), np.zeros((2, 2)), coeffs)
    zs = np.array([complex(rng.uniform(-2, 2), rng.uniform(1e-3, 2.0))
                   for _ in range(25)])
    w = w1_physical(model, zs)
    im_part = (w - np.conj(np.swapaxes(w, 1, 2))) / 2j
    assert np.min(np.linalg.eigvalsh(im_part)) > -1e-10


@pytest.mark.parametrize("kind, depth", [("semicircle", None), ("rectangle", 0.5)])
@pytest.mark.parametrize("side", [1, -1])
def test_continued_moments_equal_the_contour_integral(friedrichs_model, kind,
                                                      depth, side):
    # the side-l branch is the contour integral of mu^s/(mu - z) in the
    # lens, on the open interval and in the opposite half-plane, where it
    # also equals the physical branch; one batched call equals the
    # point-by-point calls
    contour = sr.make_contour(friedrichs_model, side, kind, depth)
    lens = np.array([0.3 + 0.2j, -0.5 + 0.05j, 0.1 + 0.4j])
    opposite = np.array([0.2 + 0.3j, 1.7 + 0.1j, -2.0 + 1.5j])
    lens = lens.real + 1j * side * lens.imag
    opposite = opposite.real - 1j * side * opposite.imag
    axis = np.array([-0.4 + 0j, 0.7 + 0j])
    zs = np.concatenate([lens, axis, opposite])
    got = _cut_moments(-1.0, 1.0, zs, 4, side)
    assert got.shape == (zs.size, 5)
    powers = contour.nodes[:, None] ** np.arange(5)[None, :]
    for z, row in zip(zs, got):
        ref = np.sum(contour.weights[:, None] * powers / (contour.nodes - z)[:, None], axis=0)
        assert np.max(np.abs(row - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
        assert np.array_equal(row, _cut_moments(-1.0, 1.0, np.array([z]), 4, side)[0])
    physical = _cut_moments(-1.0, 1.0, opposite, 4)
    assert np.max(np.abs(physical - got[-3:])) <= 1e-14 * np.max(np.abs(physical))
    with pytest.raises(ValueError):
        _cut_moments(-1.0, 1.0, zs, 4, 2)


@pytest.mark.parametrize("kind, depth", [("semicircle", None), ("rectangle", 0.5)])
@pytest.mark.parametrize("side", [1, -1])
def test_point_functions_accept_arrays(kind, depth, side):
    # every point function takes a 1-d array of P points; its batch equals
    # the P one-point batches, and a rejection names the first offending
    # point
    rng = np.random.default_rng(24)
    coeffs = [0.3 * rng.normal(size=(3, 2)) for _ in range(2)]
    model = sr.build_model((-1.0, 1.0), np.zeros((2, 2)), coeffs)
    contour = sr.make_contour(model, side, kind, depth)
    zs = np.array([0.3 + 0.2j, -0.5 + 0.05j, 0.1 + 0.4j])
    zs = zs.real + 1j * side * zs.imag
    lams = np.array([-0.5, 0.11, 0.74])
    point_functions = [
        (zs, (2, 2), lambda pts: sr.sheets_value(model, pts, contour)),
        (zs, (2, 2), lambda pts: sr.m1_physical(model, pts)),
        (zs, (2, 2), lambda pts: w1_physical(model, pts)),
        (zs, (3, 2), model.b),
        (zs, (2, 2), model.kprime),
        (zs, (), contour.contains_in_lens),
    ] + [(lams, (2, 2), lambda pts, a=approach: w1_boundary(model, pts, a))
         for approach in (1, -1)]
    for points, shape, fn in point_functions:
        many = fn(points)
        assert many.shape == (3,) + shape
        for k, value in enumerate(many):
            one = fn(points[k:k + 1])
            assert one.shape == (1,) + shape
            assert np.allclose(value, one[0], rtol=0, atol=1e-15)

    bad = np.concatenate([zs[:1], np.conj(zs[1:])])
    with pytest.raises(ValueError, match=re.escape(f"z={complex(bad[1])} outside")):
        sr.sheets_value(model, bad, contour)
    with pytest.raises(ValueError, match=re.escape("z=(0.2+0j) lies on the cut")):
        w1_physical(model, np.array([1.5 + 0j, 0.2 + 0j, 0.3 + 0j]))
    with pytest.raises(ValueError, match=re.escape("lambda=1.0 not strictly")):
        w1_boundary(model, np.array([0.2, 1.0, 1.5]), 1)
