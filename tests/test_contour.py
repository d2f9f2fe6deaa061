"""Contour construction, variation, distance, and admissibility radii.

Frozen oracle (scalar reference model, semicircle of radius 1):
V0 = 0.04 * pi, d = 1, hence
r_min = 1/2 - sqrt(1/4 - 0.04 pi) = 0.14738648089387119
r_max = 1 - sqrt(0.04 pi)         = 0.6455092298188968
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import schurroots as sr
from schurroots.contour import (_rectangle_counts, _rectangle_r_min, _rectangle_rules,
                               _spectral_norms)
from schurroots.errors import AdmissibilityError, ModelError

R_MIN_ORACLE = 0.14738648089387119
R_MAX_ORACLE = 0.6455092298188968
V0_ORACLE = 0.04 * np.pi


def test_frozen_radii(friedrichs_model, friedrichs_contours):
    rep = sr.admissibility(friedrichs_model, friedrichs_contours[1])
    assert rep.admissible
    assert abs(rep.variation - V0_ORACLE) < 1e-10
    assert abs(rep.distance - 1.0) < 1e-12
    assert abs(rep.r_min - R_MIN_ORACLE) < 1e-12
    assert abs(rep.r_max - R_MAX_ORACLE) < 1e-12
    # defining identities of the two radii
    d, v0 = rep.distance, rep.variation
    assert abs((d / 2 - rep.r_min) ** 2 - (d * d / 4 - v0)) < 1e-12
    assert abs((d - rep.r_max) ** 2 - v0) < 1e-12


def test_weights_integrate_path(friedrichs_contours):
    # sum of weights telescopes to the chord b - a for any deformation
    for side in (1, -1):
        c = friedrichs_contours[side]
        assert abs(np.sum(c.weights) - 2.0) < 1e-10


def test_mirror_symmetry(friedrichs_model):
    cp = sr.make_contour(friedrichs_model, 1)
    cm = sr.make_contour(friedrichs_model, -1)
    assert np.max(np.abs(cm.nodes - np.conj(cp.nodes))) < 1e-14
    assert np.max(np.abs(cm.weights - np.conj(cp.weights))) < 1e-14
    mm = cp.mirror()
    assert mm.side == -1
    assert np.max(np.abs(mm.nodes - cm.nodes)) < 1e-14


def test_side_orientation(friedrichs_contours):
    # side +1 dips into the upper half-plane
    assert np.max(friedrichs_contours[1].nodes.imag) > 0.5
    assert np.min(friedrichs_contours[1].nodes.imag) >= -1e-15
    assert np.min(friedrichs_contours[-1].nodes.imag) < -0.5


def test_rectangle_contour(friedrichs_model):
    c = sr.make_contour(friedrichs_model, 1, kind="rectangle", depth=0.4)
    assert c.kind == "rectangle"
    assert abs(np.sum(c.weights) - 2.0) < 1e-10
    assert np.max(c.nodes.imag) <= 0.4 + 1e-12
    d = sr.distance_to_sigma1(friedrichs_model, c)
    assert abs(d - 0.4) < 1e-12  # top side is nearest to sigma1 = {0}


def test_distance_semicircle_formula():
    a1 = np.array([[0.2]])
    model = sr.build_model((-1.0, 1.0), a1, [[[0.1]]])
    c = sr.make_contour(model, 1)
    # point at 0.2 inside the unit semicircle: distance min(0.8, |0.2 -+ 1|)
    assert abs(sr.distance_to_sigma1(model, c) - 0.8) < 1e-12


def test_distance_matches_dense_sampling(friedrichs_model):
    for kind, depth in (("semicircle", None), ("rectangle", 0.35)):
        c = sr.make_contour(friedrichs_model, 1, kind=kind, depth=depth)
        d = sr.distance_to_sigma1(friedrichs_model, c)
        dense = np.min(np.abs(c.nodes - 0.0))
        # node sampling can only overestimate, and not by much
        assert d <= dense + 1e-12
        assert dense - d < 5e-3


def test_distance_unknown_kind(friedrichs_model, friedrichs_contours):
    with pytest.raises(ValueError, match="unknown contour kind"):
        sr.distance_to_sigma1(friedrichs_model,
                              dataclasses.replace(friedrichs_contours[1], kind="ellipse"))


def test_variation_node_doubling():
    # polynomial scalar density: the norm is smooth, doubling is idle
    model = sr.build_model((-1.0, 1.0), [[0.0]],
                           [[[0.15]], [[0.05]], [[0.02]], [[0.01]], [[0.005]]])
    c1 = sr.make_contour(model, 1, nodes_per_unit=200)
    c2 = sr.make_contour(model, 1, nodes_per_unit=400)
    v1 = sr.variation(model, c1)
    v2 = sr.variation(model, c2)
    assert abs(v1 - v2) < 1e-10 * max(1.0, v1)


def test_variation_scaling(friedrichs_model, friedrichs_contours):
    rep1 = sr.admissibility(friedrichs_model, friedrichs_contours[1], 1.0)
    rep_half = sr.admissibility(friedrichs_model, friedrichs_contours[1], 0.5)
    assert abs(rep_half.variation - 0.25 * rep1.variation) < 1e-13


def test_contains_in_lens(friedrichs_contours):
    c = friedrichs_contours[1]
    assert c.contains_in_lens(0.0 + 0.3j)
    assert not c.contains_in_lens(0.0 - 0.3j)
    assert not c.contains_in_lens(0.0 + 1.5j)
    assert not c.contains_in_lens(2.0 + 0.1j)


def test_inadmissible_report():
    # b^2 = 0.1 breaks the contraction condition on the unit semicircle
    model = sr.build_model((-1.0, 1.0), [[0.0]], [[[np.sqrt(0.1)]]])
    c = sr.make_contour(model, 1)
    rep = sr.admissibility(model, c)
    assert not rep.admissible
    assert rep.omega < 0
    assert rep.r_min is None and rep.r_max is None
    with pytest.raises(AdmissibilityError) as exc_info:
        sr.contour.ensure_admissible(rep)
    assert exc_info.value.report is rep


def test_semicircle_depth_fixed(friedrichs_model):
    with pytest.raises(ValueError):
        sr.make_contour(friedrichs_model, 1, depth=0.3)
    c = sr.make_contour(friedrichs_model, 1, depth=1.0)
    assert c.depth == 1.0


def test_bad_side(friedrichs_model):
    with pytest.raises(ValueError):
        sr.make_contour(friedrichs_model, 0)


def test_optimize_r0_semicircle(friedrichs_model):
    contour, r0 = sr.optimize_r0(friedrichs_model, 1, "semicircle")
    assert contour.kind == "semicircle"
    assert abs(r0 - R_MIN_ORACLE) < 1e-9


def test_optimize_r0_rectangle(friedrichs_model):
    family = ("rectangle", (0.2, 1.2))
    contour, r0 = sr.optimize_r0(friedrichs_model, 1, family)
    assert contour.kind == "rectangle"
    rep = sr.admissibility(friedrichs_model, contour)
    assert rep.admissible
    assert abs(rep.r_min - r0) < 1e-9
    # no scanned depth beats the optimum by more than the tolerance
    for depth in np.linspace(0.25, 1.15, 13):
        c = sr.make_contour(friedrichs_model, 1, kind="rectangle", depth=depth,
                            nodes_per_unit=150)
        cand = sr.admissibility(friedrichs_model, c)
        if cand.admissible:
            assert cand.r_min > r0 - 1e-5


def _reference_r_min(model, side, depth, nodes_per_unit, coupling_scale):
    """r_min of one candidate depth through a Contour, inf if inadmissible."""
    contour = sr.make_contour(model, side, "rectangle", depth, nodes_per_unit)
    rep = sr.admissibility(model, contour, coupling_scale)
    return rep.r_min if rep.admissible else math.inf


def _reference_optimize_r0(model, side, family, nodes_per_unit, coupling_scale,
                           samples=33, tol=1e-6):
    """optimize_r0's rectangle search with one make_contour plus
    admissibility per candidate depth. Returns the scan's r_min values and
    (depth, nodes, r0), or the message of the AdmissibilityError raised."""
    def r_of(depth):
        return _reference_r_min(model, side, depth, nodes_per_unit, coupling_scale)

    lo, hi = family
    depths = np.linspace(lo, hi, samples)
    values = [r_of(d) for d in depths]
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        return values, "no admissible depth in the requested range"
    left = depths[max(best - 1, 0)]
    right = depths[min(best + 1, samples - 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = right - phi * (right - left)
    x2 = left + phi * (right - left)
    f1, f2 = r_of(x1), r_of(x2)
    while right - left > tol * max(1.0, right):
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - phi * (right - left)
            f1 = r_of(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + phi * (right - left)
            f2 = r_of(x2)
    depth = 0.5 * (left + right)
    contour = sr.make_contour(model, side, "rectangle", depth, nodes_per_unit)
    rep = sr.admissibility(model, contour, coupling_scale)
    if not rep.admissible:
        return values, "refined depth lost admissibility"
    return values, (contour.depth, contour.nodes, rep.r_min)


RECT_FAMILIES = [(0.25, 1.0), (0.2, 1.2), (0.1, 0.4)]


def test_rect_families_cover_mixed_node_counts():
    # at 200 nodes per unit a vertical side deeper than 1 has more than
    # 200 nodes, so the (0.2, 1.2) scan mixes 200-node sides with 203- to
    # 240-node ones and the batched scan must group its depths by count
    for family, mixed in zip(RECT_FAMILIES, (False, True, False)):
        depths = np.linspace(*family, 33)
        counts = [_rectangle_counts(200, 2.0, h) for h in depths]
        rules = _rectangle_rules(-1.0, 1.0, depths, counts)
        assert (len(rules) > 1) == mixed
        assert sorted(row for rows, *_ in rules for row in rows) == list(range(33))


@pytest.mark.parametrize("family", RECT_FAMILIES)
def test_optimize_r0_matches_per_contour_search(friedrichs_model, model_zoo, family):
    depths = np.linspace(*family, 33)
    for model in [friedrichs_model] + model_zoo:
        for side in (1, -1):
            for t in (0.5, 1.0):
                values, ref = _reference_optimize_r0(model, side, family, 200, t)
                # every scanned depth's r_min, not only the search's outcome
                assert _rectangle_r_min(model, side, depths, 200, t) == values
                try:
                    contour, r0 = sr.optimize_r0(model, side, ("rectangle", family),
                                                 nodes_per_unit=200, coupling_scale=t)
                except AdmissibilityError as exc:
                    assert str(exc) == ref
                    continue
                depth, nodes, ref_r0 = ref
                assert contour.depth == depth
                assert np.array_equal(contour.nodes, nodes)
                assert r0 == ref_r0


def test_spectral_norms_n2_match_axis_sum_form():
    def axis_sum_form(kvals):
        c1, c2 = kvals[:, :, 0], kvals[:, :, 1]
        g11 = np.sum(c1.real ** 2 + c1.imag ** 2, axis=1)
        g22 = np.sum(c2.real ** 2 + c2.imag ** 2, axis=1)
        g12 = np.abs(np.sum(np.conj(c1) * c2, axis=1))
        return np.sqrt(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12))

    rng = np.random.default_rng(7)
    for count in (1, 7, 800, 5000):
        scale = 10.0 ** rng.uniform(-6, 6, size=(count, 2, 2))
        kvals = scale * (rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2)))
        for stack in (kvals, kvals + np.conj(np.swapaxes(kvals, 1, 2)),
                      np.swapaxes(kvals, 1, 2), 0.0064 * np.eye(2) + 1e-10 * kvals):
            assert np.array_equal(_spectral_norms(stack), axis_sum_form(stack))


def test_admissibility_radii_identities_random(model_zoo):
    for model in model_zoo[:8]:
        c = sr.make_contour(model, 1)
        rep = sr.admissibility(model, c)
        assert rep.admissible
        d, v0 = rep.distance, rep.variation
        assert abs((d / 2 - rep.r_min) ** 2 - (d * d / 4 - v0)) < 1e-12
        assert abs((d - rep.r_max) ** 2 - v0) < 1e-12
        assert 0 < rep.r_min < rep.r_max < d


def _svd_norms(kvals):
    return np.linalg.norm(kvals, ord=2, axis=(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectral_norms_match_svd(n):
    rng = np.random.default_rng(100 + n)
    shape = (64, n, n)
    stacks = [
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        # K' of the zoo is close to c I: the cancelling 2 x 2 form
        # F/2 + sqrt(F^2/4 - |det|^2) loses about half the digits here
        0.0064 * np.eye(n) + 1e-10 * (rng.normal(size=shape)
                                      + 1j * rng.normal(size=shape)),
    ]
    for kvals in stacks:
        ref = _svd_norms(kvals)
        got = _spectral_norms(kvals)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14


def test_variation_matches_svd_on_zoo(model_zoo):
    for model in model_zoo:
        for side in (1, -1):
            for kind, depth in (("semicircle", None), ("rectangle", 0.5)):
                c = sr.make_contour(model, side, kind, depth)
                ref = float(np.sum(np.abs(c.weights)
                                   * _svd_norms(model.kprime_values(c.nodes))))
                assert abs(sr.variation(model, c) - ref) <= 1e-14 * ref


def test_admissibility_at_rescales_exactly(friedrichs_model, friedrichs_contours):
    c = friedrichs_contours[-1]
    base = sr.admissibility(friedrichs_model, c)
    for t in (0.0, 0.3, 0.7, 1.0):
        assert (sr.admissibility_at(base.variation, base.distance, t)
                == sr.admissibility(friedrichs_model, c, t))


def test_node_cap_refuses_before_building(friedrichs_model):
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=r"200000000 quadrature nodes.*4096"):
            sr.make_contour(friedrichs_model, 1, "rectangle", depth=1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # no rule was built
    with pytest.raises(ModelError, match="quadrature nodes"):
        sr.make_contour(friedrichs_model, 1, nodes_per_unit=10 ** 6)
