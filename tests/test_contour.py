"""Contour construction, variation, distance, and admissibility radii.

Frozen oracle (scalar reference model, semicircle of radius 1):
V0 = 0.04 * pi, d = 1, hence
r_min = 1/2 - sqrt(1/4 - 0.04 pi) = 0.14738648089387119
r_max = 1 - sqrt(0.04 pi)         = 0.6455092298188968
"""

import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest

import schurroots as sr
from schurroots import contour as contour_module
from schurroots._kernels import spectral_norms
from schurroots.contour import _rectangle_r_min, _RectangleDistance
from schurroots.errors import AdmissibilityError, ModelError

from conftest import wide_models

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
    # polynomial scalar density: the norm is smooth, doubling a rectangle's
    # counts is idle (a semicircle's V0 does not read the contour's counts)
    model = sr.build_model((-1.0, 1.0), [[0.0]],
                           [[[0.15]], [[0.05]], [[0.02]], [[0.01]], [[0.005]]])
    c1 = sr.make_contour(model, 1, "rectangle", 0.5)
    c2 = dataclasses.replace(c1, counts=tuple(2 * count for count in c1.counts))
    v1 = sr.variation(model, c1)
    v2 = sr.variation(model, c2)
    assert abs(v1 - v2) < 1e-10 * max(1.0, v1)


def test_variation_scaling(friedrichs_model, friedrichs_contours):
    rep1 = sr.admissibility(friedrichs_model, friedrichs_contours[1], 1.0)
    rep_half = sr.admissibility(friedrichs_model, friedrichs_contours[1], 0.5)
    assert abs(rep_half.variation - 0.25 * rep1.variation) < 1e-13


def test_contains_in_lens(friedrichs_contours):
    c = friedrichs_contours[1]
    zs = np.array([0.0 + 0.3j, 0.0 - 0.3j, 0.0 + 1.5j, 2.0 + 0.1j])
    assert c.contains_in_lens(zs).tolist() == [True, False, False, False]


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
    # a semicircle takes no depth, not even half the interval length,
    # which is the depth it gets
    for depth in (0.3, 1.0):
        with pytest.raises(ValueError, match="semicircle takes no depth"):
            sr.make_contour(friedrichs_model, 1, depth=depth)
    c = sr.make_contour(friedrichs_model, 1)
    assert c.depth == 1.0


def test_bad_side(friedrichs_model):
    with pytest.raises(ValueError):
        sr.make_contour(friedrichs_model, 0)


def test_contour_is_its_path_and_counts(monkeypatch, friedrichs_model):
    # make_contour and mirror build no rule; a contour compares and hashes
    # by its path and counts, so side -1 is the mirror image of side +1,
    # and its rule, built on first read, is built once and read-only
    built = []
    for name in ("_semicircle_rule", "_rectangle_rule"):
        original = getattr(contour_module, name)
        monkeypatch.setattr(contour_module, name,
                            lambda *args, _f=original: built.append(1) or _f(*args))
    for kind, depth in (("semicircle", None), ("rectangle", 0.5)):
        plus = sr.make_contour(friedrichs_model, 1, kind, depth)
        minus = sr.make_contour(friedrichs_model, -1, kind, depth)
        assert minus == plus.mirror() and hash(minus) == hash(plus.mirror())
        assert minus != plus and minus.mirror() == plus
        assert dataclasses.replace(plus, counts=(16,) * len(plus.counts)) != plus
        assert not built
        nodes = plus.nodes
        assert plus.nodes is nodes and plus.num_nodes == nodes.shape[0]
        assert not nodes.flags.writeable and not plus.weights.flags.writeable
        assert len(built) == 1
        built.clear()


def test_r_min_has_no_cancellation():
    # r_min = d/2 - sqrt(d^2/4 - V0) of the Friedrichs semicircle against a
    # 50-digit evaluation of the same V0 and d: the difference of the two
    # terms cancelled as V0/d^2 fell, off by 6% at b = 1e-8 and 0.0 at 1e-9
    for exponent in range(4, 10):
        model = sr.build_model((-1.0, 1.0), [[0.0]], [[[10.0 ** -exponent]]])
        rep = sr.admissibility(model, sr.make_contour(model, 1))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d, v0 = decimal.Decimal(rep.distance), decimal.Decimal(rep.variation)
            ref = d / 2 - (d * d / 4 - v0).sqrt()
            assert abs(decimal.Decimal(rep.r_min) - ref) <= ref * decimal.Decimal(2.0 ** -52)


def _rectangle_root(model, side, depth):
    """The root solved on the side-l rectangle of the depth, or None when
    that rectangle is not admissible."""
    try:
        return sr.solve_basic(model, sr.make_contour(model, side, "rectangle", depth))
    except AdmissibilityError:
        return None


def test_optimize_r0_rectangle(friedrichs_model):
    # Friedrichs' rectangle is admissible at depth 1 (V0 = 0.16 < 0.25)
    root = _rectangle_root(friedrichs_model, 1, 1.0)
    depth, r0 = sr.optimize_r0(root)
    contour = sr.make_contour(friedrichs_model, 1, "rectangle", depth)
    rep = sr.admissibility(friedrichs_model, contour)
    assert rep.admissible
    assert abs(rep.r_min - r0) < 1e-9
    assert r0 <= root.report.r_min
    # no depth of the family (0.5, 2.0) beats the optimum by more than the
    # tolerance
    for depth in np.linspace(0.55, 1.95, 15):
        c = sr.make_contour(friedrichs_model, 1, kind="rectangle", depth=depth)
        cand = sr.admissibility(friedrichs_model, c)
        if cand.admissible:
            assert cand.r_min > r0 - 1e-5


def test_optimize_r0_without_a_family_is_the_roots_own(friedrichs_model):
    # a semicircle, and a rectangle with 0.5 depth >= hi - lo, have no
    # depth family: r0 is the root's own r_min at the root's depth
    semicircle = sr.solve_basic(friedrichs_model, sr.make_contour(friedrichs_model, -1))
    model = sr.build_model((-1.0, 1.0), [[0.0]], [[[0.05]]])
    deep = _rectangle_root(model, 1, 4.0)
    for root in (semicircle, deep):
        assert sr.optimize_r0(root) == (root.contour.depth, root.report.r_min)


def test_optimize_r0_cannot_fail_an_admissible_rectangle():
    # V0 = 0.2498 < d^2/4 = 0.25 at depth 1, but the admissible depths lie
    # in about (0.9995, 1.0016), between the scanned depths 0.96875 and
    # 1.015625 of the family (0.5, 2.0): r0 is the root's own r_min
    model = sr.build_model((-1.0, 1.0), [[0.0]], [[[0.2499]]])
    root = _rectangle_root(model, 1, 1.0)
    assert root is not None
    assert sr.optimize_r0(root) == (1.0, root.report.r_min)


def _reference_r_min(model, side, depth):
    """r_min of one candidate depth through a Contour, inf if inadmissible."""
    contour = sr.make_contour(model, side, "rectangle", depth)
    rep = sr.admissibility(model, contour)
    return rep.r_min if rep.admissible else math.inf


def _reference_search(r_of, lo, hi, kink, samples=33, tol=1e-6):
    """A search of the depths (lo, hi); r_of(*depths) gives r_min at each
    depth. Returns the scan's r_min values and the first least (depth,
    r_min) measured.

    kink is h* of the family's d(h), or None. With it, this is
    optimize_r0's search: one r_of call with the scan's depths and h* when
    h* lies strictly inside. Without it, the golden-section search, an
    independent reference: after the scan, it shrinks the bracket of the
    best scanned depth's neighbours to tol relative, with the two bracket
    points in one call and then one depth per step."""
    measured = []

    def record(*depths):
        values = r_of(*depths)
        measured.extend(zip(map(float, depths), values))
        return values

    depths = np.linspace(lo, hi, samples)
    if kink is not None:
        at_kink = (kink,) if lo < kink < hi else ()
        values = record(*depths, *at_kink)[:samples]
        return values, min(measured, key=lambda pair: pair[1])
    values = record(*depths)
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        return values, min(measured, key=lambda pair: pair[1])
    left = depths[max(best - 1, 0)]
    right = depths[min(best + 1, samples - 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = right - phi * (right - left)
    x2 = left + phi * (right - left)
    f1, f2 = record(x1, x2)
    while right - left > tol * max(1.0, right):
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - phi * (right - left)
            (f1,) = record(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + phi * (right - left)
            (f2,) = record(x2)
    return values, min(measured, key=lambda pair: pair[1])


def _reference_optimize_r0(root, family, kink_rule=True):
    """optimize_r0 of a rectangle root with one make_contour plus
    admissibility per candidate depth; kink_rule=False runs the
    golden-section search instead. Returns the scan's r_min values and
    (depth, r0), the root's own (depth, r_min) where the search measured
    nothing smaller."""
    model, side = root.model, root.side

    def r_of(*depths):
        return [_reference_r_min(model, side, depth) for depth in depths]

    kink = _RectangleDistance(model, model.interval).kink if kink_rule else None
    values, best = _reference_search(r_of, *family, kink)
    own = (root.contour.depth, root.report.r_min)
    return values, min(own, best, key=lambda pair: pair[1])


# depth families that optimize_r0 searches on (-1, 1): (0.5 depth,
# min(2 depth, 2)) for a rectangle root of depth 0.5, 0.6 and 0.2, each
# family's lower end
RECT_FAMILIES = [(0.25, 1.0), (0.3, 1.2), (0.1, 0.4)]

# (searches, searches that end at the kink) per family, of the 84 (model,
# side, t). Friedrichs' configured rectangle is inadmissible at t = 1 on
# each of the three depths, and at depth 0.2 so are all at t = 1 and
# Friedrichs' at t = 0.5: they have no root. Friedrichs' family
# (0.25, 1.0) at t = 0.5 ends at its h* = 1, which the scan does not add
# again, but measures as its last depth, and it is least; (0.1, 0.4) lies
# below every kink
SEARCH_COUNTS = {(0.25, 1.0): (82, 82), (0.3, 1.2): (82, 82), (0.1, 0.4): (40, 0)}


@pytest.mark.parametrize("family", RECT_FAMILIES)
def test_optimize_r0_matches_per_contour_search(monkeypatch, friedrichs_model,
                                                model_zoo, family):
    depth = 2.0 * family[0]
    depths = np.linspace(*family, 33)
    scanned = []
    search = contour_module._rectangle_r_min

    def record(model, side, h):
        scanned.append(h)
        return search(model, side, h)

    monkeypatch.setattr(contour_module, "_rectangle_r_min", record)
    at_kink = searches = 0
    for model in [friedrichs_model] + model_zoo:
        distance = _RectangleDistance(model, model.interval)
        for side in (1, -1):
            for t in (0.5, 1.0):
                # a weaker coupling is the model with b scaled by t; an
                # inadmissible configured rectangle has no root to search from
                sm = model.scaled(t)
                root = _rectangle_root(sm, side, depth)
                if root is None:
                    continue
                searches += 1
                values, ref = _reference_optimize_r0(root, family)
                _, golden = _reference_optimize_r0(root, family, kink_rule=False)
                # every scanned depth's r_min, not only the search's outcome
                assert [search(sm, side, h) for h in depths] == values
                scanned.clear()
                depth_r0 = sr.optimize_r0(root)
                # the search scans the family of the root's depth, each
                # depth once, then h* when it lies strictly inside
                assert scanned[:33] == depths.tolist()
                kink = distance.kink
                inside = kink is not None and family[0] < kink < family[1]
                assert scanned[33:] == ([kink] if inside else [])
                # the least r_min measured, bit for bit that of its depth's
                # contour, never above the root's own
                assert depth_r0 == ref
                r0 = depth_r0[1]
                assert r0 <= root.report.r_min
                assert _reference_r_min(sm, side, depth_r0[0]) == r0
                # the scan never does worse than the golden-section
                # search, and where it does not end at h*, the two agree
                assert golden[1] - 3e-7 * golden[1] <= r0 <= golden[1]
                if depth_r0[0] == distance.kink:
                    at_kink += 1
                else:
                    assert depth_r0 == golden
    assert (searches, at_kink) == SEARCH_COUNTS[family]


def test_search_keeps_a_scanned_depth_below_the_kink():
    # b vanishes at x +- 0.4i for x = +-0.25, +-0.75, so V0 grows steeply
    # with the depth and r_min is least short of h* = 0.35, though within
    # the scan's bracket around it: the scanned depth 0.328125 beats h*, and
    # r0 is the least r_min of the scan
    coeffs = np.array([1.0])
    for x in (-0.75, -0.25, 0.25, 0.75):
        coeffs = np.polynomial.polynomial.polymul(coeffs, [x * x + 0.16, -2 * x, 1.0])
    model = sr.build_model((-1.0, 1.0), [[0.65]], [[[0.01 * c]] for c in coeffs])
    distance = _RectangleDistance(model, model.interval)
    family = (0.3, 1.2)
    root = _rectangle_root(model, 1, 0.6)
    depths = np.linspace(*family, 33)
    values = [_rectangle_r_min(model, 1, h) for h in depths]
    best = int(np.argmin(values))
    assert depths[best - 1] <= distance.kink <= depths[best + 1]
    depth, r0 = sr.optimize_r0(root)
    assert (depth, r0) == (depths[best], values[best])
    assert r0 < _reference_r_min(model, 1, distance.kink)
    # the golden-section search refines the bracket to a depth about 5.7e-5
    # (relative) lower, 1.906015e-4 against 1.906122e-4; r0 stays 3.8 times
    # below the root's own r_min
    _, golden = _reference_optimize_r0(root, family, kink_rule=False)
    assert golden[1] < r0 <= golden[1] * (1.0 + 6e-5)
    assert 3.7 * r0 < root.report.r_min


def test_kink_optimal_search_scans_each_depth_once(monkeypatch, model_zoo):
    # the scan of a family and h* take one _rectangle_r_min call per depth:
    # h* lies inside every zoo model's family (0.25, 1.0) and above every
    # (0.1, 0.4), which holds the scan alone
    calls = []
    search = contour_module._rectangle_r_min

    def count(model, side, depth):
        calls.append(depth)
        return search(model, side, depth)

    monkeypatch.setattr(contour_module, "_rectangle_r_min", count)
    for model in model_zoo:
        kink = _RectangleDistance(model, model.interval).kink
        root = _rectangle_root(model, 1, 0.5)
        calls.clear()
        depth, _ = sr.optimize_r0(root)
        assert depth == kink
        assert calls == [*np.linspace(0.25, 1.0, 33).tolist(), kink]
        # a depth-0.2 rectangle is admissible at half the coupling
        root = _rectangle_root(model.scaled(0.5), 1, 0.2)
        calls.clear()
        depth, _ = sr.optimize_r0(root)
        assert depth <= 0.4 < kink
        assert calls == np.linspace(0.1, 0.4, 33).tolist()


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
            assert np.array_equal(spectral_norms(stack), axis_sum_form(stack))


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
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
        got = spectral_norms(kvals)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14


def _traced_variation(monkeypatch, model, contour, norms=None):
    """(V0, the node batches passed to _kprime_norms), the norms taken by
    the kernel route or, given norms, by norms of the K' stack."""
    batches = []
    original = contour_module._kprime_norms

    def recording(model, nodes):
        batches.append(np.array(nodes))
        if norms is None:
            return original(model, nodes)
        return norms(model.kprime_values(nodes))

    with monkeypatch.context() as patch:
        patch.setattr(contour_module, "_kprime_norms", recording)
        return sr.variation(model, contour), batches


def _check_variation_against_svd(monkeypatch, model, contour):
    # the kernel route against the per-node SVD on the nodes the rule
    # evaluates: a semicircle's levels in the angle, a rectangle's rule
    got, nodes = _traced_variation(monkeypatch, model, contour)
    ref, ref_nodes = _traced_variation(monkeypatch, model, contour, _svd_norms)
    assert len(nodes) == len(ref_nodes)
    assert all(np.array_equal(p, q) for p, q in zip(nodes, ref_nodes))
    assert abs(got - ref) <= 1e-14 * ref


def test_variation_matches_svd_on_zoo(monkeypatch, model_zoo):
    for model in model_zoo:
        for side in (1, -1):
            for kind, depth in (("semicircle", None), ("rectangle", 0.5)):
                _check_variation_against_svd(monkeypatch, model,
                                             sr.make_contour(model, side, kind, depth))


def test_variation_matches_svd_on_wide_models(monkeypatch):
    # n = 4, 8, 16: the Gram eigenvalue route against the per-node SVD
    for model in wide_models(1, 2):
        for side in (1, -1):
            _check_variation_against_svd(monkeypatch, model, sr.make_contour(model, side))


def _reference_variation(model, contour, intervals=8192):
    """V0 of a semicircle by the trapezoidal rule of 8192 intervals in the
    angle."""
    a, b = contour.endpoints
    theta = np.pi / intervals * np.arange(intervals + 1)
    norms = contour_module._kprime_norms(model, 0.5 * (a + b) + contour.depth * np.exp(1j * theta))
    return np.pi * contour.depth / intervals * (0.5 * (norms[0] + norms[-1])
                                                + np.sum(norms[1:-1]))


def test_variation_error_bounds_the_reference(friedrichs_model, model_zoo):
    # a semicircle's V0 lies within its stated error of the 8192-interval
    # sum, on both sides, and both sides have one V0, bit for bit. Seeds 1
    # to 6 hold the kinked integrands: seed 2's n = 16 and seed 6's n = 4
    # and 8 reach the last level
    for model in [friedrichs_model, *model_zoo, *wide_models(*range(1, 7))]:
        rep, mirrored = (sr.admissibility(model, sr.make_contour(model, side))
                         for side in (1, -1))
        assert ((rep.variation, rep.variation_error, rep.variation_nodes)
                == (mirrored.variation, mirrored.variation_error, mirrored.variation_nodes))
        ref = _reference_variation(model, sr.make_contour(model, 1))
        assert abs(rep.variation - ref) <= rep.variation_error
        assert rep.variation_error <= 1e-9 * rep.variation or rep.variation_nodes == 513
    # the flat Friedrichs coupling: V0 = pi b^2 to rounding
    rep = sr.admissibility(friedrichs_model, sr.make_contour(friedrichs_model, 1))
    assert abs(rep.variation - V0_ORACLE) <= rep.variation_error


def test_variation_takes_at_most_513_norms(monkeypatch, friedrichs_model, model_zoo):
    # the first level is one batch of 129 nodes, and each doubling takes only
    # the new midpoints: 129, 257 or 513 norms in all, against the 629 of
    # the contour's counts. A rectangle's V0 is the Gauss-Legendre rule of
    # its counts, with no error stated
    levels = {129: [129], 257: [129, 128], 513: [129, 128, 256]}
    for model in [friedrichs_model, *model_zoo, *wide_models(*range(1, 7))]:
        contour = sr.make_contour(model, 1)
        _, nodes = _traced_variation(monkeypatch, model, contour)
        rep = sr.admissibility(model, contour)
        assert [len(batch) for batch in nodes] == levels[rep.variation_nodes]
    _, nodes = _traced_variation(monkeypatch, model_zoo[0], sr.make_contour(model_zoo[0], 1))
    assert [len(batch) for batch in nodes] == [129]
    rectangle = sr.make_contour(model_zoo[0], -1, "rectangle", 0.5)
    rep = sr.admissibility(model_zoo[0], rectangle)
    assert (rep.variation_error, rep.variation_nodes) == (None, rectangle.num_nodes)


def test_variation_memory_is_bounded_by_the_batch():
    # the 800-node rectangle's rule, which _kprime_norms takes in
    # batches of 256 nodes at n = 16
    model = wide_models(1)[2]
    assert model.n == 16
    c = sr.make_contour(model, 1, "rectangle", 0.5)
    sr.variation(model, c)
    tracemalloc.start()
    try:
        sr.variation(model, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # K', its conjugate and their Gram matrices for one batch of 2^16
    # entries, 1 MiB each; a semicircle's 629 Gauss-Legendre nodes in one
    # batch took 7.7 MB
    assert peak < 4 << 20


def _point_segment_distance(p, q, x):
    """The distance from x to the segment p -> q in complex arithmetic."""
    d = q - p
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(x - p)
    t = ((x - p).real * d.real + (x - p).imag * d.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(x - (p + t * d))


def _point_segment_rectangle_distance(model, side, depth):
    """dist(sigma1, rectangle) as the least point-segment distance from an
    eigenvalue of a1 to one of the three segments."""
    a, b = model.interval
    top = 1j * side * depth
    corners = [a, a + top, b + top, b]
    return float(min(_point_segment_distance(p, q, lam)
                     for lam in map(complex, model.sigma1.tolist())
                     for p, q in zip(corners[:-1], corners[1:])))


# one eigenvalue outside the interval, on its ends or off its middle,
# where the foot of the top side is clamped or the vertical sides are
# nearest; all but 0.3 and -0.999 leave d(h) without a kink
EDGE_EIGENVALUES = (-1.5, -1.0, -0.999, 0.3, 1.0, 1.2, 3.0)


def _edge_models():
    return [sr.build_model((-1.0, 1.0), [[lam]], [[[0.05]]]) for lam in EDGE_EIGENVALUES]


def test_rectangle_distance_matches_point_segment_loop(monkeypatch, model_zoo,
                                                       friedrichs_model):
    # every depth of optimize_r0's scan, and every depth of the
    # golden-section search, on both sides, plus the edge models
    scanned = []
    search = contour_module._rectangle_r_min

    def record(model, side, depth):
        scanned.append((model, side, [float(depth)]))
        return search(model, side, depth)

    monkeypatch.setattr(contour_module, "_rectangle_r_min", record)
    for model in [friedrichs_model] + _edge_models() + model_zoo:
        for side in (1, -1):
            for family in RECT_FAMILIES:
                root = _rectangle_root(model, side, 2.0 * family[0])
                if root is not None:
                    sr.optimize_r0(root)
                _reference_search(
                    lambda *depths: [record(model, side, h) for h in depths],
                    *family, None)
            scanned.append((model, side, [1e-3, 0.5, 2.0, 7.3]))
    assert len(scanned) > 28 * 2 * 3 * 20
    for model, side, depths in scanned:
        want = [_point_segment_rectangle_distance(model, side, h) for h in depths]
        assert _RectangleDistance(model, model.interval)(depths) == want
        contour = sr.make_contour(model, side, "rectangle", depths[-1])
        assert sr.distance_to_sigma1(model, contour) == want[-1]


def test_rectangle_distance_kink_matches_a_fine_scan(model_zoo, friedrichs_model):
    # d(h) is below sides, and equal to the top side's point-segment
    # distance, short of h*, and equals sides beyond it; without a kink it
    # is sides at every depth. The grid is geometric so that the kink at
    # 1e-3 is resolved.
    edges = _edge_models() + [friedrichs_model]
    for model, want in zip(edges, (None, None, 1e-3, 0.7, None, None, None, 1.0)):
        kink = _RectangleDistance(model, model.interval).kink
        if want is None:
            assert kink is None
        else:
            assert abs(kink - want) <= 1e-15
    grid = np.geomspace(1e-6, 10.0, 4001)
    for model in edges + model_zoo:
        distance = _RectangleDistance(model, model.interval)
        a, b = model.interval
        dists = np.array(distance(grid))
        top = np.array([min(_point_segment_distance(a + 1j * h, b + 1j * h, lam)
                            for lam in map(complex, model.sigma1.tolist()))
                        for h in grid])
        below = dists < distance.sides
        assert np.array_equal(dists[below], top[below])
        assert np.all(dists[~below] == distance.sides)
        assert np.all(top[~below] >= distance.sides)
        if distance.kink is None:
            assert not np.any(below)
        else:
            # below is the grid short of h*, up to rounding at h* itself
            near = np.abs(grid - distance.kink) <= 1e-12 * distance.kink
            assert np.array_equal(below[~near], grid[~near] < distance.kink)
            assert np.any(below) and not np.all(below)


def test_admissibility_at_rescales_exactly(friedrichs_model, friedrichs_contours):
    c = friedrichs_contours[-1]
    base = sr.admissibility(friedrichs_model, c)
    for t in (0.0, 0.3, 0.7, 1.0):
        rep = sr.admissibility_at(base.variation, base.distance, t,
                                  variation_error=base.variation_error,
                                  variation_nodes=base.variation_nodes)
        assert rep == sr.admissibility(friedrichs_model, c, t)
        assert rep.variation_error == base.variation_error * t * t


def test_node_cap_refuses_before_building(friedrichs_model):
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=r"200000000 quadrature nodes.*4096"):
            sr.make_contour(friedrichs_model, 1, "rectangle", depth=1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # no rule was built
    # a semicircle over (-10, 10) is pi half-lengths long, as on (-1, 1):
    # 629 nodes, far below the cap
    long_model = sr.build_model((-10.0, 10.0), [[0.0]], [[[0.2]]])
    assert sr.make_contour(long_model, 1).counts == (629,)


@pytest.mark.parametrize("half", [0.3, 1.0, 30.0])
def test_v0_node_counts_do_not_depend_on_the_scale(half):
    # arclength is measured in half-lengths of the interval: the semicircle
    # and the depth-half/2 rectangle over (-half, half) get the counts they
    # get over (-1, 1)
    model = sr.build_model((-half, half), [[0.0]], [[[0.01]]])
    assert sr.make_contour(model, 1).counts == (629,)
    rectangle = sr.make_contour(model, -1, "rectangle", 0.5 * half)
    assert rectangle.counts == (200, 400, 200)
    assert abs(np.sum(rectangle.weights) - 2.0 * half) < 1e-10 * half
