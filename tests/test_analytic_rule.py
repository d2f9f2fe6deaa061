"""Contour sums on analytic_rule against the contour's own rule.

The contour's own rule (make_contour's counts, 200 nodes per unit of
arclength, built when its nodes are first read) is the rule every
analytic contour sum used before analytic_rule sized them; here it
is the reference, summed directly with the kernels. The nested
reconstruction ring is checked against the fixed 256-point ring, and the
off-contour guard against a per-point Bernstein count computed from its
own inverse maps.
"""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import schurroots as sr
from schurroots import riccati, rootsolver, schur
from schurroots._kernels import (cauchy_sum_many, resolvent_cauchy_sum,
                                 resolvent_sum, sandwich_sum)
from schurroots.contour import MAX_SEGMENT_NODES, analytic_rule
from schurroots.identities import _LENS_POINTS, _lens_points

from conftest import RECT_DEPTH, wide_models

EPS_LOG = math.log(1e18)


def _degree_five_model():
    """An admissible n = 2 model whose b has degree 5 (K' degree 10), with
    a leading coefficient as large as the zoo's constant term: on the
    semicircle the polynomial part of each contour sum oscillates fast in
    the segment parameter, beyond what 16 nodes resolve."""
    rng = np.random.default_rng(5)
    pert = 0.03 * rng.normal(size=(2, 2))
    a1 = 0.1 * np.eye(2) + 0.5 * (pert + pert.T)
    coeffs = [0.08 * np.linalg.qr(rng.normal(size=(3, 2)))[0]]
    coeffs += [0.015 * rng.normal(size=(3, 2)) for _ in range(4)]
    coeffs.append(0.05 * np.linalg.qr(rng.normal(size=(3, 2)))[0])
    return sr.build_model((-1.0, 1.0), a1, coeffs)


def _cases(friedrichs_model, model_zoo):
    """(model, kind, depth): the zoo and the degree-5 model on both contour
    kinds, Friedrichs on the semicircle (it is not admissible on the
    depth-0.5 rectangle) and the wide models of seeds 1 and 2."""
    cases = [(friedrichs_model, "semicircle", None)]
    for model in model_zoo + [_degree_five_model()]:
        cases += [(model, "semicircle", None), (model, "rectangle", RECT_DEPTH)]
    return cases + [(model, "semicircle", None) for model in wide_models(1, 2)]


def _gap(got, ref):
    """max over the stack of ||got - ref|| / (1 + ||ref||), spectral norms."""
    got, ref = np.asarray(got), np.asarray(ref)
    if ref.ndim == 2:
        got, ref = got[None], ref[None]
    diff = np.linalg.norm(got - ref, 2, axis=(1, 2))
    return float(np.max(diff / (1.0 + np.linalg.norm(ref, 2, axis=(1, 2)))))


def _sample_points(rng, model, contour, d):
    """Points near sigma1 (as verify's factorization rows draw them) and
    points in the lens (as sheets-crosspath draws them)."""
    lams = rng.choice(model.sigma1, 6)
    near = lams + rng.uniform(0.05, 0.45, 6) * d * np.exp(2j * np.pi * rng.uniform(size=6))
    x = rng.uniform(-0.7, 0.7, 6)
    if contour.kind == "semicircle":
        height = np.sqrt(contour.depth ** 2 - x ** 2)
    else:
        height = np.full(6, contour.depth)
    lens = x + 1j * contour.side * rng.uniform(0.15, 0.75, 6) * height
    return near, lens


def _fixed_ring(model, contour, sol, num_nodes=256):
    """reconstruct_from_contour's moments on the fixed num_nodes-point ring
    of its default circle, each M1 value summed on the contour's own rule."""
    eigs = np.linalg.eigvals(sol.z_op)
    d = sr.distance_to_sigma1(model, contour)
    center = complex(np.mean(eigs))
    spread = float(np.max(np.abs(eigs - center)))
    cap = 0.5 * d - float(np.min(np.abs(center - model.sigma1)))
    radius = min(max(1.5 * spread, 0.25 * cap), 0.95 * cap)
    phase = np.exp(2j * np.pi * np.arange(num_nodes) / num_nodes)
    ring = center + radius * phase
    kv = model.kprime_values(contour.nodes)
    m1 = (model.a1[None] - ring[:, None, None] * np.eye(model.n)
          + cauchy_sum_many(kv, contour.nodes, contour.weights, ring))
    minv = np.linalg.inv(m1)
    h0 = -(radius / num_nodes) * np.einsum("p,pij->ij", phase, minv)
    h1 = -(radius / num_nodes) * np.einsum("p,pij->ij", phase * ring, minv)
    return h0, h1, np.linalg.solve(h0.T, h1.T).T


def _recording(monkeypatch):
    """Wrap analytic_rule where schur, riccati and rootsolver call it; the
    list collects the segment counts of every rule they build."""
    counts = []

    def recorded(model, contour, points=(), singular=()):
        rule = analytic_rule(model, contour, points, singular)
        counts.append(list(rule.counts))
        return rule

    for module in (schur, riccati, rootsolver):
        monkeypatch.setattr(module, "analytic_rule", recorded)
    return counts


def test_contour_sums_match_the_configured_rule(monkeypatch, friedrichs_model, model_zoo):
    counts = _recording(monkeypatch)
    rng = np.random.default_rng(41)
    worst = {}

    def check(name, got, ref):
        worst[name] = max(worst.get(name, 0.0), _gap(got, ref))

    cases = _cases(friedrichs_model, model_zoo)
    for model, kind, depth in cases:
        contours = {s: sr.make_contour(model, s, kind, depth) for s in (1, -1)}
        sols = {s: sr.solve_basic(model, contours[s]) for s in (1, -1)}
        d = sr.distance_to_sigma1(model, contours[1])
        for side in (1, -1):
            contour, sol = contours[side], sols[side]
            nodes, weights = contour.nodes, contour.weights
            kv = model.kprime_values(nodes)
            near, lens = _sample_points(rng, model, contour, d)
            for zs in (near, lens):
                ref = (model.a1[None] - zs[:, None, None] * np.eye(model.n)
                       + cauchy_sum_many(kv, nodes, weights, zs))
                check("m1", sr.m1_continued_many(model, contour, zs), ref)
            check("m1", sr.m1_continued(model, contour, lens[0]), ref[0])
            # F1 and M1 of the factorization row, from one rule
            f1, m1 = sr.factor_F1(sol, near)
            w1_ref, acc_ref = resolvent_cauchy_sum(kv, nodes, weights, sol.z_op, near)
            check("F1", f1, np.eye(model.n) + acc_ref)
            check("m1", m1, model.a1[None] - near[:, None, None] * np.eye(model.n) + w1_ref)
            check("transformator", sr.transformator(model, contour, sol.z_op,
                                                    sol.eigensystem.values),
                  -resolvent_sum(kv, nodes, weights, sol.z_op))
            zl_h = np.conj(sols[-side].z_op.T)
            check("Omega", sr.compute_Omega(sol, sols[-side]).omega,
                  sandwich_sum(kv, nodes, weights, zl_h, sol.z_op))
            got = sr.reconstruct_from_contour(sol)
            for name, g, r in zip(("h0", "h1", "z_rec"), got, _fixed_ring(model, contour, sol)):
                check(name, g, r)
    assert all(v <= 1e-14 for v in worst.values()), worst
    # every caller sized its rule, and no segment went past the cap
    # seven sums per side: M1 (twice in a batch, once alone), F1, W1(Z), Omega
    # and the ring
    assert len(counts) == 7 * 2 * len(cases)
    assert max(max(c) for c in counts) <= MAX_SEGMENT_NODES
    assert min(min(c) for c in counts) >= 16


def _reference_counts(contour, z, degree=0):
    """Per segment of contour, the count that the point z asks for when
    K' has the given degree, or inf on the path. x is z's preimage under
    the segment's map from [-1, 1] and lam = log max |x +- sqrt(x^2 - 1)|.
    A rectangle side asks for ceil(log(1e18) / (2 lam) + degree / 2). The
    semicircle asks for ceil((log(1e18) + w sinh(s)) / (2 s)), w =
    (degree + 1) pi/2, at s = min(lam, s*), s* where that quotient is
    least; its preimage is 1 - 2 theta/pi with the complex angle theta =
    arg(v) - i log|v| of v = (z - c)/r, arg taken in (-pi/2, 3pi/2], and
    its centre has lam = inf."""
    a, b = contour.endpoints
    z = z if contour.side == 1 else z.conjugate()
    if contour.kind == "rectangle":
        top = 1j * contour.depth
        corners = (a, a + top, b + top, b)
        xs = [(z - 0.5 * (p + q)) / (0.5 * (q - p)) for p, q in zip(corners[:-1], corners[1:])]
    else:
        v = (z - 0.5 * (a + b)) / contour.depth
        arg = cmath.phase(v)
        if arg <= -0.5 * math.pi:
            arg += 2.0 * math.pi
        xs = [1.0 - 2.0 * arg / math.pi + 2j * math.log(abs(v)) / math.pi] if v else [None]
    out = []
    for x in xs:
        if x is None:
            lam = math.inf
        else:
            root = cmath.sqrt(x * x - 1.0)
            lam = math.log(max(abs(x + root), abs(x - root), 1.0))
        if lam == 0.0:
            out.append(math.inf)
        elif contour.kind == "rectangle":
            out.append(math.ceil(EPS_LOG / (2.0 * lam) + 0.5 * degree))
        else:
            omega = (degree + 1) * 0.5 * math.pi
            quotient = lambda t: (EPS_LOG + omega * math.sinh(t)) / (2.0 * t)
            best = minimize_scalar(quotient, bounds=(1e-3, 20.0), method="bounded",
                                   options={"xatol": 1e-12}).x
            out.append(math.ceil(quotient(min(lam, best))))
    return out


@pytest.mark.parametrize("kind, depth", [("semicircle", None), ("rectangle", 0.5)])
@pytest.mark.parametrize("side", [1, -1])
def test_guard_refuses_points_past_the_cap(friedrichs_model, kind, depth, side):
    # points scattered around random nodes of the contour's rule, about
    # half of them too close; analytic_rule builds no rule, so only the
    # counts it gives are compared
    contour = sr.make_contour(friedrichs_model, side, kind, depth)
    rng = np.random.default_rng(31)
    ks = rng.integers(0, contour.num_nodes, size=1500)
    radius = rng.uniform(0.0, 0.01, size=ks.size)
    zs = contour.nodes[ks] + radius * np.exp(2j * np.pi * rng.uniform(size=ks.size))
    refs = [_reference_counts(contour, complex(z)) for z in zs]
    refused = [max(ref) > MAX_SEGMENT_NODES for ref in refs]
    configured = contour.counts
    assert 0.2 < np.mean(refused) < 0.8
    for z, ref, too_close in zip(zs, refs, refused):
        if too_close:
            with pytest.raises(ValueError, match="too close to the contour"):
                analytic_rule(friedrichs_model, contour, z)
        else:
            assert analytic_rule(friedrichs_model, contour, z).counts == tuple(
                max(16, n) for n in ref), z
        # an eigenvalue only raises the count, up to the contour's count
        assert analytic_rule(friedrichs_model, contour, singular=z).counts == tuple(
            min(cap, max(16, n)) for n, cap in zip(ref, configured))
    # a batch names its first offending point
    first = complex(zs[refused.index(True)])
    with pytest.raises(ValueError, match=re.escape(f"z={first} too close")):
        analytic_rule(friedrichs_model, contour, zs)
    kept = [ref for ref, too_close in zip(refs, refused) if not too_close]
    assert analytic_rule(friedrichs_model, contour, zs[~np.array(refused)]).counts == tuple(
        max(16, *column) for column in zip(*kept))


def test_rule_of_the_centre_and_the_cut(friedrichs_model):
    # the semicircle's centre and the line below it, where the inverse map's
    # log has no value or its cut, size a rule without numpy warnings
    for side in (1, -1):
        contour = sr.make_contour(friedrichs_model, side)
        below = -0.5j * side
        rule = analytic_rule(friedrichs_model, contour, [0.0, below, 2 * below], [0.0])
        assert rule.num_nodes == max(16, _reference_counts(contour, below)[0])
        assert analytic_rule(friedrichs_model, contour).num_nodes == 16
        assert (rule.side, rule.kind, rule.depth, rule.endpoints) == (
            contour.side, contour.kind, contour.depth, contour.endpoints)


@pytest.mark.parametrize("side", [1, -1])
def test_lens_sums_do_not_depend_on_the_v0_rule(friedrichs_model, side):
    # sheets-crosspath's M1 at its lens points is summed on the analytic rule
    # of the contour's path, so V0's node count does not enter it: a
    # 200-node semicircle gives the bits of make_contour's 629-node one
    contour = sr.make_contour(friedrichs_model, side)
    coarse = dataclasses.replace(contour, counts=(200,))
    assert (contour.num_nodes, coarse.num_nodes) == (629, 200)
    pts = _lens_points(np.random.default_rng(20260819), contour, _LENS_POINTS)
    assert np.array_equal(schur.m1_continued_many(friedrichs_model, coarse, pts),
                          schur.m1_continued_many(friedrichs_model, contour, pts))


@pytest.mark.parametrize("kind, depth", [("semicircle", None), ("rectangle", 0.5)])
def test_counts_grow_with_the_degree(kind, depth):
    # K' of degree 10: the counts of points, and the semicircle's floor, carry
    # the growth of the polynomial part off the path
    model = _degree_five_model()
    rng = np.random.default_rng(53)
    for side in (1, -1):
        contour = sr.make_contour(model, side, kind, depth)
        ks = rng.integers(0, contour.num_nodes, size=40)
        zs = contour.nodes[ks] + rng.uniform(0.02, 0.5, ks.size) * np.exp(
            2j * np.pi * rng.uniform(size=ks.size))
        for z in zs:
            ref = _reference_counts(contour, complex(z), model.kprime.degree)
            if max(ref) > MAX_SEGMENT_NODES:
                with pytest.raises(ValueError, match="too close to the contour"):
                    analytic_rule(model, contour, z)
                continue
            rule = analytic_rule(model, contour, z)
            assert rule.counts == tuple(max(16, n) for n in ref), z
    floor = analytic_rule(model, contour).num_nodes
    assert floor == (26 if kind == "semicircle" else 3 * 16)
