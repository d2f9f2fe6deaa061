"""The identity table of verify: each operator identity of the construction
checked on the two roots Z(+1), Z(-1) by two independent paths.

identity_table(roots, seed) returns the rows in a fixed order, each with
its residual, tolerance and verdict, plus each side's Riccati data and
classification. The model is the one the roots carry. Every sample point
is drawn from np.random.default_rng(seed), and the J-orthogonality trials
from rational_trials(..., seed), so a table is a function of the roots and
the seed. A row is a function of one side, and its residual is the largest
of its per-side values (_worst); the side-free rows (boundary-imag,
density) are evaluated once. Each side's Omega is computed once; the
omega-adjoint row reads Omega(-l), Omega(l)^*.
"""

import functools
import math

import numpy as np

from ._kernels import smallest_singular_values, spectral_norms
from .contour import optimize_r0
from .errors import SchurRootsError
from .model import density_margin
from .report import identity_row
from .riccati import (check_ZAY, compute_Omega, compute_Y, factor_F1,
                      j_orthogonality, omega_by_deformation, rational_trials,
                      reconstruct_from_contour, riccati_residual, ysn_integral)
from .rootsolver import classify, transformator
from .schur import m1_continued_many, sheets_value, w1_physical

# The failures an identity row (or a per-side value it reads) turns into a
# failed row with a note instead of aborting verify; np.linalg.LinAlgError
# is a ValueError.
_ROW_ERRORS = (SchurRootsError, ValueError)


def _lens_points(rng, contour, count) -> np.ndarray:
    """count points inside the contour's lens, each coordinate drawn in
    one call."""
    a, b = contour.endpoints
    c = 0.5 * (a + b)
    x = c + rng.uniform(-0.7, 0.7, size=count) * (0.5 * (b - a))
    if contour.kind == "semicircle":
        # sqrt(depth^2 - (x - c)^2), depth's exponent e taken out: no overflow
        m, e = math.frexp(contour.depth)
        height = np.ldexp(np.sqrt(np.maximum(m * m - np.ldexp(x - c, -e) ** 2, 0.0)), e)
    else:
        height = contour.depth
    v = rng.uniform(0.15, 0.75, size=count)
    return x + 1j * (contour.side * v * height)


def _near_sigma_points(rng, model, d, count) -> np.ndarray:
    """count points in the annuli 0.05 d .. 0.45 d around sigma1, each
    coordinate drawn in one call."""
    lam = rng.choice(model.sigma1, size=count)
    r = rng.uniform(0.05, 0.45, size=count) * d
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return lam + r * np.exp(1j * phi)


def _relative_gap(gap, ref) -> float:
    """max of ||gap|| / (1 + ||ref||) over the last two axes, in spectral
    norms; gap and ref are matrices or (P, r, c) stacks of the same shape."""
    return float(np.max(spectral_norms(gap) / (1.0 + spectral_norms(ref))))


# The offsets of _boundary_limit in half-lengths: three halvings from 1e-5.
_BOUNDARY_EPS = 1e-5 * 0.5 ** np.arange(3)


def _boundary_limit(model, lams, approach) -> np.ndarray:
    """W1(lam + i*approach*0) at each point of lams, (P, n, n), as the
    Richardson limit of the closed-form W1(lam + i*approach*eps) over eps
    = _BOUNDARY_EPS half-lengths of the interval, whatever its scale.

    W1 continues analytically across the interval from either half-plane,
    so W1(lam + i*approach*eps) is a power series in eps; two Richardson
    steps remove its eps and eps^2 terms. The limit is taken from values
    off the cut only, so it is independent of w1_boundary, the continued
    moments taken on the cut.
    """
    lo, hi = model.interval
    zs = lams[None, :] + 1j * approach * (0.5 * (hi - lo) * _BOUNDARY_EPS)[:, None]
    vals = w1_physical(model, zs.ravel()).reshape(zs.shape + (model.n, model.n))
    for j in (1, 2):
        vals = (2 ** j * vals[1:] - vals[:-1]) / (2 ** j - 1)
    return vals[0]


def _worst(per_side, sides) -> float:
    """The largest per_side(side) over sides, 0.0 when there is no side.

    The sides are evaluated in the order given (+1 before -1), which fixes
    the order in which the rows draw their sample points from the shared
    rng. A NaN value makes the result NaN, so the row fails.
    """
    values = [float(per_side(side)) for side in sides]
    return float(np.max(values)) if values else 0.0


# sheets-crosspath: points drawn per side in the contour's lens
_LENS_POINTS = 50
# factorization and factor-conditioning: points drawn per side and row near
# sigma1
_FACTOR_POINTS = 30
# riccati-pointwise and riccati-adjoint: interval points, shared by both
_RICCATI_SAMPLES = 50
# j-orthogonality: rational trial pairs per side
_TRIAL_COUNT = 20
# boundary-imag: interval points, shared by both approaches
_BOUNDARY_POINTS = 50


def identity_table(roots, seed: int) -> tuple:
    """Build the identity rows plus per-side Riccati data and
    classifications.

    roots maps each side to its root, which carries its model (scaled by
    the root's coupling), contour and admissibility report; every per-side
    row reads them from its root, and the side-free rows read
    roots[1].model. seed seeds the sample points and the J-orthogonality
    trials. Returns (rows, rics, clss), the last two keyed by side.
    """
    rng = np.random.default_rng(seed)
    model = roots[1].model
    sides = (1, -1)
    rics, clss = {}, {}
    for side in sides:
        clss[side] = classify(roots[side])
        rics[side] = compute_Y(roots[side])

    # computed on first use, once per side. A failure is not cached: each
    # row that reads the value raises it again and fails with its message
    # as the row's note
    @functools.cache
    def omega(side):
        return compute_Omega(roots[side], roots[-side])

    @functools.cache
    def recon(side):
        return reconstruct_from_contour(roots[side])

    rows = []

    def add_row(name, tolerance, compute):
        try:
            resid = float(compute())
        except _ROW_ERRORS as exc:
            rows.append({**identity_row(name, float("inf"), tolerance),
                         "note": str(exc)})
        else:
            rows.append(identity_row(name, resid, tolerance))

    def over_sides(per_side, row_sides=sides):
        return lambda: _worst(per_side, row_sides)

    def sheets(side):
        contour = roots[side].contour
        pts = _lens_points(rng, contour, _LENS_POINTS)
        mc = m1_continued_many(model, contour, pts)
        sv = sheets_value(model, pts, contour)
        return _relative_gap(mc - sv, mc)

    add_row("sheets-crosspath", 1e-9, over_sides(sheets))

    d = roots[1].report.distance

    def factorization(side):
        sol = roots[side]
        zs = _near_sigma_points(rng, model, d, _FACTOR_POINTS)
        f1 = factor_F1(sol, zs)
        mc = m1_continued_many(sol.model, sol.contour, zs)
        prod = f1 @ (sol.z_op - zs[:, None, None] * np.eye(model.n))
        return _relative_gap(mc - prod, mc)

    add_row("factorization", 1e-9, over_sides(factorization))

    def conditioning(side):
        zs = _near_sigma_points(rng, model, d, _FACTOR_POINTS)
        f1 = factor_F1(roots[side], zs)
        return np.max(spectral_norms(f1) / smallest_singular_values(f1))

    add_row("factor-conditioning", 1e8, over_sides(conditioning))

    def omega_bound(side):
        # the signed margin of ||Omega|| < V0 / (d^2/4). Zero coupling makes
        # V0, the bound and Omega all exactly 0, and passes; a nonzero Omega
        # at the bound fails, by the least positive margin
        om = omega(side)
        margin = om.norm - om.bound
        return math.ulp(0.0) if margin == 0.0 and om.norm > 0.0 else margin

    add_row("omega-bound", 0.0, over_sides(omega_bound))

    def omega_adjoint(side):
        # the adjoint relation that pairs the two sides: Omega(-l) = Omega(l)^*
        om = omega(side)
        gap = omega(-side).omega - np.conj(om.omega.T)
        return float(spectral_norms(gap)) / (1.0 + om.norm)

    add_row("omega-adjoint", 1e-10, over_sides(omega_adjoint))

    def omega_two_path(side):
        om = omega(side)
        alt = omega_by_deformation(roots[side], roots[-side])
        return float(spectral_norms(alt - om.omega)) / (1.0 + om.norm)

    add_row("omega-two-path", 1e-9, over_sides(omega_two_path))

    def projection(side):
        h0 = recon(side)[0]
        target = np.linalg.inv(np.eye(model.n) - omega(side).omega)
        return _relative_gap(h0 - target, h0)

    add_row("projection-inverse", 1e-8, over_sides(projection))

    def similarity(side):
        inv = np.linalg.inv(np.eye(model.n) - omega(side).omega)
        zmh = np.conj(roots[-side].z_op.T)
        z = roots[side].z_op
        return _relative_gap(inv @ zmh - z @ inv, z)

    add_row("moment-similarity", 1e-9, over_sides(similarity))

    def reconstruction(side):
        z = roots[side].z_op
        return _relative_gap(recon(side)[2] - z, z)

    add_row("root-reconstruction", 1e-8, over_sides(reconstruction))

    def root_contour(side):
        # the closed-form root against the contour sum over Gamma
        sol = roots[side]
        summed = transformator(sol.model, sol.contour, sol.z_op,
                               sol.eigensystem.values)
        return _relative_gap(sol.x - summed, sol.x)

    add_row("root-contour", 1e-10, over_sides(root_contour))

    a_scale = 1.0 + float(spectral_norms(model.a1))
    add_row("root-equation", 1e-8, over_sides(
        lambda s: check_ZAY(rics[s]) / a_scale))

    lo, hi = model.interval
    margin = 0.01 * (hi - lo)
    samples = rng.uniform(lo + margin, hi - margin, size=_RICCATI_SAMPLES)
    b_scale = 1.0 + max(
        float(np.max(np.linalg.norm(model.b(samples), axis=(1, 2)))), 0.0)

    add_row("riccati-pointwise", 1e-8, over_sides(
        lambda s: riccati_residual(rics[s], samples) / b_scale))
    add_row("riccati-adjoint", 1e-8, over_sides(
        lambda s: riccati_residual(rics[s], samples, adjoint=True) / b_scale))

    def jorth(side):
        trials = rational_trials(rics[side], _TRIAL_COUNT, seed)
        return j_orthogonality(rics[side], trials) / (1.0 + rics[side].y_norm)

    add_row("j-orthogonality", 1e-10, over_sides(jorth))

    # The margin rows report a signed margin: the largest of their per-side
    # (or per-eigenvalue) values, negative when every one has room left.
    # y-norm-floor applies only to the sides with a non-real eigenvalue.
    nonreal = [side for side in sides
               if any(e.label != "real" for e in clss[side].entries)]
    add_row("y-norm-floor", 1e-8, over_sides(lambda s: 1.0 - rics[s].y_norm, nonreal))
    add_row("y-norm-ceiling", 1e-8, over_sides(
        lambda s: rics[s].y_norm ** 2 - ysn_integral(rics[s])))

    def localization(side):
        # every eigenvalue of Z lies within r0 of sigma1: r0 (optimize_r0)
        # is the least r_min of the root's contour family, the root's own
        # r_min on a semicircle
        sol = roots[side]
        r0 = optimize_r0(sol)[1]
        return max(float(np.min(np.abs(lam - model.sigma1))) - r0
                   for lam in sol.eigensystem.values)

    add_row("localization", 1e-9, over_sides(localization))

    def boundary_imag():
        # side-free: both boundary approaches share one set of points
        pts = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo),
                          size=_BOUNDARY_POINTS)
        kps = model.kprime_values(pts)
        gaps = []
        for approach in (1, -1):
            w = _boundary_limit(model, pts, approach)
            im_part = (w - np.conj(np.swapaxes(w, 1, 2))) / 2j
            gaps.append(im_part - approach * np.pi * kps)
        norms = spectral_norms(np.stack(gaps + [kps]))
        return float(np.max(norms[:2] / (1.0 + norms[2])))

    add_row("boundary-imag", 1e-10, boundary_imag)

    # side-free and rng-free: K' against b^* b, Hermitian and PSD on the
    # axis, as a signed margin
    add_row("density", 0.0, lambda: density_margin(model))

    return rows, rics, clss
