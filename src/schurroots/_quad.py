"""Adaptive panel quadrature on a real interval.

Used for the integrals that live on the spectral interval itself (Gram
matrices, Riccati right-hand sides, graph pairings). On a contour, a
semicircle's V0 takes a trapezoidal rule in the angle, and every other
sum Gauss-Legendre rules per segment (a rectangle's V0 its contour's
counts, the analytic sums contour.analytic_rule's), built from _rule.

The integrand takes a 1-d array of nodes and returns its unweighted value
at each of them. Each panel takes the 33-node Gauss-Kronrod extension of
the 16-node Gauss-Legendre rule (_kronrod_rule), which holds the 16 Gauss
nodes; the Kronrod value is the one kept, and its difference from the
Gauss value estimates the panel's error. Refinement runs in rounds: a
round bisects a batch of the worst panels and evaluates every panel it
opens, all 33 nodes of each, in a single integrand call, so the Python
cost is per round, not per panel.

A caller that knows the integrand's poles passes them, and the first
round starts from a partition graded toward them (_start_panels): a real
pole inside the interval is a panel end, and every panel is bisected,
before anything is evaluated, until each complex pole lies outside its
Bernstein ellipse of parameter _RHO. A complex pole's foot Re p is not
made a panel end: the ellipse test alone grades toward it, on fewer
panels. The 16-node estimate of an integrand analytic inside that
ellipse is then of order _RHO^(-32), about 2e-13 (Trefethen, SIAM Rev. 50
(2008)), so a rational integrand usually needs no second round.

The scheme is deterministic: panels are ranked by error estimate, ties
broken by insertion order, and each round bisects the fewest top-ranked
panels whose removal leaves the remaining estimate at most half the
tolerance.
"""

import math

import numpy as np

from .errors import NumericsError

_RULES: dict = {}


def _rule(n):
    """The n-node Gauss-Legendre rule (nodes, weights) on [-1, 1], built
    once per n; the contour segments take their rules from here too."""
    if n not in _RULES:
        _RULES[n] = np.polynomial.legendre.leggauss(n)
    return _RULES[n]


def _kronrod_rule(n):
    """The (2n + 1)-node Gauss-Kronrod extension of _rule(n) on [-1, 1],
    n even, built once per n: (nodes, weights), the n Gauss nodes of
    _rule(n) first, bit for bit, then the n + 1 Kronrod nodes.

    Laurie's algorithm (Math. Comp. 66 (1997)) extends the first
    floor(3n/2) + 1 betas b of the monic Legendre recurrence (beta_0 = 2,
    beta_k = k^2 / (4k^2 - 1)) to the 2n + 1 of the Jacobi-Kronrod matrix;
    the weight is symmetric, so every alpha_k, the extended ones too, is 0
    and drops out. The eigenvalues of that matrix are the nodes, and the
    squared first components of its unit eigenvectors, times beta_0, the
    weights. The rule is symmetric, so its nodes and weights are averaged
    with their mirror images, which cuts the rounding of the smallest
    weights about fivefold.
    """
    key = ("kronrod", n)
    if key not in _RULES:
        b = [2.0] + [k * k / (4.0 * k * k - 1.0) for k in range(1, 3 * n // 2 + 1)]
        b += [0.0] * (2 * n + 1 - len(b))
        s = [0.0] * (n // 2 + 2)
        t = [0.0] * (n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            u = 0.0
            for k in range((m + 1) // 2, -1, -1):
                u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                s[k + 1] = u
            s, t = t, s
        s[1:] = s[:-1]
        for m in range(n - 1, 2 * n - 2):
            u = 0.0
            for k in range(m + 1 - n, (m - 1) // 2 + 1):
                j = n - 1 - (m - k)
                u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
                s[j + 1] = u
            if m % 2:
                b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
            s, t = t, s
        off = np.sqrt(b[1:])
        nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        weights = b[0] * vecs[0] ** 2
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        # the Kronrod nodes interlace the Gauss nodes, which sit at odd places
        _RULES[key] = (np.concatenate([_rule(n)[0], nodes[0::2]]),
                       np.concatenate([weights[1::2], weights[0::2]]))
    return _RULES[key]


# Bernstein parameter every complex pole must clear on every start panel.
_RHO = 2.5


def _start_panels(a, b, poles=(), max_panels=4000):
    """The first round's panels (los, his), in order along [a, b].

    A real pole inside (a, b) is a panel end. Then every panel whose
    Bernstein ellipse of parameter _RHO contains a complex pole is
    bisected, until none does: p lies outside the ellipse of [lo, hi] when
    |p - lo| + |p - hi| >= (hi - lo) (_RHO + 1/_RHO) / 2, the sum of its
    focal distances, each taken by math.hypot of its parts (abs of a
    Python complex raises OverflowError where the distance overflows).

    The partition is built depth first, left to right, in Python scalars.
    A child's ellipse lies inside its parent's, so a child is tested only
    against the poles inside its parent's, and the partition is the one
    that bisecting level by level gives. Raises NumericsError when the
    start would exceed max_panels, real poles alone included.
    """
    poles = np.asarray(poles, dtype=np.complex128).ravel()
    a, b = float(a), float(b)
    real = poles.real[poles.imag == 0.0]
    ends = [a] + sorted(set(real[(a < real) & (real < b)].tolist())) + [b]
    graded = [(p.real, p.imag) for p in poles[poles.imag != 0.0].tolist()]
    reach = 0.5 * (_RHO + 1.0 / _RHO)
    # (lo, hi, the poles inside the parent's ellipse), leftmost on top
    stack = [(lo, hi, graded) for lo, hi in zip(ends[-2::-1], ends[:0:-1])]
    count = len(stack)
    los, his = [], []
    while count <= max_panels:
        if not stack:
            return np.array(los), np.array(his)
        lo, hi, near = stack.pop()
        limit = reach * (hi - lo)
        near = [(x, y) for x, y in near
                if math.hypot(x - lo, y) + math.hypot(x - hi, y) < limit]
        if near:
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi, near), (lo, mid, near)]
            count += 1
        else:
            los.append(lo)
            his.append(hi)
    raise NumericsError(
        f"adaptive quadrature exhausted {max_panels} panels "
        "grading its start toward the poles")


def _evaluate_panels(f, lo, hi):
    """(fine, err) for the panels [lo_p, hi_p] from one call of f on the
    33 nodes of _kronrod_rule(16) in each.

    fine is the Kronrod value of each panel, shape (P, *shape); err is the
    norm of its difference from the 16-node Gauss value, shape (P,), which
    estimates the Gauss value's error.
    """
    x, w = _kronrod_rule(16)
    w16 = _rule(16)[1]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = np.asarray(f(nodes))
    if vals.ndim == 0 or vals.shape[0] != nodes.shape[0]:
        raise ValueError(
            f"integrand returned shape {vals.shape} for {nodes.shape[0]} nodes; "
            "it must return one unweighted value per node")
    shape = vals.shape[1:]
    # one small product per panel: (16,) @ (16, S) on the Gauss nodes and
    # (33,) @ (33, S) on all of them
    vals = vals.reshape(lo.shape[0], x.shape[0], -1)
    coarse = half[:, None] * (w16 @ vals[:, :16])
    fine = half[:, None] * (w @ vals)
    err = np.linalg.norm(fine - coarse, axis=1)
    return fine.reshape((lo.shape[0],) + shape), err


def adaptive_quad(f, a, b, rtol=1e-11, poles=(), max_panels=4000):
    """Integrate a vectorized array-valued function over [a, b].

    f(nodes) takes a 1-d array of M real nodes and must return an ndarray
    of shape (M, *shape): the unweighted integrand at each node, with
    shape fixed (empty for a scalar integrand). A result whose leading
    axis is not M raises ValueError. `poles` lists the integrand's known
    singularities: the first round starts on _start_panels(a, b, poles),
    so a real point inside (a, b), such as a kink, is never straddled by a
    panel and a complex pole starts graded.

    Returns (value, info): value is the sum of the panels' Gauss-Kronrod
    values (_evaluate_panels, 33 nodes each), info["panels"] counts the
    panels evaluated, info["rounds"] the calls of f and info["error"] is
    the final error estimate, the sum of the panels' differences between
    their Kronrod and 16-node Gauss values. Raises NumericsError, before
    evaluating it, when the graded
    start or a later round would take the panel count past max_panels
    (a later round: with the estimate still above rtol * max(1, ||value||)).
    """
    if not b > a:
        raise ValueError("empty integration interval")

    los, his = _start_panels(a, b, poles, max_panels)
    fine, err = _evaluate_panels(f, los, his)
    panels, rounds = los.shape[0], 1
    while True:
        total = np.sum(fine, axis=0)
        est = float(np.sum(err))
        scale = max(1.0, float(np.linalg.norm(np.ravel(total))))
        if est <= rtol * scale:
            return total, {"panels": panels, "rounds": rounds, "error": est}

        # worst first, ties by insertion order (the arrays keep that order);
        # left[k] is the estimate left after bisecting the k + 1 worst
        # panels, and its last entry, 0, always meets the target
        order = np.argsort(-err, kind="stable")
        left = np.append(np.cumsum(err[order][::-1])[-2::-1], 0.0)
        split = order[:int(np.argmax(left <= 0.5 * rtol * scale)) + 1]
        if panels + 2 * split.shape[0] > max_panels:
            raise NumericsError(
                f"adaptive quadrature exhausted {max_panels} panels "
                f"(error estimate {est:.3e}, needed {rtol * scale:.3e})"
            )
        mid = 0.5 * (los[split] + his[split])
        lo = np.stack([los[split], mid], axis=1).ravel()
        hi = np.stack([mid, his[split]], axis=1).ravel()
        new_fine, new_err = _evaluate_panels(f, lo, hi)
        panels += lo.shape[0]
        rounds += 1
        keep = np.ones(err.shape[0], dtype=bool)
        keep[split] = False
        fine = np.concatenate([fine[keep], new_fine])
        err = np.concatenate([err[keep], new_err])
        los = np.concatenate([los[keep], lo])
        his = np.concatenate([his[keep], hi])
