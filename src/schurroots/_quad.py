"""Adaptive panel quadrature on a real interval.

Used for the integrals that live on the spectral interval itself (Gram
matrices, Riccati right-hand sides, graph pairings). Contour integrals use
Gauss-Legendre rules per contour segment instead: make_contour's for V0
and contour.analytic_rule's, sized by accuracy, for the analytic sums;
both take their rules on [-1, 1] from _rule.

The integrand takes a 1-d array of nodes and returns its unweighted value
at each of them. Each panel's error is estimated by comparing a 16-node
and a 32-node Gauss-Legendre rule; the 32-node value is the one kept.
Refinement runs in rounds: a round bisects a batch of the worst panels
and evaluates every panel it opens, all 48 nodes of each, in a single
integrand call, so the Python cost is per round, not per panel.

The scheme is deterministic: panels are ranked by error estimate, ties
broken by insertion order, and each round bisects the fewest top-ranked
panels whose removal leaves the remaining estimate at most half the
tolerance.
"""

import numpy as np

from .errors import NumericsError

_RULES: dict = {}


def _rule(n):
    """The n-node Gauss-Legendre rule (nodes, weights) on [-1, 1], built
    once per n; the contour segments take their rules from here too."""
    if n not in _RULES:
        _RULES[n] = np.polynomial.legendre.leggauss(n)
    return _RULES[n]


def _split_points(a, b, breaks):
    pts = [a, b]
    for br in breaks or ():
        if a < br < b:
            pts.append(float(br))
    return sorted(set(pts))


def _evaluate_panels(f, lo, hi):
    """(fine, err) for the panels [lo_p, hi_p] from one call of f.

    fine is the 32-node value of each panel, shape (P, *shape); err is
    the norm of its difference from the 16-node value, shape (P,).
    """
    x16, w16 = _rule(16)
    x32, w32 = _rule(32)
    x = np.concatenate([x16, x32])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = np.asarray(f(nodes))
    if vals.ndim == 0 or vals.shape[0] != nodes.shape[0]:
        raise ValueError(
            f"integrand returned shape {vals.shape} for {nodes.shape[0]} nodes; "
            "it must return one unweighted value per node")
    shape = vals.shape[1:]
    # one small product per panel: (16,) @ (16, S) and (32,) @ (32, S)
    vals = vals.reshape(lo.shape[0], x.shape[0], -1)
    coarse = half[:, None] * (w16 @ vals[:, :16])
    fine = half[:, None] * (w32 @ vals[:, 16:])
    err = np.linalg.norm(fine - coarse, axis=1)
    return fine.reshape((lo.shape[0],) + shape), err


def adaptive_quad(f, a, b, rtol=1e-11, breaks=(), max_panels=4000):
    """Integrate a vectorized array-valued function over [a, b].

    f(nodes) takes a 1-d array of M real nodes and must return an ndarray
    of shape (M, *shape): the unweighted integrand at each node, with
    shape fixed (empty for a scalar integrand). A result whose leading
    axis is not M raises ValueError. `breaks` lists interior points where
    the integrand loses smoothness; panels never straddle them.

    Returns (value, info): info["panels"] counts the panels evaluated,
    info["rounds"] the calls of f and info["error"] is the final error
    estimate. Raises NumericsError, before evaluating it, when a round
    would take the panel count past max_panels with the estimate still
    above rtol * max(1, ||value||).
    """
    if not b > a:
        raise ValueError("empty integration interval")

    pts = np.array(_split_points(a, b, breaks))
    los, his = pts[:-1], pts[1:]
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
