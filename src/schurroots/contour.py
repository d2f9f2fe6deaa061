"""Contours for analytic continuation through the essential spectrum.

A contour for side l joins the interval endpoints through the half-plane
of sign l, traversed left to right, and carries Gauss-Legendre nodes and
complex weights so that sum(weights) reproduces integral of dmu over the
path. Two kinds are supported: a semicircle (depth fixed at half the
interval length) and a three-segment rectangle of adjustable depth.

make_contour sizes the rule by arclength in half-lengths of the interval
(_node_count), so its counts do not depend on the interval's scale; that
rule is V0's, whose integrand ||K'(mu)|| has kinks. The integrands of the
other contour sums are analytic near the path, so analytic_rule gives the
same path the fewest nodes that their known singularities and the degree
of K' allow.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import spectral_norms
from ._quad import _rule
from .errors import AdmissibilityError, ModelError
from .model import SpectralModel

# V0's rule (make_contour): a segment gets _V0_NODES_PER_UNIT Gauss-Legendre
# nodes per unit of arclength, the unit being the interval's half-length,
# and at least 200 (_node_count): 629 on every semicircle.
_V0_NODES_PER_UNIT = 200

# Largest Gauss-Legendre rule built for one segment. leggauss is O(N^3) in
# the rule size, so an unbounded count would stall before admissibility
# could reject it; with counts measured in half-lengths only a rectangle
# deeper than 20.48 half-lengths reaches it.
MAX_SEGMENT_NODES = 4096

# Accuracy target of analytic_rule: a segment gets the fewest nodes that
# bring the Gauss-Legendre error bound to _ANALYTIC_EPS (_wanted_counts),
# and at least _MIN_ANALYTIC_NODES.
_ANALYTIC_EPS = 1e-18
_MIN_ANALYTIC_NODES = 16
_LOG_INV_EPS = -math.log(_ANALYTIC_EPS)

# Most K'(mu) matrix entries evaluated in one batch by _kprime_norms (1 MiB
# of complex128, and as much again for each of the conjugate and the Gram
# matrices of n >= 3): 256 nodes at n = 16.
_NORM_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Contour:
    """The side-l path over endpoints and its rule, segment by segment (one
    for a semicircle, three for a rectangle): counts[k] nodes on segment k."""

    side: int
    kind: str
    depth: float
    endpoints: tuple
    nodes: np.ndarray
    weights: np.ndarray
    counts: tuple

    def __post_init__(self):
        for arr in (self.nodes, self.weights):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    def contains_in_lens(self, zs, closed: bool = False) -> np.ndarray:
        """Whether each point of the array zs lies strictly between the
        interval and the contour (closed: or on either of them), as a bool
        array of zs's shape."""
        a, b = self.endpoints
        zs = np.asarray(zs, dtype=np.complex128)
        x, y = zs.real, zs.imag
        below = np.less_equal if closed else np.less
        if self.kind == "semicircle":
            inside = below(np.abs(zs - 0.5 * (a + b)), self.depth)
        elif self.kind == "rectangle":
            inside = below(a, x) & below(x, b) & below(self.side * y, self.depth)
        else:
            raise ValueError(f"unknown contour kind {self.kind!r}")
        return inside & below(0.0, self.side * y)

    def mirror(self) -> "Contour":
        """The reflected contour for the opposite side: nodes and weights
        conjugated, kind, depth, endpoints and counts passed on."""
        return replace(self, side=-self.side, nodes=np.conj(self.nodes),
                       weights=np.conj(self.weights))


def _node_count(arclength):
    """V0's node count of a segment whose arclength is given in
    half-lengths of the interval: max(200, _V0_NODES_PER_UNIT * arclength),
    refused above MAX_SEGMENT_NODES before any rule is built."""
    wanted = _V0_NODES_PER_UNIT * arclength
    if not wanted <= MAX_SEGMENT_NODES:
        raise ModelError(
            f"contour segment needs {wanted:.0f} quadrature nodes, above the "
            f"cap of {MAX_SEGMENT_NODES}"
        )
    return max(200, int(math.ceil(wanted)))


def _rectangle_counts(length, depth):
    """The node counts of a rectangle's three segments over an interval of
    the given length, each vertical side checked before the top (see
    _node_count): the top is two half-lengths long."""
    side_count = _node_count(depth / (0.5 * length))
    return side_count, _node_count(2.0), side_count


def _rectangle_rules(a, b, depths, counts):
    """The side +1 rectangle rules of the interval (a, b) at several depths.

    counts holds the three segment node counts of each depth. Returns one
    (rows, counts, nodes, weights) per distinct triple of counts, in order
    of first appearance: rows are the indices into depths that share it,
    nodes and weights (len(rows), sum(counts)) arrays. Row k holds the
    Gauss-Legendre nodes and weights of the side +1 rectangle of depth
    depths[rows[k]]: per segment p -> q, mid + half * x and w * half, with
    mid = (p + q)/2 and half = (q - p)/2 taken per depth in scalar
    arithmetic. Every rectangle Contour is built with this too.
    """
    groups = {}
    for row, row_counts in enumerate(counts):
        groups.setdefault(tuple(row_counts), []).append(row)
    rules = []
    for group_counts, rows in groups.items():
        ends = []
        for row in rows:
            top = 1j * float(depths[row])
            corners = (a, a + top, b + top, b)
            ends.append([(0.5 * (p + q), 0.5 * (q - p))
                         for p, q in zip(corners[:-1], corners[1:])])
        # (mid, half) of each segment, repeated over its nodes
        per_node = np.repeat(np.array(ends), group_counts, axis=1)
        mid, half = per_node[..., 0], per_node[..., 1]
        x, w = (np.concatenate(parts) for parts in zip(*map(_rule, group_counts)))
        rules.append((rows, group_counts, mid + half * x, w * half))
    return rules


def _semicircle_rule(a, b, count):
    """The side +1 semicircle over (a, b) with count Gauss-Legendre nodes:
    c + rho exp(i theta), theta = pi/2 (1 - x), and the weights of dmu."""
    rho = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x, w = _rule(count)
    theta = 0.5 * math.pi * (1.0 - x)
    phase = np.exp(1j * theta)
    return c + rho * phase, w * (1j * rho * phase) * (-0.5 * math.pi)


def _contour(side, kind, depth, endpoints, counts) -> Contour:
    """The side-l contour of a kind and depth over endpoints, with counts[k]
    Gauss-Legendre nodes on segment k.

    The side -1 rule is the mirror image of the side +1 rule, bit for bit.
    The weight sum is checked against the exact path integral of dmu,
    which equals the interval length.
    """
    a, b = endpoints
    if kind == "semicircle":
        nodes, weights = _semicircle_rule(a, b, counts[0])
    else:
        ((_, _, nodes, weights),) = _rectangle_rules(a, b, [depth], [counts])
        nodes, weights = nodes[0], weights[0]
    if side == -1:
        nodes = np.conj(nodes)
        weights = np.conj(weights)

    length = b - a
    total = complex(np.sum(weights))
    if abs(total - length) > 1e-10 * (1.0 + length + 2.0 * depth):
        raise ModelError(f"contour weight sum {total} misses interval length {length}")

    return Contour(int(side), kind, float(depth), (a, b),
                   np.ascontiguousarray(nodes, dtype=np.complex128),
                   np.ascontiguousarray(weights, dtype=np.complex128),
                   tuple(counts))


def make_contour(model: SpectralModel, side: int, kind: str = "semicircle",
                 depth=None) -> Contour:
    """Build the side-l contour with Gauss-Legendre quadrature: a
    semicircle takes no depth (it is half the interval length), a
    rectangle a positive one; any other depth raises ValueError.

    Per segment the node count is _node_count of its arclength in
    half-lengths of the interval (629 on a semicircle, 400 on a
    rectangle's top, whatever the interval); a segment that would need
    more than MAX_SEGMENT_NODES raises ModelError.
    This is the rule of V0 (variation); the analytic contour sums take
    analytic_rule of the contour instead. The weight sum is checked
    against the exact path integral of dmu, which equals the interval
    length.
    """
    if side not in (1, -1):
        raise ValueError(f"side must be +1 or -1, got {side}")
    a, b = model.interval
    length = b - a

    if kind == "semicircle":
        if depth is not None:
            raise ValueError("a semicircle takes no depth: it is half the "
                             "interval length")
        counts = (_node_count(math.pi),)
        depth_val = 0.5 * length
    elif kind == "rectangle":
        if depth is None:
            raise ValueError("rectangle contour requires a depth")
        depth_val = float(depth)
        if depth_val <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        counts = _rectangle_counts(length, depth_val)
    else:
        raise ValueError(f"unknown contour kind {kind!r}")
    return _contour(side, kind, depth_val, (a, b), counts)


def _log_bernstein(x):
    """log(rho) of the Bernstein ellipse (foci -1 and 1) through each x:
    arccosh of its semi-major axis (|x - 1| + |x + 1|)/2, which rounding
    may leave just below 1."""
    return np.arccosh(np.maximum(0.5 * (np.abs(x - 1.0) + np.abs(x + 1.0)), 1.0))


def _log_rho(contour: Contour, zs) -> np.ndarray:
    """log(rho) of each point of the 1-d array zs for each segment of the
    contour's path -> (segments, P): the Bernstein parameter of the point's
    preimage under the segment's map from [-1, 1].

    Side -1 is the mirror image of side +1, so its points are mirrored.
    A rectangle side is affine. The semicircle c + r exp(i pi/2 (1 - x))
    is inverted by x = (2i/pi) log(-i (z - c)/r), the log's cut pointing
    straight down from c, away from the arc; the centre, where the log
    has no value, is no singularity of the map and so lies infinitely far.
    """
    if contour.side == -1:
        zs = np.conj(zs)
    a, b = contour.endpoints
    if contour.kind == "semicircle":
        u = -1j * (zs - 0.5 * (a + b)) / contour.depth
        centre = u == 0
        x = (2j / math.pi) * np.log(np.where(centre, 1.0, u))
        return np.where(centre, np.inf, _log_bernstein(x))[None]
    top = 1j * contour.depth
    corners = (a, a + top, b + top, b)
    return np.stack([_log_bernstein((zs - 0.5 * (p + q)) / (0.5 * (q - p)))
                     for p, q in zip(corners[:-1], corners[1:])])


@functools.cache
def _semicircle_log_rho(degree: int) -> float:
    """The log(rho) at which (L + w sinh(log rho)) / (2 log rho) is least,
    L = log(1/_ANALYTIC_EPS) and w = (degree + 1) pi/2: the root of
    s cosh s - sinh s = L/w, found by bisection (the left side increases
    from 0 on s > 0)."""
    target = _LOG_INV_EPS / ((degree + 1) * 0.5 * math.pi)
    lo, hi = 0.0, 1.0
    while hi * math.cosh(hi) - math.sinh(hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid * math.cosh(mid) - math.sinh(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def _wanted_counts(kind: str, degree: int, log_rho: np.ndarray) -> np.ndarray:
    """The node count (unrounded) that a segment needs for a singularity
    at each log(rho), for an integrand whose polynomial part is K' of the
    given degree times dmu.

    The Gauss-Legendre error of N nodes is about M rho^(-2N) for any rho
    short of the singularity, M the growth of the integrand from [-1, 1]
    to the Bernstein ellipse of rho; N is the least count that brings it
    to _ANALYTIC_EPS at the best such rho. On a rectangle side mu is
    affine in x and the polynomial part grows at most like rho^degree, so
    N = L / (2 log rho) + degree / 2. On the semicircle the polynomial part
    is a sum of exp(-i k pi/2 x), k <= degree + 1, which grows like
    exp(w sinh(log rho)) (sinh(log rho) is the ellipse's half height), so
    N = (L + w sinh(s)) / (2 s) at s = min(log rho, _semicircle_log_rho):
    the nearer singularity or the best rho of the growth alone.
    """
    # a point on the path has log(rho) = 0 and needs infinitely many nodes
    log_rho = np.maximum(log_rho, 1e-300)
    if kind == "rectangle":
        return _LOG_INV_EPS / (2.0 * log_rho) + 0.5 * degree
    s = np.minimum(log_rho, _semicircle_log_rho(degree))
    return (_LOG_INV_EPS + (degree + 1) * 0.5 * math.pi * np.sinh(s)) / (2.0 * s)


def analytic_rule(model: SpectralModel, contour: Contour, points=(),
                  singular=()) -> Contour:
    """The contour's path with the fewest Gauss-Legendre nodes per segment
    that a contour sum of the model, analytic near the path, needs.

    points are the evaluation points of the sum and singular its other
    singularities (such as the spectrum of Z), each one point or a 1-d
    array. Per segment, each of them asks for the count _wanted_counts
    gives its Bernstein parameter and the degree of K' (Trefethen, SIAM
    Rev. 50 (2008)); the segment takes the largest, and at least
    _MIN_ANALYTIC_NODES. An evaluation point that asks for more than
    MAX_SEGMENT_NODES on some segment raises ValueError naming the first
    such point. A singular point only raises the count, and no further
    than the segment's count in the contour passed in (contour.counts), so
    a root near the path is summed on that rule as before. The result has
    the contour's side, kind, depth and endpoints, and every count's rule
    is built once (_rule).
    """
    points = np.ravel(np.asarray(points, dtype=np.complex128))
    singular = np.ravel(np.asarray(singular, dtype=np.complex128))
    log_rho = _log_rho(contour, np.concatenate([points, singular]))
    degree = model.kprime.degree

    at_points, at_singular = log_rho[:, :points.size], log_rho[:, points.size:]
    # a point asks for the most nodes on the segment where its rho is least
    too_many = (_wanted_counts(contour.kind, degree, np.min(at_points, axis=0))
                > MAX_SEGMENT_NODES)
    if np.any(too_many):
        z = complex(points[np.argmax(too_many)])
        raise ValueError(f"z={z} too close to the contour for quadrature")

    def per_segment(part):
        nearest = np.min(part, axis=1, initial=np.inf)
        return np.ceil(_wanted_counts(contour.kind, degree, nearest)).tolist()

    counts = tuple(
        int(min(MAX_SEGMENT_NODES,
                max(_MIN_ANALYTIC_NODES, from_points, min(cap, from_singular))))
        for from_points, from_singular, cap in zip(
            per_segment(at_points), per_segment(at_singular), contour.counts))
    return _contour(contour.side, contour.kind, contour.depth, contour.endpoints, counts)


def _kprime_norms(model: SpectralModel, nodes: np.ndarray) -> np.ndarray:
    """||K'(mu)|| at each of the 1-d array nodes (_kernels.spectral_norms).

    The nodes go through kprime_values in chunks of at most
    _NORM_BATCH_ENTRIES matrix entries, which bounds the memory of a batch
    of contours at large n; the norms are per node, so the chunking does
    not change them.
    """
    step = max(1, _NORM_BATCH_ENTRIES // model.n ** 2)
    return np.concatenate([spectral_norms(model.kprime_values(nodes[start:start + step]))
                           for start in range(0, nodes.shape[0], step)])


def variation(model: SpectralModel, contour: Contour) -> float:
    """V0 = integral over the contour of ||K'(mu)|| |dmu|.

    ||.|| is the spectral norm at each quadrature node, evaluated in
    closed form for n <= 2 and from the Gram matrix's largest eigenvalue
    otherwise (_kernels.spectral_norms).
    This is the only quadrature in the admissibility test; callers that
    need the test at several couplings evaluate it once and rescale
    with admissibility_at.
    """
    return float(np.sum(np.abs(contour.weights) * _kprime_norms(model, contour.nodes)))


class _RectangleDistance:
    """dist(sigma1, rectangle) over the depths of the rectangles on one
    interval, from parts that do not depend on the depth.

    sigma1 is real. The point-segment distance from lam to the vertical
    side at a is |lam - a| at every depth, and to the one at b |lam - b|.
    The nearest point of the top side lies over the foot a + t (b - a), t
    the clamp to [0, 1] of (lam - a)(b - a) / |b - a|^2, so the distance
    to it is hypot(lam - foot, h) at depth h. The distances of the
    vertical sides and the feet are taken once; each depth then costs one
    hypot per eigenvalue. The values are those of the complex point-segment
    arithmetic of every segment (nearest parameter clamped, then the
    modulus), bit for bit, and the same on either side, sigma1 being real.

    hypot is monotone in |offset|, so d(h) = min(sides, hypot(o, h)), o the
    least |offset|, rises up to its kink h* = sqrt(sides^2 - o^2) and is
    constant after it; kink is h*, or None when o >= sides (no kink). o is
    0, and h* = sides, when an eigenvalue lies inside the interval.
    """

    def __init__(self, model: SpectralModel, endpoints):
        a, b = endpoints
        lam = model.sigma1
        length = b - a
        t = (lam - a) * length / abs(length) ** 2
        # the clamps of max(0.0, t) and min(1.0, t), NaN included
        t = np.where(t > 0.0, t, 0.0)
        t = np.where(t < 1.0, t, 1.0)
        self.offsets = lam - (a + t * length)
        self.sides = float(np.min(np.minimum(np.abs(lam - a), np.abs(lam - b))))
        nearest = float(np.min(np.abs(self.offsets)))
        self.kink = (math.sqrt((self.sides - nearest) * (self.sides + nearest))
                     if nearest < self.sides else None)

    def __call__(self, depths) -> list:
        """The distance at each depth of the 1-d array depths, as floats."""
        top = np.hypot(self.offsets[None, :], np.asarray(depths, dtype=float)[:, None])
        return np.minimum(self.sides, np.min(top, axis=1)).tolist()


def distance_to_sigma1(model: SpectralModel, contour: Contour) -> float:
    """dist(sigma1, contour) by exact per-kind geometry.

    Semicircle: | |lam - center| - radius |. Rectangle: minimum over the
    three segments of the point-segment distance.
    """
    if contour.kind == "rectangle":
        return _RectangleDistance(model, contour.endpoints)([contour.depth])[0]
    if contour.kind != "semicircle":
        raise ValueError(f"unknown contour kind {contour.kind!r}")
    a, b = contour.endpoints
    c = 0.5 * (a + b)
    return float(min(abs(abs(float(lam) - c) - contour.depth) for lam in model.sigma1))


@dataclass(frozen=True)
class AdmissibilityReport:
    variation: float
    distance: float
    omega: float
    admissible: bool
    r_min: float | None
    r_max: float | None


def admissibility_at(v0: float, distance: float,
                     coupling_scale: float = 1.0) -> AdmissibilityReport:
    """The report of admissibility at coupling t, from V0 and d at t = 1.

    Pure arithmetic with no quadrature: V0 -> t^2 V0, then the test and the
    radii. admissibility(model, contour, t) is admissibility_at(
    variation(model, contour), distance_to_sigma1(model, contour), t).
    """
    t = float(coupling_scale)
    v0 = v0 * t * t
    omega = distance * distance - 4.0 * v0
    admissible = omega > 0.0
    if admissible:
        r_min = 0.5 * distance - math.sqrt(0.25 * distance * distance - v0)
        r_max = distance - math.sqrt(v0)
    else:
        r_min = None
        r_max = None
    return AdmissibilityReport(v0, distance, omega, admissible, r_min, r_max)


def admissibility(model: SpectralModel, contour: Contour,
                  coupling_scale: float = 1.0) -> AdmissibilityReport:
    """Contraction test V0 < d^2/4 and the two enclosure radii.

    r_min = d/2 - sqrt(d^2/4 - V0) bounds how far roots move from sigma1,
    r_max = d - sqrt(V0) bounds the enclosure from above. The coupling
    scale t enters through V0 -> t^2 V0. Evaluates V0 (one quadrature,
    see variation) and d (exact geometry); a caller that needs the report
    at several couplings for one contour should call this once at t = 1
    and pass its variation and distance to admissibility_at for each t.
    """
    return admissibility_at(variation(model, contour),
                            distance_to_sigma1(model, contour), coupling_scale)


def ensure_admissible(rep: AdmissibilityReport) -> AdmissibilityReport:
    """Return rep, or raise AdmissibilityError carrying it."""
    if not rep.admissible:
        raise AdmissibilityError(
            f"contour not admissible: V0={rep.variation:.6g} >= d^2/4={rep.distance ** 2 / 4:.6g}",
            report=rep,
        )
    return rep


def _rectangle_r_min(model: SpectralModel, side: int, depths,
                     distance: _RectangleDistance) -> list:
    """r_min of the side-l rectangle at each depth, inf where the rectangle
    is not admissible.

    Equal bit for bit to admissibility(model, make_contour(model, side,
    "rectangle", h)).r_min, but builds no Contour: the rules come from
    _rectangle_rules, and each group of depths with equal node counts
    takes one _kprime_norms call over all its nodes and one row-wise
    weighted sum for its V0 values, so a depth's value does not
    depend on the batch (optimize_r0's scan and kink probes share one).
    distance is the model's _RectangleDistance, built once per search; it
    gives d at all the depths in one call.
    """
    r_min = [math.inf] * len(depths)
    endpoints = model.interval
    length = endpoints[1] - endpoints[0]
    counts = [_rectangle_counts(length, h) for h in depths]
    dists = distance(depths)
    for rows, _, nodes, weights in _rectangle_rules(*endpoints, depths, counts):
        if side == -1:
            nodes = np.conj(nodes)
        norms = _kprime_norms(model, nodes.ravel()).reshape(nodes.shape)
        v0s = np.sum(np.abs(weights) * norms, axis=1)
        for row, v0 in zip(rows, v0s.tolist()):
            rep = admissibility_at(v0, dists[row])
            if rep.admissible:
                r_min[row] = rep.r_min
    return r_min


# The coarse scan of optimize_r0 takes this many depths, and its
# golden-section refinement stops at this relative bracket width; the
# probes beside the kink of d(h) lie half that width from it.
_SCAN_DEPTHS = 33
_DEPTH_RTOL = 1e-6


def optimize_r0(root):
    """(depth, r0): the least r_min that the search of a depth family
    around the solved root's contour measured, never above the root's own.

    A semicircle, and a rectangle with 0.5 depth >= hi - lo, have no
    family: r0 is the root's r_min. Any other rectangle searches the side-l
    rectangles of depths (0.5 depth, min(2 depth, hi - lo)), which hold its
    own; r0 is the least r_min among the root's and every depth evaluated,
    and a scan with no admissible depth gives the root's.

    d(h) rises up to its kink h* and is constant after it
    (_RectangleDistance), and r_min falls as d rises and rises with V0, so
    the least r_min usually sits at h*. One _rectangle_r_min batch takes a
    scan of _SCAN_DEPTHS depths and, when the family holds them, h* and
    the probes h* -+ delta (delta half the final bracket). The search stops
    at h* if h* lies between the best scanned depth's neighbours and its
    r_min is no larger than the best scanned one's and both probes'.
    Otherwise golden-section refinement, which assumes r_min unimodal
    there, shrinks that bracket to _DEPTH_RTOL relative, one depth a step.
    """
    model, contour = root.model, root.contour
    own = (contour.depth, root.report.r_min)
    length = model.interval[1] - model.interval[0]
    if contour.kind == "semicircle" or 0.5 * contour.depth >= length:
        return own
    lo, hi = 0.5 * contour.depth, min(2.0 * contour.depth, length)
    distance = _RectangleDistance(model, model.interval)
    # (depth, r_min) of the root and of every depth evaluated, in order
    measured = [own]

    def r_of(*hs):
        values = _rectangle_r_min(model, root.side, hs, distance)
        measured.extend(zip(map(float, hs), values))
        return values

    def least(*candidates):
        return min(candidates, key=lambda pair: pair[1])

    kink, probes = distance.kink, ()
    if kink is not None:
        delta = 0.5 * _DEPTH_RTOL * max(1.0, kink)
        if lo < kink - delta and kink + delta < hi:
            probes = (kink - delta, kink, kink + delta)
    scan = np.linspace(lo, hi, _SCAN_DEPTHS)
    values = r_of(*scan, *probes)
    values, at_probes = values[:_SCAN_DEPTHS], values[_SCAN_DEPTHS:]
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        return least(*measured)

    left = scan[max(best - 1, 0)]
    right = scan[min(best + 1, _SCAN_DEPTHS - 1)]
    if probes and left <= kink <= right and at_probes[1] <= min(values[best], *at_probes):
        return least(own, (kink, at_probes[1]))
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = right - phi * (right - left)
    x2 = left + phi * (right - left)
    f1, f2 = r_of(x1, x2)
    while right - left > _DEPTH_RTOL * max(1.0, right):
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - phi * (right - left)
            (f1,) = r_of(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + phi * (right - left)
            (f2,) = r_of(x2)
    return least(*measured)
