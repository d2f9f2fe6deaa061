"""Contours for analytic continuation through the essential spectrum.

A contour for side l is a path that joins the interval endpoints through
the half-plane of sign l, left to right: a semicircle (depth half the
interval length) or a three-segment rectangle of adjustable depth, with a
Gauss-Legendre node count per segment sized by arclength in half-lengths
of the interval (_node_count). Its nodes and complex weights, whose sum
is the path integral of dmu, are built on first read (Contour.nodes).
The counts size a rectangle's V0 and cap the counts of analytic_rule. A
semicircle's V0, whose integrand ||K'(mu)|| has kinks, takes a nested
trapezoidal rule in the angle, sized by accuracy and stated with its
error (variation). The integrands of the other contour sums are analytic
near the path, so analytic_rule gives the same path the fewest nodes that
their known singularities and the degree of K' allow.
"""

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import spectral_norms
from ._quad import _rule
from .errors import AdmissibilityError, ModelError
from .model import SpectralModel

# A contour's counts, V0's rule on a rectangle and the cap of
# analytic_rule: a segment gets _V0_NODES_PER_UNIT Gauss-Legendre nodes per
# unit of arclength, the unit being the interval's half-length, and at
# least 200 (_node_count): 629 on every semicircle.
_V0_NODES_PER_UNIT = 200

# A semicircle's V0 (variation) is the trapezoidal rule in the angle over
# [0, pi]. The first level has _TRAPEZOID_START intervals, and each doubling
# evaluates only the new midpoints, until two successive levels agree to
# _TRAPEZOID_RTOL (relative) or the rule has _TRAPEZOID_MAX intervals: at
# most 513 norms. The integrand is the even half of a 2 pi-periodic
# function of the angle, where the trapezoidal rule converges
# geometrically away from kinks (Trefethen and Weideman, SIAM Rev. 56
# (2014)).
_TRAPEZOID_START = 128
_TRAPEZOID_MAX = 512
_TRAPEZOID_RTOL = 1e-9

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
    """The side-l path over endpoints, segment by segment (one for a
    semicircle, three for a rectangle), with counts[k] Gauss-Legendre nodes
    on segment k. It compares and hashes by these fields; its nodes and
    weights are built on first read."""

    side: int
    kind: str
    depth: float
    endpoints: tuple
    counts: tuple

    @functools.cached_property
    def _gauss_legendre(self) -> tuple:
        """(nodes, weights), read-only: the side +1 rule (_semicircle_rule,
        _rectangle_rule), conjugated on side -1, its weight sum checked
        against the exact path integral of dmu, the interval length."""
        a, b = self.endpoints
        if self.kind == "semicircle":
            nodes, weights = _semicircle_rule(a, b, self.counts[0])
        else:
            nodes, weights = _rectangle_rule(a, b, self.depth, self.counts)
        if self.side == -1:
            nodes, weights = np.conj(nodes), np.conj(weights)
        length = b - a
        total = complex(np.sum(weights))
        if abs(total - length) > 1e-10 * (1.0 + length + 2.0 * self.depth):
            raise ModelError(f"contour weight sum {total} misses interval length {length}")
        for arr in (nodes, weights):
            arr.setflags(write=False)
        return nodes, weights

    nodes = property(lambda self: self._gauss_legendre[0])
    weights = property(lambda self: self._gauss_legendre[1])

    @property
    def num_nodes(self) -> int:
        return sum(self.counts)

    def contains_in_lens(self, zs, closed: bool = False):
        """Whether each point of the array zs lies strictly between the
        interval and the contour (closed: or on either of them), as a bool
        array of zs's shape; for one complex number zs, as a bool, from the
        same comparisons in Python scalars."""
        a, b = self.endpoints
        if not isinstance(zs, complex):
            zs = np.asarray(zs, dtype=np.complex128)
        x, y = zs.real, zs.imag
        below = operator.le if closed else operator.lt
        if self.kind == "semicircle":
            inside = below(abs(zs - 0.5 * (a + b)), self.depth)
            if closed:
                # the endpoints are on the circle, but the rounded centre
                # can put them a unit in the last place outside it
                inside = inside | ((y == 0.0) & ((x == a) | (x == b)))
        elif self.kind == "rectangle":
            inside = below(a, x) & below(x, b) & below(self.side * y, self.depth)
        else:
            raise ValueError(f"unknown contour kind {self.kind!r}")
        return inside & below(0.0, self.side * y)

    def mirror(self) -> "Contour":
        """The reflected contour for the opposite side, whose rule, when
        read, is this one's conjugated."""
        return replace(self, side=-self.side)


def _node_count(arclength):
    """The node count of a contour segment whose arclength is given in
    half-lengths of the interval: max(200, _V0_NODES_PER_UNIT * arclength),
    refused above MAX_SEGMENT_NODES before any rule is built."""
    wanted = _V0_NODES_PER_UNIT * arclength
    if not wanted <= MAX_SEGMENT_NODES:
        raise ModelError(
            f"contour segment needs {wanted:.0f} quadrature nodes, above the "
            f"cap of {MAX_SEGMENT_NODES}"
        )
    return max(200, int(math.ceil(wanted)))


def _rectangle_rule(a, b, depth, counts):
    """The side +1 rectangle of the depth over (a, b) with counts[k]
    Gauss-Legendre nodes on segment k: per segment p -> q, mid + half * x
    and w * half, with mid = (p + q)/2 and half = (q - p)/2 in scalar
    arithmetic."""
    top = 1j * depth
    corners = (a, a + top, b + top, b)
    parts = []
    for p, q, count in zip(corners[:-1], corners[1:], counts):
        x, w = _rule(count)
        mid, half = 0.5 * (p + q), 0.5 * (q - p)
        parts.append((mid + half * x, w * half))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _semicircle_rule(a, b, count):
    """The side +1 semicircle over (a, b) with count Gauss-Legendre nodes:
    c + rho exp(i theta), theta = pi/2 (1 - x), and the weights of dmu."""
    rho = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x, w = _rule(count)
    theta = 0.5 * math.pi * (1.0 - x)
    phase = np.exp(1j * theta)
    return c + rho * phase, w * (1j * rho * phase) * (-0.5 * math.pi)


def make_contour(model: SpectralModel, side: int, kind: str = "semicircle",
                 depth=None) -> Contour:
    """The side-l contour of a kind over the model's interval: a
    semicircle takes no depth (it is half the interval length), a
    rectangle a positive one; any other depth raises ValueError.

    Per segment the node count is _node_count of its arclength in
    half-lengths of the interval (629 on a semicircle, 400 on a
    rectangle's top, whatever the interval); a segment that would need
    more than MAX_SEGMENT_NODES raises ModelError. No rule is built: the
    counts are V0's on a rectangle and cap those of analytic_rule, which
    the analytic contour sums take.
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
        # the sides are checked against the cap before the top, whose
        # arclength is two half-lengths
        side_count = _node_count(depth_val / (0.5 * length))
        counts = (side_count, _node_count(2.0), side_count)
    else:
        raise ValueError(f"unknown contour kind {kind!r}")
    return Contour(int(side), kind, depth_val, (a, b), counts)


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
    array. A segment's count is the one _wanted_counts gives, for the
    degree of K' (Trefethen, SIAM Rev. 50 (2008)), the Bernstein parameter
    of its nearest evaluation point and that of its nearest singular
    point, whichever is larger, and at least _MIN_ANALYTIC_NODES: the
    count falls as the parameter grows, so the nearest point asks for the
    most. Where a segment's nearest evaluation point asks for more than
    MAX_SEGMENT_NODES, the points are searched and ValueError names the
    first that does on some segment. A singular point only raises the
    count, and no further than the segment's count in the contour passed
    in (contour.counts), so a root near the path is summed on that rule as
    before. The result is the contour with these counts; its rule is built
    when first read, from the per-count rules of _rule.
    """
    points = np.ravel(np.asarray(points, dtype=np.complex128))
    singular = np.ravel(np.asarray(singular, dtype=np.complex128))
    log_rho = _log_rho(contour, np.concatenate([points, singular]))
    degree = model.kprime.degree

    at_points = log_rho[:, :points.size]
    # row 0 from the nearest evaluation point of each segment, row 1 from
    # its nearest singular point
    nearest = np.empty((2, log_rho.shape[0]))
    at_points.min(axis=1, initial=np.inf, out=nearest[0])
    log_rho[:, points.size:].min(axis=1, initial=np.inf, out=nearest[1])
    from_points, from_singular = np.ceil(_wanted_counts(contour.kind, degree, nearest)).tolist()
    if max(from_points) > MAX_SEGMENT_NODES:
        # a point asks for the most nodes on the segment where its rho is least
        too_many = (_wanted_counts(contour.kind, degree, at_points.min(axis=0))
                    > MAX_SEGMENT_NODES)
        if np.any(too_many):
            z = complex(points[np.argmax(too_many)])
            raise ValueError(f"z={z} too close to the contour for quadrature")

    counts = tuple(
        int(min(MAX_SEGMENT_NODES, max(_MIN_ANALYTIC_NODES, point, min(cap, singular))))
        for point, singular, cap in zip(from_points, from_singular, contour.counts))
    return replace(contour, counts=counts)


def _kprime_norms(model: SpectralModel, nodes: np.ndarray) -> np.ndarray:
    """||K'(mu)|| at each of the 1-d array nodes (_kernels.spectral_norms).

    The nodes go through kprime_values in chunks of at most
    _NORM_BATCH_ENTRIES matrix entries, which bounds the memory of one deep
    rectangle at large n; the norms are per node, so the chunking does not
    change them.
    """
    step = max(1, _NORM_BATCH_ENTRIES // model.n ** 2)
    return np.concatenate([spectral_norms(model.kprime_values(nodes[start:start + step]))
                           for start in range(0, nodes.shape[0], step)])


def _semicircle_variation(model: SpectralModel, contour: Contour) -> tuple:
    """(V0, its error estimate, the number of norms taken) of a semicircle.

    V0 is the trapezoidal sum T_M over theta in [0, pi] of
    ||K'(c + rho e^{i theta})|| rho dtheta, halves at the endpoints, on the
    side +1 arc for either side: K' has real coefficients, so
    K'(conj mu) = conj K'(mu) and both sides have one V0, bit for bit. The
    levels are nested (_TRAPEZOID_START and after); the error is
    |T_M - T_{M/2}| plus the rounding term (M + 1) eps V0.
    """
    a, b = contour.endpoints
    centre, rho = 0.5 * (a + b), contour.depth

    def norms(theta):
        return _kprime_norms(model, centre + rho * np.exp(1j * theta))

    count = _TRAPEZOID_START
    values = norms(np.pi / count * np.arange(count + 1))
    ends = 0.5 * float(values[0] + values[-1])
    # T_{M/2} from the even nodes of the first level
    previous = np.pi * rho / (count // 2) * (ends + float(np.sum(values[2:-1:2])))
    total = ends + float(np.sum(values[1:-1]))
    v0 = np.pi * rho / count * total
    while abs(v0 - previous) > _TRAPEZOID_RTOL * v0 and count < _TRAPEZOID_MAX:
        total += float(np.sum(norms(np.pi / count * (np.arange(count) + 0.5))))
        count *= 2
        previous, v0 = v0, np.pi * rho / count * total
    return v0, abs(v0 - previous) + (count + 1) * math.ulp(1.0) * v0, count + 1


def _variation(model: SpectralModel, contour: Contour) -> tuple:
    """(V0, its error estimate or None, the number of norms taken): a
    semicircle's by _semicircle_variation, any other contour's as the sum
    of |w_k| ||K'(nu_k)|| over its own rule, which states no error."""
    if contour.kind == "semicircle":
        return _semicircle_variation(model, contour)
    norms = _kprime_norms(model, contour.nodes)
    return float(np.sum(np.abs(contour.weights) * norms)), None, contour.num_nodes


def variation(model: SpectralModel, contour: Contour) -> float:
    """V0 = integral over the contour of ||K'(mu)|| |dmu|.

    ||.|| is the spectral norm at each quadrature node, evaluated in
    closed form for n <= 2 and from the Gram matrix's largest eigenvalue
    otherwise (_kernels.spectral_norms). A semicircle takes the nested
    trapezoidal rule in the angle (_TRAPEZOID_START to _TRAPEZOID_MAX
    intervals), a rectangle the Gauss-Legendre rule of the contour's counts.
    This is the only quadrature in the admissibility test, which also
    reports the semicircle's error estimate; callers that need the test at
    several couplings evaluate it once and rescale with admissibility_at.
    """
    return _variation(model, contour)[0]


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
        # (lam - a) length / |length|^2, the exponent taken out: no overflow
        m, e = math.frexp(length)
        t = np.ldexp(lam - a, -e) * m / (m * m)
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
    # V0's error estimate (None on a rectangle, whose rule states none) and
    # the number of norms V0 took (variation)
    variation_error: float | None = None
    variation_nodes: int | None = None


def admissibility_at(v0: float, distance: float, coupling_scale: float = 1.0, *,
                     variation_error: float | None = None,
                     variation_nodes: int | None = None) -> AdmissibilityReport:
    """The report of admissibility at coupling t, from V0 and d at t = 1.

    Pure arithmetic with no quadrature: V0 -> t^2 V0 and its error
    likewise, then the test and the radii, which read V0 alone; the node
    count is passed on. admissibility(model, contour, t) is this of the
    V0, error and node count of variation and distance_to_sigma1.
    """
    t = float(coupling_scale)
    v0 = v0 * t * t
    if variation_error is not None:
        variation_error = variation_error * t * t
    omega = distance * distance - 4.0 * v0
    admissible = omega > 0.0
    if admissible:
        # d/2 - sqrt(d^2/4 - V0), which cancels as V0/d^2 falls, rearranged
        half = 0.5 * distance
        r_min = v0 / (half + half * math.sqrt(max(0.0, 1.0 - 4.0 * (v0 / distance) / distance)))
        r_max = distance - math.sqrt(v0)
    else:
        r_min = None
        r_max = None
    return AdmissibilityReport(v0, distance, omega, admissible, r_min, r_max,
                               variation_error, variation_nodes)


def admissibility(model: SpectralModel, contour: Contour,
                  coupling_scale: float = 1.0) -> AdmissibilityReport:
    """Contraction test V0 < d^2/4 and the two enclosure radii.

    r_min = d/2 - sqrt(d^2/4 - V0) bounds how far roots move from sigma1,
    r_max = d - sqrt(V0) bounds the enclosure from above. The coupling
    scale t enters through V0 -> t^2 V0. Evaluates V0 with its error
    estimate and node count (one quadrature, see variation) and d (exact
    geometry); a caller that needs the report at several couplings for one
    contour should call this once at t = 1 and pass its variation,
    distance, variation_error and variation_nodes to admissibility_at for
    each t.
    """
    v0, error, nodes = _variation(model, contour)
    return admissibility_at(v0, distance_to_sigma1(model, contour), coupling_scale,
                            variation_error=error, variation_nodes=nodes)


def ensure_admissible(rep: AdmissibilityReport) -> AdmissibilityReport:
    """Return rep, or raise AdmissibilityError carrying it."""
    if not rep.admissible:
        raise AdmissibilityError(
            f"contour not admissible: V0={rep.variation:.6g} >= d^2/4="
            f"{0.25 * rep.distance * rep.distance:.6g}",
            report=rep,
        )
    return rep


def _rectangle_r_min(model: SpectralModel, side: int, depth: float) -> float:
    """r_min of the side-l rectangle of the depth, inf where it is not
    admissible."""
    rep = admissibility(model, make_contour(model, side, "rectangle", depth))
    return rep.r_min if rep.admissible else math.inf


# optimize_r0 scans this many evenly spaced depths of the family.
_SCAN_DEPTHS = 33


def optimize_r0(root):
    """(depth, r0): the least r_min among the solved root's own and those
    of the depths scanned in the family around its contour.

    A semicircle, and a rectangle with 0.5 depth >= hi - lo, have no
    family: r0 is the root's r_min. Any other rectangle's family is the
    side-l rectangles of depths (0.5 depth, min(2 depth, hi - lo)), which
    hold its own. The scan takes _SCAN_DEPTHS evenly spaced depths of it
    and, when it lies strictly inside, the kink h* of d(h)
    (_RectangleDistance), each depth's r_min from one admissibility of its
    contour (_rectangle_r_min): d rises up to h* and is constant after it,
    and r_min falls as d rises and rises with V0, so the least r_min
    usually sits at h*. A scan with no admissible depth gives the root's.

    r0 bounds the root: the rectangle that gives r0 has r0 <= r_min(root)
    < r_max(root), so its root, of norm at most r0, is a fixed point of the
    root's own map in the ball where that map has only one: ||X|| <= r0.
    """
    model, contour = root.model, root.contour
    own = (contour.depth, root.report.r_min)
    length = model.interval[1] - model.interval[0]
    if contour.kind == "semicircle" or 0.5 * contour.depth >= length:
        return own
    lo, hi = 0.5 * contour.depth, min(2.0 * contour.depth, length)
    kink = _RectangleDistance(model, model.interval).kink
    depths = np.linspace(lo, hi, _SCAN_DEPTHS).tolist()
    if kink is not None and lo < kink < hi:
        depths.append(kink)
    scanned = [(h, _rectangle_r_min(model, root.side, h)) for h in depths]
    return min([own, *scanned], key=lambda pair: pair[1])
