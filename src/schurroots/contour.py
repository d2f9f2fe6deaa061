"""Contours for analytic continuation through the essential spectrum.

A contour for side l joins the interval endpoints through the half-plane
of sign l, traversed left to right, and carries Gauss-Legendre nodes and
complex weights so that sum(weights) reproduces integral of dmu over the
path. Two kinds are supported: a semicircle (depth fixed at half the
interval length) and a three-segment rectangle of adjustable depth.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quad import _rule
from .errors import AdmissibilityError, ModelError
from .model import SpectralModel

# Largest Gauss-Legendre rule built for one segment. leggauss is O(N^3) in
# the rule size, so an unbounded count (a deep rectangle, a huge
# nodes_per_unit) would stall before admissibility could reject it.
MAX_SEGMENT_NODES = 4096

# Most K'(mu) matrix entries evaluated in one batch by _kprime_norms (4 MiB
# of complex128): a whole 33-depth rectangle scan at n = 2, 1024 nodes at
# n = 16.
_NORM_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Contour:
    side: int
    kind: str
    depth: float
    endpoints: tuple
    nodes: np.ndarray
    weights: np.ndarray
    orientation: str
    segment_slices: tuple

    def __post_init__(self):
        for arr in (self.nodes, self.weights):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def node_spacing(self) -> np.ndarray:
        """Per node, the larger of its gaps to its neighbors within the same
        segment, used by the quadrature-degeneracy guard; computed once per
        contour."""
        spacing = np.zeros(self.num_nodes)
        for sl in self.segment_slices:
            gaps = np.abs(np.diff(self.nodes[sl]))
            spacing[sl.start:sl.stop - 1] = gaps
            spacing[sl.start + 1:sl.stop] = np.maximum(
                spacing[sl.start + 1:sl.stop], gaps)
        spacing.setflags(write=False)
        return spacing

    def contains_in_lens(self, z):
        """Whether z lies strictly between the interval and the contour.

        z is one point -> bool, or an array of points -> a bool array.
        """
        a, b = self.endpoints
        zs = np.asarray(z, dtype=np.complex128)
        x, y = zs.real, zs.imag
        if self.kind == "semicircle":
            inside = np.abs(zs - 0.5 * (a + b)) < self.depth
        elif self.kind == "rectangle":
            inside = (a < x) & (x < b) & (self.side * y < self.depth)
        else:
            raise ValueError(f"unknown contour kind {self.kind!r}")
        inside = inside & (self.side * y > 0)
        return inside if inside.ndim else bool(inside)

    def mirror(self) -> "Contour":
        """The reflected contour for the opposite side."""
        return Contour(
            -self.side,
            self.kind,
            self.depth,
            self.endpoints,
            np.conj(self.nodes),
            np.conj(self.weights),
            self.orientation,
            self.segment_slices,
        )


def _node_count(nodes_per_unit, arclength):
    """max(200, nodes_per_unit * arclength), refused above MAX_SEGMENT_NODES
    before any rule is built."""
    wanted = nodes_per_unit * arclength
    if not wanted <= MAX_SEGMENT_NODES:
        raise ModelError(
            f"contour segment needs {wanted:.0f} quadrature nodes, above the "
            f"cap of {MAX_SEGMENT_NODES}"
        )
    return max(200, int(math.ceil(wanted)))


def _rectangle_rules(a, b, depths, nodes_per_unit):
    """The side +1 rectangle rules of the interval (a, b) at several depths.

    Returns one (rows, counts, nodes, weights) per distinct triple of
    segment node counts (a segment's count depends on its length, so the
    vertical sides change count with the depth), in order of first
    appearance: rows are the indices into depths that share it, counts the
    three segment counts, nodes and weights (len(rows), sum(counts))
    arrays. Row k holds the Gauss-Legendre nodes and weights of the side +1
    rectangle of depth depths[rows[k]]: per segment p -> q, mid + half * x
    and w * half, with mid = (p + q)/2 and half = (q - p)/2 taken per depth
    in scalar arithmetic. make_contour builds its rectangle with this too.
    Node counts are checked depth by depth, each vertical side before the
    top.
    """
    length = b - a
    groups = {}
    for row, h in enumerate(depths):
        side_count = _node_count(nodes_per_unit, h)
        counts = (side_count, _node_count(nodes_per_unit, length), side_count)
        groups.setdefault(counts, []).append(row)
    rules = []
    for counts, rows in groups.items():
        ends = []
        for row in rows:
            top = 1j * float(depths[row])
            corners = (a, a + top, b + top, b)
            ends.append([(0.5 * (p + q), 0.5 * (q - p))
                         for p, q in zip(corners[:-1], corners[1:])])
        # (mid, half) of each segment, repeated over its nodes
        per_node = np.repeat(np.array(ends), counts, axis=1)
        mid, half = per_node[..., 0], per_node[..., 1]
        x, w = (np.concatenate(parts) for parts in zip(*map(_rule, counts)))
        rules.append((rows, counts, mid + half * x, w * half))
    return rules


def make_contour(model: SpectralModel, side: int, kind: str = "semicircle",
                 depth=None, nodes_per_unit: int = 200) -> Contour:
    """Build the side-l contour with Gauss-Legendre quadrature.

    Per segment the node count is max(200, nodes_per_unit * arclength);
    a segment that would need more than MAX_SEGMENT_NODES raises ModelError.
    The weight sum is checked against the exact path integral of dmu,
    which equals the interval length.
    """
    if side not in (1, -1):
        raise ValueError(f"side must be +1 or -1, got {side}")
    a, b = model.interval
    length = b - a

    if kind == "semicircle":
        rho = 0.5 * length
        if depth is not None and abs(depth - rho) > 1e-12 * (1.0 + rho):
            raise ValueError(
                f"semicircle depth is fixed at half the interval length ({rho}), got {depth}"
            )
        c = 0.5 * (a + b)
        count = _node_count(nodes_per_unit, math.pi * rho)
        x, w = _rule(count)
        theta = 0.5 * math.pi * (1.0 - x)
        phase = np.exp(1j * theta)
        nodes = c + rho * phase
        weights = w * (1j * rho * phase) * (-0.5 * math.pi)
        slices = (slice(0, count),)
        depth_val = rho
    elif kind == "rectangle":
        if depth is None:
            raise ValueError("rectangle contour requires a depth")
        h = float(depth)
        if h <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        ((_, counts, nodes, weights),) = _rectangle_rules(a, b, [h], nodes_per_unit)
        nodes, weights = nodes[0], weights[0]
        bounds = np.cumsum((0,) + counts).tolist()
        slices = [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
        depth_val = h
    else:
        raise ValueError(f"unknown contour kind {kind!r}")
    if side == -1:
        # the side -1 rule is the mirror image of the side +1 rule, bit for
        # bit, so it equals make_contour(model, 1, ...).mirror()
        nodes = np.conj(nodes)
        weights = np.conj(weights)

    total = complex(np.sum(weights))
    if abs(total - length) > 1e-10 * (1.0 + length + 2.0 * depth_val):
        raise ModelError(f"contour weight sum {total} misses interval length {length}")

    return Contour(int(side), kind, float(depth_val), (a, b),
                   np.ascontiguousarray(nodes, dtype=np.complex128),
                   np.ascontiguousarray(weights, dtype=np.complex128),
                   "left-to-right", tuple(slices))


def _spectral_norms(kvals: np.ndarray) -> np.ndarray:
    """Largest singular value of each n x n matrix in a (N, n, n) stack.

    n = 1 and n = 2 use closed forms; a batched SVD of such small matrices
    is almost all per-matrix overhead. For n = 2 the root is taken of the
    larger eigenvalue of the Gram matrix G = K^H K written as
    (g11 + g22)/2 + hypot((g11 - g22)/2, |g12|), which keeps full relative
    accuracy when K is close to a multiple of the identity (the form
    F/2 + sqrt(F^2/4 - |det K|^2) cancels there). G is formed from node-long
    columns, each entry's |k|^2 once and each column sum as one addition,
    with no reduction over a length-2 axis. n >= 3 uses the SVD.
    """
    n = kvals.shape[1]
    if n == 1:
        return np.abs(kvals[:, 0, 0])
    if n == 2:
        sq = kvals.real ** 2 + kvals.imag ** 2
        g11 = sq[:, 0, 0] + sq[:, 1, 0]
        g22 = sq[:, 0, 1] + sq[:, 1, 1]
        cross = np.conj(kvals[:, :, 0]) * kvals[:, :, 1]
        g12 = np.abs(cross[:, 0] + cross[:, 1])
        return np.sqrt(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12))
    return np.linalg.norm(kvals, ord=2, axis=(1, 2))


def _kprime_norms(model: SpectralModel, nodes: np.ndarray) -> np.ndarray:
    """||K'(mu)|| at each of the 1-d array nodes (see _spectral_norms).

    The nodes go through kprime_values in chunks of at most
    _NORM_BATCH_ENTRIES matrix entries, which bounds the memory of a batch
    of contours at large n; the norms are per node, so the chunking does
    not change them.
    """
    step = max(1, _NORM_BATCH_ENTRIES // model.n ** 2)
    return np.concatenate([_spectral_norms(model.kprime_values(nodes[start:start + step]))
                           for start in range(0, nodes.shape[0], step)])


def variation(model: SpectralModel, contour: Contour) -> float:
    """V0 = integral over the contour of ||K'(mu)|| |dmu|.

    ||.|| is the spectral norm at each quadrature node, evaluated in
    closed form for n <= 2 and by SVD otherwise (see _spectral_norms).
    This is the only quadrature in the admissibility test; callers that
    need the test at several couplings evaluate it once and rescale
    with admissibility_at.
    """
    return float(np.sum(np.abs(contour.weights) * _kprime_norms(model, contour.nodes)))


def _point_segment_distance(p: complex, q: complex, x: complex) -> float:
    d = q - p
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(x - p)
    t = ((x - p).real * d.real + (x - p).imag * d.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(x - (p + t * d))


def _rectangle_distance(model: SpectralModel, endpoints, side: int, depth: float) -> float:
    """dist(sigma1, rectangle): the least point-segment distance from an
    eigenvalue of a1 to one of the three segments."""
    a, b = endpoints
    top = 1j * side * depth
    corners = [a, a + top, b + top, b]
    segments = list(zip(corners[:-1], corners[1:]))
    return float(min(_point_segment_distance(p, q, lam)
                     for lam in map(complex, model.sigma1.tolist()) for p, q in segments))


def distance_to_sigma1(model: SpectralModel, contour: Contour) -> float:
    """dist(sigma1, contour) by exact per-kind geometry.

    Semicircle: | |lam - center| - radius |. Rectangle: minimum over the
    three segments of the point-segment distance.
    """
    if contour.kind == "rectangle":
        return _rectangle_distance(model, contour.endpoints, contour.side, contour.depth)
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


def _rectangle_r_min(model: SpectralModel, side: int, depths, nodes_per_unit,
                     coupling_scale) -> list:
    """r_min of the side-l rectangle at each depth, inf where the rectangle
    is not admissible.

    Equal bit for bit to admissibility(model, make_contour(model, side,
    "rectangle", h, nodes_per_unit), coupling_scale).r_min, but builds no
    Contour: the rules come from _rectangle_rules, and each group of depths
    with equal node counts takes one _kprime_norms call over all its nodes
    and one row-wise weighted sum for its V0 values.
    """
    r_min = [math.inf] * len(depths)
    endpoints = model.interval
    for rows, _, nodes, weights in _rectangle_rules(*endpoints, depths, nodes_per_unit):
        if side == -1:
            nodes = np.conj(nodes)
        norms = _kprime_norms(model, nodes.ravel()).reshape(nodes.shape)
        v0s = np.sum(np.abs(weights) * norms, axis=1)
        for row, v0 in zip(rows, v0s.tolist()):
            depth = float(depths[row])
            rep = admissibility_at(v0, _rectangle_distance(model, endpoints, side, depth),
                                   coupling_scale)
            if rep.admissible:
                r_min[row] = rep.r_min
    return r_min


def optimize_r0(model: SpectralModel, side: int, family,
                nodes_per_unit: int = 150, coupling_scale: float = 1.0,
                samples: int = 33, tol: float = 1e-6):
    """Minimize r_min over a one-parameter contour family.

    family is either "semicircle" (a singleton, returned directly) or
    ("rectangle", (depth_lo, depth_hi)). Coarse scan plus golden-section
    refinement; deterministic. Returns (best_contour, r0) where r0 is the
    optimal localization radius. Raises AdmissibilityError when no member
    of the family is admissible.

    For rectangles, the candidate depths are evaluated by _rectangle_r_min,
    which builds no Contour: the samples depths of the scan in one batch,
    the two bracket points in a second and each golden-section step on its
    own. Only the chosen depth gets a Contour, and its r0 is recomputed
    from it by admissibility. The values are those of make_contour plus
    admissibility at each depth, bit for bit, so the search takes the same
    steps and returns the same depth and r0.
    """
    if family == "semicircle":
        contour = make_contour(model, side, "semicircle", nodes_per_unit=nodes_per_unit)
        rep = admissibility(model, contour, coupling_scale)
        if not rep.admissible:
            raise AdmissibilityError("semicircle contour is not admissible", report=rep)
        return contour, rep.r_min

    kind, (lo, hi) = family
    if kind != "rectangle":
        raise ValueError(f"unknown contour family {family!r}")
    if not 0 < lo < hi:
        raise ValueError("depth range must satisfy 0 < lo < hi")

    def r_of(*depths):
        return _rectangle_r_min(model, side, depths, nodes_per_unit, coupling_scale)

    depths = np.linspace(lo, hi, samples)
    values = r_of(*depths)
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise AdmissibilityError("no admissible depth in the requested range", report=None)

    left = depths[max(best - 1, 0)]
    right = depths[min(best + 1, samples - 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = right - phi * (right - left)
    x2 = left + phi * (right - left)
    f1, f2 = r_of(x1, x2)
    while right - left > tol * max(1.0, right):
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - phi * (right - left)
            (f1,) = r_of(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + phi * (right - left)
            (f2,) = r_of(x2)
    depth = 0.5 * (left + right)
    contour = make_contour(model, side, "rectangle", depth, nodes_per_unit)
    rep = admissibility(model, contour, coupling_scale)
    if not rep.admissible:
        raise AdmissibilityError("refined depth lost admissibility", report=None)
    return contour, rep.r_min
