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


def _segment_nodes(p, q, nodes_per_unit):
    count = _node_count(nodes_per_unit, abs(q - p))
    x, w = _rule(count)
    mid = 0.5 * (p + q)
    half = 0.5 * (q - p)
    return mid + half * x, w * half


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
        top = 1j * h
        corners = [a, a + top, b + top, b]
        node_parts, weight_parts, slices = [], [], []
        start = 0
        for p, q in zip(corners[:-1], corners[1:]):
            seg_nodes, seg_w = _segment_nodes(p, q, nodes_per_unit)
            node_parts.append(seg_nodes)
            weight_parts.append(seg_w)
            slices.append(slice(start, start + seg_nodes.shape[0]))
            start += seg_nodes.shape[0]
        nodes = np.concatenate(node_parts)
        weights = np.concatenate(weight_parts)
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
    F/2 + sqrt(F^2/4 - |det K|^2) cancels there). n >= 3 uses the SVD.
    """
    n = kvals.shape[1]
    if n == 1:
        return np.abs(kvals[:, 0, 0])
    if n == 2:
        c1, c2 = kvals[:, :, 0], kvals[:, :, 1]
        g11 = np.sum(c1.real ** 2 + c1.imag ** 2, axis=1)
        g22 = np.sum(c2.real ** 2 + c2.imag ** 2, axis=1)
        g12 = np.abs(np.sum(np.conj(c1) * c2, axis=1))
        return np.sqrt(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12))
    return np.linalg.norm(kvals, ord=2, axis=(1, 2))


def variation(model: SpectralModel, contour: Contour) -> float:
    """V0 = integral over the contour of ||K'(mu)|| |dmu|.

    ||.|| is the spectral norm at each quadrature node, evaluated in
    closed form for n <= 2 and by SVD otherwise (see _spectral_norms).
    This is the only quadrature in the admissibility test; callers that
    need the test at several couplings evaluate it once and rescale
    with admissibility_at.
    """
    kvals = model.kprime_values(contour.nodes)
    return float(np.sum(np.abs(contour.weights) * _spectral_norms(kvals)))


def _point_segment_distance(p: complex, q: complex, x: complex) -> float:
    d = q - p
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(x - p)
    t = ((x - p).real * d.real + (x - p).imag * d.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(x - (p + t * d))


def distance_to_sigma1(model: SpectralModel, contour: Contour) -> float:
    """dist(sigma1, contour) by exact per-kind geometry.

    Semicircle: | |lam - center| - radius |. Rectangle: minimum over the
    three segments of the point-segment distance.
    """
    a, b = contour.endpoints
    dists = []
    for lam in model.sigma1:
        lam = float(lam)
        if contour.kind == "semicircle":
            c = 0.5 * (a + b)
            dists.append(abs(abs(lam - c) - contour.depth))
        elif contour.kind == "rectangle":
            top = 1j * contour.side * contour.depth
            corners = [a, a + top, b + top, b]
            dists.append(min(
                _point_segment_distance(p, q, complex(lam))
                for p, q in zip(corners[:-1], corners[1:])
            ))
        else:
            raise ValueError(f"unknown contour kind {contour.kind!r}")
    return float(min(dists))


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


def optimize_r0(model: SpectralModel, side: int, family,
                nodes_per_unit: int = 150, coupling_scale: float = 1.0,
                samples: int = 33, tol: float = 1e-6):
    """Minimize r_min over a one-parameter contour family.

    family is either "semicircle" (a singleton, returned directly) or
    ("rectangle", (depth_lo, depth_hi)). Coarse scan plus golden-section
    refinement; deterministic. Returns (best_contour, r0) where r0 is the
    optimal localization radius. Raises AdmissibilityError when no member
    of the family is admissible.
    """
    def r_of(contour):
        rep = admissibility(model, contour, coupling_scale)
        return rep.r_min if rep.admissible else math.inf

    if family == "semicircle":
        contour = make_contour(model, side, "semicircle", nodes_per_unit=nodes_per_unit)
        r0 = r_of(contour)
        if not math.isfinite(r0):
            raise AdmissibilityError("semicircle contour is not admissible",
                                     report=admissibility(model, contour, coupling_scale))
        return contour, r0

    kind, (lo, hi) = family
    if kind != "rectangle":
        raise ValueError(f"unknown contour family {family!r}")
    if not 0 < lo < hi:
        raise ValueError("depth range must satisfy 0 < lo < hi")

    depths = np.linspace(lo, hi, samples)
    values = [r_of(make_contour(model, side, "rectangle", d, nodes_per_unit)) for d in depths]
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise AdmissibilityError("no admissible depth in the requested range", report=None)

    left = depths[max(best - 1, 0)]
    right = depths[min(best + 1, samples - 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = right - phi * (right - left)
    x2 = left + phi * (right - left)
    f1 = r_of(make_contour(model, side, "rectangle", x1, nodes_per_unit))
    f2 = r_of(make_contour(model, side, "rectangle", x2, nodes_per_unit))
    while right - left > tol * max(1.0, right):
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - phi * (right - left)
            f1 = r_of(make_contour(model, side, "rectangle", x1, nodes_per_unit))
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + phi * (right - left)
            f2 = r_of(make_contour(model, side, "rectangle", x2, nodes_per_unit))
    depth = 0.5 * (left + right)
    contour = make_contour(model, side, "rectangle", depth, nodes_per_unit)
    r0 = r_of(contour)
    if not math.isfinite(r0):
        raise AdmissibilityError("refined depth lost admissibility", report=None)
    return contour, r0
