"""Angular operators, their Gram matrices, and the operator identities.

The angular operator for side l acts from C^n into L2 on the interval as
multiplication by the rational function y(mu) = b(mu) (Z - mu)^{-1}; it is
kept in that symbolic form (b, Z) and every derived quantity is an
adaptive quadrature of rational-polynomial integrands. Nothing here
discretizes the function space.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import (_right_resolvent_products, _sandwich_products,
                       _shifted_solve, resolvent_cauchy_sum, sandwich_sum)
from ._quad import adaptive_quad
from .contour import (AdmissibilityReport, Contour, _spectral_norms,
                      admissibility, analytic_rule, distance_to_sigma1)
from .errors import NumericsError
from .model import MatrixPolynomial, SpectralModel
from .rootsolver import RootSolution, _require_clear_of_nodes
from .schur import _m1_on_rule


@dataclass(frozen=True)
class RationalAngular:
    """y(mu) = b(mu) @ inv(z - mu), shape (m, n), defined off spec(z)."""

    b: MatrixPolynomial
    z: np.ndarray

    def __call__(self, mus) -> np.ndarray:
        mus = np.asarray(mus, dtype=np.complex128)
        squeeze = mus.ndim == 0
        mus = np.atleast_1d(mus)
        out = _right_resolvent_products(self.b(mus), mus, self.z)
        return out[0] if squeeze else out

    def adjoint_values(self, mus) -> np.ndarray:
        """ytilde(mu) = inv(z^* - mu) @ b#(mu), shape (n, m); equals
        y(mu)^* for real mu."""
        mus = np.asarray(mus, dtype=np.complex128)
        squeeze = mus.ndim == 0
        mus = np.atleast_1d(mus)
        out = _shifted_solve(np.conj(self.z.T), mus, self.b.sharp()(mus))
        return out[0] if squeeze else out


@dataclass(frozen=True)
class RiccatiSolution:
    side: int
    y_repr: RationalAngular
    gram: np.ndarray
    y_norm: float
    bstar_y: np.ndarray
    interval: tuple

    @property
    def z_op(self) -> np.ndarray:
        return self.y_repr.z

    def y_values(self, mus) -> np.ndarray:
        return self.y_repr(mus)


@dataclass(frozen=True)
class OmegaOperator:
    side: int
    omega: np.ndarray
    norm: float
    bound: float


@dataclass(frozen=True)
class OneInSpectrumVerdict:
    present: bool
    min_distance: float


def _segment_distance(lam: complex, interval) -> float:
    a, b = interval
    dx = max(a - lam.real, 0.0, lam.real - b)
    return float(np.hypot(dx, lam.imag))


def _pole_breaks(z: np.ndarray, interval) -> tuple:
    a, b = interval
    eigs = np.linalg.eigvals(z)
    return tuple(float(e.real) for e in eigs if a < e.real < b)


def compute_Y(model: SpectralModel, sol: RootSolution,
              quad_tol: float = 1e-11) -> RiccatiSolution:
    """Assemble the angular operator data for a solved root.

    Gram matrix G = integral of y(mu)^* y(mu) over the interval and
    bstar_y = integral of b#(mu) y(mu), both by adaptive quadrature with
    panels split at Re(spec Z) where the rational factors peak. Requires
    the spectrum of Z to stay clear of the interval (separation guard
    10 * sqrt(quad_tol)); the zero-coupling model short-circuits to exact
    zeros.
    """
    sm = model.scaled(sol.coupling_scale)
    n = model.n
    interval = model.interval
    y_repr = RationalAngular(sm.b, sol.z_op)

    if sm.b.is_zero:
        zeros = np.zeros((n, n), dtype=np.complex128)
        return RiccatiSolution(sol.side, y_repr, zeros, 0.0, zeros, interval)

    eigs = np.linalg.eigvals(sol.z_op)
    sep = min(_segment_distance(complex(e), interval) for e in eigs)
    guard = 10.0 * float(np.sqrt(quad_tol))
    if sep <= guard:
        raise NumericsError(
            f"spectrum within {sep:.3e} of the interval; separation guard {guard:.3e}"
        )

    a, b = interval
    breaks = _pole_breaks(sol.z_op, interval)
    z = sol.z_op
    zh = np.conj(z.T)

    def gram_values(nodes):
        mus = nodes.astype(np.complex128)
        return _sandwich_products(sm.kprime_values(mus), mus, zh, z)

    def bstar_values(nodes):
        mus = nodes.astype(np.complex128)
        return _right_resolvent_products(sm.kprime_values(mus), mus, z)

    gram, _ = adaptive_quad(gram_values, a, b, rtol=quad_tol, breaks=breaks)
    bstar_y, _ = adaptive_quad(bstar_values, a, b, rtol=quad_tol, breaks=breaks)

    gram = 0.5 * (gram + np.conj(gram.T))
    geigs = np.linalg.eigvalsh(gram)
    scale = 1.0 + float(geigs[-1])
    if geigs[0] < -1e-12 * scale:
        raise NumericsError(f"Gram matrix not PSD (min eigenvalue {geigs[0]:.3e})")
    y_norm = float(np.sqrt(max(float(geigs[-1]), 0.0)))
    return RiccatiSolution(sol.side, y_repr, gram, y_norm, bstar_y, interval)


def check_ZAY(model: SpectralModel, sol: RootSolution,
              ric: RiccatiSolution) -> float:
    """Residual of Z = A1 - B^* Y."""
    return float(np.linalg.norm(model.a1 - ric.bstar_y - sol.z_op, 2))


def riccati_residual(model: SpectralModel, ric: RiccatiSolution,
                     sample_mus, adjoint: bool = False) -> float:
    """Pointwise residual of the Riccati equation in multiplication form.

    Direct: mu y(mu) - y(mu) A1 + y(mu) (B^*Y) + b(mu) at each sample.
    Adjoint: the conjugate-transposed identity evaluated through
    ytilde(mu) = y(mu)^*.
    """
    mus = np.asarray(list(sample_mus), dtype=np.float64)
    a1 = model.a1.astype(np.complex128)
    bsy = ric.bstar_y
    if not adjoint:
        yv = ric.y_values(mus)
        bv = ric.y_repr.b(mus)
        res = mus[:, None, None] * yv - yv @ a1 + yv @ bsy + bv
    else:
        yt = ric.y_repr.adjoint_values(mus)
        bs = ric.y_repr.b.sharp()(mus)
        coef = a1 - np.conj(bsy.T)
        res = mus[:, None, None] * yt - coef @ yt + bs
    return float(np.max(np.linalg.norm(res, 2, axis=(1, 2))))


@dataclass(frozen=True, eq=False)
class RationalTrial:
    """Trial function x0(mu) = c / (mu - pole), pole off the real axis."""

    pole: complex
    c: np.ndarray

    def __call__(self, mus) -> np.ndarray:
        mus = np.atleast_1d(np.asarray(mus, dtype=np.complex128))
        return self.c[None, :] / (mus[:, None] - self.pole)

    def l2_norm(self, interval) -> float:
        """Norm in L2(interval), in closed form: its square is
        ||c||^2 / h * [atan((mu - Re pole) / h)] from a to b, h = |Im pole|."""
        a, b = interval
        h = abs(self.pole.imag)
        arc = np.arctan((b - self.pole.real) / h) - np.arctan((a - self.pole.real) / h)
        return float(np.linalg.norm(self.c) * np.sqrt(arc / h))


def rational_trials(ric: RiccatiSolution, count: int, seed: int = 0) -> list:
    """Random rational trial pairs (x0 function, x1 vector) for the
    J-orthogonality check. Poles sit a fixed distance off the interval;
    each x0 is a RationalTrial with unit c and each x1 a unit vector."""
    rng = np.random.default_rng(seed)
    a, b = ric.interval
    m = ric.y_repr.b.rows
    n = ric.y_repr.b.cols
    trials = []
    for _ in range(count):
        pole = complex(rng.uniform(a, b),
                       rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))
        c = rng.normal(size=m) + 1j * rng.normal(size=m)
        c /= np.linalg.norm(c)
        x1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        x1 /= np.linalg.norm(x1)
        trials.append((RationalTrial(pole, c), x1))
    return trials


_JORTH_RTOL = 1e-11


def _j_pairings(ric: RiccatiSolution, trial_vectors) -> tuple:
    """(lhs, rhs) with lhs_t = <x0_t, Y x1_t> and rhs_t = <Y^* x0_t, x1_t>.

    Two adaptive quadratures over the interval serve every trial: one of
    the stacked <x0_t, Y x1_t> through y(mu), one of the stacked Y^* x0_t
    through ytilde(mu), so y and ytilde are evaluated once per panel.

    A stacked quadrature stops when the summed panel error of the whole
    stack, which bounds each trial's own, is at most
    rtol * max(1, ||stacked value||). Both stacked values are at most
    B = ||Y|| sqrt(sum_t ||x0_t||^2 max(1, ||x1_t||)^2), so the stacked
    rtol is _JORTH_RTOL / max(1, B): no trial stops looser than at
    _JORTH_RTOL * max(1, |its value|), the rule of one quadrature per trial.
    """
    a, b = ric.interval
    breaks = _pole_breaks(ric.z_op, ric.interval)
    x0s = [x0 for x0, _ in trial_vectors]
    poles = np.array([x0.pole for x0 in x0s], dtype=np.complex128)
    cs = np.array([x0.c for x0 in x0s], dtype=np.complex128)
    x1s = np.array([x1 for _, x1 in trial_vectors], dtype=np.complex128)
    x0_norms = np.array([x0.l2_norm(ric.interval) for x0 in x0s])
    x1_norms = np.maximum(1.0, np.linalg.norm(x1s, axis=1))
    bound = ric.y_norm * float(np.linalg.norm(x0_norms * x1_norms))
    rtol = _JORTH_RTOL / max(1.0, bound)

    def x0_values(nodes):
        # every trial's x0 at every node: (M, T, m)
        return cs[None] / (nodes.astype(np.complex128)[:, None, None]
                           - poles[None, :, None])

    def lhs_values(nodes):
        yx1 = ric.y_values(nodes) @ x1s.T  # (M, m, T)
        return np.einsum("mti,mit->mt", np.conj(x0_values(nodes)), yx1)

    def rhs_values(nodes):
        yt = ric.y_repr.adjoint_values(nodes)
        return np.einsum("mij,mtj->mti", yt, x0_values(nodes))

    lhs, _ = adaptive_quad(lhs_values, a, b, rtol=rtol, breaks=breaks)
    ystar_x0, _ = adaptive_quad(rhs_values, a, b, rtol=rtol, breaks=breaks)
    return lhs, np.einsum("ti,ti->t", np.conj(ystar_x0), x1s)


def j_orthogonality(ric: RiccatiSolution, trial_vectors) -> float:
    """max over trials of |<x0, Y x1> - <Y^* x0, x1>|.

    Vanishing of this adjointness defect is what makes the two graph
    subspaces J-orthogonal. The trials are (RationalTrial, vector) pairs
    as rational_trials draws them. All trials share one stacked adaptive
    quadrature per side of the pairing (see _j_pairings), 2 in all.
    """
    if not trial_vectors:
        return 0.0
    lhs, rhs = _j_pairings(ric, trial_vectors)
    return float(np.max(np.abs(lhs - rhs)))


def compute_Omega(model: SpectralModel, contour: Contour,
                  sol_l: RootSolution, sol_minus_l: RootSolution, *,
                  report: AdmissibilityReport | None = None) -> OmegaOperator:
    """Omega for side l by contour quadrature, with its norm-bound contract.

    Omega = integral over Gamma^l of (Z^(-l)* - mu)^{-1} K'(mu)
    (Z^(l) - mu)^{-1} dmu, summed on analytic_rule(model, contour) sized by
    the spectra of both roots, raising NumericsError unless its norm stays
    below V0 / (d^2/4). The adjoint relation Omega(-l) = Omega(l)^* pairs
    the value of each side with the other's, so it is checked where both
    are at hand (verify's omega-adjoint row). A caller that already holds
    admissibility(model, contour, t) passes it as report, so V0 is not
    evaluated again.
    """
    if sol_l.side != contour.side or sol_minus_l.side != -contour.side:
        raise ValueError("solution sides must be (l, -l) for the side-l contour")
    if sol_l.coupling_scale != sol_minus_l.coupling_scale:
        raise ValueError("solutions were computed at different coupling scales")
    t = sol_l.coupling_scale
    zl_h = np.conj(sol_minus_l.z_op.T)
    eigs = np.concatenate([np.linalg.eigvals(zl_h), np.linalg.eigvals(sol_l.z_op)])
    rule = analytic_rule(model, contour, singular=eigs)
    _require_clear_of_nodes(eigs, rule.nodes)
    kv = model.scaled(t).kprime_values(rule.nodes)
    omega = sandwich_sum(kv, rule.nodes, rule.weights, zl_h, sol_l.z_op)

    rep = admissibility(model, contour, t) if report is None else report
    bound = rep.variation / (0.25 * rep.distance ** 2)
    norm = float(np.linalg.norm(omega, 2))
    if norm >= bound:
        raise NumericsError(f"Omega norm {norm:.6g} violates bound {bound:.6g}")
    return OmegaOperator(contour.side, omega, norm, bound)


def omega_by_deformation(model: SpectralModel, sol_l: RootSolution,
                         sol_minus_l: RootSolution,
                         quad_tol: float = 1e-11) -> np.ndarray:
    """Omega computed over the interval instead of the contour.

    Legitimate when the integrand is analytic in the lens, which the
    spectral separation guard ensures; used as the independent second
    path for the contour value.
    """
    t = sol_l.coupling_scale
    sm = model.scaled(t)
    a, b = model.interval
    zl = np.conj(sol_minus_l.z_op.T)
    zr = sol_l.z_op
    breaks = tuple(sorted(set(_pole_breaks(zl, model.interval))
                          | set(_pole_breaks(zr, model.interval))))

    def values(nodes):
        mus = nodes.astype(np.complex128)
        return _sandwich_products(sm.kprime_values(mus), mus, zl, zr)

    omega, _ = adaptive_quad(values, a, b, rtol=quad_tol, breaks=breaks)
    return omega


def _smallest_singular_values(mats: np.ndarray) -> np.ndarray:
    """Smallest singular value of each n x n matrix in a (N, n, n) stack.

    n = 1 takes |entry|. n = 2 takes |det| / sigma_max, since the two
    singular values multiply to |det|, with sigma_max in closed form from
    contour._spectral_norms. n >= 3 uses the batched SVD.
    """
    n = mats.shape[1]
    if n == 1:
        return np.abs(mats[:, 0, 0])
    if n == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        return np.abs(det) / _spectral_norms(mats)
    return np.linalg.svd(mats, compute_uv=False)[:, -1]


def _ysn_integrand(b: MatrixPolynomial, z: np.ndarray, nodes) -> np.ndarray:
    """||K'(mu)|| / smin(Z - mu)^2 = ||K'(mu)|| ||(Z - mu)^{-1}||^2 at each
    node, both norms without an SVD for n <= 2."""
    bv = b(nodes)
    kv = np.einsum("mij,mik->mjk", np.conj(bv), bv)
    eye = np.eye(z.shape[0])
    shifted = z[None] - nodes[:, None, None] * eye[None]
    return _spectral_norms(kv) / _smallest_singular_values(shifted) ** 2


def ysn_integral(model: SpectralModel, ric: RiccatiSolution,
                 rtol: float = 1e-9) -> float:
    """The norm-ceiling integral of ||K'(mu)|| ||(Z - mu)^{-1}||^2 dmu."""
    a, b = ric.interval
    z = ric.z_op
    breaks = _pole_breaks(z, ric.interval)

    val, _ = adaptive_quad(lambda nodes: _ysn_integrand(ric.y_repr.b, z, nodes),
                           a, b, rtol=rtol, breaks=breaks)
    return float(np.real(val))


def factor_F1(model: SpectralModel, contour: Contour, sol: RootSolution,
              z) -> np.ndarray:
    """F1(z, Gamma) = I + integral of K'(mu)(Z - mu)^{-1}(mu - z)^{-1} dmu.

    The factorization M1(z, Gamma) = F1(z, Gamma)(Z - z) holds wherever
    both sides are defined; F1 is invertible on the d/2-neighborhood of
    sigma1. z is one point -> (n, n), or a 1-d array of P points ->
    (P, n, n); the resolvent products K'(mu_k)(Z - mu_k)^{-1} are solved
    once for all of them, on analytic_rule(model, contour) sized by the
    points and the spectrum of Z.
    """
    zs = np.asarray(z, dtype=np.complex128)
    rule = analytic_rule(model, contour, zs, np.linalg.eigvals(sol.z_op))
    sm = model.scaled(sol.coupling_scale)
    kv = sm.kprime_values(rule.nodes)
    acc = resolvent_cauchy_sum(kv, rule.nodes, rule.weights, sol.z_op, zs)
    return np.eye(model.n, dtype=np.complex128) + acc


# The reconstruction ring starts at this many points and doubles until two
# successive rings give moments within _RING_RTOL of each other (relative);
# the trapezoid rule converges geometrically on the circle, so the last
# ring's error is then about the square of that.
_RING_START = 32
_RING_RTOL = 1e-9


def reconstruct_from_contour(model: SpectralModel, contour: Contour,
                             sol: RootSolution, gamma_spec=None,
                             num_nodes: int = 256):
    """Moments of -[M1(z, Gamma)]^{-1}/(2 pi i) around spec(Z).

    Returns (h0, h1, z_reconstructed): the zeroth moment equals
    (I - Omega)^{-1}, the first is its z-weighted sibling, and
    z_reconstructed = h1 @ inv(h0) recovers the operator root from
    nothing but contour data. gamma_spec overrides the default circle as
    (center, radius); the circle must enclose spec(Z) and stay inside the
    d/2-neighborhood of sigma1.

    The moments are trapezoid sums over nested rings of the circle: the
    first has num_nodes / 2^k points, the fewest that is at least
    _RING_START, and each doubling evaluates only the new midpoints,
    until the moments of a ring and of its predecessor agree to _RING_RTOL
    (relative) or the ring has num_nodes points. Every M1 value is summed
    on one analytic_rule of the contour, sized by the num_nodes-point
    ring, whose points are the ones the containment check covers; a
    ring point the rule refuses raises ValueError.
    """
    d = distance_to_sigma1(model, contour)
    eigs = np.linalg.eigvals(sol.z_op)
    if gamma_spec is None:
        center = complex(np.mean(eigs))
        spread = float(np.max(np.abs(eigs - center)))
        cap = 0.5 * d - float(np.min(np.abs(center - model.sigma1)))
        if cap <= 0:
            raise ValueError(
                "no default circle fits the d/2-neighborhood; pass gamma_spec")
        base = 1.5 * spread if spread > 0 else 0.25 * cap
        radius = min(base, 0.95 * cap)
    else:
        center, radius = complex(gamma_spec[0]), float(gamma_spec[1])

    spread = float(np.max(np.abs(eigs - center)))
    if spread >= radius:
        raise ValueError(
            f"circle radius {radius:.6g} does not enclose spec(Z) (need > {spread:.6g})")

    theta = 2.0 * np.pi * np.arange(num_nodes) / num_nodes
    phase = np.exp(1j * theta)
    ring = center + radius * phase
    # farthest any ring point gets from its nearest point of sigma1
    worst = float(np.max(np.min(np.abs(ring[:, None] - model.sigma1[None, :]), axis=1)))
    if worst > 0.5 * d + 1e-12:
        raise ValueError(
            f"circle violates containment: reaches {worst:.6g} > d/2 = {0.5 * d:.6g}")

    sm = model.scaled(sol.coupling_scale)
    rule = analytic_rule(model, contour, ring)

    def sums(points):
        # sum of phase M1^{-1} and of phase z M1^{-1} over the ring points
        try:
            minv = np.linalg.inv(_m1_on_rule(sm, rule, ring[points]))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"singular continued value on the circle: {exc}") from exc
        weighted = phase[points, None, None] * minv
        return np.stack([np.sum(weighted, axis=0),
                         np.einsum("p,pij->ij", ring[points], weighted)])

    count = num_nodes
    while count % 2 == 0 and count // 2 >= _RING_START:
        count //= 2
    step = num_nodes // count
    total = sums(slice(0, None, step))
    moments = -(radius / count) * total
    while step > 1:
        total = total + sums(slice(step // 2, None, step))
        step //= 2
        count *= 2
        previous, moments = moments, -(radius / count) * total
        if np.linalg.norm(moments - previous) <= _RING_RTOL * np.linalg.norm(moments):
            break
    h0, h1 = moments
    try:
        z_rec = np.linalg.solve(h0.T, h1.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"h0 singular: {exc}") from exc
    return h0, h1, z_rec


def check_one_in_spectrum(ric: RiccatiSolution, tol: float = 1e-8) -> OneInSpectrumVerdict:
    """Distance of spec(Y^*Y) to the point 1; presence flags that the two
    graph subspaces intersect nontrivially."""
    geigs = np.linalg.eigvalsh(ric.gram)
    dist = float(np.min(np.abs(geigs - 1.0)))
    return OneInSpectrumVerdict(dist <= tol, dist)
