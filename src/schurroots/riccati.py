"""Angular operators, their Gram matrices, and the operator identities.

The angular operator for side l acts from C^n into L2 on the interval as
multiplication by the rational function y(mu) = b(mu) (Z - mu)^{-1}; it is
kept in that symbolic form, b and Z read from the solved root (its t-scaled
model and z_op). Every function here takes the root, or the
RiccatiSolution built on it, and nothing the root already holds. Nothing
here discretizes the function space.

Its interval integrals have known poles: spec Z and, in the J-pairings,
the trial poles. The Gram matrix Y^*Y and the pairing <x0, Y x1> are
summed in closed form, as Loewner divided differences of the cut moments
g_s in the eigenbasis of Z (Higham, Functions of Matrices, SIAM 2008);
where that basis is ill-conditioned or a divided difference is
(near-)confluent they fall back to adaptive quadrature. Every other
derived quantity (B^*Y, Y^* x0, the deformed Omega and the norm-ceiling
integral) is an adaptive quadrature whose first round is graded toward
those poles (the norm ceiling's also toward the branch point of smin(Z -
mu), for n = 2), so each row of verify still compares two independent
paths.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (_right_resolvent_products, _sandwich_products,
                       _shifted_solve, gram_matrices, resolvent_cauchy_sum,
                       sandwich_sum, smallest_singular_values, solve,
                       spectral_norms, weighted_sums)
from ._quad import adaptive_quad
from .contour import analytic_rule
from .errors import NumericsError
from .model import MatrixPolynomial
from .rootsolver import RootSolution, _require_clear_of_nodes
from .schur import _cut_moments, _m1_from_w1, _m1_on_rule


@dataclass(frozen=True)
class RiccatiSolution:
    """The angular operator Y of a root: y(mu) = b(mu) (Z - mu)^{-1},
    defined off spec Z, with b and Z those of root. gram = Y^*Y with its
    ascending eigenvalues and bstar_y = B^*Y, as compute_Y summed them;
    gram_route is "closed-form" or "quadrature", how gram was summed."""

    root: RootSolution
    gram: np.ndarray
    gram_eigenvalues: np.ndarray
    bstar_y: np.ndarray
    gram_route: str

    @property
    def y_norm(self) -> float:
        return float(np.sqrt(max(float(self.gram_eigenvalues[-1]), 0.0)))

    def y_values(self, mus) -> np.ndarray:
        """y(mu) at each point of the 1-d array mus -> (M, m, n)."""
        mus = np.asarray(mus, dtype=np.complex128)
        return _right_resolvent_products(self.root.model.b(mus), mus,
                                         self.root.z_op)

    def adjoint_values(self, mus) -> np.ndarray:
        """ytilde(mu) = (Z^* - mu)^{-1} b#(mu) at each point of the 1-d
        array mus -> (M, n, m); equals y(mu)^* for real mu."""
        mus = np.asarray(mus, dtype=np.complex128)
        return _shifted_solve(np.conj(self.root.z_op.T), mus,
                              self.root.model.b.sharp()(mus))


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


# Pairs (x, y) with |x - y| <= _CONFLUENT * (1 + |x|) make a divided
# difference (g(x) - g(y)) / (x - y) confluent or nearly so; a closed form
# that would need one is not used.
_CONFLUENT = 1e-6

# The rtol of the interval quadratures of compute_Y and omega_by_deformation.
# Their first round is graded toward the poles, so it sets no distance that
# the spectrum must keep from the interval.
_QUAD_RTOL = 1e-11

# An eigenvalue over the interval with |Im| < _TINY_IMAG has no finite
# 1/Im: compute_Y's resolvent would overflow at the nodes graded toward it.
_TINY_IMAG = 1.0 / float(np.finfo(np.float64).max)


def _confluent(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether some pair of xs and ys is (near-)confluent."""
    gap = np.abs(xs[:, None] - ys[None, :])
    return bool(np.any(gap <= _CONFLUENT * (1.0 + np.abs(xs))[:, None]))


def _divided_differences(interval, xs, ys, degree: int) -> np.ndarray:
    """(g_s(x) - g_s(y)) / (x - y) for every x in xs and y in ys, s =
    0..degree -> (degree + 1, len(xs), len(ys)), g_s the physical cut
    moments of schur._cut_moments: the integral of mu^s / ((mu - x)(mu - y))
    over the interval."""
    a, b = interval
    g = _cut_moments(a, b, np.concatenate([xs, ys]), degree).T
    gx, gy = g[:, :xs.shape[0]], g[:, xs.shape[0]:]
    return (gx[:, :, None] - gy[:, None, :]) / (xs[:, None] - ys[None, :])


def _gram_closed_form(kcoeffs: np.ndarray, interval, eigs: np.ndarray,
                      basis: tuple) -> np.ndarray:
    """G = integral of (Z^* - mu)^{-1} K'(mu) (Z - mu)^{-1} dmu in closed
    form: V^{-H} [sum_s (V^H C_s V) o H_s] V^{-1} with H_s[i, j] =
    (g_s(d_j) - g_s(conj d_i)) / (d_j - conj d_i), C_s the coefficients
    of K'."""
    vecs, inv = basis
    h = _divided_differences(interval, np.conj(eigs), eigs, kcoeffs.shape[0] - 1)
    inner = np.sum((np.conj(vecs.T) @ kcoeffs @ vecs) * h, axis=0)
    return np.conj(inv.T) @ inner @ inv


def compute_Y(sol: RootSolution) -> RiccatiSolution:
    """Assemble the angular operator data for a solved root.

    The Gram matrix G = integral of y(mu)^* y(mu) over the interval is
    summed in closed form (_gram_closed_form, gram_route "closed-form")
    unless the root's eigensystem has no basis (cond(V) above the limit
    of rootsolver) or some pair of spec Z and its conjugate
    is (near-)confluent; then it is an adaptive quadrature (gram_route
    "quadrature"). bstar_y = integral of b#(mu) y(mu) is always an
    adaptive quadrature, started graded toward spec Z, so root-equation
    compares it with the closed-form root. An eigenvalue of Z over the
    interval whose imaginary part has no finite reciprocal, a real one
    included, is a pole on the integration path and raises NumericsError;
    any other is a pole the graded start takes in. The zero-coupling model
    short-circuits to exact zeros.
    """
    sm, z = sol.model, sol.z_op
    if sm.b.is_zero:
        zeros = np.zeros((sm.n, sm.n), dtype=np.complex128)
        return RiccatiSolution(sol, zeros, np.zeros(sm.n), zeros, "closed-form")

    interval = sm.interval
    a, b = interval
    eigs, basis = sol.eigensystem.values, sol.eigensystem.basis
    on_path = eigs[(np.abs(eigs.imag) < _TINY_IMAG)
                   & (a <= eigs.real) & (eigs.real <= b)]
    if on_path.size:
        raise NumericsError(
            f"eigenvalue {complex(on_path[0])!r} of Z lies on the interval "
            f"[{a!r}, {b!r}]: a pole on the integration path")

    if basis is not None and not _confluent(eigs, np.conj(eigs)):
        gram = _gram_closed_form(sm.kprime.coefficients, interval, eigs, basis)
        route = "closed-form"
    else:
        zh = np.conj(z.T)

        def gram_values(nodes):
            mus = nodes.astype(np.complex128)
            return _sandwich_products(sm.kprime_values(mus), mus, zh, z)

        gram, _ = adaptive_quad(gram_values, a, b, rtol=_QUAD_RTOL, poles=eigs)
        route = "quadrature"

    def bstar_values(nodes):
        mus = nodes.astype(np.complex128)
        return _right_resolvent_products(sm.kprime_values(mus), mus, z)

    bstar_y, _ = adaptive_quad(bstar_values, a, b, rtol=_QUAD_RTOL, poles=eigs)

    gram = 0.5 * (gram + np.conj(gram.T))
    geigs = np.linalg.eigvalsh(gram)
    scale = 1.0 + float(geigs[-1])
    if geigs[0] < -1e-12 * scale:
        raise NumericsError(f"Gram matrix not PSD (min eigenvalue {geigs[0]:.3e})")
    return RiccatiSolution(sol, gram, geigs, bstar_y, route)


def check_ZAY(ric: RiccatiSolution) -> float:
    """Residual of Z = A1 - B^* Y."""
    return float(spectral_norms(ric.root.model.a1 - ric.bstar_y - ric.root.z_op))


def riccati_residual(ric: RiccatiSolution, sample_mus,
                     adjoint: bool = False) -> float:
    """Pointwise residual of the Riccati equation in multiplication form.

    Direct: mu y(mu) - y(mu) A1 + y(mu) (B^*Y) + b(mu) at each sample.
    Adjoint: the conjugate-transposed identity evaluated through
    ytilde(mu) = y(mu)^*.
    """
    mus = np.asarray(list(sample_mus), dtype=np.float64)
    model = ric.root.model
    a1 = model.a1.astype(np.complex128)
    bsy = ric.bstar_y
    if not adjoint:
        yv = ric.y_values(mus)
        bv = model.b(mus)
        res = mus[:, None, None] * yv - yv @ a1 + yv @ bsy + bv
    else:
        yt = ric.adjoint_values(mus)
        bs = model.b.sharp()(mus)
        coef = a1 - np.conj(bsy.T)
        res = mus[:, None, None] * yt - coef @ yt + bs
    return float(np.max(spectral_norms(res)))


def _trial_l2_norms(poles: np.ndarray, cs: np.ndarray, interval) -> np.ndarray:
    """L2(interval) norm of each c_t / (mu - pole_t): its square is
    ||c_t||^2 / h * [atan((mu - Re pole_t) / h)] from a to b, h = |Im pole_t|."""
    a, b = interval
    h = np.abs(poles.imag)
    arc = np.arctan((b - poles.real) / h) - np.arctan((a - poles.real) / h)
    return np.linalg.norm(cs, axis=1) * np.sqrt(arc / h)


def _unit_rows(rng, count: int, width: int) -> np.ndarray:
    # count complex Gaussian rows of the given width, each normalised
    rows = rng.normal(size=(count, width)) + 1j * rng.normal(size=(count, width))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def rational_trials(ric: RiccatiSolution, count: int, seed: int = 0) -> tuple:
    """count random rational trial pairs for the J-orthogonality check, as
    the arrays (poles, cs, x1s): trial t pairs the function x0_t(mu) =
    cs[t] / (mu - poles[t]) with the vector x1s[t]. Each pole sits 0.3 to
    1 half-lengths (b - a)/2 of the interval off it, over a point of it;
    each row of cs (T, m) and x1s (T, n) is a unit vector. Each coordinate
    of the batch is drawn in one call."""
    rng = np.random.default_rng(seed)
    model = ric.root.model
    a, b = model.interval
    re = rng.uniform(a, b, size=count)
    im = rng.choice([-1.0, 1.0], size=count) * rng.uniform(0.3, 1.0, size=count)
    im *= 0.5 * (b - a)
    cs = _unit_rows(rng, count, model.m)
    x1s = _unit_rows(rng, count, model.n)
    return re + 1j * im, cs, x1s


_JORTH_RTOL = 1e-11


def _lhs_closed_form(ric: RiccatiSolution, poles, cs, x1s) -> np.ndarray:
    """lhs_t = <x0_t, Y x1_t> in closed form: sum_s c_t^H B_s V
    diag((g_s(q_t) - g_s(d)) / (d - q_t)) V^{-1} x1_t with q_t = conj
    pole_t, B_s the coefficients of b."""
    spec = ric.root.eigensystem
    vecs, inv = spec.basis
    bcoeffs = ric.root.model.b.coefficients
    h = _divided_differences(ric.root.model.interval, np.conj(poles), spec.values,
                             bcoeffs.shape[0] - 1)
    left = np.conj(cs) @ bcoeffs @ vecs  # (S, T, n)
    right = inv @ x1s.T  # (n, T)
    return -np.sum(np.sum(left * h, axis=0) * right.T, axis=1)


def _j_pairings(ric: RiccatiSolution, trials) -> tuple:
    """(lhs, rhs) with lhs_t = <x0_t, Y x1_t> and rhs_t = <Y^* x0_t, x1_t>
    over the trials (poles, cs, x1s) of rational_trials.

    lhs is summed in closed form (_lhs_closed_form) in the eigenbasis of
    the root, unless it has none or some conj(pole_t) is
    (near-)confluent with spec Z; then it is a stacked adaptive quadrature
    through y(mu). rhs is always a stacked adaptive quadrature of
    Y^* x0_t through ytilde(mu), started graded toward spec Z and the
    trial poles, so the two sides of the pairing share no path.

    A stacked quadrature stops when the summed panel error of the whole
    stack, which bounds each trial's own, is at most
    rtol * max(1, ||stacked value||). Both stacked values are at most
    B = ||Y|| sqrt(sum_t ||x0_t||^2 max(1, ||x1_t||)^2), so the stacked
    rtol is _JORTH_RTOL / max(1, B): no trial stops looser than at
    _JORTH_RTOL * max(1, |its value|), the rule of one quadrature per trial.
    """
    interval = ric.root.model.interval
    a, b = interval
    poles, cs, x1s = trials
    x0_norms = _trial_l2_norms(poles, cs, interval)
    x1_norms = np.maximum(1.0, np.linalg.norm(x1s, axis=1))
    bound = ric.y_norm * float(np.linalg.norm(x0_norms * x1_norms))
    rtol = _JORTH_RTOL / max(1.0, bound)
    spec = ric.root.eigensystem
    all_poles = np.concatenate([spec.values, poles])

    if spec.basis is not None and not _confluent(spec.values, np.conj(poles)):
        lhs = _lhs_closed_form(ric, poles, cs, x1s)
    else:
        def lhs_values(nodes):
            x0 = cs[None] / (nodes.astype(np.complex128)[:, None, None]
                             - poles[None, :, None])  # (M, T, m)
            yx1 = ric.y_values(nodes) @ x1s.T  # (M, m, T)
            return np.einsum("mti,mit->mt", np.conj(x0), yx1)

        lhs, _ = adaptive_quad(lhs_values, a, b, rtol=rtol, poles=all_poles)

    def rhs_values(nodes):
        # ytilde(mu) c_t / (mu - pole_t) for every trial: (M, n, T); the
        # products ytilde(mu) c_t as one 2-d matrix product, each scaled by
        # the reciprocal 1 / (mu - pole_t) taken once per node and trial
        yt = ric.adjoint_values(nodes)  # (M, n, m)
        yc = (yt.reshape(-1, yt.shape[2]) @ cs.T).reshape(yt.shape[:2] + (-1,))
        return yc * (1.0 / (nodes[:, None] - poles[None, :]))[:, None, :]

    ystar_x0, _ = adaptive_quad(rhs_values, a, b, rtol=rtol, poles=all_poles)
    return lhs, np.sum(np.conj(ystar_x0.T) * x1s, axis=1)


def j_orthogonality(ric: RiccatiSolution, trials) -> float:
    """max over trials of |<x0, Y x1> - <Y^* x0, x1>|, 0.0 for no trial.

    Vanishing of this adjointness defect is what makes the two graph
    subspaces J-orthogonal. The trials are the arrays (poles, cs, x1s) that
    rational_trials draws. All trials share one evaluation of each side of
    the pairing: the closed form of <x0, Y x1> (or its stacked quadrature
    where the closed form does not apply) and one stacked adaptive
    quadrature of Y^* x0 (see _j_pairings).
    """
    if trials[0].size == 0:
        return 0.0
    lhs, rhs = _j_pairings(ric, trials)
    return float(np.max(np.abs(lhs - rhs)))


def _sandwich_poles(sol_l: RootSolution, sol_minus_l: RootSolution) -> np.ndarray:
    """The singularities of (Z^(-l)* - mu)^{-1} K'(mu) (Z^(l) - mu)^{-1}:
    conj spec Z^(-l), then spec Z^(l)."""
    return np.concatenate([np.conj(sol_minus_l.eigensystem.values),
                           sol_l.eigensystem.values])


def compute_Omega(sol_l: RootSolution, sol_minus_l: RootSolution) -> OmegaOperator:
    """Omega for side l by contour quadrature, with its norm and bound.

    Omega = integral over Gamma^l of (Z^(-l)* - mu)^{-1} K'(mu)
    (Z^(l) - mu)^{-1} dmu, summed on the analytic_rule of sol_l's contour
    sized by the spectra of both roots. The bound V0 / (d^2/4) is read
    from sol_l's admissibility report (no V0 is evaluated); it is judged
    by verify's omega-bound row alone, and no other row reads it. The
    adjoint relation Omega(-l) = Omega(l)^* pairs the value of each side
    with the other's, so it is checked where both are at hand (verify's
    omega-adjoint row).
    """
    if sol_minus_l.side != -sol_l.side:
        raise ValueError("solution sides must be (l, -l)")
    if sol_l.coupling_scale != sol_minus_l.coupling_scale:
        raise ValueError("solutions were computed at different coupling scales")
    model, contour = sol_l.model, sol_l.contour
    zl_h = np.conj(sol_minus_l.z_op.T)
    eigs = _sandwich_poles(sol_l, sol_minus_l)
    rule = analytic_rule(model, contour, singular=eigs)
    _require_clear_of_nodes(eigs, rule)
    kv = model.kprime_values(rule.nodes)
    omega = sandwich_sum(kv, rule.nodes, rule.weights, zl_h, sol_l.z_op)

    rep = sol_l.report
    m, e = math.frexp(rep.distance)  # V0 / (d^2/4), d's exponent out: no overflow
    bound = math.ldexp(rep.variation, -2 * e) / (0.25 * m * m)
    return OmegaOperator(contour.side, omega, float(spectral_norms(omega)), bound)


def omega_by_deformation(sol_l: RootSolution, sol_minus_l: RootSolution) -> np.ndarray:
    """Omega computed over the interval instead of the contour, by an
    adaptive quadrature to relative tolerance _QUAD_RTOL, started graded
    toward the poles.

    Legitimate when the integrand is analytic in the lens between the
    contour and the interval; nothing here checks that, so where it fails
    the value parts from compute_Omega's. It is the independent second
    path for the contour value (verify's omega-two-path row).
    """
    sm = sol_l.model
    a, b = sm.interval
    zl = np.conj(sol_minus_l.z_op.T)
    zr = sol_l.z_op
    poles = _sandwich_poles(sol_l, sol_minus_l)

    def values(nodes):
        mus = nodes.astype(np.complex128)
        return _sandwich_products(sm.kprime_values(mus), mus, zl, zr)

    omega, _ = adaptive_quad(values, a, b, rtol=_QUAD_RTOL, poles=poles)
    return omega


def _ysn_integrand(b: MatrixPolynomial, z: np.ndarray, nodes) -> np.ndarray:
    """||K'(mu)|| / smin(Z - mu)^2 = ||K'(mu)|| ||(Z - mu)^{-1}||^2 at each
    node, both from the small-matrix kernels (_kernels), without an SVD
    for n <= 2. It divides by smin twice: near a pole at very weak
    coupling smin^2 underflows where the quotient does not."""
    kv = gram_matrices(b(nodes))
    eye = np.eye(z.shape[0])
    shifted = z[None] - nodes[:, None, None] * eye[None]
    smin = smallest_singular_values(shifted)
    return spectral_norms(kv) / smin / smin


_EPS = float(np.finfo(np.float64).eps)


def _smin_branch_points(z: np.ndarray) -> list:
    """The branch point of smin(Z - mu) in the closed upper half plane for
    a 2 x 2 Z, as a pole list for the graded start: [mu* + i delta], or
    [mu*] where delta is within the rounding of its cross product (a real
    kink), or [] where there is none; [] for n != 2.

    With tau = tr Z / 2, N = Z - tau I, S = N + N^H and T0 = conj(tau) N +
    tau N^H + N^H N - tr(N^H N) I / 2, the traceless part of (Z - mu)^H
    (Z - mu) at real mu is T0 - mu S, so (s1^2 - s2^2)^2 = 4 |p - mu q|^2
    for the vectors p = (T0_11, Re T0_12, Im T0_12) and q = (S_11, Re S_12,
    Im S_12) of R^3. Its continuation vanishes at mu* +- i delta, mu* = p.q
    / |q|^2 and delta = |p x q| / |q|^2; q = 0 gives no point. Z is taken
    divided by a power of two near its largest real or imaginary part
    (exact, as in _kernels._scales), so that no product overflows or
    underflows, and the point is multiplied back.
    """
    if z.shape[0] != 2:
        return []
    (p, q), (r, s) = z.tolist()
    big = max(abs(e.real) for e in (p, q, r, s)) + max(abs(e.imag) for e in (p, q, r, s))
    exponent = max(math.frexp(big)[1], -1021)
    inverse = math.ldexp(1.0, -exponent)
    p, q, r, s = p * inverse, q * inverse, r * inverse, s * inverse
    # N = [[h, q], [r, -h]]; T0_11 in the form that keeps its relative
    # accuracy where Z is close to tau I, and T0_12 = (Z^H Z)_12
    tau, h = 0.5 * (p + s), 0.5 * (p - s)
    t11 = 2.0 * (tau.conjugate() * h).real + 0.5 * (abs(r) ** 2 - abs(q) ** 2)
    t12 = p.conjugate() * q + s * r.conjugate()
    s12 = q + r.conjugate()
    pv = (t11, t12.real, t12.imag)
    qv = (2.0 * h.real, s12.real, s12.imag)
    size = math.hypot(*qv)
    if size == 0.0:
        return []
    u = [c / size for c in qv]
    cross = math.hypot(pv[1] * u[2] - pv[2] * u[1], pv[2] * u[0] - pv[0] * u[2],
                       pv[0] * u[1] - pv[1] * u[0])
    scale = math.ldexp(1.0, exponent) / size
    mu = scale * (pv[0] * u[0] + pv[1] * u[1] + pv[2] * u[2])
    # the terms of p are at most about 1 in modulus, so each component of
    # the cross product is rounded by a few eps (1 + |p|)
    if cross <= 8.0 * _EPS * (1.0 + math.hypot(*pv)):
        return [mu]
    return [complex(mu, scale * cross)]


def ysn_integral(ric: RiccatiSolution) -> float:
    """The norm-ceiling integral of ||K'(mu)|| ||(Z - mu)^{-1}||^2 dmu, an
    adaptive quadrature to rtol 1e-9, started graded toward spec Z and,
    for n = 2, toward the branch point of smin(Z - mu)
    (_smin_branch_points). The crossings of the eigenvalues of K' are
    kinks that no pole marks."""
    root = ric.root
    a, b = root.model.interval
    poles = list(root.eigensystem.values) + _smin_branch_points(root.z_op)

    val, _ = adaptive_quad(lambda nodes: _ysn_integrand(root.model.b, root.z_op, nodes),
                           a, b, rtol=1e-9, poles=poles)
    return float(np.real(val))


def factor_F1(sol: RootSolution, zs) -> tuple:
    """(F1(z, Gamma), M1(z, Gamma)) at each point of the 1-d array zs, two
    (P, n, n) stacks: F1 = I + integral of K'(mu)(Z - mu)^{-1}(mu - z)^{-1}
    dmu and M1 = a1 - z + integral of K'(mu)(mu - z)^{-1} dmu.

    The factorization M1(z, Gamma) = F1(z, Gamma)(Z - z) holds wherever
    both sides are defined; F1 is invertible on the d/2-neighborhood of
    sigma1. F1 and M1 share one rule, the analytic_rule of the root's
    contour sized by the points and the spectrum of Z, one evaluation of
    K' on it and one matrix of Cauchy factors (resolvent_cauchy_sum); the
    resolvent products K'(mu_k)(Z - mu_k)^{-1} are solved once for all the
    points.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    model = sol.model
    rule = analytic_rule(model, sol.contour, zs, sol.eigensystem.values)
    kv = model.kprime_values(rule.nodes)
    w1, acc = resolvent_cauchy_sum(kv, rule.nodes, rule.weights, sol.z_op, zs)
    return np.eye(model.n, dtype=np.complex128) + acc, _m1_from_w1(model, zs, w1)


# The reconstruction ring starts at _RING_START points and doubles until two
# successive rings give moments within _RING_RTOL of each other (relative),
# or it has _RING_NODES points; the trapezoid rule converges geometrically
# on the circle, so the last ring's error is then about the square of that.
_RING_START = 32
_RING_NODES = 256
_RING_RTOL = 1e-9


def _circle(eigs: np.ndarray, sigma1: np.ndarray, d: float) -> tuple:
    """(center, radius) of the circle about eigs that reconstruct_from_contour
    describes, or ValueError where it does not fit."""
    center = complex(np.mean(eigs))
    spread = float(np.max(np.abs(eigs - center)))
    cap = 0.5 * d - float(np.min(np.abs(center - sigma1)))
    if cap <= 0:
        raise ValueError("no circle fits the d/2-neighborhood")
    radius = min(max(1.5 * spread, 0.25 * cap), 0.95 * cap)
    if spread >= radius:
        raise ValueError(f"circle radius {radius:.6g} does not enclose spec(Z) (need > {spread:.6g})")
    return center, radius


def _circles(eigs: np.ndarray, sigma1: np.ndarray, d: float) -> list:
    """[(center, radius), ...]: the one _circle about all of eigs = spec Z
    where it fits; else each eigenvalue of Z joins its nearest eigenvalue of
    a1, and the two neighbouring groups whose eigenvalues of a1 lie closest
    merge until each group's _circle fits and holds no other group's
    eigenvalue. The one circle's error is raised if no such groups exist."""
    try:
        return [_circle(eigs, sigma1, d)]
    except ValueError:
        pass
    nearest = np.argmin(np.abs(eigs[:, None] - sigma1[None, :]), axis=1)
    groups = [[k] for k in np.unique(nearest)]  # indices into sigma1, ascending
    while len(groups) > 1:
        try:
            circles = [_circle(eigs[np.isin(nearest, g)], sigma1, d) for g in groups]
            centers, radii = (np.array(part) for part in zip(*circles))
            if np.all(np.sum(np.abs(eigs[:, None] - centers) < radii, axis=1) == 1):
                return circles
        except ValueError:
            pass
        k = int(np.argmin([sigma1[right[0]] - sigma1[left[-1]]
                           for left, right in zip(groups, groups[1:])]))
        groups[k:k + 2] = [groups[k] + groups[k + 1]]
    return [_circle(eigs, sigma1, d)]  # raises the one circle's error


def _ring_converged(moments, previous) -> bool:
    """Whether ||moments - previous|| <= _RING_RTOL ||moments||, both
    Frobenius norms taken of the two moment stacks divided by a power of
    two near their largest modulus: the division is exact, so it changes
    no decision, and the squares in the norms cannot overflow."""
    big = float(max(np.abs(moments).max(), np.abs(previous).max()))
    inverse = math.ldexp(1.0, -max(math.frexp(big)[1], -1021)) if math.isfinite(big) else 1.0
    return bool(np.linalg.norm((moments - previous) * inverse)
                <= _RING_RTOL * np.linalg.norm(moments * inverse))


def reconstruct_from_contour(sol: RootSolution):
    """Moments of -[M1(z, Gamma)]^{-1}/(2 pi i) around spec(Z).

    Returns (h0, h1, z_reconstructed): the zeroth moment equals
    (I - Omega)^{-1}, the first is its z-weighted sibling, and
    z_reconstructed = h1 @ inv(h0) recovers the operator root from
    nothing but contour data, summed over the _circles: one circle about
    all of spec(Z) where it fits, else one per group of eigenvalues of a1.
    A circle about some eigenvalues of Z has their mean as center and
    radius max(1.5 spread, cap / 4) capped at 0.95 cap: spread their
    largest distance from the center, cap the room the d/2-neighborhood of
    sigma1 leaves around it (d the distance of the root's admissibility
    report). The cap / 4 floor keeps the ring off merging eigenvalues,
    where M1 is nearly singular. Every ring point lies within radius +
    dist(center, sigma1) <= d/2 - 0.05 cap of sigma1, where F1 is
    invertible, so the poles of M1^{-1} inside a circle are eigenvalues of
    Z and circles may overlap.

    The moments of a circle are trapezoid sums over nested rings: the
    first has _RING_START points, and each doubling evaluates only the new
    midpoints, until the moments of a ring and of its predecessor agree to
    _RING_RTOL (relative) or the ring has _RING_NODES points. Every M1
    value is summed on one analytic_rule of the root's contour, sized by
    the _RING_NODES-point rings, with K' evaluated at its nodes once; a
    ring point that lies too close to the contour for the rule raises
    ValueError.
    """
    model = sol.model
    circles = _circles(sol.eigensystem.values, model.sigma1, sol.report.distance)
    theta = 2.0 * np.pi * np.arange(_RING_NODES) / _RING_NODES
    phase = np.exp(1j * theta)
    rings = [center + radius * phase for center, radius in circles]
    rule = analytic_rule(model, sol.contour, np.concatenate(rings))
    kvals = model.kprime_values(rule.nodes)

    def sums(ring, points):
        # sum of phase M1^{-1} and of phase z M1^{-1} over the ring points
        try:
            minv = solve(_m1_on_rule(model, rule, kvals, ring[points]), np.eye(model.n))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"singular continued value on the circle: {exc}") from exc
        return weighted_sums(np.stack([phase[points], phase[points] * ring[points]]), minv)

    per_circle = []
    for ring, (_, radius) in zip(rings, circles):
        count = _RING_START
        step = _RING_NODES // count
        total = sums(ring, slice(0, None, step))
        moments = -(radius / count) * total
        while step > 1:
            total = total + sums(ring, slice(step // 2, None, step))
            step //= 2
            count *= 2
            previous, moments = moments, -(radius / count) * total
            if _ring_converged(moments, previous):
                break
        per_circle.append(moments)
    h0, h1 = functools.reduce(np.add, per_circle)
    try:
        z_rec = np.linalg.solve(h0.T, h1.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"h0 singular: {exc}") from exc
    return h0, h1, z_rec


def check_one_in_spectrum(ric: RiccatiSolution) -> OneInSpectrumVerdict:
    """Distance of spec(Y^*Y) to the point 1; presence (a distance of at
    most 1e-8) flags that the two graph subspaces intersect nontrivially."""
    dist = float(np.min(np.abs(ric.gram_eigenvalues - 1.0)))
    return OneInSpectrumVerdict(dist <= 1e-8, dist)
