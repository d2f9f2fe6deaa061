"""Schur complement of the upper-left block, on and off the physical sheet.

Three independent evaluation paths are kept deliberately separate so they
can cross-check each other: a closed form built on the principal-branch
logarithm (physical sheet), contour quadrature (continuation through the
interval), and the jump formula value = physical - 2*pi*i*l*K'(z) inside
the lens between the interval and the contour.
"""

import numpy as np

from ._kernels import cauchy_sum, cauchy_sum_many
from .contour import Contour, analytic_rule
from .model import SpectralModel


def _cut_moments(a: float, b: float, zs, degree: int, branch="physical"):
    """Moments g_s(z) = integral of mu^s/(mu - z) over [a, b], s = 0..degree,
    at each point of zs (one point or a 1-d array) -> (P, degree + 1).

    Written as z^s L(z) plus the exact division polynomial q_s(z), built
    by q_s = z q_(s-1) + (b^s - a^s)/s from q_0 = 0, with the logarithm L
    chosen by branch:

    - "physical": L = Log((b - z)/(a - z)); the principal branch puts the
      cut exactly on [a, b].
    - "pv": z real inside (a, b), L = ln((b - z)/(z - a)), the principal
      value.
    - a side l = +1 or -1: L = Log(b - z) - Log(z - a) - i*pi*l, the
      continuation of the physical moment from the half-plane of sign -l
      through the cut, analytic off (-inf, a] and [b, inf). It equals the
      integral over the side-l contour for z in the open half-plane of
      sign -l, on the open interval and in the lens between the interval
      and the contour, but not elsewhere.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    if branch == "physical":
        log_term = np.log((b - zs) / (a - zs))
    elif branch == "pv":
        log_term = np.log((b - zs.real) / (zs.real - a)) + 0j
    elif branch in (1, -1):
        log_term = np.log(b - zs) - np.log(zs - a) - 1j * np.pi * branch
    else:
        raise ValueError(f"unknown moment branch {branch!r}")
    out = zs[:, None] ** np.arange(degree + 1) * log_term[:, None]
    q = 0.0
    for s in range(1, degree + 1):
        q = zs * q + (b ** s - a ** s) / s
        out[:, s] += q
    return out


def _points(z):
    """(points as a 1-d complex array, whether z was one point)."""
    zs = np.asarray(z, dtype=np.complex128)
    return np.atleast_1d(zs), zs.ndim == 0


def _moment_sum(model: SpectralModel, zs, branch) -> np.ndarray:
    # sum_s g_s(z) C_s over the K' coefficients C_s -> (P, n, n)
    a, b = model.interval
    coeffs = model.kprime.coefficients
    moments = _cut_moments(a, b, zs, coeffs.shape[0] - 1, branch)
    return np.einsum("ps,sij->pij", moments, coeffs)


def w1_physical(model: SpectralModel, z) -> np.ndarray:
    """W1(z) = integral of K'(mu)/(mu - z) over the interval, closed form.

    z is one point -> (n, n), or a 1-d array of P points -> (P, n, n).
    """
    zs, single = _points(z)
    a, b = model.interval
    real = zs.real[zs.imag == 0.0]
    on_cut = real[(a <= real) & (real <= b)]
    if on_cut.size:
        raise ValueError(f"z={complex(on_cut[0])} lies on the cut; use w1_boundary")
    w1 = _moment_sum(model, zs, "physical")
    return w1[0] if single else w1


def w1_boundary(model: SpectralModel, lam, approach: int) -> np.ndarray:
    """Boundary values W1(lam + i*approach*0) on the open interval.

    Principal value in closed form plus the jump i*pi*approach*K'(lam).
    lam is one point -> (n, n), or a 1-d array of P points -> (P, n, n).
    """
    if approach not in (1, -1):
        raise ValueError("approach must be +1 or -1")
    a, b = model.interval
    lams = np.asarray(lam, dtype=np.float64)
    single = lams.ndim == 0
    lams = np.atleast_1d(lams)
    outside = ~((a < lams) & (lams < b))
    if np.any(outside):
        lam = float(lams[np.argmax(outside)])
        raise ValueError(f"lambda={lam} not strictly inside ({a}, {b})")
    w1 = (_moment_sum(model, lams, "pv")
          + 1j * np.pi * approach * model.kprime_values(lams))
    return w1[0] if single else w1


def m1_physical(model: SpectralModel, z) -> np.ndarray:
    """M1(z) = a1 - z + W1(z) on the physical sheet, for one point or a
    1-d array of points (as w1_physical)."""
    zs, single = _points(z)
    eye = np.eye(model.n)
    out = model.a1[None] - zs[:, None, None] * eye[None] + w1_physical(model, zs)
    return out[0] if single else out


def m1_continued(model: SpectralModel, contour: Contour, z: complex) -> np.ndarray:
    """Continued value M1(z, Gamma) by contour quadrature.

    Equals m1_physical outside the closed lens region; inside the lens it
    is the continuation from the opposite half-plane. The sum runs on
    analytic_rule(model, contour, z), so z is refused (ValueError) where that
    rule would need more than MAX_SEGMENT_NODES nodes on a segment.
    """
    z = complex(z)
    rule = analytic_rule(model, contour, z)
    kvals = model.kprime_values(rule.nodes)
    w1 = cauchy_sum(kvals, rule.nodes, rule.weights, z)
    return model.a1 - z * np.eye(model.n) + w1


def _m1_on_rule(model: SpectralModel, rule: Contour, zs: np.ndarray) -> np.ndarray:
    # M1(z, Gamma) at each point of the 1-d array zs by the sum over rule
    kvals = model.kprime_values(rule.nodes)
    w1 = cauchy_sum_many(kvals, rule.nodes, rule.weights, zs)
    eye = np.eye(model.n)
    return model.a1[None] - zs[:, None, None] * eye[None] + w1


def m1_continued_many(model: SpectralModel, contour: Contour, zs) -> np.ndarray:
    """Batched m1_continued over a 1-d array of points, on one
    analytic_rule sized by all of them."""
    zs = np.asarray(zs, dtype=np.complex128)
    return _m1_on_rule(model, analytic_rule(model, contour, zs), zs)


def sheets_value(model: SpectralModel, z, side: int,
                 contour: Contour | None = None) -> np.ndarray:
    """Continuation into the side-l lens via the jump of the density:
    value = M1(z) - 2*pi*i*l*K'(z).

    Independent of quadrature, so it cross-checks m1_continued. When a
    contour is supplied the lens membership is enforced strictly;
    otherwise only the half-plane is checked. z is one point -> (n, n),
    or a 1-d array of P points -> (P, n, n); the message of a rejection
    names the first point outside.
    """
    zs, single = _points(z)
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    if contour is not None:
        if contour.side != side:
            raise ValueError("contour side disagrees with requested side")
        outside = ~contour.contains_in_lens(zs)
        where = f"outside the side {side:+d} lens"
    else:
        outside = side * zs.imag <= 0
        where = f"not in the open half-plane of side {side:+d}"
    if np.any(outside):
        raise ValueError(f"z={complex(zs[np.argmax(outside)])} {where}")
    value = m1_physical(model, zs) - 2j * np.pi * side * model.kprime_values(zs)
    return value[0] if single else value

