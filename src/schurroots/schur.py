"""Schur complement of the upper-left block, on and off the physical sheet.

Three independent evaluation paths are kept deliberately separate so they
can cross-check each other: a closed form built on the principal-branch
logarithm (physical sheet), contour quadrature (continuation through the
interval), and the jump formula value = physical - 2*pi*i*l*K'(z) inside
the lens between the interval and the contour.
"""

import cmath
import math

import numpy as np

from ._kernels import cauchy_sum_many
from .contour import Contour, analytic_rule
from .model import SpectralModel


def _cut_moments(a: float, b: float, zs, degree: int, branch="physical"):
    """Moments g_s(z) = integral of mu^s/(mu - z) over [a, b], s = 0..degree,
    at each point of the 1-d array zs -> (P, degree + 1).

    Written as z^s L(z) plus the exact division polynomial q_s(z), built
    by q_s = z q_(s-1) + (b^s - a^s)/s from q_1 = b - a, with z^s by
    repeated multiplication and the logarithm L chosen by branch:

    - "physical": L = Log((b - z)/(a - z)); the principal branch puts the
      cut exactly on [a, b].
    - a side l = +1 or -1: L = Log(b - z) - Log(z - a) - i*pi*l, the
      continuation of the physical moment from the half-plane of sign -l
      through the cut, analytic off (-inf, a] and [b, inf). It equals the
      integral over the side-l contour for z in the open half-plane of
      sign -l, on the open interval and in the lens between the interval
      and the contour, but not elsewhere. On the open interval it is the
      boundary value from the half-plane of sign -l: L = ln((b - z)/(z -
      a)) - i*pi*l, the principal value plus the jump.
    """
    if branch not in ("physical", 1, -1):
        raise ValueError(f"unknown moment branch {branch!r}")
    zs = np.asarray(zs, dtype=np.complex128)
    # moment-major, so that each moment is written in place as one row
    out = np.empty((degree + 1, zs.size), dtype=np.complex128)
    log_term = out[0]
    if branch == "physical":
        np.log((b - zs) / (a - zs), out=log_term)
    else:
        np.log(b - zs, out=log_term)
        log_term -= np.log(zs - a)
        log_term -= 1j * np.pi * branch
    power, q = zs, b - a
    for s in range(1, degree + 1):
        if s > 1:
            power = power * zs
            q = zs * q + (b ** s - a ** s) / s
        np.multiply(power, log_term, out=out[s])
        out[s] += q
    return out.T


def _log_quotient(u: complex, v: complex) -> complex:
    """(Log u - Log v)/(u - v) for nonzero u, v, 1/u at u = v. Where |u - v|
    < |u + v|/2, arg(u/v) is within 0.93 of 0 and Log u - Log v = 2 atanh(r)
    + 2 pi i k, r = (u - v)/(u + v), k the whole turns between the arguments
    (Higham, Functions of Matrices, SIAM 2008, ch. 11), which does not
    cancel; elsewhere, u + v = 0 too, the plain quotient."""
    diff, total = u - v, u + v
    if diff == 0:
        return 1.0 / u
    if abs(diff) >= 0.5 * abs(total):
        return (cmath.log(u) - cmath.log(v)) / diff
    log_diff = 2.0 * cmath.atanh(diff / total)
    turns = round((cmath.phase(u) - cmath.phase(v)) / (2.0 * math.pi))
    # no term at no turn, which would turn a zero imaginary part's sign
    return (log_diff + 2j * math.pi * turns if turns else log_diff) / diff


def _cut_quotients_at(a: float, b: float, x: complex, y: complex, degree: int,
                      branch="physical") -> tuple:
    """([g_0(y), ..., g_degree(y)], [g_0[x, y], ..., g_degree[x, y]]): the
    moments of _cut_moments at y by its arithmetic in Python scalars, and
    their divided differences (derivatives at x = y) by g_s[x, y] = x
    g_(s-1)[x, y] + g_(s-1)(y), from g_0[x, y] = -Q(b - x, b - y) - Q(x - a,
    y - a) on a side, Q(w(x), w(y)) (b - a)/((a - x)(a - y)) with w(z) = (b -
    z)/(a - z) on the physical sheet; Q is _log_quotient."""
    if branch == "physical":
        w = (b - y) / (a - y)
        log_term = cmath.log(w)
        quotient = _log_quotient((b - x) / (a - x), w) * ((b - a) / (a - x)) / (a - y)
    elif branch in (1, -1):
        log_term = cmath.log(b - y) - cmath.log(y - a) - 1j * math.pi * branch
        quotient = -_log_quotient(b - x, b - y) - _log_quotient(x - a, y - a)
    else:
        raise ValueError(f"unknown moment branch {branch!r}")
    values, quotients, power, q = [log_term], [quotient], y, 0.0
    for s in range(1, degree + 1):
        quotients.append(x * quotients[-1] + values[-1])
        q = y * q + (b ** s - a ** s) / s
        values.append(power * log_term + q)
        power *= y
    return values, quotients


def _moment_sum(model: SpectralModel, zs, branch) -> np.ndarray:
    # sum_s g_s(z) C_s over the K' coefficients C_s -> (P, n, n)
    a, b = model.interval
    coeffs = model.kprime.coefficients
    moments = _cut_moments(a, b, zs, coeffs.shape[0] - 1, branch)
    return np.einsum("ps,sij->pij", moments, coeffs)


def w1_physical(model: SpectralModel, zs) -> np.ndarray:
    """W1(z) = integral of K'(mu)/(mu - z) over the interval, closed form,
    at each point of the 1-d array zs -> (P, n, n)."""
    zs = np.asarray(zs, dtype=np.complex128)
    a, b = model.interval
    real = zs.real[zs.imag == 0.0]
    on_cut = real[(a <= real) & (real <= b)]
    if on_cut.size:
        raise ValueError(f"z={complex(on_cut[0])} lies on the cut; use w1_boundary")
    return _moment_sum(model, zs, "physical")


def w1_boundary(model: SpectralModel, lams, approach: int) -> np.ndarray:
    """Boundary values W1(lam + i*approach*0) at each point of the 1-d
    array lams on the open interval -> (P, n, n).

    The side -approach moment sum taken on the cut (see _cut_moments): the
    principal value plus the jump i*pi*approach*K'(lam), in closed form.
    """
    if approach not in (1, -1):
        raise ValueError("approach must be +1 or -1")
    a, b = model.interval
    lams = np.asarray(lams, dtype=np.float64)
    outside = ~((a < lams) & (lams < b))
    if np.any(outside):
        raise ValueError(f"lambda={lams[np.argmax(outside)]} not strictly inside ({a}, {b})")
    return _moment_sum(model, lams, -approach)


def m1_physical(model: SpectralModel, zs) -> np.ndarray:
    """M1(z) = a1 - z + W1(z) on the physical sheet, at each point of the
    1-d array zs -> (P, n, n)."""
    zs = np.asarray(zs, dtype=np.complex128)
    return _m1_from_w1(model, zs, w1_physical(model, zs))


def _m1_from_w1(model: SpectralModel, zs: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """M1 = a1 - z + W1 at each point of the 1-d array zs, from the values
    w1 (P, n, n) of W1 there."""
    return model.a1[None] - zs[:, None, None] * np.eye(model.n)[None] + w1


def m1_continued(model: SpectralModel, contour: Contour, z: complex) -> np.ndarray:
    """M1(z, Gamma) at one point z: the one-point batch of m1_continued_many.
    Equals m1_physical outside the closed lens region; inside the lens it
    is the continuation from the opposite half-plane."""
    return m1_continued_many(model, contour, np.array([complex(z)]))[0]


def _m1_on_rule(model: SpectralModel, rule: Contour, kvals: np.ndarray,
                zs: np.ndarray) -> np.ndarray:
    # M1(z, Gamma) at each point of the 1-d array zs by the sum over rule,
    # kvals the values of K' at its nodes
    return _m1_from_w1(model, zs, cauchy_sum_many(kvals, rule.nodes, rule.weights, zs))


def m1_continued_many(model: SpectralModel, contour: Contour, zs) -> np.ndarray:
    """M1(z, Gamma) at each point of a 1-d array zs -> (P, n, n), summed on
    one analytic_rule(model, contour, zs), which refuses (ValueError) a
    point that would need more than MAX_SEGMENT_NODES nodes on a segment."""
    zs = np.asarray(zs, dtype=np.complex128)
    rule = analytic_rule(model, contour, zs)
    return _m1_on_rule(model, rule, model.kprime_values(rule.nodes), zs)


def sheets_value(model: SpectralModel, zs, contour: Contour) -> np.ndarray:
    """Continuation into the lens of contour, of side l = contour.side, via
    the jump of the density: value = M1(z) - 2*pi*i*l*K'(z), at each point
    of the 1-d array zs -> (P, n, n).

    Independent of quadrature, so it cross-checks m1_continued_many. Every
    point must lie strictly inside the lens; the message of a rejection
    names the first point outside.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    side = contour.side
    outside = ~contour.contains_in_lens(zs)
    if np.any(outside):
        raise ValueError(f"z={complex(zs[np.argmax(outside)])} outside the side {side:+d} lens")
    return m1_physical(model, zs) - 2j * np.pi * side * model.kprime_values(zs)

