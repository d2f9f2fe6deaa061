"""Closed-form scalar oracle: rank-one constant coupling on a symmetric
interval.

For interval [-alpha, alpha], diagonal entry a1 = 0 and constant coupling
b > 0, everything is explicit: the continued Schur complement is
-z + b^2 Log((alpha - z)/(-alpha - z)), its unique root in each
half-plane is -il*y with y the positive solution of y = 2 b^2 arctan(alpha/y),
the angular function is -b/(mu + il*y), and its norm is exactly 1. This
module is ground truth for the generic machinery and deliberately shares
no code with it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericsError


@dataclass(frozen=True)
class FriedrichsParams:
    alpha: float
    b: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ModelError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.b < math.inf:
            raise ModelError(f"b must be nonnegative and finite, got {self.b}")


def solve_y(alpha: float, b: float) -> float:
    """Positive fixed point of y = 2 b^2 arctan(alpha / y).

    Safeguarded Newton on f(y) = y - 2 b^2 arctan(alpha/y) inside the
    bracket (0, b^2 pi]; f is increasing, f(0+) < 0, f(b^2 pi) >= 0, so
    the root is unique; the stop and accept tests are relative to y, which
    may be tiny. NumericsError when floats miss it, as when b^2 underflows.
    """
    if b <= 0:
        raise ModelError(f"b must be positive, got {b}")
    alpha = float(alpha)
    b2 = float(b) * float(b)
    hi = b2 * math.pi
    lo = min(1e-300, hi)

    def f(y):
        return y - 2.0 * b2 * math.atan2(alpha, y)

    def fp(y):
        # "or": a denominator that underflows to 0
        return 1.0 + 2.0 * b2 * alpha / ((y * y + alpha * alpha) or math.ulp(0.0))

    y = 0.5 * hi
    for _ in range(200):
        fy = f(y)
        if fy > 0:
            hi = y
        else:
            lo = y
        step = fy / fp(y)
        yn = y - step
        if not (lo < yn < hi):
            yn = 0.5 * (lo + hi)
        if abs(yn - y) <= 1e-16 * yn:
            y = yn
            break
        y = yn
    if not (y > 0.0 and abs(f(y)) <= 1e-14 * y):
        raise NumericsError(f"no positive fixed point: y = {y!r}, residual {f(y):.3e}")
    return y


def closed_m1(params: FriedrichsParams, z: complex) -> complex:
    """-z + b^2 Log((alpha - z)/(-alpha - z)), cut on [-alpha, alpha]."""
    z = complex(z)
    if z.imag == 0.0 and abs(z.real) <= params.alpha:
        raise ValueError(f"z={z} on the cut")
    ratio = (params.alpha - z) / (-params.alpha - z)
    return -z + params.b * params.b * complex(np.log(ratio))


def winding_count(params: FriedrichsParams, side: int) -> int:
    """Zeros of closed_m1 inside a large side-l rectangle, by the argument
    principle on a positively oriented polyline of 2500 points per edge."""
    al = params.alpha
    y_scale = solve_y(params.alpha, params.b) if params.b > 0 else 0.1
    eps = 0.5 * y_scale
    top = max(3.0 * al, 2.0 * params.b * params.b * math.pi)
    if not math.isfinite(6.0 * al + top):  # its width and height
        raise NumericsError(f"winding rectangle of alpha={al}, b={params.b} not finite")
    corners = [complex(-3 * al, eps), complex(3 * al, eps),
               complex(3 * al, top), complex(-3 * al, top),
               complex(-3 * al, eps)]
    if side == -1:
        corners = [z.conjugate() for z in corners]
        corners.reverse()
    s = np.linspace(0.0, 1.0, 2500, endpoint=False)
    path = np.concatenate([p + (q - p) * s for p, q in zip(corners[:-1], corners[1:])])
    vals = np.array([closed_m1(params, z) for z in path])
    # only angles count: unit phasors keep quotients of |m1| ~ 1e155 finite
    units = vals / np.abs(vals)
    ratios = np.roll(units, -1) / units
    total = float(np.sum(np.angle(ratios))) / (2.0 * math.pi)
    if not math.isfinite(total):
        raise NumericsError(f"winding sum {total} is not finite")
    w = round(total)
    if abs(total - w) > 0.1:
        raise NumericsError(f"winding estimate {total} too far from an integer")
    return int(w)


def oracle_solution(params: FriedrichsParams):
    """(z_plus, z_minus, y_norm, y_function).

    z_plus is the side +1 root -i y, z_minus its mirror +i y; y_norm is
    exactly 1; y_function(mu, side) = -b/(mu + i*side*y). Uniqueness of
    each root in its half-plane is confirmed by a winding count before
    returning.
    """
    if params.b <= 0:
        raise ModelError("oracle needs b > 0")
    y = solve_y(params.alpha, params.b)
    for side in (1, -1):
        w = winding_count(params, side)
        if w != 1:
            raise NumericsError(f"winding count {w} != 1 on side {side:+d}")

    def y_function(mu, side=1):
        mus = np.asarray(mu, dtype=np.complex128)
        return -params.b / (mus + 1j * side * y)

    return -1j * y, 1j * y, 1.0, y_function
