"""Model layer.

A model couples the multiplication operator by mu on L2(Delta0; C^m)
(entries of the 2x2 block matrix: upper-left) to a finite self-adjoint
matrix a1 (lower-right) through multiplication by a matrix polynomial
b(mu) of shape (m, n). Everything downstream consumes the derived
coupling density K'(mu) = b#(mu) b(mu), a matrix polynomial with
Hermitian coefficients; b#(mu) := (b(conj(mu)))^* realized
coefficient-wise, so K' is entire and equals b(mu)^* b(mu) on the axis.
build_model guards only the input; that K' is b^* b, Hermitian and PSD
on the axis holds by algebra and is measured by density_margin, the
density row of verify.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import gram_matrices, polyval_matrix, smallest_hermitian_eigenvalues
from .errors import ModelError

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial with constant matrix coefficients, lowest degree first.

    coefficients has shape (degree+1, rows, cols).
    """

    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise ModelError("coefficients must have shape (degree+1, rows, cols)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @property
    def rows(self) -> int:
        return self.coefficients.shape[1]

    @property
    def cols(self) -> int:
        return self.coefficients.shape[2]

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coefficients)

    def __call__(self, mus) -> np.ndarray:
        """The value at each point of the 1-d array mus -> (M, rows, cols)."""
        return polyval_matrix(self.coefficients, mus)

    def sharp(self) -> "MatrixPolynomial":
        """Coefficient-wise conjugate transpose: p#(mu) = (p(conj(mu)))^*."""
        coeffs = np.conj(np.swapaxes(self.coefficients, 1, 2))
        return MatrixPolynomial(coeffs)

    def scaled(self, t: float) -> "MatrixPolynomial":
        return MatrixPolynomial(self.coefficients * t)


def _as_matrix_polynomial(b) -> MatrixPolynomial:
    if isinstance(b, MatrixPolynomial):
        return b
    coeffs = [np.atleast_2d(np.asarray(c, dtype=np.complex128)) for c in b]
    return MatrixPolynomial(np.stack(coeffs, axis=0))


@dataclass(frozen=True)
class SpectralModel:
    interval: tuple
    a1: np.ndarray
    b: MatrixPolynomial

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @property
    def m(self) -> int:
        return self.b.rows

    @cached_property
    def sigma1(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(self.a1))

    @cached_property
    def feshbach(self) -> bool:
        """Whether every eigenvalue of a1 lies strictly inside the interval."""
        lo, hi = self.interval
        return bool(np.all((self.sigma1 > lo) & (self.sigma1 < hi)))

    @cached_property
    def kprime(self) -> MatrixPolynomial:
        """The derived density K'(mu), a matrix polynomial with Hermitian
        coefficients, PSD for real mu."""
        return kprime_of(self)

    @property
    def is_real(self) -> bool:
        """Whether a1 and every coupling coefficient are real.

        Then K'(conj mu) = conj K'(mu), so M1(conj z, conj Gamma) =
        conj M1(z, Gamma): the side -1 contour, admissibility report and
        root are the complex conjugates of the side +1 ones.
        """
        return not (np.any(np.imag(self.a1)) or np.any(self.b.coefficients.imag))

    def kprime_values(self, mus) -> np.ndarray:
        return polyval_matrix(self.kprime.coefficients, np.asarray(mus, dtype=np.complex128))

    def scaled(self, t: float) -> "SpectralModel":
        """Model with the coupling multiplied by t (a1 and the interval
        unchanged)."""
        if t == 1.0:
            return self
        return SpectralModel(self.interval, self.a1, self.b.scaled(float(t)))


def build_model(interval, a1, b) -> SpectralModel:
    """Validate and assemble a model.

    interval: (lo, hi) with lo < hi and a finite length hi - lo. a1: real
    symmetric (n, n). b: an (m, n) MatrixPolynomial with real coefficients,
    or a list of coefficient matrices lowest degree first. A coefficient of
    K' that is not finite (b^* b overflows) is a ModelError; the density's
    identities are left to density_margin.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ModelError(f"interval must have lo < hi, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise ModelError(f"interval ({lo}, {hi}) has a length beyond the float range")

    a1c = np.atleast_2d(np.asarray(a1, dtype=np.complex128))
    if np.max(np.abs(a1c.imag)) > _HERM_TOL * (1.0 + np.max(np.abs(a1c))):
        raise ModelError("a1 must be real symmetric")
    a1m = a1c.real.copy()
    if a1m.ndim != 2 or a1m.shape[0] != a1m.shape[1]:
        raise ModelError("a1 must be square")
    if np.max(np.abs(a1m - a1m.T)) > _HERM_TOL * (1.0 + np.max(np.abs(a1m))):
        raise ModelError("a1 must be symmetric")
    a1m = 0.5 * (a1m + a1m.T)
    a1m.setflags(write=False)

    poly = _as_matrix_polynomial(b)
    if np.max(np.abs(poly.coefficients.imag)) > _HERM_TOL * (1.0 + np.max(np.abs(poly.coefficients))):
        raise ModelError("coupling coefficients must be real")
    poly = MatrixPolynomial(poly.coefficients.real.astype(np.complex128))
    if poly.cols != a1m.shape[0]:
        raise ModelError(
            f"coupling maps C^{a1m.shape[0]} but has {poly.cols} columns"
        )

    model = SpectralModel((lo, hi), a1m, poly)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.all(np.isfinite(model.kprime.coefficients))
    if not finite:
        raise ModelError("coupling density K' has non-finite coefficients")
    return model


def kprime_of(model: SpectralModel) -> MatrixPolynomial:
    """K'(mu) = b#(mu) b(mu) as an explicit matrix polynomial.

    Coefficient s is sum over k+j=s of C_k^* C_j, Hermitian by symmetry of
    the index pairing; each is symmetrized to kill rounding skew.
    """
    c = model.b.coefficients
    deg = c.shape[0] - 1
    n = model.n
    out = np.zeros((2 * deg + 1, n, n), dtype=np.complex128)
    for k in range(deg + 1):
        ck = np.conj(c[k].T)
        for j in range(deg + 1):
            out[k + j] += ck @ c[j]
    out = 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))
    return MatrixPolynomial(out)


def density_margin(model: SpectralModel) -> float:
    """Signed margin of K' on a 1000-point grid of the interval, in units of
    scale.

    Three criteria, each with the tolerance _HERM_TOL * scale, scale =
    1 + max ||b(mu)||_F^2: K' agrees with b(mu)^* b(mu), K' is Hermitian,
    and its Hermitian part has no eigenvalue below -_HERM_TOL * scale.
    Returns (max(gap, skew, -min eigenvalue) - _HERM_TOL * scale) / scale,
    negative when every criterion has room. b^* b and the least
    eigenvalue come from the small-matrix kernels (gram_matrices and
    smallest_hermitian_eigenvalues), in closed form for n <= 2. Where K'
    or b is not finite on the grid the margin is NaN.
    """
    lo, hi = model.interval
    mus = np.linspace(lo, hi, 1000)
    kvals = model.kprime_values(mus)
    direct = gram_matrices(model.b(mus))
    scale = 1.0 + np.max(np.einsum("mii->m", direct).real)
    adjoint = np.conj(np.swapaxes(kvals, 1, 2))
    gap = np.max(np.abs(kvals - direct))
    skew = np.max(np.abs(kvals - adjoint))
    min_eig = np.min(smallest_hermitian_eigenvalues(kvals))
    worst = np.max([gap, skew, -min_eig])
    return float((worst - _HERM_TOL * scale) / scale)


@dataclass(frozen=True)
class SemiboundednessVerdict:
    passed: bool
    min_eigenvalue: float
    c0: float
    samples: int


def check_semibounded_density(model: SpectralModel, region, c0: float) -> SemiboundednessVerdict:
    """Check lambda_min(K'(mu)) >= c0 at every sample point of region."""
    pts = np.asarray(list(region), dtype=np.float64)
    if pts.size == 0:
        raise ModelError("empty region")
    if c0 <= 0:
        raise ModelError("c0 must be positive")
    kvals = model.kprime_values(pts)
    kvals = 0.5 * (kvals + np.conj(np.swapaxes(kvals, 1, 2)))
    min_eig = float(np.min(np.linalg.eigvalsh(kvals)))
    return SemiboundednessVerdict(min_eig >= c0, min_eig, float(c0), int(pts.size))
