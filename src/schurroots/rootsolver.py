"""Fixed-point solver for the operator root, plus spectrum bookkeeping.

The root is the solution of X = t^2 W1(A1 + X, Gamma) for the side-l
contour Gamma; Z = A1 + X then carries the spectral points that moved off
the interval. Everything here is a contraction-mapping argument made
concrete: admissibility gives the ball, Picard iterates inside it. The
homotopy driver (homotopy_path) follows the root over a grid of couplings
t, starting each t from the extrapolation in s = t^2 of the roots already
solved, as long as that start lies inside the r_max ball.

K'(mu) = sum_s C_s mu^s is a polynomial, so W1(Z, Gamma) is the sum of
primary matrix functions sum_s C_s g_s(Z), with g_s the moments of
schur._cut_moments: the side-l ones at an eigenvalue in the lens, on the
open interval or across it, the physical ones off the closed lens. The
Picard map evaluates that sum in closed form (_PicardMap): for n <= 2 in
Python numbers from Z, its eigenvalues and the moments' divided
differences, for n >= 3 in the eigenbasis of _kernels.eig, one matmul and
one solve. By Cauchy's theorem it is the contour integral without its
quadrature error. An eigenvalue on the contour, which an admissible run
keeps sqrt(V0) - 1e-9 away (Bauer-Fike), raises NumericsError. The contour
sum (transformator) serves an ill-conditioned n >= 3 basis, and verify as
the root's independent path.

For a real model the roots of the two sides are complex conjugates, so
the opposite side's root, classification and homotopy path are one side's
conjugated, entry for entry and in the same order: no second Picard
iteration, classification or tracking step runs (RootSolution.conjugate,
SpectrumClassification.conjugate, conjugate_path).
"""

import math
import operator
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._kernels import (_smallest_singular_value, eig, resolvent_sum, small_eig,
                       smallest_singular_values, spectral_norms)
from .contour import (AdmissibilityReport, Contour, admissibility,
                      admissibility_at, analytic_rule, ensure_admissible)
from .errors import NumericsError
from .model import SpectralModel
from .schur import _cut_moments, _cut_quotients_at, _m1_physical_at, m1_physical

_SPEC_GUARD = 1e-6

# Stop tolerance of the Picard iteration, relative to max(1, ||X||), and its
# iteration bound: a run that has not met _TOL after _MAX_ITER steps raises.
_TOL = 1e-12
_MAX_ITER = 500

# Largest condition number of the eigenvector matrix V of Z for which the
# n >= 3 Picard map, and every closed form downstream of a root that reads
# Eigensystem.basis, is evaluated in that basis; the error of a sum in a
# basis grows like cond(V) times the unit roundoff. The n <= 2 map reads no
# basis and no limit.
_COND_LIMIT = 1e2

# Relative shrinking of the limit in _cond_within's certificate. The SVD
# of np.linalg.cond rounds a condition number c by about n c eps relative,
# far below this, so a certified V is one that np.linalg.cond also passes.
_COND_MARGIN = 1e-9
_EPS = float(np.finfo(np.float64).eps)


def _cond_within(vecs: np.ndarray, limit: float) -> bool:
    """Whether np.linalg.cond(vecs) <= limit for the unit-column V of
    _kernels.eig, mostly without an SVD: every eigenvalue of V^H V lies
    within delta = ||V^H V - I||_F of 1, so for delta < 1 cond_2(V)^2 <=
    (1 + delta) / (1 - delta). delta is widened by the rounding of the
    product (each entry a length-n dot product of columns of norm about 1,
    off by at most 4 (n + 4) eps) and of its norm. A bound within limit
    (1 - _COND_MARGIN) answers yes; otherwise, and for any NaN,
    np.linalg.cond decides, so every answer is np.linalg.cond's. The
    caller passes the limit, read at the time of the call."""
    n = len(vecs)
    gram = np.matmul(np.conj(vecs.T), vecs)
    gram.ravel()[::n + 1] -= 1.0
    fro = math.sqrt(np.vdot(gram, gram).real)
    delta = (fro + 4.0 * n * (n + 4) * _EPS) * (1.0 + n * n * _EPS)
    square = (limit * (1.0 - _COND_MARGIN)) ** 2
    if delta < 1.0 and 1.0 + delta <= square * (1.0 - delta):
        return True
    return bool(np.linalg.cond(vecs) <= limit)


def _require_clear_of_nodes(eigs: np.ndarray, rule: Contour) -> None:
    """Raise NumericsError when an eigenvalue in eigs comes within
    _SPEC_GUARD half-lengths of the interval of a node of rule, where the
    resolvent blows through the rule."""
    a, b = rule.endpoints
    gap = np.min(np.abs(eigs[:, None] - rule.nodes[None, :]))
    if gap <= _SPEC_GUARD * (0.5 * b - 0.5 * a):
        raise NumericsError(
            f"spectrum-on-contour violation: eigenvalue within {gap:.3e} of a node"
        )


@dataclass(frozen=True)
class Eigensystem:
    """Z = V diag(values) V^{-1} from one _kernels.eig of Z: values[k] has
    the unit eigenvector vectors[:, k]. The arrays are made read-only."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @cached_property
    def basis(self) -> tuple | None:
        """(V, V^{-1}) when cond(V) <= _COND_LIMIT (_cond_within), else
        None: sums in that basis lose about cond(V) times the unit
        roundoff. Taken on first use; the limit is read then."""
        if not _cond_within(self.vectors, _COND_LIMIT):
            return None
        inv = np.linalg.inv(self.vectors)
        inv.setflags(write=False)
        return self.vectors, inv


@dataclass(frozen=True)
class RootSolution:
    """The root X of one side at coupling t with what it was solved from:
    the t-scaled model (SpectralModel.scaled), the side's contour and the
    admissibility report at t, which everything built on the root reads."""

    x: np.ndarray
    z_op: np.ndarray
    model: SpectralModel
    contour: Contour
    report: AdmissibilityReport
    coupling_scale: float
    iterations: int
    final_step_norm: float
    residual: float
    # evaluations of the Picard map (steps and the residual check) that took
    # the contour sum of _PicardMap: n >= 3 steps whose basis failed _COND_LIMIT
    contour_fallbacks: int = 0

    @property
    def side(self) -> int:
        return self.contour.side

    @cached_property
    def eigensystem(self) -> Eigensystem:
        """The eigendecomposition of z_op by _kernels.eig, taken on first
        use and kept.

        _picard seeds it with the decomposition its residual check took of
        z_op by the same kernel, so the two are the same to the bit. A
        cached property, not a field, so a root that dataclasses.replace
        builds (conjugate, or a test's shifted Z) decomposes its own z_op.
        """
        return Eigensystem(*eig(self.z_op))

    @cached_property
    def x_norm(self) -> float:
        """||X||_2 by _kernels.spectral_norms, taken on first use and kept;
        _picard seeds it with the norm its closing step took of x."""
        return float(spectral_norms(self.x))

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem.values.copy()

    def conjugate(self) -> "RootSolution":
        """The root of the opposite side of a real model: X and Z
        conjugated, the contour mirrored and every other field kept, ||X||
        too (conjugation keeps every singular value).

        For a real model (SpectralModel.is_real) the Picard map of the
        mirrored contour is the conjugate of this side's map, so the same
        iteration from X = 0 runs through the conjugated iterates, and the
        admissibility report is the same.
        """
        root = replace(self, x=np.conj(self.x), z_op=np.conj(self.z_op),
                       contour=self.contour.mirror())
        vars(root)["x_norm"] = self.x_norm
        return root


@dataclass(frozen=True)
class ClassifiedEigenvalue:
    """One eigenvalue of Z with its multiplicity and label.

    physical_residual is the smallest singular value of the physical-sheet
    M1 at the eigenvalue for a physical-complex entry, else None. A
    homotopy path evaluates it only at the last t of its grid; its entries
    at earlier t carry None, and classify of their root gives it.
    """

    eigenvalue: complex
    multiplicity: int
    label: str  # real | resonance | physical-complex
    physical_residual: float | None = None


@dataclass(frozen=True)
class SpectrumClassification:
    entries: tuple

    def count(self, label: str) -> int:
        return sum(e.multiplicity for e in self.entries if e.label == label)

    def conjugate(self) -> "SpectrumClassification":
        """The classification of the conjugated root (RootSolution.conjugate)
        of a real model: each eigenvalue conjugated, in the same order, with
        its label, multiplicity and physical residual kept.

        Conjugation flips both the sign of Im(lam) and the side, so the
        label is unchanged, and the physical-sheet M1 at conj(lam) is the
        conjugate of M1 at lam, with the same singular values.
        """
        return SpectrumClassification(tuple(
            ClassifiedEigenvalue(e.eigenvalue.conjugate(), e.multiplicity, e.label,
                                 e.physical_residual)
            for e in self.entries))


def transformator(model: SpectralModel, contour: Contour, zmat,
                  spectrum) -> np.ndarray:
    """W1(Z, Gamma) = -integral over Gamma of K'(mu) (Z - mu)^{-1} dmu,
    by the contour quadrature sum.

    spectrum is the spectrum of zmat as a 1-d array, which the caller
    already holds; it is the integrand's only singularities and sizes the
    sum's analytic_rule(model, contour). The Picard iteration evaluates the same
    map in closed form (_PicardMap), here only for an ill-conditioned n >= 3
    basis; verify uses this sum as the independent path of its root-contour row.
    A spectrum within _SPEC_GUARD half-lengths of a node of the rule, where
    the resolvent blows through it, raises NumericsError.
    """
    zmat = np.asarray(zmat, dtype=np.complex128)
    rule = analytic_rule(model, contour, singular=spectrum)
    _require_clear_of_nodes(spectrum, rule)
    kvals = model.kprime_values(rule.nodes)
    return -resolvent_sum(kvals, rule.nodes, rule.weights, zmat)


class _PicardMap:
    """The map Z -> t^2 W1(Z, Gamma) of one side, as t^2 sum_s C_s g_s(Z).

    At each eigenvalue g_s is a moment that equals the contour integral
    there (see schur._cut_moments): the side-l one where _covered, else the
    physical one, the interval integral, off the closed lens. For n <= 2
    it runs in Python scalars on small_eig's eigenvalues, with W(lam) =
    sum_s g_s(lam) C_s: n = 1 is W at the one entry of Z, n = 2 the primary
    function W(lam2) + W[lam1, lam2] (Z - lam2 I) of _small_map, which holds
    for every Z, defective or not. For n >= 3 Z = V D V^{-1} by
    _kernels.eig, and (sum_s C_s V diag(g_s(D))) V^{-1} is one matmul, of
    the coefficients stacked as rows (S n, n) with V, and one solve, or
    where cond(V) > _COND_LIMIT (_cond_within) the contour sum (transformator
    of self.model, the t-scaled model); fallbacks counts those steps. An
    eigenvalue on the contour or at an endpoint, where no moment is the
    integral, raises NumericsError; zero coefficients (b = 0 or t = 0) map
    to zero before any moment. spectrum holds the (eigenvalues,
    eigenvectors) of the last Z mapped, as small_eig's lists for n <= 2.
    """

    def __init__(self, model: SpectralModel, contour: Contour, t: float):
        self.model = model.scaled(t)
        self.contour = contour
        self.coeffs = model.kprime.coefficients * (t * t)
        self.zero = not self.coeffs.any()
        self.fallbacks = 0

    @cached_property
    def _coeff_entries(self) -> list:
        # per entry (i, j) of an n x n matrix, row by row, the list of its
        # coefficients t^2 C_s[i, j] as Python numbers
        k, n, _ = self.coeffs.shape
        return self.coeffs.reshape(k, n * n).T.tolist()

    def _covered(self, eigs):
        # per eigenvalue, whether the side-l moments equal the contour
        # integral there: the half-plane of sign -l, the open interval and
        # the lens; for one complex eigenvalue, a bool
        contour = self.contour
        a, b = contour.endpoints
        x, y = eigs.real, eigs.imag
        return ((contour.side * y < 0.0)
                | ((y == 0.0) & (a < x) & (x < b))
                | contour.contains_in_lens(eigs))

    def _moments(self, eigs: np.ndarray) -> np.ndarray:
        """g_s at each eigenvalue -> (P, degree + 1); NumericsError when one
        lies on the contour or at an endpoint."""
        a, b = self.contour.endpoints
        degree, side = self.coeffs.shape[0] - 1, self.contour.side
        # the half-plane of sign -l is covered: no lens test is needed there
        if (side * eigs.imag < 0.0).all():
            return _cut_moments(a, b, eigs, degree, side)
        covered = self._covered(eigs)
        if covered.all():
            return _cut_moments(a, b, eigs, degree, side)
        on = eigs[~covered][self.contour.contains_in_lens(eigs[~covered], closed=True)]
        if on.size:
            raise NumericsError(
                f"eigenvalue {complex(on[0])!r} of Z lies on the side {side:+d} contour "
                "or at an endpoint, where no moment is the contour integral")
        moments = np.empty((eigs.size, degree + 1), dtype=np.complex128)
        moments[covered] = _cut_moments(a, b, eigs[covered], degree, side)
        moments[~covered] = _cut_moments(a, b, eigs[~covered], degree)
        return moments

    def _small_map(self, rows: list, values: list) -> np.ndarray:
        """W(lam2) + W[lam1, lam2] (Z - lam2 I) for n <= 2 in Python scalars
        from Z's rows and small_eig's eigenvalues; NumericsError on the
        contour or at an endpoint. Both terms come from _cut_quotients_at on
        one branch that is the integral at both eigenvalues: the side-l one
        where both are _covered, else the physical one where both lie off
        the closed lens. Else the two lie on opposite sides of the contour,
        each takes its own branch (_moments), and W[lam1, lam2] is the plain
        quotient."""
        a, b = self.contour.endpoints
        degree, side = self.coeffs.shape[0] - 1, self.contour.side
        lam1, lam2, lens = values[0], values[-1], self.contour.contains_in_lens
        covered = [self._covered(lam) for lam in values]
        if all(covered) or not any(lens(lam, closed=True) for lam in values):
            branch = side if all(covered) else "physical"
            # the quotient with lam1 for n = 2; none for n = 1
            moments, quotients = _cut_quotients_at(a, b, lam2, degree, values[:-1], branch)
        else:
            # raises for an eigenvalue on the contour, the one of any n = 1 Z here
            moments1, moments = self._moments(np.array(values)).tolist()
            quotients = [[(x - y) / (lam1 - lam2) for x, y in zip(moments1, moments)]]
        w = [sum(map(operator.mul, moments, entry)) for entry in self._coeff_entries]
        if len(w) == 1:
            return np.array([w], dtype=np.complex128)
        (w00, w01, w10, w11), (d00, d01, d10, d11) = w, (
            sum(map(operator.mul, quotients[0], entry)) for entry in self._coeff_entries)
        (p, q), (r, s) = rows
        p, s = p - lam2, s - lam2
        return np.array([[w00 + d00 * p + d01 * r, w01 + d00 * q + d01 * s],
                         [w10 + d10 * p + d11 * r, w11 + d10 * q + d11 * s]],
                        dtype=np.complex128)

    def __call__(self, zmat: np.ndarray) -> np.ndarray:
        n = zmat.shape[0]
        rows = zmat.tolist() if n <= 2 else None
        self.spectrum = eig(zmat) if rows is None else small_eig(rows)
        if self.zero:
            return np.zeros((n, n), dtype=np.complex128)
        if rows is not None:
            return self._small_map(rows, self.spectrum[0])
        eigs, vecs = self.spectrum
        moments = self._moments(eigs)
        if _cond_within(vecs, _COND_LIMIT):
            # (sum_s C_s V diag(g_s)) from the coefficients as rows (S n, n)
            blocks = np.matmul(self.coeffs.reshape(-1, n), vecs).reshape(-1, n, n)
            blocks *= moments.T[:, None, :]
            return np.linalg.solve(vecs.T, blocks.sum(axis=0).T).T
        self.fallbacks += 1
        return transformator(self.model, self.contour, zmat, eigs)


# Relative widening of the Frobenius bounds ||M||_F / sqrt(n) <= ||M||_2 <=
# ||M||_F of _picard's tests; for n = 1 and rank-1 matrices the bounds are
# equalities, which rounding could otherwise flip.
_NORM_SLACK = 1.0 + 1e-12


def _norm_bounds(mat: np.ndarray) -> tuple:
    """Lower and upper bounds on the spectral norm of the square mat, from
    its Frobenius norm, the root of vdot(mat, mat), widened by _NORM_SLACK."""
    fro = math.sqrt(np.vdot(mat, mat).real)
    return fro / (math.sqrt(mat.shape[0]) * _NORM_SLACK), fro * _NORM_SLACK


def _picard(model: SpectralModel, contour: Contour, rep: AdmissibilityReport,
            t: float, x0: np.ndarray) -> RootSolution:
    """Picard iteration from x0; rep is the admissible report of contour at
    coupling t and supplies the r_min / r_max containment checks.

    The escape test ||X|| > r_max and the stop test ||X_{k+1} - X_k|| <=
    _TOL * max(1, ||X||) are on spectral norms, decided from _norm_bounds;
    the spectral norm (_kernels.spectral_norms) is taken only where the
    bounds leave a test open, and once at the end for the reported step,
    ||X|| and the residual ||X - F(A1 + X)||, for n >= 3 in one batched
    call. A NaN norm counts as an escape, and no stop within _MAX_ITER
    steps raises NumericsError. The root carries the t-scaled model, the
    contour, rep, ||X|| and, as its eigensystem, the decomposition the
    residual check takes of Z = A1 + X.
    """
    step_map = _PicardMap(model, contour, t)
    a1 = model.a1.astype(np.complex128)
    escape = rep.r_max + 1e-9

    x = np.asarray(x0, dtype=np.complex128).copy()
    diff = None
    for it in range(1, _MAX_ITER + 1):
        xn = step_map(a1 + x)
        diff = xn - x
        x = xn
        x_lo, x_hi = _norm_bounds(x)
        if not x_hi <= escape:
            # undecided, escaped or NaN: the spectral norm decides
            x_lo = x_hi = float(spectral_norms(x))
            if not x_hi <= escape:
                raise NumericsError(
                    f"iterate escaped the r_max ball ({x_hi:.6g} > {rep.r_max:.6g})"
                )
        step_lo, step_hi = _norm_bounds(diff)
        if not (step_hi <= _TOL * max(1.0, x_lo) or step_lo > _TOL * max(1.0, x_hi)):
            x_lo = x_hi = float(spectral_norms(x))
            step_lo = step_hi = float(spectral_norms(diff))
        if step_hi <= _TOL * max(1.0, x_lo):
            break
    else:
        step = np.inf if diff is None else float(spectral_norms(diff))
        raise NumericsError(f"no convergence in {_MAX_ITER} iterations (step {step:.3e})")
    # residual confirmation at the converged point, through the same map
    z_op = a1 + x
    gap = x - step_map(z_op)
    if x.shape[0] <= 2:
        step, norm_x, residual = (float(spectral_norms(m)) for m in (diff, x, gap))
    else:
        step, norm_x, residual = spectral_norms(np.stack((diff, x, gap))).tolist()
    if residual > max(2.0 * _TOL, 1e-13) * max(1.0, norm_x):
        raise NumericsError(f"fixed-point residual {residual:.3e} above tolerance")
    if norm_x > rep.r_min + 1e-9:
        raise NumericsError(
            f"solution left the r_min ball ({norm_x:.6g} > {rep.r_min:.6g})"
        )
    sol = RootSolution(x, z_op, step_map.model, contour, rep, float(t), it,
                       step, residual, step_map.fallbacks)
    # the residual check decomposed z_op, by eig or its scalar form for n <= 2
    vars(sol)["eigensystem"] = Eigensystem(
        *(np.asarray(part, dtype=np.complex128) for part in step_map.spectrum))
    vars(sol)["x_norm"] = norm_x
    return sol


def solve_basic(model: SpectralModel, contour: Contour, t: float = 1.0) -> RootSolution:
    """Solve X = t^2 W1(A1 + X, Gamma) by Picard iteration from X = 0.

    Each step evaluates W1 in closed form as sum_s C_s g_s(Z) (see
    _PicardMap), or, for an n >= 3 Z whose eigenbasis fails _COND_LIMIT,
    as the contour sum over Gamma; RootSolution.contour_fallbacks counts
    those steps. Evaluates admissibility(model, contour, t) once: an
    inadmissible contour raises AdmissibilityError carrying that report,
    and otherwise the root carries it. Convergence is geometric, to the
    program's _TOL within _MAX_ITER steps (_picard); the result is
    confirmed by a residual evaluation of the same map and the
    containment ||X|| <= r_min.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"coupling scale t={t} outside [0, 1]")
    report = ensure_admissible(admissibility(model, contour, t))
    x0 = np.zeros((model.n, model.n), dtype=np.complex128)
    return _picard(model, contour, report, float(t), x0)


def _real_band(model: SpectralModel) -> float:
    """The half-width 1e-8 (1 + ||a1||_2) of the band around the real
    axis whose eigenvalues are labelled real."""
    return 1e-8 * (1.0 + float(spectral_norms(model.a1)))


def _label_for(lam: complex, side: int, tau: float) -> str:
    if abs(lam.imag) <= tau:
        return "real"
    return "resonance" if (lam.imag > 0) == (side > 0) else "physical-complex"


def _physical_residuals(sol: RootSolution, lams, labels) -> list:
    """Per eigenvalue, the smallest singular value of the physical-sheet
    M1(lam) of the root's model when labelled physical-complex, else None.

    For n <= 2 each one is taken in Python numbers: M1 at the point from
    the moments of schur._cut_quotients_at (_m1_physical_at), its
    modulus for n = 1 and |det| / sigma_max for n = 2
    (_kernels._smallest_singular_value). For n >= 3 all of them come from
    one batched M1 evaluation (m1_physical) and one call of
    _kernels.smallest_singular_values.
    """
    hits = [k for k, label in enumerate(labels) if label == "physical-complex"]
    out = [None] * len(lams)
    if sol.model.n <= 2:
        for k in hits:
            out[k] = _smallest_singular_value(_m1_physical_at(sol.model, lams[k]))
    elif hits:
        mats = m1_physical(sol.model, np.array([lams[k] for k in hits]))
        for k, sval in zip(hits, smallest_singular_values(mats)):
            out[k] = float(sval)
    return out


def _mean(group: list) -> complex:
    # the mean of a cluster of at most two Python complex numbers as
    # np.mean takes it, bit for bit: the sum from zero, then the complex
    # division by the count (as a complex number, so that no mixed-mode
    # division keeps a zero's sign that NumPy's does not)
    return sum(group) / complex(len(group))


def classify(sol: RootSolution) -> SpectrumClassification:
    """Label the spectrum of Z: real band, resonance side, physical side.

    An eigenvalue within _real_band of the real axis is real; any other is
    a resonance when it lies on the root's side, else physical-complex.
    Eigenvalues are sorted by real, then imaginary part, and one within
    1e-8 (1 + max |lam|) of the mean of the cluster before it joins that
    cluster, which becomes one entry with the corresponding multiplicity.
    Each physical-complex entry records the smallest singular value of the
    physical-sheet Schur complement at the eigenvalue
    (_physical_residuals); genuine eigenvalues make it vanish. For n <= 2
    the sort, the cluster means and the residuals run in Python numbers,
    with the order, the means and the labels of np.sort_complex and
    np.mean to the bit.
    """
    tau = _real_band(sol.model)
    values = sol.eigensystem.values
    # NumPy's vectorised abs, which can differ from Python's in the last
    # bit: the same radius for every n
    radius = 1e-8 * (1.0 + float(np.abs(values).max()))
    if values.size <= 2:
        eigs, mean = sorted(values.tolist(), key=lambda lam: (lam.real, lam.imag)), _mean
    else:
        eigs, mean = np.sort_complex(values), np.mean

    clusters: list[list[complex]] = []
    for lam in eigs:
        if clusters and abs(lam - mean(clusters[-1])) <= radius:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])

    lams = [complex(mean(group)) for group in clusters]
    labels = [_label_for(lam, sol.side, tau) for lam in lams]
    resids = _physical_residuals(sol, lams, labels)
    return SpectrumClassification(tuple(
        ClassifiedEigenvalue(lam, len(group), label, resid)
        for lam, group, label, resid in zip(lams, clusters, labels, resids)))


def _pair(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
    # imported here: scipy.optimize costs more at import than the rest of
    # the package, and only the homotopy driver pairs eigenvalues
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(curr[None, :] - prev[:, None])
    _, perm = linear_sum_assignment(cost)
    return perm


# Number of known points (s = t^2, X) through which homotopy_path
# extrapolates the start of the next t. Side +1 paths of the seed 1-6
# wide-sweep models on uniform 8-, 16- and 40-point grids took 699 / 1162 /
# 2252 Picard map evaluations with 4 points, 600 / 807 / 1511 with 6,
# 570 / 811 / 1707 with 8 and 570 / 1031 / 3720 with every known point.
_START_POINTS = 6


def _extrapolate(known: list, s: float) -> np.ndarray:
    """The Lagrange extrapolation to s of the points (s_k, X_k) in known,
    whose s_k are distinct: sum_k w_k X_k, with real weights w_k computed
    from the s values alone, so that the extrapolation of conjugated X_k is
    the conjugated extrapolation, bit for bit."""
    nodes = [sk for sk, _ in known]
    weights = [math.prod((s - sj) / (sk - sj) for j, sj in enumerate(nodes) if j != k)
               for k, sk in enumerate(nodes)]
    return sum(w * xk for w, (_, xk) in zip(weights, known))


def _inside(mat: np.ndarray, radius: float) -> bool:
    """Whether ||mat||_2 < radius, decided from _norm_bounds, with the
    spectral norm only where the bounds leave it open; False for a
    non-finite mat."""
    lo, hi = _norm_bounds(mat)
    if hi < radius:
        return True
    if not lo < radius:
        return False
    return bool(spectral_norms(mat) < radius)


def homotopy_path(model: SpectralModel, contour: Contour, t_grid) -> list:
    """Track the root along the coupling homotopy t in t_grid.

    The root X is a smooth function of s = t^2 with X = 0 at s = 0. Each
    solve starts from the Lagrange extrapolation to s = t^2 through the
    last _START_POINTS known points (s, X), X(0) = 0 and the roots solved
    so far (_extrapolate); with one root solved this is that root scaled
    by (t / t_prev)^2. A start outside the r_max ball at t, on which the
    map contracts, is replaced by the previous X so scaled. Each solve is
    the Picard iteration of solve_basic, to the same _TOL within
    _MAX_ITER steps. Returned entries
    are (t, RootSolution, SpectrumClassification) with classification
    entries in trajectory order: entry i at each t continues entry i at
    the previous t (matched by global nearest-neighbor assignment, no
    multiplicity grouping), labelled as classify labels them, on the same
    _real_band. Only the entries at the last t of the grid carry their
    physical residuals; earlier entries carry None, and classify(sol)
    gives them for any root. Suspicious jumps and ambiguous pairings are
    reported as warnings, never as errors. admissibility(model, contour)
    is evaluated once, at t = 1, and rescaled to each t; an inadmissible
    contour at the largest t raises AdmissibilityError carrying the report
    at that t. Each root carries its report at its t.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("empty t grid")
    if any(tb <= ta for ta, tb in zip(ts[:-1], ts[1:])):
        raise ValueError("t grid must be strictly increasing")
    if ts[0] < 0.0 or ts[-1] > 1.0:
        raise ValueError("t grid must lie in [0, 1]")
    # V0 and d once for the contour; each t only rescales V0 -> t^2 V0
    base = admissibility(model, contour)

    def report_at(t):
        return ensure_admissible(admissibility_at(
            base.variation, base.distance, t, variation_error=base.variation_error,
            variation_nodes=base.variation_nodes))

    report_at(ts[-1])
    tau = _real_band(model)
    side = contour.side

    out = []
    x_prev = np.zeros((model.n, model.n), dtype=np.complex128)
    known = [(0.0, x_prev)]
    eigs_prev = None
    lipschitz = 0.0
    t_prev = None
    for t in ts:
        rep = report_at(t)
        x0 = _extrapolate(known[-_START_POINTS:], t * t)
        if not _inside(x0, rep.r_max):
            x0 = x_prev * (t / t_prev) ** 2 if t_prev else x_prev
        sol = _picard(model, contour, rep, t, x0)
        x_prev = sol.x
        if t * t > known[-1][0]:
            known.append((t * t, sol.x))

        eigs = sol.eigensystem.values
        if eigs_prev is None:
            eigs = np.sort_complex(eigs)
        else:
            eigs = eigs[_pair(eigs_prev, eigs)]
            dt = t - t_prev
            jump = float(np.max(np.abs(eigs - eigs_prev)))
            if lipschitz > 0.0 and jump > 10.0 * dt * lipschitz:
                warnings.warn(
                    f"eigenvalue jump {jump:.3e} at t={t} exceeds continuity estimate",
                    RuntimeWarning,
                )
            if dt > 0:
                lipschitz = max(lipschitz, jump / dt)
            scale = 1.0 + float(np.max(np.abs(eigs)))
            sep = np.abs(eigs[None, :] - eigs[:, None])
            sep.ravel()[::eigs.size + 1] = 1e30
            if np.min(sep) < 1e-8 * scale:
                warnings.warn(f"ambiguous trajectory pairing at t={t}", RuntimeWarning)

        lams = eigs.tolist()
        labels = [_label_for(lam, side, tau) for lam in lams]
        resids = (_physical_residuals(sol, lams, labels) if t == ts[-1]
                  else [None] * len(lams))
        entries = tuple(ClassifiedEigenvalue(lam, 1, label, resid)
                        for lam, label, resid in zip(lams, labels, resids))
        out.append((t, sol, SpectrumClassification(entries)))

        eigs_prev = eigs
        t_prev = t
    return out


def conjugate_path(path: list) -> list:
    """The homotopy path of the opposite side of a real model, from path.

    path is a homotopy_path result on one side. For a real model
    (SpectralModel.is_real, read from each root's model) the root at each
    t on the mirrored contour is the conjugate of the root in path, and so
    is its classification (RootSolution.conjugate,
    SpectrumClassification.conjugate). Nothing is solved, paired or
    labelled again: trajectory k of the result is the conjugate of
    trajectory k of path.
    """
    if not all(sol.model.is_real for _, sol, _ in path):
        raise ValueError("a path is conjugated only for a real model")
    return [(t, sol.conjugate(), cls.conjugate()) for t, sol, cls in path]
