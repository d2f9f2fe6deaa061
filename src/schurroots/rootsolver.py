"""Fixed-point solver for the operator root, plus spectrum bookkeeping.

The root is the solution of X = t^2 W1(A1 + X, Gamma) for the side-l
contour Gamma; Z = A1 + X then carries the spectral points that moved off
the interval. Everything here is a contraction-mapping argument made
concrete: admissibility gives the ball, Picard iterates inside it.

K'(mu) = sum_s C_s mu^s is a polynomial, so W1(Z, Gamma) is the sum of
primary matrix functions sum_s C_s g_s(Z), with g_s the side-l moments of
schur._cut_moments. The Picard map evaluates that sum in closed form
(_PicardMap); by Cauchy's theorem it is the contour integral without its
quadrature error. The contour sum (transformator), on the contour's
analytic_rule, stays as the fallback of that map and as the independent
path verify checks the root against.

For a real model the roots of the two sides are complex conjugates, so
the opposite side's root, classification and homotopy path are one side's
conjugated, entry for entry and in the same order: no second Picard
iteration, classification or tracking step runs (RootSolution.conjugate,
SpectrumClassification.conjugate, conjugate_path).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import resolvent_sum
from .contour import (AdmissibilityReport, Contour, admissibility,
                      admissibility_at, analytic_rule, ensure_admissible)
from .errors import NumericsError
from .model import SpectralModel
from .schur import _cut_moments, m1_physical

_SPEC_GUARD = 1e-6

# Largest condition number of the eigenvector matrix V of Z for which the
# Picard map is evaluated in the eigenbasis; the error of that evaluation
# grows like cond(V) times the unit roundoff.
_COND_LIMIT = 1e2


def _require_clear_of_nodes(eigs: np.ndarray, nodes: np.ndarray) -> None:
    """Raise NumericsError when an eigenvalue in eigs comes within
    _SPEC_GUARD of a quadrature node, where the resolvent blows through
    the rule."""
    gap = np.min(np.abs(eigs[:, None] - nodes[None, :]))
    if gap <= _SPEC_GUARD:
        raise NumericsError(
            f"spectrum-on-contour violation: eigenvalue within {gap:.3e} of a node"
        )


@dataclass(frozen=True)
class RootSolution:
    side: int
    x: np.ndarray
    z_op: np.ndarray
    coupling_scale: float
    iterations: int
    final_step_norm: float
    r_min: float
    r_max: float
    residual: float
    # evaluations of the Picard map (steps and the residual check) that
    # took the contour-sum fallback of _PicardMap
    contour_fallbacks: int = 0

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.z_op)

    def conjugate(self) -> "RootSolution":
        """The root of the opposite side of a real model: X and Z
        conjugated, the side flipped and every scalar field kept.

        For a real model (SpectralModel.is_real) the Picard map of the
        mirrored contour is the conjugate of this side's map, so the same
        iteration from X = 0 runs through the conjugated iterates.
        """
        return replace(self, side=-self.side, x=np.conj(self.x),
                       z_op=np.conj(self.z_op))


@dataclass(frozen=True)
class ClassifiedEigenvalue:
    eigenvalue: complex
    multiplicity: int
    label: str  # real | resonance | physical-complex
    physical_residual: float | None = None
    ambiguous: bool = False


@dataclass(frozen=True)
class SpectrumClassification:
    entries: tuple

    def count(self, label: str) -> int:
        return sum(e.multiplicity for e in self.entries if e.label == label)

    def conjugate(self) -> "SpectrumClassification":
        """The classification of the conjugated root (RootSolution.conjugate)
        of a real model: each eigenvalue conjugated, in the same order, with
        its label, multiplicity, physical residual and ambiguity flag kept.

        Conjugation flips both the sign of Im(lam) and the side, so the
        label is unchanged, and the physical-sheet M1 at conj(lam) is the
        conjugate of M1 at lam, with the same singular values.
        """
        return SpectrumClassification(tuple(
            replace(e, eigenvalue=e.eigenvalue.conjugate()) for e in self.entries))


def transformator(model: SpectralModel, contour: Contour, zmat) -> np.ndarray:
    """W1(Z, Gamma) = -integral over Gamma of K'(mu) (Z - mu)^{-1} dmu,
    by the contour quadrature sum.

    The sum runs on analytic_rule(model, contour) sized by the spectrum of
    zmat, the integrand's only singularities. The Picard iteration evaluates
    the same map in closed form (_PicardMap) and comes here only as its
    fallback; verify uses this sum as the independent path of its
    root-contour row. The spectrum of zmat must stay clear of the rule's
    nodes (distance > 1e-6), otherwise the resolvent blows through the
    rule.
    """
    zmat = np.asarray(zmat, dtype=np.complex128)
    eigs = np.linalg.eigvals(zmat)
    rule = analytic_rule(model, contour, singular=eigs)
    _require_clear_of_nodes(eigs, rule.nodes)
    kvals = model.kprime_values(rule.nodes)
    return -resolvent_sum(kvals, rule.nodes, rule.weights, zmat)


class _PicardMap:
    """The map Z -> t^2 W1(Z, Gamma) of one side, as t^2 sum_s C_s g_s(Z).

    n = 1 evaluates the scalar moments at the one entry of Z. For n >= 2
    the moments are taken in the eigenbasis Z = V D V^{-1}, as
    (sum_s C_s V diag(g_s(D))) V^{-1}, applied by a solve. The closed form
    is the contour integral only where the side-l moments are (see
    schur._cut_moments), so a step falls back to the contour sum
    (transformator of the t-scaled model over the side's own contour) when
    an eigenvalue of Z lies elsewhere (outside the lens on side l, or on
    the real axis off the interval) or when cond(V) > _COND_LIMIT.
    fallbacks counts those steps. The closed form has no quadrature nodes
    to avoid; the fallback's contour sum refuses a spectrum within
    _SPEC_GUARD of the nodes of the rule it uses.
    """

    def __init__(self, model: SpectralModel, contour: Contour, t: float):
        self.model = model
        self.contour = contour
        self.t = t
        self.coeffs = model.kprime.coefficients * (t * t)
        self.fallbacks = 0

    def _covered(self, eigs: np.ndarray) -> bool:
        # where the side-l moments equal the contour integral
        contour = self.contour
        a, b = contour.endpoints
        x, y = eigs.real, eigs.imag
        return bool(np.all((contour.side * y < 0.0)
                           | ((y == 0.0) & (a < x) & (x < b))
                           | contour.contains_in_lens(eigs)))

    def __call__(self, zmat: np.ndarray) -> np.ndarray:
        if zmat.shape[0] == 1:
            eigs, vecs = zmat[0], None
        else:
            eigs, vecs = np.linalg.eig(zmat)
        if self._covered(eigs):
            a, b = self.contour.endpoints
            moments = _cut_moments(a, b, eigs, self.coeffs.shape[0] - 1,
                                   self.contour.side)
            if vecs is None:
                return np.einsum("s,sij->ij", moments[0], self.coeffs)
            if np.linalg.cond(vecs) <= _COND_LIMIT:
                scaled = np.einsum("sij,jk,ks->ik", self.coeffs, vecs, moments)
                return np.linalg.solve(vecs.T, scaled.T).T
        self.fallbacks += 1
        return transformator(self.model.scaled(self.t), self.contour, zmat)


# Relative widening of the Frobenius bounds ||M||_F / sqrt(n) <= ||M||_2 <=
# ||M||_F of _picard's tests; for n = 1 and rank-1 matrices the bounds are
# equalities, which rounding could otherwise flip.
_NORM_SLACK = 1.0 + 1e-12


def _norm_bounds(mat: np.ndarray) -> tuple:
    """Lower and upper bounds on the spectral norm of the square mat, from
    its Frobenius norm widened by _NORM_SLACK."""
    fro = float(np.linalg.norm(mat))
    return fro / (np.sqrt(mat.shape[0]) * _NORM_SLACK), fro * _NORM_SLACK


def _picard(model: SpectralModel, contour: Contour, rep: AdmissibilityReport,
            t: float, tol: float, max_iter: int, x0: np.ndarray) -> RootSolution:
    """Picard iteration from x0; rep is the admissible report of contour at
    coupling t and supplies the r_min / r_max containment checks.

    The escape test ||X|| > r_max and the stop test ||X_{k+1} - X_k|| <=
    tol * max(1, ||X||) are on spectral norms, decided from _norm_bounds;
    an SVD is taken only where the bounds leave a test open, and once at
    the end for the reported step and ||X||.
    """
    step_map = _PicardMap(model, contour, t)
    a1 = model.a1.astype(np.complex128)
    escape = rep.r_max + 1e-9

    x = np.asarray(x0, dtype=np.complex128).copy()
    diff = None
    for it in range(1, max_iter + 1):
        xn = step_map(a1 + x)
        diff = xn - x
        x = xn
        x_lo, x_hi = _norm_bounds(x)
        if not x_hi <= escape:
            # undecided, escaped or NaN: the spectral norm decides
            x_lo = x_hi = float(np.linalg.norm(x, 2))
            if x_hi > escape:
                raise NumericsError(
                    f"iterate escaped the r_max ball ({x_hi:.6g} > {rep.r_max:.6g})"
                )
        step_lo, step_hi = _norm_bounds(diff)
        if not (step_hi <= tol * max(1.0, x_lo) or step_lo > tol * max(1.0, x_hi)):
            x_lo = x_hi = float(np.linalg.norm(x, 2))
            step_lo = step_hi = float(np.linalg.norm(diff, 2))
        if step_hi <= tol * max(1.0, x_lo):
            break
    else:
        step = np.inf if diff is None else float(np.linalg.norm(diff, 2))
        raise NumericsError(f"no convergence in {max_iter} iterations (step {step:.3e})")
    step = float(np.linalg.norm(diff, 2))
    norm_x = float(np.linalg.norm(x, 2))

    # residual confirmation at the converged point, through the same map
    residual = float(np.linalg.norm(x - step_map(a1 + x), 2))
    if residual > max(2.0 * tol, 1e-13) * max(1.0, norm_x):
        raise NumericsError(f"fixed-point residual {residual:.3e} above tolerance")
    if norm_x > rep.r_min + 1e-9:
        raise NumericsError(
            f"solution left the r_min ball ({norm_x:.6g} > {rep.r_min:.6g})"
        )
    return RootSolution(contour.side, x, a1 + x, float(t), it, step,
                        rep.r_min, rep.r_max, residual, step_map.fallbacks)


def solve_basic(model: SpectralModel, contour: Contour, t: float = 1.0,
                tol: float = 1e-12, max_iter: int = 500, *,
                report: AdmissibilityReport | None = None) -> RootSolution:
    """Solve X = t^2 W1(A1 + X, Gamma) by Picard iteration from X = 0.

    Each step evaluates W1 in closed form as sum_s C_s g_s(Z) (see
    _PicardMap), falling back to the contour sum over Gamma only where
    that form does not apply; RootSolution.contour_fallbacks counts those
    steps. Requires admissibility at coupling scale t. Convergence is
    geometric; the result is confirmed by a residual evaluation of the
    same map and the containment ||X|| <= r_min. A caller that already
    holds admissibility(model, contour, t) passes it as report, so V0 is
    not evaluated again.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"coupling scale t={t} outside [0, 1]")
    if report is None:
        report = admissibility(model, contour, t)
    x0 = np.zeros((model.n, model.n), dtype=np.complex128)
    return _picard(model, contour, ensure_admissible(report), float(t),
                   tol, max_iter, x0)


def _label_for(lam: complex, side: int, tau: float) -> str:
    if abs(lam.imag) <= tau:
        return "real"
    return "resonance" if (lam.imag > 0) == (side > 0) else "physical-complex"


def _physical_residuals(model: SpectralModel, t: float, lams, labels) -> list:
    """Per eigenvalue, the smallest singular value of the physical-sheet
    M1(lam) when labelled physical-complex, else None; all of them from
    one batched M1 evaluation and one batched SVD."""
    hits = [k for k, label in enumerate(labels) if label == "physical-complex"]
    out = [None] * len(lams)
    if hits:
        mats = m1_physical(model.scaled(t), np.array([lams[k] for k in hits]))
        for k, sval in zip(hits, np.linalg.svd(mats, compute_uv=False)[:, -1]):
            out[k] = float(sval)
    return out


def classify(model: SpectralModel, contour: Contour, sol: RootSolution,
             tau_real: float | None = None,
             cluster_radius: float | None = None) -> SpectrumClassification:
    """Label the spectrum of Z: real band, resonance side, physical side.

    Eigenvalues within the clustering radius are grouped into one entry
    with the corresponding multiplicity. Each physical-complex entry
    records the smallest singular value of the physical-sheet Schur
    complement at the eigenvalue; genuine eigenvalues make it vanish.
    """
    if sol.side != contour.side:
        raise ValueError("solution and contour sides disagree")
    a_norm = float(np.linalg.norm(model.a1, 2))
    tau = tau_real if tau_real is not None else 1e-8 * (1.0 + a_norm)
    eigs = np.sort_complex(np.linalg.eigvals(sol.z_op))
    scale = 1.0 + float(np.max(np.abs(eigs)))
    radius = cluster_radius if cluster_radius is not None else 1e-8 * scale

    clusters: list[list[complex]] = []
    for lam in eigs:
        if clusters and abs(lam - np.mean(clusters[-1])) <= radius:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])

    lams = [complex(np.mean(group)) for group in clusters]
    labels = [_label_for(lam, contour.side, tau) for lam in lams]
    resids = _physical_residuals(model, sol.coupling_scale, lams, labels)
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


def homotopy_path(model: SpectralModel, contour: Contour, t_grid,
                  tol: float = 1e-12, max_iter: int = 500,
                  tau_real: float | None = None, *,
                  report: AdmissibilityReport | None = None) -> list:
    """Track the root along the coupling homotopy t in t_grid.

    Each solve warm-starts from the previous X scaled by (t / t_prev)^2,
    the leading order of its growth in t. Returned entries are
    (t, RootSolution, SpectrumClassification) with classification entries
    in trajectory order: entry i at each t continues entry i at the
    previous t (matched by global nearest-neighbor assignment, no
    multiplicity grouping). Suspicious jumps and ambiguous pairings are
    reported as warnings, never as errors. A caller that already holds
    admissibility(model, contour) at t = 1 passes it as report, so V0 is
    not evaluated again; each t rescales it.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("empty t grid")
    if any(tb <= ta for ta, tb in zip(ts[:-1], ts[1:])):
        raise ValueError("t grid must be strictly increasing")
    if ts[0] < 0.0 or ts[-1] > 1.0:
        raise ValueError("t grid must lie in [0, 1]")
    # V0 and d once for the contour; each t only rescales V0 -> t^2 V0
    base = admissibility(model, contour) if report is None else report
    ensure_admissible(admissibility_at(base.variation, base.distance, ts[-1]))
    a_norm = float(np.linalg.norm(model.a1, 2))
    tau = tau_real if tau_real is not None else 1e-8 * (1.0 + a_norm)

    out = []
    x_prev = np.zeros((model.n, model.n), dtype=np.complex128)
    eigs_prev = None
    lipschitz = 0.0
    t_prev = None
    for t in ts:
        rep = ensure_admissible(admissibility_at(base.variation, base.distance, t))
        x0 = x_prev * (t / t_prev) ** 2 if t_prev else x_prev
        sol = _picard(model, contour, rep, t, tol, max_iter, x0)
        x_prev = sol.x

        eigs = np.linalg.eigvals(sol.z_op)
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
        sep = np.abs(eigs[None, :] - eigs[:, None]) + np.eye(eigs.size) * 1e30
        ambiguous_mask = np.min(sep, axis=1) < 1e-8 * scale
        if np.any(ambiguous_mask) and eigs_prev is not None:
            warnings.warn(f"ambiguous trajectory pairing at t={t}", RuntimeWarning)

        lams = [complex(lam) for lam in eigs]
        labels = [_label_for(lam, sol.side, tau) for lam in lams]
        resids = _physical_residuals(model, t, lams, labels)
        entries = tuple(ClassifiedEigenvalue(lam, 1, label, resid, bool(amb))
                        for lam, label, resid, amb
                        in zip(lams, labels, resids, ambiguous_mask))
        out.append((t, sol, SpectrumClassification(entries)))

        eigs_prev = eigs
        t_prev = t
    return out


def conjugate_path(model: SpectralModel, path: list) -> list:
    """The homotopy path of the opposite side of a real model, from path.

    path is a homotopy_path result on one side. For a real model
    (SpectralModel.is_real) the root at each t on the mirrored contour is
    the conjugate of the root in path, and so is its classification
    (RootSolution.conjugate, SpectrumClassification.conjugate). Nothing
    is solved, paired or labelled again: trajectory k of the result is
    the conjugate of trajectory k of path.
    """
    if not model.is_real:
        raise ValueError("a path is conjugated only for a real model")
    return [(t, sol.conjugate(), cls.conjugate()) for t, sol, cls in path]
