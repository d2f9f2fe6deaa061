"""Command-line front door: solve, verify, sweep, friedrichs.

solve, verify and sweep consume a JSON RunConfig and emit a JSON report
(plus CSV for sweep); friedrichs takes --alpha and --b only, since its
closed forms hold for a1 = 0, and prints the scalar oracle. Exit codes:
0 success, 2 inadmissible input, 3 numerical failure, 4 config error.

solve, verify and sweep share one prologue (_prologue): the model, one
contour per side and the base report. Each root decides and carries its
own admissibility (solve_basic, homotopy_path); the report's block is a
solved root's, or that of the root that raised AdmissibilityError
(_solve_sides). The objects of the construction come as a +-l pair (one
contour, root Z, angular operator Y and Omega per side). For a real
model (SpectralModel.is_real) the pair is conjugate: Z(-l) = conj Z(l).
So when both sides are requested, the second side's contour is the
mirror of the first's, and solve and sweep take its root, classification
and path as the conjugate of the first side's, in the first side's order
(provenance.derived_sides). verify solves both roots, each on its own
report, and checks each identity once per side, which makes it the
independent check of that symmetry: a row is a function of one side, and
the row's residual is the largest of its per-side values (_worst). Each
side's Omega is computed once; the omega-adjoint row reads Omega(-l),
Omega(l)^*.
"""

import argparse
import functools
import sys
import time

import numpy as np

from . import friedrichs as fr
from ._kernels import backend_name
from .config import RunConfig, build_model_from_config
from .contour import make_contour, optimize_r0
from .errors import (AdmissibilityError, ConfigError, ModelError,
                     NumericsError, SchurRootsError)
from .model import density_margin
from .report import (admissibility_block, atomic_write, config_sha256,
                     identity_row, render_report, riccati_block, sanitize,
                     solution_block, write_csv)
from .riccati import (check_ZAY, check_one_in_spectrum, compute_Omega,
                      compute_Y, factor_F1, j_orthogonality, omega_by_deformation,
                      rational_trials, reconstruct_from_contour, riccati_residual,
                      ysn_integral)
from .rootsolver import (RootSolution, classify, conjugate_path, homotopy_path,
                         solve_basic, transformator)
from .schur import m1_continued_many, sheets_value, w1_physical

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_NUMERICS = 3
EXIT_CONFIG = 4

# The failures an identity row (or a per-side value it reads) turns into a
# failed row with a note instead of aborting verify; np.linalg.LinAlgError
# is a ValueError.
_ROW_ERRORS = (SchurRootsError, ValueError)


def _prologue(command, cfg, sides) -> tuple:
    """The shared start of solve, verify and sweep.

    Builds the model, one contour per side and the base report, whose
    admissibility block the command fills from a solved root. When the
    model is real and both sides are requested, the second side is derived
    from the first: its contour is the mirror image. Returns (model,
    contours, report, derived), derived mapping the derived side (if any)
    to its source.
    """
    model = build_model_from_config(cfg)
    derived = {sides[1]: sides[0]} if len(sides) == 2 and model.is_real else {}
    contours = {}
    for side in sides:
        contours[side] = (contours[derived[side]].mirror() if side in derived
                          else make_contour(model, side, cfg.contour_kind,
                                            cfg.depth, cfg.nodes_per_unit))
    report = {
        "command": command,
        "status": "ok",
        "feshbach": model.feshbach,
        "sides": list(contours),
        "identities": [],
        "provenance": {
            "config_sha256": config_sha256(cfg),
            "kernel_backend": backend_name(),
            "node_counts": {str(s): c.num_nodes for s, c in contours.items()},
        },
    }
    return model, contours, report, derived


def _solve_sides(report, contours, derived, solve, conjugate) -> dict | None:
    """solve(contour) per side, or conjugate(source side's result) for a
    derived side, keyed by side; None when a solver raised
    AdmissibilityError, whose report then fills the inadmissible report."""
    out = {}
    try:
        for side, contour in contours.items():
            out[side] = (conjugate(out[derived[side]]) if side in derived
                         else solve(contour))
    except AdmissibilityError as exc:
        report["status"] = "inadmissible"
        report["admissibility"] = admissibility_block(exc.report)
        return None
    return out


def _r0(cfg, model, root) -> float:
    """r0_upper_bound for the report, from a root of the configured contour.

    The semicircle family has one member, the root's contour, so r0 is the
    r_min of the root's report. For rectangles optimize_r0 searches the
    depths (0.5 depth, min(2 depth, hi - lo)), unless 0.5 depth >= hi - lo
    leaves the configured rectangle as the one member, as for semicircles.
    """
    lo, hi = model.interval
    if cfg.contour_kind == "semicircle" or 0.5 * cfg.depth >= hi - lo:
        return root.report.r_min
    family = ("rectangle", (0.5 * cfg.depth, min(2.0 * cfg.depth, hi - lo)))
    _, r0 = optimize_r0(model, root.side, family, nodes_per_unit=cfg.nodes_per_unit,
                        coupling_scale=cfg.coupling_scale)
    return r0


def _derived_sides(derived) -> dict:
    """The provenance.derived_sides block of solve and sweep."""
    return {f"{side:+d}": f"conjugate of {source:+d}"
            for side, source in derived.items()}


def _finish(report, start) -> dict:
    report["provenance"]["wall_time_s"] = time.perf_counter() - start
    return sanitize(report)


def cmd_solve(cfg: RunConfig) -> dict:
    start = time.perf_counter()
    model, contours, report, derived = _prologue("solve", cfg, cfg.sides)
    report["provenance"]["derived_sides"] = _derived_sides(derived)
    sols = _solve_sides(report, contours, derived, functools.partial(
        solve_basic, model, t=cfg.coupling_scale, tol=cfg.tol,
        max_iter=cfg.max_iter), RootSolution.conjugate)
    if sols is None:
        return _finish(report, start)
    first = sols[cfg.sides[0]]
    report["admissibility"] = {**admissibility_block(first.report),
                               "r0_upper_bound": _r0(cfg, model, first)}

    report["solutions"] = {}
    clss = {}
    for side, sol in sols.items():
        clss[side] = (clss[derived[side]].conjugate() if side in derived
                      else classify(sol))
        report["solutions"][f"{side:+d}"] = solution_block(sol, clss[side])
    return _finish(report, start)


def _lens_points(rng, contour, count) -> np.ndarray:
    """count points inside the contour's lens, each coordinate drawn in
    one call."""
    a, b = contour.endpoints
    c = 0.5 * (a + b)
    x = c + rng.uniform(-0.7, 0.7, size=count) * (0.5 * (b - a))
    if contour.kind == "semicircle":
        height = np.sqrt(np.maximum(contour.depth ** 2 - (x - c) ** 2, 0.0))
    else:
        height = contour.depth
    v = rng.uniform(0.15, 0.75, size=count)
    return x + 1j * (contour.side * v * height)


def _near_sigma_points(rng, model, d, count) -> np.ndarray:
    """count points in the annuli 0.05 d .. 0.45 d around sigma1, each
    coordinate drawn in one call."""
    lam = rng.choice(model.sigma1, size=count)
    r = rng.uniform(0.05, 0.45, size=count) * d
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return lam + r * np.exp(1j * phi)


def _worst_relative_gap(ref, other) -> float:
    """max over points of ||ref - other|| / (1 + ||ref||) for (P, r, c)
    stacks, spectral norms taken in one batched call."""
    norms = np.linalg.norm(np.stack([ref - other, ref]), 2, axis=(-2, -1))
    return float(np.max(norms[0] / (1.0 + norms[1])))


def _relative_gap(gap, ref) -> float:
    """||gap|| / (1 + ||ref||) in the spectral norm."""
    return float(np.linalg.norm(gap, 2)) / (1.0 + float(np.linalg.norm(ref, 2)))


# The offsets eps of _boundary_limit: three halvings from 1e-5.
_BOUNDARY_EPS = 1e-5 * 0.5 ** np.arange(3)


def _boundary_limit(model, lams, approach) -> np.ndarray:
    """W1(lam + i*approach*0) at each point of lams, (P, n, n), as the
    Richardson limit of the closed-form W1(lam + i*approach*eps) over
    _BOUNDARY_EPS.

    W1 continues analytically across the interval from either half-plane,
    so W1(lam + i*approach*eps) is a power series in eps; two Richardson
    steps remove its eps and eps^2 terms. The limit is taken from values
    off the cut only, so it is independent of the principal value and of
    the jump K'(lam) that w1_boundary adds to it.
    """
    zs = lams[None, :] + 1j * approach * _BOUNDARY_EPS[:, None]
    vals = w1_physical(model, zs.ravel()).reshape(zs.shape + (model.n, model.n))
    for j in (1, 2):
        vals = (2 ** j * vals[1:] - vals[:-1]) / (2 ** j - 1)
    return vals[0]


def _worst(per_side, sides) -> float:
    """The largest per_side(side) over sides, 0.0 when there is no side.

    The sides are evaluated in the order given (+1 before -1), which fixes
    the order in which the rows draw their sample points from the shared
    rng. A NaN value makes the result NaN, so the row fails.
    """
    values = [float(per_side(side)) for side in sides]
    return float(np.max(values)) if values else 0.0


def _identity_table(cfg, model, roots, rng) -> tuple:
    """Build the identity rows plus per-side Riccati data and
    classifications.

    roots maps each side to its root of model at the configured coupling,
    which carries its t-scaled model, contour and admissibility report;
    every per-side row reads them from its root, and the side-free rows
    that need the t-scaled coupling read roots[1].model. Returns (rows,
    rics, clss), the last two keyed by side.
    """
    sm = roots[1].model
    sides = (1, -1)
    rics, clss = {}, {}
    for side in sides:
        clss[side] = classify(roots[side])
        rics[side] = compute_Y(roots[side])

    # computed on first use, once per side. A failure is not cached: each
    # row that reads the value raises it again and fails with its message
    # as the row's note
    @functools.cache
    def omega(side):
        return compute_Omega(roots[side], roots[-side])

    @functools.cache
    def recon(side):
        return reconstruct_from_contour(roots[side])

    rows = []

    def add_row(name, tolerance, compute):
        try:
            resid = float(compute())
        except _ROW_ERRORS as exc:
            rows.append({**identity_row(name, float("inf"), tolerance),
                         "note": str(exc)})
        else:
            rows.append(identity_row(name, resid, tolerance))

    def over_sides(per_side, row_sides=sides):
        return lambda: _worst(per_side, row_sides)

    def sheets(side):
        contour = roots[side].contour
        pts = _lens_points(rng, contour, cfg.lens_points)
        mc = m1_continued_many(sm, contour, pts)
        sv = sheets_value(sm, pts, side, contour)
        return _worst_relative_gap(mc, sv)

    add_row("sheets-crosspath", 1e-9, over_sides(sheets))

    d = roots[1].report.distance

    def factorization(side):
        sol = roots[side]
        zs = _near_sigma_points(rng, model, d, cfg.factor_points)
        f1 = factor_F1(sol, zs)
        mc = m1_continued_many(sol.model, sol.contour, zs)
        prod = f1 @ (sol.z_op - zs[:, None, None] * np.eye(model.n))
        return _worst_relative_gap(mc, prod)

    add_row("factorization", 1e-9, over_sides(factorization))

    def conditioning(side):
        zs = _near_sigma_points(rng, model, d, cfg.factor_points)
        return np.max(np.linalg.cond(factor_F1(roots[side], zs)))

    add_row("factor-conditioning", 1e8, over_sides(conditioning))

    def omega_bound(side):
        om = omega(side)
        return om.norm - om.bound

    add_row("omega-bound", 0.0, over_sides(omega_bound))

    def omega_adjoint(side):
        # the adjoint relation that pairs the two sides: Omega(-l) = Omega(l)^*
        om = omega(side)
        gap = omega(-side).omega - np.conj(om.omega.T)
        return float(np.linalg.norm(gap, 2)) / (1.0 + om.norm)

    add_row("omega-adjoint", 1e-10, over_sides(omega_adjoint))

    def omega_two_path(side):
        om = omega(side)
        alt = omega_by_deformation(roots[side], roots[-side])
        return float(np.linalg.norm(alt - om.omega, 2)) / (1.0 + om.norm)

    add_row("omega-two-path", 1e-9, over_sides(omega_two_path))

    def projection(side):
        h0 = recon(side)[0]
        target = np.linalg.inv(np.eye(model.n) - omega(side).omega)
        return _relative_gap(h0 - target, h0)

    add_row("projection-inverse", 1e-8, over_sides(projection))

    def similarity(side):
        inv = np.linalg.inv(np.eye(model.n) - omega(side).omega)
        zmh = np.conj(roots[-side].z_op.T)
        z = roots[side].z_op
        return _relative_gap(inv @ zmh - z @ inv, z)

    add_row("moment-similarity", 1e-9, over_sides(similarity))

    def reconstruction(side):
        z = roots[side].z_op
        return _relative_gap(recon(side)[2] - z, z)

    add_row("root-reconstruction", 1e-8, over_sides(reconstruction))

    def root_contour(side):
        # the closed-form root against the contour sum over Gamma
        sol = roots[side]
        summed = transformator(sol.model, sol.contour, sol.z_op,
                               sol.eigensystem.values)
        return _relative_gap(sol.x - summed, sol.x)

    add_row("root-contour", 1e-10, over_sides(root_contour))

    a_scale = 1.0 + float(np.linalg.norm(model.a1, 2))
    add_row("root-equation", 1e-8, over_sides(
        lambda s: check_ZAY(rics[s]) / a_scale))

    lo, hi = model.interval
    margin = 0.01 * (hi - lo)
    samples = rng.uniform(lo + margin, hi - margin, size=cfg.riccati_samples)
    b_scale = 1.0 + max(
        float(np.max(np.linalg.norm(sm.b(samples), axis=(1, 2)))), 0.0)

    add_row("riccati-pointwise", 1e-8, over_sides(
        lambda s: riccati_residual(rics[s], samples) / b_scale))
    add_row("riccati-adjoint", 1e-8, over_sides(
        lambda s: riccati_residual(rics[s], samples, adjoint=True) / b_scale))

    def jorth(side):
        trials = rational_trials(rics[side], cfg.trial_count, cfg.seed)
        return j_orthogonality(rics[side], trials) / (1.0 + rics[side].y_norm)

    add_row("j-orthogonality", 1e-10, over_sides(jorth))

    # The margin rows report a signed margin: the largest of their per-side
    # (or per-eigenvalue) values, negative when every one has room left.
    # y-norm-floor applies only to the sides with a non-real eigenvalue.
    nonreal = [side for side in sides
               if any(e.label != "real" for e in clss[side].entries)]
    add_row("y-norm-floor", 1e-8, over_sides(lambda s: 1.0 - rics[s].y_norm, nonreal))
    add_row("y-norm-ceiling", 1e-8, over_sides(
        lambda s: rics[s].y_norm ** 2 - ysn_integral(rics[s])))

    def localization(side):
        sol = roots[side]
        return max(float(np.min(np.abs(lam - model.sigma1))) - sol.report.r_min
                   for lam in sol.eigensystem.values)

    add_row("localization", 1e-9, over_sides(localization))

    def boundary_imag():
        # side-free: both boundary approaches share one set of points
        pts = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo),
                          size=cfg.boundary_points)
        kps = sm.kprime_values(pts)
        gaps = []
        for approach in (1, -1):
            w = _boundary_limit(sm, pts, approach)
            im_part = (w - np.conj(np.swapaxes(w, 1, 2))) / 2j
            gaps.append(im_part - approach * np.pi * kps)
        norms = np.linalg.norm(np.stack(gaps + [kps]), 2, axis=(-2, -1))
        return float(np.max(norms[:2] / (1.0 + norms[2])))

    add_row("boundary-imag", 1e-10, boundary_imag)

    # side-free and rng-free: K' against b^* b, Hermitian and PSD on the
    # axis, as a signed margin
    add_row("density", 0.0, lambda: density_margin(model))

    return rows, rics, clss


def cmd_verify(cfg: RunConfig) -> dict:
    start = time.perf_counter()
    model, contours, report, _ = _prologue("verify", cfg, (1, -1))
    roots = _solve_sides(report, contours, {}, functools.partial(
        solve_basic, model, t=cfg.coupling_scale, tol=cfg.tol,
        max_iter=cfg.max_iter), None)
    if roots is None:
        return _finish(report, start)
    report["admissibility"] = {**admissibility_block(roots[1].report),
                               "r0_upper_bound": _r0(cfg, model, roots[1])}

    rng = np.random.default_rng(cfg.seed)
    rows, rics, clss = _identity_table(cfg, model, roots, rng)
    report["identities"] = rows
    report["solutions"] = {}
    report["riccati"] = {}
    for side in (1, -1):
        key = f"{side:+d}"
        report["solutions"][key] = solution_block(roots[side], clss[side])
        report["riccati"][key] = riccati_block(
            rics[side], check_one_in_spectrum(rics[side]))
    report["all_identities_pass"] = all(r["passed"] for r in rows)
    return _finish(report, start)


def cmd_sweep(cfg: RunConfig) -> tuple:
    start = time.perf_counter()
    if not cfg.t_grid:
        raise ConfigError("sweep requires a nonempty t_grid")
    model, contours, report, derived = _prologue("sweep", cfg, cfg.sides)
    report["provenance"]["derived_sides"] = _derived_sides(derived)
    paths = _solve_sides(report, contours, derived, functools.partial(
        homotopy_path, model, t_grid=cfg.t_grid, tol=cfg.tol,
        max_iter=cfg.max_iter), conjugate_path)
    if paths is None:
        return _finish(report, start), []
    # the first side's root at the largest t, the last of the grid
    report["admissibility"] = admissibility_block(paths[cfg.sides[0]][-1][1].report)

    rows = []
    offset = 0
    report["solutions"] = {}
    for side, path in paths.items():
        for t, _, cls in path:
            for i, entry in enumerate(cls.entries):
                rows.append((t, offset + i, entry.eigenvalue.real,
                             entry.eigenvalue.imag, entry.label))
        _, sol_end, cls_end = path[-1]
        report["solutions"][f"{side:+d}"] = solution_block(sol_end, cls_end)
        offset += model.n
    report["rows"] = len(rows)
    return _finish(report, start), rows


def cmd_friedrichs(alpha: float, b: float) -> str:
    params = fr.FriedrichsParams(alpha, 0.0, b)
    z_plus, z_minus, y_norm, _ = fr.oracle_solution(params)
    y = z_minus.imag
    norm_resid = float(abs(1.0 - b * b * (2.0 / y) * np.arctan(alpha / y)))
    lines = [
        f"alpha = {alpha!r}",
        f"a1 = {params.a1!r}",
        f"b = {b!r} (b^2 = {b * b!r})",
        f"y = {y!r}",
        f"z_plus = {z_plus!r}",
        f"z_minus = {z_minus!r}",
        f"y_norm = {y_norm!r}",
        f"normalization_residual = {norm_resid!r}",
        f"m1_residual_plus = {abs(fr.closed_m1(params, z_plus))!r}",
        f"m1_residual_minus = {abs(fr.closed_m1(params, z_minus))!r}",
        f"winding_upper = {fr.winding_count(params, 1)}",
        f"winding_lower = {fr.winding_count(params, -1)}",
    ]
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state
    between calls, each returns a fresh namespace."""
    p = _Parser(prog="schurroots",
                description="Operator roots of an analytically continued "
                            "Schur complement: solve, verify, sweep.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve both operator roots and classify")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", help="report path (default: config output.report or stdout)")

    pv = sub.add_parser("verify", help="run the full identity table")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out")

    pw = sub.add_parser("sweep", help="coupling homotopy, CSV trajectories")
    pw.add_argument("--config", required=True)
    pw.add_argument("--out-csv")
    pw.add_argument("--out")

    pf = sub.add_parser("friedrichs", help="closed-form scalar oracle summary")
    pf.add_argument("--alpha", required=True, type=float)
    pf.add_argument("--b", required=True, type=float)
    return p


def _emit(report: dict, out_path) -> None:
    text = render_report(report)
    if out_path:
        atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "friedrichs":
            sys.stdout.write(cmd_friedrichs(args.alpha, args.b))
            return EXIT_OK

        cfg = RunConfig.from_file(args.config)
        if args.command == "solve":
            report = cmd_solve(cfg)
            _emit(report, args.out or cfg.report_path)
        elif args.command == "verify":
            report = cmd_verify(cfg)
            _emit(report, args.out or cfg.report_path)
        else:
            csv_path = args.out_csv or cfg.csv_path
            if not csv_path:
                raise ConfigError("sweep needs --out-csv or output.csv in the config")
            report, rows = cmd_sweep(cfg)
            if report["status"] == "ok":
                write_csv(csv_path, rows)
            _emit(report, args.out or cfg.report_path)
        if report["status"] == "inadmissible":
            return EXIT_INADMISSIBLE
        if report.get("identities") and not report.get("all_identities_pass", True):
            return EXIT_NUMERICS
        return EXIT_OK
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdmissibilityError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
