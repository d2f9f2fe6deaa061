"""Command-line front door: solve, verify, sweep, friedrichs.

All workflows consume a JSON RunConfig and emit a JSON report (plus CSV
for sweep). Exit codes: 0 success, 2 inadmissible input, 3 numerical
failure, 4 config error.
"""

import argparse
import dataclasses
import sys
import time

import numpy as np

from . import friedrichs as fr
from ._kernels import backend_name
from .config import RunConfig, build_model_from_config
from .contour import admissibility, make_contour, optimize_r0
from .errors import (AdmissibilityError, ConfigError, ModelError,
                     NumericsError, SchurRootsError)
from .report import (admissibility_block, atomic_write, config_sha256,
                     identity_row, render_report, riccati_block, sanitize,
                     solution_block, write_csv)
from .riccati import (check_ZAY, check_one_in_spectrum, compute_Omega,
                      compute_Y, factor_F1, j_orthogonality, omega_by_deformation,
                      rational_trials, reconstruct_from_contour, riccati_residual,
                      ysn_integral)
from .rootsolver import classify, homotopy_path, solve_basic
from .schur import m1_continued_many, sheets_value, w1_boundary

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_NUMERICS = 3
EXIT_CONFIG = 4


def _contours(model, cfg, sides):
    return {
        side: make_contour(model, side, cfg.contour_kind, cfg.depth,
                           cfg.nodes_per_unit)
        for side in sides
    }


def _r0(cfg, model, side, rep) -> float:
    """r0_upper_bound for the report, given rep for the side's contour.

    The semicircle family has one member, the contour rep was computed on,
    so r0 is its r_min. For rectangles optimize_r0 searches the depth.
    """
    if cfg.contour_kind == "semicircle":
        return rep.r_min
    lo, hi = model.interval
    family = ("rectangle", (0.5 * cfg.depth, min(2.0 * cfg.depth, hi - lo)))
    _, r0 = optimize_r0(model, side, family, nodes_per_unit=cfg.nodes_per_unit,
                        coupling_scale=cfg.coupling_scale)
    return r0


def _base_report(command, cfg, model, contours):
    return {
        "command": command,
        "status": "ok",
        "feshbach": model.feshbach,
        "sides": list(contours.keys()),
        "identities": [],
        "provenance": {
            "config_sha256": config_sha256(cfg),
            "kernel_backend": backend_name(),
            "node_counts": {str(s): c.num_nodes for s, c in contours.items()},
        },
    }


def _finish(report, start) -> dict:
    report["provenance"]["wall_time_s"] = time.perf_counter() - start
    return sanitize(report)


def cmd_solve(cfg: RunConfig) -> dict:
    start = time.perf_counter()
    model = build_model_from_config(cfg)
    contours = _contours(model, cfg, cfg.sides)
    report = _base_report("solve", cfg, model, contours)

    reps = {side: admissibility(model, contour, cfg.coupling_scale)
            for side, contour in contours.items()}
    first = cfg.sides[0]
    rep = reps[first]
    if not rep.admissible:
        report["status"] = "inadmissible"
        report["admissibility"] = admissibility_block(rep)
        return _finish(report, start)
    report["admissibility"] = admissibility_block(rep, r0=_r0(cfg, model, first, rep))

    report["solutions"] = {}
    for side, contour in contours.items():
        sol = solve_basic(model, contour, cfg.coupling_scale, cfg.tol, cfg.max_iter,
                          report=reps[side])
        cls = classify(model, contour, sol, cfg.tau_real)
        report["solutions"][f"{side:+d}"] = solution_block(sol, cls)
    return _finish(report, start)


def _corrupt(sol, amount: float):
    if amount == 0.0:
        return sol
    n = sol.z_op.shape[0]
    shift = amount * np.eye(n)
    return dataclasses.replace(sol, x=sol.x + shift, z_op=sol.z_op + shift)


def _lens_points(rng, contour, count):
    a, b = contour.endpoints
    c = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = []
    for _ in range(count):
        u = rng.uniform(-0.7, 0.7)
        x = c + u * half
        if contour.kind == "semicircle":
            height = float(np.sqrt(max(contour.depth ** 2 - (x - c) ** 2, 0.0)))
        else:
            height = contour.depth
        v = rng.uniform(0.15, 0.75)
        pts.append(complex(x, contour.side * v * height))
    return pts


def _near_sigma_points(rng, model, d, count):
    pts = []
    for _ in range(count):
        lam = float(rng.choice(model.sigma1))
        r = rng.uniform(0.05, 0.45) * d
        phi = rng.uniform(0.0, 2.0 * np.pi)
        pts.append(lam + r * np.exp(1j * phi))
    return pts


def _worst_relative_gap(ref, other) -> float:
    """max over points of ||ref - other|| / (1 + ||ref||) for (P, r, c)
    stacks, spectral norms taken in one batched call."""
    norms = np.linalg.norm(np.stack([ref - other, ref]), 2, axis=(-2, -1))
    return float(np.max(norms[0] / (1.0 + norms[1])))


def _identity_table(cfg, model, contours, rng, reps) -> tuple:
    """Build the identity rows plus per-side solution and Riccati blocks.

    reps maps each side to its admissibility report at the configured
    coupling.
    """
    t = cfg.coupling_scale
    sm = model.scaled(t)
    sides = (1, -1)
    sols, rics, clss, omegas = {}, {}, {}, {}
    for side in sides:
        sol = solve_basic(model, contours[side], t, cfg.tol, cfg.max_iter,
                          report=reps[side])
        sols[side] = _corrupt(sol, cfg.corrupt_z)
        clss[side] = classify(model, contours[side], sols[side], cfg.tau_real)
        rics[side] = compute_Y(model, sols[side], cfg.quad_tol)

    rows = []

    def add_row(name, tolerance, fn):
        try:
            resid = float(fn())
        except (SchurRootsError, ValueError, np.linalg.LinAlgError) as exc:
            rows.append({"name": name, "residual": float("inf"),
                         "tolerance": float(tolerance), "passed": False,
                         "note": str(exc)})
            return
        rows.append(identity_row(name, resid, tolerance))

    def sheets_row():
        worst = 0.0
        for side in sides:
            contour = contours[side]
            pts = _lens_points(rng, contour, cfg.lens_points)
            mc = m1_continued_many(sm, contour, pts)
            sv = np.array([sheets_value(sm, z, side, contour) for z in pts])
            worst = max(worst, _worst_relative_gap(mc, sv))
        return worst

    add_row("sheets-crosspath", 1e-9, sheets_row)

    d = reps[1].distance

    def factor_row():
        worst = 0.0
        for side in sides:
            contour, sol = contours[side], sols[side]
            zs = np.array(_near_sigma_points(rng, model, d, cfg.factor_points))
            f1 = factor_F1(model, contour, sol, zs)
            mc = m1_continued_many(sm, contour, zs)
            prod = f1 @ (sol.z_op - zs[:, None, None] * np.eye(model.n))
            worst = max(worst, _worst_relative_gap(mc, prod))
        return worst

    add_row("factorization", 1e-9, factor_row)

    def conditioning_row():
        worst = 0.0
        for side in sides:
            contour, sol = contours[side], sols[side]
            zs = np.array(_near_sigma_points(rng, model, d, cfg.factor_points))
            worst = max(worst, float(np.max(np.linalg.cond(
                factor_F1(model, contour, sol, zs)))))
        return worst

    add_row("factor-conditioning", 1e8, conditioning_row)

    for side in sides:
        try:
            omegas[side] = compute_Omega(model, contours[side],
                                         sols[side], sols[-side],
                                         report=reps[side])
        except (SchurRootsError, ValueError) as exc:
            omegas[side] = exc

    def omega_bound_row():
        worst = -np.inf
        for side in sides:
            om = omegas[side]
            if isinstance(om, Exception):
                raise NumericsError(str(om))
            worst = max(worst, om.norm - om.bound)
        return worst

    add_row("omega-bound", 0.0, omega_bound_row)

    def omega_adjoint_row():
        worst = 0.0
        for side in sides:
            om = omegas[side]
            if isinstance(om, Exception):
                raise NumericsError(str(om))
            worst = max(worst, om.adjoint_residual / (1.0 + om.norm))
        return worst

    add_row("omega-adjoint", 1e-10, omega_adjoint_row)

    def omega_two_path_row():
        worst = 0.0
        for side in sides:
            om = omegas[side]
            if isinstance(om, Exception):
                raise NumericsError(str(om))
            alt = omega_by_deformation(model, sols[side], sols[-side], cfg.quad_tol)
            worst = max(worst, float(np.linalg.norm(alt - om.omega, 2))
                        / (1.0 + om.norm))
        return worst

    add_row("omega-two-path", 1e-9, omega_two_path_row)

    recon = {}
    for side in sides:
        try:
            recon[side] = reconstruct_from_contour(model, contours[side], sols[side])
        except (SchurRootsError, ValueError, np.linalg.LinAlgError) as exc:
            recon[side] = exc

    def projection_row():
        worst = 0.0
        for side in sides:
            rec, om = recon[side], omegas[side]
            if isinstance(rec, Exception):
                raise NumericsError(str(rec))
            if isinstance(om, Exception):
                raise NumericsError(str(om))
            target = np.linalg.inv(np.eye(model.n) - om.omega)
            h0 = rec[0]
            worst = max(worst, float(np.linalg.norm(h0 - target, 2))
                        / (1.0 + float(np.linalg.norm(h0, 2))))
        return worst

    add_row("projection-inverse", 1e-8, projection_row)

    def similarity_row():
        worst = 0.0
        for side in sides:
            om = omegas[side]
            if isinstance(om, Exception):
                raise NumericsError(str(om))
            inv = np.linalg.inv(np.eye(model.n) - om.omega)
            zmh = np.conj(sols[-side].z_op.T)
            z = sols[side].z_op
            gap = inv @ zmh - z @ inv
            worst = max(worst, float(np.linalg.norm(gap, 2))
                        / (1.0 + float(np.linalg.norm(z, 2))))
        return worst

    add_row("moment-similarity", 1e-9, similarity_row)

    def reconstruction_row():
        worst = 0.0
        for side in sides:
            rec = recon[side]
            if isinstance(rec, Exception):
                raise NumericsError(str(rec))
            z = sols[side].z_op
            worst = max(worst, float(np.linalg.norm(rec[2] - z, 2))
                        / (1.0 + float(np.linalg.norm(z, 2))))
        return worst

    add_row("root-reconstruction", 1e-8, reconstruction_row)

    a_scale = 1.0 + float(np.linalg.norm(model.a1, 2))
    add_row("root-equation", 1e-8, lambda: max(
        check_ZAY(model, sols[s], rics[s]) for s in sides) / a_scale)

    lo, hi = model.interval
    margin = 0.01 * (hi - lo)
    samples = rng.uniform(lo + margin, hi - margin, size=cfg.riccati_samples)
    b_scale = 1.0 + max(
        float(np.max(np.linalg.norm(sm.b(samples), axis=(1, 2)))), 0.0)

    add_row("riccati-pointwise", 1e-8, lambda: max(
        riccati_residual(model, rics[s], samples) for s in sides) / b_scale)
    add_row("riccati-adjoint", 1e-8, lambda: max(
        riccati_residual(model, rics[s], samples, adjoint=True)
        for s in sides) / b_scale)

    def jorth_row():
        worst = 0.0
        for side in sides:
            trials = rational_trials(rics[side], cfg.trial_count, cfg.seed)
            worst = max(worst, j_orthogonality(rics[side], trials)
                        / (1.0 + rics[side].y_norm))
        return worst

    add_row("j-orthogonality", 1e-10, jorth_row)

    # The margin rows report a signed margin: the largest of their per-side
    # (or per-eigenvalue) values, negative when every one has room left.
    def floor_row():
        nonreal = [side for side in sides
                   if any(e.label != "real" for e in clss[side].entries)]
        if not nonreal:
            return 0.0
        return max(1.0 - rics[side].y_norm for side in nonreal)

    add_row("y-norm-floor", 1e-8, floor_row)

    def ceiling_row():
        worst = -np.inf
        for side in sides:
            bound = ysn_integral(model, rics[side])
            worst = max(worst, rics[side].y_norm ** 2 - bound)
        return worst

    add_row("y-norm-ceiling", 1e-8, ceiling_row)

    def localization_row():
        worst = -np.inf
        for side in sides:
            sol = sols[side]
            eigs = np.linalg.eigvals(sol.z_op)
            for lam in eigs:
                dist = float(np.min(np.abs(lam - model.sigma1)))
                worst = max(worst, dist - sol.r_min)
        return worst

    add_row("localization", 1e-9, localization_row)

    def boundary_row():
        pts = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo),
                          size=cfg.boundary_points)
        kps = np.array([sm.kprime(float(lam)) for lam in pts])
        gaps = []
        for approach in (1, -1):
            w = np.array([w1_boundary(sm, float(lam), approach) for lam in pts])
            im_part = (w - np.conj(np.swapaxes(w, 1, 2))) / 2j
            gaps.append(im_part - approach * np.pi * kps)
        norms = np.linalg.norm(np.stack(gaps + [kps]), 2, axis=(-2, -1))
        return float(np.max(norms[:2] / (1.0 + norms[2])))

    add_row("boundary-imag", 1e-10, boundary_row)

    return rows, sols, rics, clss


def cmd_verify(cfg: RunConfig) -> dict:
    start = time.perf_counter()
    model = build_model_from_config(cfg)
    contours = _contours(model, cfg, (1, -1))
    report = _base_report("verify", cfg, model, contours)

    reps = {side: admissibility(model, contours[side], cfg.coupling_scale)
            for side in (1, -1)}
    rep = reps[1]
    if not rep.admissible:
        report["status"] = "inadmissible"
        report["admissibility"] = admissibility_block(rep)
        return _finish(report, start)
    report["admissibility"] = admissibility_block(rep, r0=_r0(cfg, model, 1, rep))

    rng = np.random.default_rng(cfg.seed)
    rows, sols, rics, clss = _identity_table(cfg, model, contours, rng, reps)
    report["identities"] = rows
    report["solutions"] = {}
    report["riccati"] = {}
    for side in (1, -1):
        key = f"{side:+d}"
        report["solutions"][key] = solution_block(sols[side], clss[side])
        report["riccati"][key] = riccati_block(
            rics[side], check_one_in_spectrum(rics[side]))
    report["all_identities_pass"] = all(r["passed"] for r in rows)
    return _finish(report, start)


def cmd_sweep(cfg: RunConfig) -> tuple:
    start = time.perf_counter()
    if not cfg.t_grid:
        raise ConfigError("sweep requires a nonempty t_grid")
    model = build_model_from_config(cfg)
    contours = _contours(model, cfg, cfg.sides)
    report = _base_report("sweep", cfg, model, contours)

    rep = admissibility(model, contours[cfg.sides[0]], max(cfg.t_grid))
    if not rep.admissible:
        report["status"] = "inadmissible"
        report["admissibility"] = admissibility_block(rep)
        return _finish(report, start), []
    report["admissibility"] = admissibility_block(rep)

    rows = []
    offset = 0
    report["solutions"] = {}
    for side in cfg.sides:
        path = homotopy_path(model, contours[side], cfg.t_grid,
                             cfg.tol, cfg.max_iter, cfg.tau_real)
        for t, _, cls in path:
            for i, entry in enumerate(cls.entries):
                rows.append((t, offset + i, entry.eigenvalue.real,
                             entry.eigenvalue.imag, entry.label))
        t_end, sol_end, cls_end = path[-1]
        report["solutions"][f"{side:+d}"] = solution_block(sol_end, cls_end)
        offset += model.n
    report["rows"] = len(rows)
    return _finish(report, start), rows


def cmd_friedrichs(alpha: float, a1: float, b: float) -> str:
    params = fr.FriedrichsParams(alpha, a1, b)
    if params.a1 != 0.0:
        raise ModelError(
            "closed forms require a1 = 0; route a1 != 0 through `solve`")
    z_plus, z_minus, y_norm, _ = fr.oracle_solution(params)
    y = z_minus.imag
    norm_resid = float(abs(1.0 - b * b * (2.0 / y) * np.arctan(alpha / y)))
    lines = [
        f"alpha = {alpha!r}",
        f"a1 = {a1!r}",
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


def _build_parser() -> argparse.ArgumentParser:
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
    pf.add_argument("--a1", type=float, default=0.0)
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
            sys.stdout.write(cmd_friedrichs(args.alpha, args.a1, args.b))
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
