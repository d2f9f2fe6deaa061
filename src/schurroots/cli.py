"""Command-line front door: solve, verify, sweep, friedrichs.

solve, verify and sweep consume a JSON RunConfig and write a JSON report
to --out (stdout without it); sweep also writes its trajectory CSV to
--out-csv, and removes it again when the report cannot be written, so a
run that exits 4 leaves no file. friedrichs takes --alpha and --b only,
since its closed forms hold for a1 = 0, and prints the scalar oracle.
Exit codes: 0 success, 2 inadmissible input, 3 numerical failure, 4
config error.

solve, verify and sweep share one prologue (_prologue): the model, one
contour per side and the base report. Each root decides and carries its
own admissibility (solve_basic, homotopy_path); the report's block is a
solved root's, or that of the root that raised AdmissibilityError
(_solve_sides), so an inadmissible input exits 2 with its report. No
command searches other contours: the one reader of r0 (optimize_r0) is
verify's localization row. The objects of the construction come as a
+-l pair (one contour, root Z, angular operator Y and Omega per side).
For a real model (SpectralModel.is_real) the pair is conjugate:
Z(-l) = conj Z(l). So when both sides are requested, the second side's
contour is the mirror of the first's, and solve and sweep take its root,
classification and path as the conjugate of the first side's, in the
first side's order (provenance.derived_sides). verify solves both roots,
each on its own report, and checks each identity once per side
(identities.identity_table, seeded by verify.seed), which makes it the
independent check of that symmetry.
"""

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import friedrichs as fr
from .config import RunConfig, build_model_from_config
from .contour import make_contour
from .errors import AdmissibilityError, ConfigError, ModelError, NumericsError
from .identities import identity_table
from .report import (admissibility_block, atomic_write, config_sha256,
                     render_report, riccati_block, solution_block, write_csv)
from .rootsolver import (RootSolution, classify, conjugate_path, homotopy_path,
                         solve_basic)

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_NUMERICS = 3
EXIT_CONFIG = 4

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
                          else make_contour(model, side, cfg.contour_kind, cfg.depth))
    report = {
        "command": command,
        "status": "ok",
        "feshbach": model.feshbach,
        "sides": list(contours),
        "identities": [],
        "provenance": {
            "config_sha256": config_sha256(cfg),
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


def _derived_sides(derived) -> dict:
    """The provenance.derived_sides block of solve and sweep."""
    return {f"{side:+d}": f"conjugate of {source:+d}"
            for side, source in derived.items()}


def _finish(report, start) -> dict:
    report["provenance"]["wall_time_s"] = time.perf_counter() - start
    return report


def cmd_solve(cfg: RunConfig) -> dict:
    start = time.perf_counter()
    model, contours, report, derived = _prologue("solve", cfg, cfg.sides)
    report["provenance"]["derived_sides"] = _derived_sides(derived)
    sols = _solve_sides(report, contours, derived,
                        functools.partial(solve_basic, model), RootSolution.conjugate)
    if sols is None:
        return _finish(report, start)
    first = sols[cfg.sides[0]]
    report["admissibility"] = admissibility_block(first.report)

    report["solutions"] = {}
    clss = {}
    for side, sol in sols.items():
        clss[side] = (clss[derived[side]].conjugate() if side in derived
                      else classify(sol))
        report["solutions"][f"{side:+d}"] = solution_block(sol, clss[side])
    return _finish(report, start)


def cmd_verify(cfg: RunConfig) -> dict:
    start = time.perf_counter()
    model, contours, report, _ = _prologue("verify", cfg, (1, -1))
    roots = _solve_sides(report, contours, {},
                         functools.partial(solve_basic, model), None)
    if roots is None:
        return _finish(report, start)
    report["admissibility"] = admissibility_block(roots[1].report)

    rows, rics, clss = identity_table(roots, cfg.seed)
    report["identities"] = rows
    report["solutions"] = {}
    report["riccati"] = {}
    for side in (1, -1):
        key = f"{side:+d}"
        report["solutions"][key] = solution_block(roots[side], clss[side])
        report["riccati"][key] = riccati_block(rics[side])
    report["all_identities_pass"] = all(r["passed"] for r in rows)
    return _finish(report, start)


def cmd_sweep(cfg: RunConfig) -> tuple:
    start = time.perf_counter()
    if not cfg.t_grid:
        raise ConfigError("sweep requires a nonempty t_grid")
    model, contours, report, derived = _prologue("sweep", cfg, cfg.sides)
    report["provenance"]["derived_sides"] = _derived_sides(derived)
    paths = _solve_sides(report, contours, derived, functools.partial(
        homotopy_path, model, t_grid=cfg.t_grid), conjugate_path)
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
    params = fr.FriedrichsParams(alpha, b)
    z_plus, z_minus, y_norm, _ = fr.oracle_solution(params)
    y = z_minus.imag
    norm_resid = float(abs(1.0 - b * b * (2.0 / y) * np.arctan(alpha / y)))
    lines = [
        f"alpha = {alpha!r}",
        "a1 = 0.0",
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
    ps.add_argument("--out", help="report path (default: stdout)")

    pv = sub.add_parser("verify", help="run the full identity table")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out", help="report path (default: stdout)")

    pw = sub.add_parser("sweep", help="coupling homotopy, CSV trajectories")
    pw.add_argument("--config", required=True)
    pw.add_argument("--out-csv", required=True, help="trajectory CSV path")
    pw.add_argument("--out", help="report path (default: stdout)")

    pf = sub.add_parser("friedrichs", help="closed-form scalar oracle summary")
    pf.add_argument("--alpha", required=True, type=float)
    pf.add_argument("--b", required=True, type=float)
    return p


def _write(write, path, content) -> None:
    """write(path, content), an OSError turned into a ConfigError."""
    try:
        write(path, content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(report: dict, out_path) -> None:
    text = render_report(report)
    if out_path:
        _write(atomic_write, out_path, text)
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
            _emit(report, args.out)
        elif args.command == "verify":
            report = cmd_verify(cfg)
            _emit(report, args.out)
        else:
            report, rows = cmd_sweep(cfg)
            if report["status"] == "ok":
                _write(write_csv, args.out_csv, rows)
            try:
                _emit(report, args.out)
            except ConfigError:
                # a sweep that exits 4 leaves no file: the CSV goes too
                if report["status"] == "ok":
                    os.remove(args.out_csv)
                raise
        if report["status"] == "inadmissible":
            return EXIT_INADMISSIBLE
        if report.get("identities") and not report.get("all_identities_pass", True):
            return EXIT_NUMERICS
        return EXIT_OK
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
