"""Output checks. All of them run outside the timed region.

A job's warm-up output gets the content checks below. Every timed call of
the job must then exit 0 and reproduce the warm-up output byte for byte,
apart from the report's provenance.wall_time_s line.
"""

import csv
import io
import json
import re

import numpy as np
from scipy.optimize import linear_sum_assignment

# The closed-form root of the Friedrichs model (alpha = 1, b = 0.2): the
# same oracle as tests/test_acceptance.py.
Y_ORACLE = 0.11639390461355939
ROOT_TOL = 1e-9

IDENTITY_ROWS = (
    "sheets-crosspath", "factorization", "factor-conditioning",
    "omega-bound", "omega-adjoint", "omega-two-path", "projection-inverse",
    "moment-similarity", "root-reconstruction", "root-equation",
    "riccati-pointwise", "riccati-adjoint", "j-orthogonality",
    "y-norm-floor", "y-norm-ceiling", "localization", "boundary-imag",
)

_WALL_TIME = re.compile(rb'\n *"wall_time_s": [^\n]*')


def read_outputs(job):
    """The bytes a call left behind: (report, csv or None)."""
    with open(job.report_path, "rb") as fh:
        report = fh.read()
    table = None
    if job.csv_path:
        with open(job.csv_path, "rb") as fh:
            table = fh.read()
    return report, table


def comparable(outputs):
    """The outputs with the report's wall-time line removed, the only part
    allowed to differ between calls of one config."""
    report, table = outputs
    return _WALL_TIME.sub(b"", report), table


def _matrix(pairs):
    return np.array([[complex(re_, im_) for re_, im_ in row] for row in pairs])


def _check_solve(sr, job, report):
    errors = []
    sols = report.get("solutions", {})
    if set(sols) != {"+1", "-1"}:
        return [f"solutions for sides {sorted(sols)}, expected +1 and -1"]
    z = {side: _matrix(sols[f"{side:+d}"]["z"]) for side in (1, -1)}
    for side in (1, -1):
        contour = sr.make_contour(job.model, side, job.kind, job.depth)
        r_min = sr.admissibility(job.model, contour).r_min
        x_norm = sols[f"{side:+d}"]["x_norm"]
        if not x_norm <= r_min:
            errors.append(f"side {side:+d}: x_norm {x_norm!r} > r_min {r_min!r}")
    gap = float(np.max(np.abs(z[-1] - np.conj(z[1]))))
    if not gap <= ROOT_TOL:
        errors.append(f"z(-1) differs from conj z(+1) by {gap:.3e}")
    if job.friedrichs:
        for side in (1, -1):
            err = abs(z[side][0, 0] - (-1j * side * Y_ORACLE))
            if not err <= ROOT_TOL:
                errors.append(f"Friedrichs root side {side:+d} off by {err:.3e}")
    return errors


def _check_verify(report):
    errors = []
    if report.get("all_identities_pass") is not True:
        failed = [r["name"] for r in report.get("identities", []) if not r["passed"]]
        errors.append(f"identity rows failed: {failed}")
    names = {r["name"] for r in report.get("identities", [])}
    missing = [n for n in IDENTITY_ROWS if n not in names]
    if missing:
        errors.append(f"identity rows missing: {missing}")
    return errors


def _check_sweep(sr, job, table):
    rows = list(csv.reader(io.StringIO(table.decode("utf-8"))))[1:]
    n = job.model.n
    expected = len(job.t_grid) * n * 2
    if len(rows) != expected:
        return [f"CSV has {len(rows)} rows, expected {expected}"]
    errors = []
    t_end = float(job.t_grid[-1])
    for offset, side in enumerate((1, -1)):
        swept = np.array([complex(float(r[2]), float(r[3])) for r in rows
                          if float(r[0]) == t_end
                          and offset * n <= int(r[1]) < (offset + 1) * n])
        contour = sr.make_contour(job.model, side, job.kind, job.depth)
        cold = sr.solve_basic(job.model, contour, t_end).eigenvalues()
        if swept.size != cold.size:
            errors.append(f"side {side:+d}: {swept.size} eigenvalues at t=1, "
                          f"expected {cold.size}")
            continue
        cost = np.abs(swept[:, None] - cold[None, :])
        rows_idx, cols_idx = linear_sum_assignment(cost)
        err = float(np.max(cost[rows_idx, cols_idx]))
        if not err <= ROOT_TOL:
            errors.append(f"side {side:+d}: t=1 eigenvalues differ from a cold "
                          f"solve_basic by {err:.3e}")
    return errors


def check_outputs(sr, job, report_bytes, table):
    """Content checks of one job's output; returns a list of failures."""
    report = json.loads(report_bytes)
    if report.get("status") != "ok":
        return [f"report status {report.get('status')!r}"]
    command = job.argv[0]
    if command == "solve":
        return _check_solve(sr, job, report)
    if command == "verify":
        return _check_verify(report)
    return _check_sweep(sr, job, table)
