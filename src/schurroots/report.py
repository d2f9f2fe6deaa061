"""Report assembly and deterministic output.

Reports are JSON with sorted keys and two-space indentation; complex
values are [re, im] pairs. Identical configs produce byte-identical
reports except for the wall-time entry. All file writes go through a
temp file plus atomic rename.
"""

import csv
import hashlib
import io
import math
import os
import tempfile

import numpy as np

from ._json import dumps
from .config import complex_to_pair, matrix_to_lists
from .riccati import check_one_in_spectrum


def config_sha256(cfg) -> str:
    return hashlib.sha256(cfg.canonical_json().encode("utf-8")).hexdigest()


def identity_row(name: str, residual: float, tolerance: float) -> dict:
    ok = bool(np.isfinite(residual)) and residual <= tolerance
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": ok,
    }


def solution_block(sol, cls) -> dict:
    entries = []
    for e in cls.entries:
        entry = {
            "eigenvalue": complex_to_pair(e.eigenvalue),
            "multiplicity": e.multiplicity,
            "label": e.label,
        }
        if e.physical_residual is not None:
            entry["physical_residual"] = float(e.physical_residual)
        entries.append(entry)
    return {
        "eigenvalues": entries,
        "iterations": sol.iterations,
        "contour_fallbacks": sol.contour_fallbacks,
        "final_step_norm": sol.final_step_norm,
        "residual": sol.residual,
        "x_norm": float(np.linalg.norm(sol.x, 2)),
        "x": matrix_to_lists(sol.x),
        "z": matrix_to_lists(sol.z_op),
    }


def admissibility_block(rep) -> dict:
    return {
        "variation": rep.variation,
        "distance": rep.distance,
        "omega": rep.omega,
        "admissible": rep.admissible,
        "r_min": rep.r_min,
        "r_max": rep.r_max,
    }


def riccati_block(ric) -> dict:
    verdict = check_one_in_spectrum(ric)
    return {
        "y_norm": ric.y_norm,
        "gram_route": ric.gram_route,
        "gram_eigenvalues": [float(v) for v in ric.gram_eigenvalues],
        "one_in_spectrum": {
            "present": verdict.present,
            "min_distance": verdict.min_distance,
        },
    }


def render_report(report: dict) -> str:
    """The report as JSON with sorted keys and two-space indentation plus a
    final newline: the bytes of json.dumps(report, sort_keys=True,
    indent=2, allow_nan=False) + "\\n", written by _json.dumps. NaN or an
    infinity raises ValueError, so sanitize the report first."""
    return dumps(report) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write text to path, line ends untranslated, through a temp file in
    the same directory and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, rows) -> None:
    """The sweep rows as CSV, with csv.writer's CRLF line ends, written
    by atomic_write."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "trajectory_id", "re", "im", "label"])
    for row in rows:
        writer.writerow([repr(float(row[0])), row[1],
                         repr(float(row[2])), repr(float(row[3])), row[4]])
    atomic_write(path, buf.getvalue())


_FLOAT_TYPE = {float}


def sanitize(obj):
    """Make report values JSON-serializable: numpy scalars to floats,
    inf/nan to strings so allow_nan=False stays honest.

    A list or tuple of finite Python floats (a [re, im] pair, say) is
    copied as it is, without a call per entry."""
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == _FLOAT_TYPE and math.isfinite(sum(obj)):
            # a finite sum means finite entries (an overflow only sends
            # the list down the general path)
            return list(obj)
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return complex_to_pair(obj)
    return obj
