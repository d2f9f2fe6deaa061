"""Report assembly and deterministic output.

Reports are JSON with sorted keys and two-space indentation; complex
values are [re, im] pairs. Identical configs produce byte-identical
reports except for the wall-time entry. All file writes go through a
temp file plus atomic rename.
"""

import hashlib
import os
import tempfile

import numpy as np

from ._json import dumps
from .config import matrix_to_lists
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
            "eigenvalue": e.eigenvalue,
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
        "x_norm": sol.x_norm,
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
        "variation_error": rep.variation_error,
        "variation_nodes": rep.variation_nodes,
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
    """The report as JSON text plus a final newline, written in one walk by
    _json.dumps, which owns the number format: sorted keys, two-space
    indentation, complex values as [re, im] pairs and NaN or an infinity
    as the string of its repr."""
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


def _csv_field(text: str) -> str:
    # text as csv.writer's default dialect writes a field of a row of
    # several: quoted, with its quotes doubled, when it holds the
    # delimiter, the quote character or a line end
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, rows) -> None:
    """The sweep rows (t, trajectory id, re, im, label) as CSV, written by
    atomic_write: the bytes of csv.writer with the numbers as the repr of
    their float and CRLF line ends, joined in one pass."""
    labels = {label: _csv_field(label) for label in {row[4] for row in rows}}
    lines = [f"{float(t)!r},{k},{float(re)!r},{float(im)!r},{labels[label]}\r\n"
             for t, k, re, im, label in rows]
    atomic_write(path, "".join(["t,trajectory_id,re,im,label\r\n"] + lines))

