"""Report assembly and deterministic output.

Reports are JSON with sorted keys and two-space indentation; complex
values are [re, im] pairs. Identical configs produce byte-identical
reports except for the wall-time entry. All file writes go through a
temp file plus atomic rename (atomic_write): the text is written as UTF-8
bytes, line ends untranslated, and the file takes the mode 0o666 less the
umask, as a file opened for writing does.
"""

import contextlib
import hashlib
import os

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


# Flags of a temp file: created here or not at all (O_EXCL, which also
# refuses a symlink at the name instead of following it), not inherited by
# a child process, and never translating line ends (O_BINARY, Windows only).
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)
               | getattr(os, "O_BINARY", 0))

# Names atomic_write tries for its temp file before it gives up.
_TEMP_NAMES = 100


def _temp_path(directory: str, attempt: int) -> str:
    # the temp name of this process's attempt-th try in directory
    return os.path.join(directory, f".tmp-{os.getpid()}-{attempt}")


def atomic_write(path: str, text: str) -> None:
    """Write text to path as UTF-8 bytes, line ends untranslated, through a
    temp file in the same directory and an atomic rename (os.replace).

    The temp file is created with os.open, O_EXCL and mode 0o666, so the
    result takes the umask's mode; its name is unique to the process
    (_temp_path), and a name already taken, by a file or a symlink, is
    skipped, neither followed nor truncated, for the next of _TEMP_NAMES.
    Every byte goes out by os.write, looping on short writes. On any
    failure the temp file is removed and the error re-raised; an OSError
    leaves path as it was.
    """
    data = text.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    for attempt in range(_TEMP_NAMES):
        tmp = _temp_path(directory, attempt)
        try:
            fd = os.open(tmp, _TEMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no free temp name in {directory}")
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
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

