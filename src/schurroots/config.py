"""Run configuration: parsing, validation, canonical serialization.

The on-disk format is JSON. Complex scalars are [re, im] pairs, matrices
are row-major nested lists of pairs, and the coupling polynomial is a
list of coefficient matrices, lowest degree first. from_dict fills every
default, so parse -> serialize -> parse is a fixed point on the filled
form, and refuses any section or key that to_dict does not write.

A config holds only the inputs that set the numbers: the model, the
contour, the sweep grid and the verify seed. The coupling strength is the
coupling polynomial b itself (a run at coupling t scales b by t), and the
report and CSV paths are given on the command line, so config_sha256 does
not depend on where a report is written. What the program decides (the
Picard stop test, V0's node density, a semicircle's depth) is no setting.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ._json import dumps
from .errors import ConfigError

_VALID_KINDS = ("semicircle", "rectangle")


def pair_to_complex(val, name: str) -> complex:
    """A number or an [re, im] pair as a complex, each part read by _real
    under name, the entry's matrix."""
    if isinstance(val, (list, tuple)) and len(val) == 2:
        return complex(_real(val[0], f"an [re, im] part of {name}"),
                       _real(val[1], f"an [re, im] part of {name}"))
    return complex(_real(val, f"an entry of {name}"), 0.0)


def matrix_from_lists(rows, name: str) -> np.ndarray:
    """A nonempty rows x columns complex matrix from nested lists; any other
    form raises ConfigError, whose message names the matrix (name:
    model.a1, model.b[k])."""
    try:
        mat = np.array([[pair_to_complex(v, name) for v in row] for row in rows],
                       dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed matrix {name}: {exc}") from exc
    if mat.ndim != 2 or mat.size == 0:
        raise ConfigError(f"malformed matrix {name}: expected nonempty rows, got {rows!r}")
    return mat


def matrix_to_lists(mat: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs of Python floats."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    return np.stack((mat.real, mat.imag), -1).tolist()


def _integer(val, name: str, lo: int, hi: int | None = None) -> int:
    """val as an int in [lo, hi] (hi None: no upper limit); anything else,
    a float or a bool included, raises ConfigError."""
    if (isinstance(val, bool) or not isinstance(val, int) or val < lo
            or (hi is not None and val > hi)):
        limits = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"{name} must be an integer {limits}, got {val!r}")
    return val


def _real(val, name: str) -> float:
    """val as a finite float; a string, a bool, NaN, an infinity or an
    integer too large for a float raises ConfigError naming name."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a finite real number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:
        raise ConfigError(f"{name} must be a finite real number, "
                          "got an integer too large for a float") from None
    if not math.isfinite(num):
        raise ConfigError(f"{name} must be a finite real number, got {val!r}")
    return num


@dataclass(frozen=True)
class RunConfig:
    interval: tuple
    a1: np.ndarray
    b_coefficients: tuple
    contour_kind: str = "semicircle"
    sides: tuple = (1, -1)
    depth: float | None = None
    t_grid: tuple = ()
    seed: int = 0

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        """Parse and validate; every malformed value, and every section or
        key that to_dict does not write, raises ConfigError."""
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        try:
            cfg = RunConfig._parse(data)
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc}") from exc
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            # a value of the wrong type or form, such as int("a")
            raise ConfigError(f"malformed config value: {exc}") from exc
        schema = cfg.to_dict()
        for section, values in data.items():
            if section not in schema:
                raise ConfigError(f"unknown config section {section!r}")
            for key in values:
                if key not in schema[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
        return cfg

    @staticmethod
    def _parse(data: dict) -> "RunConfig":
        model = data["model"]
        interval = tuple(_real(x, "model.interval") for x in model["interval"])
        if len(interval) != 2:
            raise ConfigError("interval must be [lo, hi]")
        a1 = matrix_from_lists(model["a1"], "model.a1")
        coeffs = tuple(matrix_from_lists(c, f"model.b[{k}]")
                       for k, c in enumerate(model["b"]))
        if not coeffs:
            raise ConfigError("coupling needs at least one coefficient matrix")
        shapes = {c.shape for c in coeffs}
        if len(shapes) != 1:
            raise ConfigError(f"coefficient shapes disagree: {sorted(shapes)}")

        contour = data.get("contour", {})
        kind = contour.get("kind", "semicircle")
        if kind not in _VALID_KINDS:
            raise ConfigError(f"unknown contour kind {kind!r}")
        sides = tuple(_integer(s, "contour.sides", -1, 1)
                      for s in contour.get("sides", [1, -1]))
        if not sides or 0 in sides or len(set(sides)) != len(sides):
            raise ConfigError(f"sides must be a nonempty subset of [1, -1], got {sides}")
        depth = contour.get("depth")
        if kind == "semicircle":
            if depth is not None:
                raise ConfigError("a semicircle takes no contour.depth: its "
                                  "depth is half the interval length")
        else:
            if depth is None:
                raise ConfigError("a rectangle contour requires contour.depth")
            depth = _real(depth, "contour.depth")
            if depth <= 0.0:
                raise ConfigError(f"contour.depth must be positive, got {depth}")

        sweep = data.get("sweep", {})
        t_grid = tuple(_real(t, "sweep.t_grid") for t in sweep.get("t_grid", []))
        if any(tb <= ta for ta, tb in zip(t_grid[:-1], t_grid[1:])):
            raise ConfigError("sweep.t_grid must be strictly increasing")
        if t_grid and (t_grid[0] < 0.0 or t_grid[-1] > 1.0):
            raise ConfigError("sweep.t_grid must lie in [0, 1]")

        seed = _integer(data.get("verify", {}).get("seed", 0), "verify.seed", 0)
        return RunConfig(
            interval=interval,
            a1=a1,
            b_coefficients=coeffs,
            contour_kind=kind,
            sides=sides,
            depth=depth,
            t_grid=t_grid,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "model": {
                "interval": [self.interval[0], self.interval[1]],
                "a1": matrix_to_lists(self.a1),
                "b": [matrix_to_lists(c) for c in self.b_coefficients],
            },
            "contour": {
                "kind": self.contour_kind,
                "sides": list(self.sides),
                "depth": self.depth,
            },
            "sweep": {"t_grid": list(self.t_grid)},
            "verify": {"seed": self.seed},
        }

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return RunConfig.from_dict(data)

    def canonical_json(self) -> str:
        """to_dict as JSON plus a final newline, the text that hashes into
        config_sha256: written by _json.dumps, which gives the bytes of
        json.dumps(self.to_dict(), sort_keys=True, indent=2), since
        from_dict admits only finite numbers."""
        return dumps(self.to_dict()) + "\n"


def build_model_from_config(cfg: RunConfig):
    from .model import build_model

    return build_model(cfg.interval, cfg.a1, list(cfg.b_coefficients))
