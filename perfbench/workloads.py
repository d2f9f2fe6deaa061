"""Seeded workload inputs: model generators, workload definitions, config files.

The benchmark hands the program nothing but the JSON config files written
here; everything else in this module stays on the benchmark's side (the
model objects are kept only so the output checks can compute references).
"""

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

ZOO_SEED = 20260819
ZOO_SIZE = 20
RECT_DEPTH = 0.5
FRIEDRICHS_B = 0.2
WIDE_SIZES = (4, 8, 16)
T_GRID = tuple(k / 8 for k in range(1, 9))
# At least this many calls per run. The tail is the 11th-slowest call, so
# with 33 calls it lies above the median; on wide-sweep, whose 11 n = 16
# calls are the slowest, it is an n = 16 call. This sets the run length of
# zoo-verify (3 passes, 33 calls, about 11 s) and wide-sweep (11 passes,
# 33 calls at about 1.1 s each, about 36 s).
MIN_CALLS = 33
# zoo-verify runs the first this many zoo models. Each run sets up three
# times, one warm-up call per config, so with all 20 a zoo-verify run took
# about 60 s when the machine was slow, and the 92 runs of a benchmark check
# would not fit its time limit.
VERIFY_ZOO = 10
# verify.seed of every config. It seeds the J-orthogonality trial poles,
# which set how many quadrature panels a verify call takes, so it is fixed
# to keep the work of a zoo-verify run the same for every --seed.
VERIFY_SEED = 0


@dataclass(frozen=True)
class Workload:
    command: str
    why: str
    # Measured wall time of one pass over the workload's configs with the
    # NumPy backend on a 2-CPU x86-64 VM. It fixes how many passes a run of
    # --seconds makes, so every run of a workload does the same number of
    # calls and the tail percentile means the same thing on every commit.
    pass_s: float


WORKLOADS = {
    "zoo-solve": Workload(
        "solve",
        "The Friedrichs reference model plus the 20-model test zoo through "
        "`solve` with semicircle contours and sides +-1. Picard plus the "
        "small-n `resolvent_sum` take about half of a call, `admissibility` "
        "(run 4 times per call) about a fifth, argparse and report rendering "
        "about a fifth; `riccati` and `_quad` do nothing. This is where "
        "small-n solver, kernel and per-call-overhead changes show.",
        0.32),
    "zoo-verify": Workload(
        "verify",
        "The Friedrichs model and the first 10 zoo models through `verify`. "
        "`_quad.adaptive_quad` takes "
        "about 70% of a call, `riccati.j_orthogonality` about 60% and Picard "
        "about 3%. This is the target for identity-table work and the bypass "
        "for solver and kernel work.",
        5.6),
    "rect-solve": Workload(
        "solve",
        "The 20 zoo models through `solve` with a rectangle contour of depth "
        "0.5 (the Friedrichs model is inadmissible on it and exits 2). "
        "`optimize_r0` takes about 80% of a call, mostly `variation`'s "
        "per-node SVD norms, and Picard about 11%. Without it the `contour` "
        "layer does almost no work: for semicircles `optimize_r0` returns "
        "at once.",
        2.1),
    "wide-sweep": Workload(
        "sweep",
        "One generated model for each n in {4, 8, 16} through `sweep` with "
        "semicircle contours, an 8-point t grid (1/8 ... 1) and sides +-1. "
        "The batched n x n solves in `resolvent_sum` (O(N n^3)) take about "
        "60% of a call and `variation` about 23%, because `_picard` re-checks "
        "admissibility at every t. The only workload that reaches "
        "`homotopy_path` and the large-n side of any n-dependent kernel "
        "choice.",
        2.8),
}


def draw_model(sr, rng, n=None):
    """One candidate model, or None when a validity check rejects it.

    With n=None this is the draw of `random_admissible_model` in
    tests/conftest.py, call for call on the generator, so a seed gives the
    same models as the test zoo. With n given, the same recipe runs at that
    size with m = n + 1, coupling degree 1 and sigma1 clustered around 0:
    then the Picard iteration count, and so the cost of a call, hardly
    depends on the seed, which only turns the perturbation and the
    coupling. sigma1 stays clustered well inside the interval and the
    density stays positive definite, so both contour kinds are admissible
    on both sides by design; the checks below confirm it.
    """
    if n is None:
        n = int(rng.integers(1, 3))
        m = int(rng.integers(n, 4))
        degree = int(rng.integers(0, 3))
        center = float(rng.uniform(-0.3, 0.3))
    else:
        m, degree, center = n + 1, 1, 0.0
    pert = 0.03 * rng.normal(size=(n, n))
    a1 = center * np.eye(n) + 0.5 * (pert + pert.T)

    q, _ = np.linalg.qr(rng.normal(size=(m, n)))
    coeffs = [0.08 * q]
    for _ in range(degree):
        coeffs.append(0.015 * rng.normal(size=(m, n)))

    model = sr.build_model((-1.0, 1.0), a1, coeffs)
    if not model.feshbach:
        return None
    if not sr.check_semibounded_density(model, np.linspace(-1, 1, 201), 1e-6).passed:
        return None
    for side in (1, -1):
        for kind, depth in (("semicircle", None), ("rectangle", RECT_DEPTH)):
            contour = sr.make_contour(model, side, kind=kind, depth=depth)
            if not sr.admissibility(model, contour).admissible:
                return None
    return model


def _draw_until_valid(sr, rng, n=None):
    for _ in range(40):
        model = draw_model(sr, rng, n)
        if model is not None:
            return model
    raise RuntimeError("model generator rejects too often")


def model_zoo(sr, seed=ZOO_SEED, size=ZOO_SIZE):
    """The test zoo: `size` admissible draws from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [_draw_until_valid(sr, rng) for _ in range(size)]


def wide_models(sr, seed):
    """One admissible model per size in WIDE_SIZES, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    return [_draw_until_valid(sr, rng, n) for n in WIDE_SIZES]


def friedrichs_model(sr):
    return sr.build_model((-1.0, 1.0), [[0.0]], [[[FRIEDRICHS_B]]])


@dataclass
class Job:
    """One distinct config and the CLI arguments that run it."""

    tag: str
    argv: list
    report_path: str
    csv_path: str | None
    model: object
    kind: str
    depth: float | None
    t_grid: tuple = ()
    friedrichs: bool = False


def _config(model, kind, depth, t_grid):
    return {
        "model": {
            "interval": list(model.interval),
            "a1": model.a1.tolist(),
            "b": [np.real(c).tolist() for c in model.b.coefficients],
        },
        "contour": {"kind": kind, "depth": depth, "sides": [1, -1]},
        "sweep": {"t_grid": list(t_grid)},
        "verify": {"seed": VERIFY_SEED},
    }


def build_jobs(sr, name, seed, workdir):
    """Generate the workload's models and write one config file per model."""
    command = WORKLOADS[name].command
    kind, depth, t_grid = "semicircle", None, ()
    if name == "rect-solve":
        kind, depth = "rectangle", RECT_DEPTH
        models = [(f"zoo[{k}]", m) for k, m in enumerate(model_zoo(sr))]
    elif name == "wide-sweep":
        t_grid = T_GRID
        models = [(f"n{m.n}", m) for m in wide_models(sr, seed)]
    else:
        zoo = model_zoo(sr)
        if name == "zoo-verify":
            zoo = zoo[:VERIFY_ZOO]
        models = [("friedrichs", friedrichs_model(sr))] + [
            (f"zoo[{k}]", m) for k, m in enumerate(zoo)]

    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for k, (tag, model) in enumerate(models):
        base = os.path.join(workdir, f"{k:02d}")
        config_path = base + ".config.json"
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(_config(model, kind, depth, t_grid), fh)
        report_path = base + ".report.json"
        argv = [command, "--config", config_path, "--out", report_path]
        csv_path = None
        if command == "sweep":
            csv_path = base + ".csv"
            argv += ["--out-csv", csv_path]
        jobs.append(Job(tag, argv, report_path, csv_path, model, kind, depth,
                        t_grid, tag == "friedrichs"))
    return jobs


def pass_count(name, seconds, jobs_per_pass):
    """Whole passes per timed run: about `seconds` of work at pass_s, and at
    least MIN_CALLS calls."""
    by_time = round(seconds / WORKLOADS[name].pass_s)
    return max(1, by_time, math.ceil(MIN_CALLS / jobs_per_pass))


def pass_order(seed, index, count):
    """The seeded order of the jobs in pass `index`."""
    order = list(range(count))
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order
