"""Shared fixtures: the scalar reference model, a zoo of random
admissible models with clustered interior spectrum and strictly positive
coupling density, and the constants of a model with an exceptional
point."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import sqrtm

import schurroots as sr

ALPHA = 1.0
BCOUP = 0.2
ZOO_SEED = 20260819
ZOO_SIZE = 20
RECT_DEPTH = 0.5
# a1 = diag(-e, e) with this constant coupling: on side +1 the two
# eigenvalues of the root merge near e = EP_E0 (gap about 1e-7), where the
# eigenvector matrix of Z has a condition number of about 1e6
EP_E0 = 0.030214581208488
EP_B = np.real(sqrtm(np.array([[0.02, 0.01], [0.01, 0.02]])))


def random_admissible_model(rng):
    """One draw: may return None when a validity check fails.

    Construction keeps sigma1 clustered near a point well inside the
    interval and the density uniformly positive definite, so that every
    acceptance property (admissibility for both contour families, the
    semiboundedness gate, non-real classified spectrum, the default
    reconstruction circle) holds by design rather than by luck.
    """
    n = int(rng.integers(1, 3))
    m = int(rng.integers(n, 4))
    degree = int(rng.integers(0, 3))

    center = float(rng.uniform(-0.3, 0.3))
    pert = 0.03 * rng.normal(size=(n, n))
    a1 = center * np.eye(n) + 0.5 * (pert + pert.T)

    # leading coefficient with orthonormal columns keeps smin(b) away from 0
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
        semi = sr.make_contour(model, side)
        rect = sr.make_contour(model, side, kind="rectangle", depth=RECT_DEPTH)
        if not sr.admissibility(model, semi).admissible:
            return None
        if not sr.admissibility(model, rect).admissible:
            return None
    return model


def wide_models(*seeds):
    """The benchmark's seeded n = 4, 8, 16 models (perfbench wide-sweep),
    for each seed in turn."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [model for seed in seeds for model in module.wide_models(sr, seed)]


@pytest.fixture(scope="session")
def friedrichs_model():
    return sr.build_model((-1.0, 1.0), [[0.0]], [[[BCOUP]]])


@pytest.fixture(scope="session")
def friedrichs_contours(friedrichs_model):
    return {s: sr.make_contour(friedrichs_model, s) for s in (1, -1)}


@pytest.fixture(scope="session")
def model_zoo():
    rng = np.random.default_rng(ZOO_SEED)
    zoo = []
    attempts = 0
    while len(zoo) < ZOO_SIZE:
        attempts += 1
        assert attempts < 40 * ZOO_SIZE, "model generator rejects too often"
        model = random_admissible_model(rng)
        if model is not None:
            zoo.append(model)
    return zoo


@pytest.fixture(scope="session")
def zoo_solutions(model_zoo):
    """Both-side semicircle solutions for every zoo model, solved once."""
    out = []
    for model in model_zoo:
        contours = {s: sr.make_contour(model, s) for s in (1, -1)}
        sols = {s: sr.solve_basic(model, contours[s]) for s in (1, -1)}
        out.append((model, contours, sols))
    return out
