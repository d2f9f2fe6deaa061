"""Shared fixtures: the scalar reference model, the benchmark's zoo of
random admissible models with clustered interior spectrum and strictly
positive coupling density, the constants of a model with an exceptional
point, the hard models built on them, and the points where the two
eigenvalues of a 2 x 2 K' meet."""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import sqrtm

import schurroots as sr

ALPHA = 1.0
BCOUP = 0.2
RECT_DEPTH = 0.5
# a1 = diag(-e, e) with this constant coupling: on side +1 the two
# eigenvalues of the root merge near e = EP_E0 (gap about 1e-7), where the
# eigenvector matrix of Z has a condition number of about 1e6
EP_E0 = 0.030214581208488
EP_B = np.real(sqrtm(np.array([[0.02, 0.01], [0.01, 0.02]])))


@functools.cache
def _workloads():
    """perfbench/workloads.py, the one generator of the test zoo and the
    wide models."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wide_models(*seeds):
    """The benchmark's seeded n = 4, 8, 16 models (perfbench wide-sweep),
    for each seed in turn."""
    return [model for seed in seeds for model in _workloads().wide_models(sr, seed)]


def hard_models():
    """(name, model): a1 = diag(-e, e) at and near the exceptional point
    e = EP_E0 (1 + delta), a1 whose eigenvalues lie further apart than d/2,
    and the Friedrichs model at weak coupling."""
    models = []
    for delta in (1e-2, 1e-4, 1e-6, 1e-8, 0.0):
        e = EP_E0 * (1.0 + delta)
        models.append((f"ep-{delta:g}", sr.build_model((-1.0, 1.0), [[-e, 0.0], [0.0, e]],
                                                       [EP_B.tolist()])))
    for eigs in ((-0.5, 0.5), (-0.3, 0.3), (-0.6, 0.0, 0.6)):
        n = len(eigs)
        models.append((f"spread-{eigs}", sr.build_model(
            (-1.0, 1.0), np.diag(eigs).tolist(), [(0.05 * np.eye(n)).tolist()])))
    for b in (3e-3, 1e-4):
        models.append((f"friedrichs-{b:g}", sr.build_model((-1.0, 1.0), [[0.0]], [[[b]]])))
    return models


def kprime_crossings(model):
    """The roots of the discriminant (k11 - k22)^2 + 4 k12 k21 of K'(mu)
    for n = 2, where its two eigenvalues meet: a real root is a crossing
    (a double root, which polyroots splits by up to about 1e-8), a complex
    one a branch point of ||K'||; none for n != 2 or a constant gap."""
    if model.n != 2:
        return np.array([])
    poly = np.polynomial.polynomial
    c = model.kprime.coefficients
    diff = c[:, 0, 0] - c[:, 1, 1]
    disc = poly.polyadd(poly.polymul(diff, diff),
                        4.0 * poly.polymul(c[:, 0, 1], c[:, 1, 0])).real
    return poly.polyroots(poly.polytrim(disc)) if np.any(disc) else np.array([])


@pytest.fixture(scope="session")
def friedrichs_model():
    return sr.build_model((-1.0, 1.0), [[0.0]], [[[BCOUP]]])


@pytest.fixture(scope="session")
def friedrichs_contours(friedrichs_model):
    return {s: sr.make_contour(friedrichs_model, s) for s in (1, -1)}


@pytest.fixture(scope="session")
def model_zoo():
    """The 20 zoo models of the benchmark (perfbench workloads.model_zoo):
    sigma1 clustered near a point well inside the interval and the density
    uniformly positive definite, so that every acceptance property
    (admissibility for both contour families at depth RECT_DEPTH, the
    semiboundedness gate, non-real classified spectrum, the default
    reconstruction circle) holds by design rather than by luck."""
    return _workloads().model_zoo(sr)


@pytest.fixture(scope="session")
def zoo_solutions(model_zoo):
    """Both-side semicircle solutions for every zoo model, solved once."""
    out = []
    for model in model_zoo:
        contours = {s: sr.make_contour(model, s) for s in (1, -1)}
        sols = {s: sr.solve_basic(model, contours[s]) for s in (1, -1)}
        out.append((model, contours, sols))
    return out
