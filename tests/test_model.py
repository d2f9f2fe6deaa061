"""Model layer: coupling density derivation, cumulative integrals,
validation, and the semiboundedness gate.

Oracle notes. For b(mu) = [1, mu]^T the density is the scalar 1 + mu^2,
whose integral over [-1, 1] is 8/3. For constant scalar b the density is
b^2 everywhere.
"""

import warnings

import numpy as np
import pytest

import schurroots as sr
from schurroots.errors import ModelError
from schurroots.model import _HERM_TOL, MatrixPolynomial, density_margin

from conftest import hard_models, wide_models

def test_kprime_scalar_constant(friedrichs_model):
    dens = sr.kprime_of(friedrichs_model)
    mus = np.linspace(-1, 1, 11)
    assert np.max(np.abs(dens(mus)[:, 0, 0] - 0.04)) < 1e-15


def test_density_conjugate_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        deg = int(rng.integers(0, 4))
        coeffs = [rng.normal(size=(m, n)) for _ in range(deg + 1)]
        model = sr.build_model((-1.0, 1.0), np.zeros((n, n)), coeffs)
        z = complex(rng.normal(), rng.normal())
        kz = model.kprime_values(np.array([z]))[0]
        kzc = model.kprime_values(np.array([np.conj(z)]))[0]
        assert np.max(np.abs(kzc - np.conj(kz))) < 1e-12 * (1 + np.max(np.abs(kz)))


def test_density_psd_and_hermitian_on_axis():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        coeffs = [rng.normal(size=(m, n)) for _ in range(3)]
        model = sr.build_model((-1.0, 1.0), np.zeros((n, n)), coeffs)
        for mu in rng.uniform(-3, 3, size=5):
            k = model.kprime_values(np.array([mu]))[0]
            assert np.max(np.abs(k - np.conj(k.T))) < 1e-12 * (1 + np.max(np.abs(k)))
            assert np.min(np.linalg.eigvalsh(k)) > -1e-12 * (1 + np.max(np.abs(k)))


def test_density_equals_bsharp_b():
    rng = np.random.default_rng(14)
    coeffs = [rng.normal(size=(3, 2)) for _ in range(3)]
    model = sr.build_model((-1.0, 1.0), np.zeros((2, 2)), coeffs)
    for z in (0.3, 1.0 + 0.7j, -2.1 - 0.4j):
        bs = model.b.sharp()(np.array([z]))[0]
        bv = model.b(np.array([z]))[0]
        k = model.kprime_values(np.array([z]))[0]
        assert np.max(np.abs(k - bs @ bv)) < 1e-12 * (1 + np.max(np.abs(k)))


def test_scaled_density():
    model = sr.build_model((-1.0, 1.0), [[0.0]], [[[0.2]]])
    half = model.scaled(0.5)
    assert abs(half.kprime_values(np.array([0.3]))[0][0, 0] - 0.25 * 0.04) < 1e-16
    assert model.scaled(1.0) is model


def test_matrix_polynomial_ops():
    coeffs = np.array([[[1.0, 2.0]], [[0.0, -1.0]]])
    p = MatrixPolynomial(coeffs.astype(np.complex128))
    assert p.rows == 1 and p.cols == 2 and p.degree == 1
    assert not p.is_zero
    v = p(np.array([2.0]))[0]
    assert np.allclose(v, [[1.0, 0.0]])
    assert np.allclose(p.sharp().sharp().coefficients, p.coefficients)
    with pytest.raises((ValueError, RuntimeError)):
        p.coefficients[0, 0, 0] = 5.0  # write-protected


def test_build_model_validation():
    with pytest.raises(ModelError):
        sr.build_model((1.0, -1.0), [[0.0]], [[[0.2]]])
    with pytest.raises(ModelError):
        sr.build_model((-1.0, 1.0), [[1j]], [[[0.2]]])
    with pytest.raises(ModelError):
        sr.build_model((-1.0, 1.0), [[0.0, 1.0], [0.0, 0.0]], [[[0.2], [0.1]]])
    with pytest.raises(ModelError):
        sr.build_model((-1.0, 1.0), [[0.0]], [[[0.2j]]])
    # eigenvalue on the edge of the interval: not the embedded case
    model = sr.build_model((-1.0, 1.0), [[1.0]], [[[0.2]]])
    assert not model.feshbach
    model = sr.build_model((-1.0, 1.0), [[2.0]], [[[0.2]]])
    assert not model.feshbach


@pytest.mark.parametrize("eigs, inside", [
    ((-0.5, 0.5), True),
    ((-0.999, 0.0, 0.999), True),
    ((-1.0, 0.5), False),
    ((0.5, 1.0), False),
    ((-0.5, 1.5), False),
    ((-3.0, -2.0), False),
])
def test_feshbach_follows_sigma1(eigs, inside):
    # feshbach is read from sigma1: every eigenvalue of a1 strictly inside
    # the interval, so an eigenvalue on an endpoint or outside clears it;
    # the scaled model has the same a1 and so the same flag
    n = len(eigs)
    model = sr.build_model((-1.0, 1.0), np.diag(eigs), [0.1 * np.eye(n)])
    assert np.array_equal(model.sigma1, np.sort(eigs))
    assert model.feshbach is inside
    assert model.scaled(0.5).feshbach is inside


# b = [1, -1] is constant, so b^* b = [[1, -1], [-1, 1]] exactly, with the
# null vector (1, 1), and the density check's scale 1 + max ||b||_F^2 is 3.
# Each corruption of the cached K' coefficient stays within the agreement
# tolerance except the first, so each trips exactly one of the three
# criteria, and the margin is that criterion's excess over tol * scale,
# divided by scale.
_DENSITY_SLACK = 0.9 * _HERM_TOL * 3.0


@pytest.mark.parametrize("corruption, excess", [
    (1e-3 * np.eye(2), 1e-3),
    (_DENSITY_SLACK * np.array([[0.0, 1.0], [-1.0, 0.0]]), 2.0 * _DENSITY_SLACK),
    (-_DENSITY_SLACK * np.ones((2, 2)), 2.0 * _DENSITY_SLACK),
], ids=["wrong-coefficient", "non-hermitian", "negative-definite"])
def test_density_validation_catches_a_corrupted_kprime(corruption, excess):
    model = sr.build_model((-1.0, 1.0), 0.1 * np.eye(2), [[[1.0, -1.0]]])
    assert -_HERM_TOL <= density_margin(model) < -0.99 * _HERM_TOL
    coeffs = model.kprime.coefficients + corruption
    model.__dict__["kprime"] = MatrixPolynomial(coeffs)
    expected = (excess - _HERM_TOL * 3.0) / 3.0
    assert expected > 0.0
    assert density_margin(model) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("depth, passes", [(0.8, True), (1.8, False)])
def test_density_psd_check_is_tied_to_the_tolerance(depth, passes):
    # K'(mu) = b^* b + mu^9 E with E = -(depth/2) tol scale [[1, 1], [1, 1]]:
    # on the null vector (1, 1) of b^* b the minimum eigenvalue is
    # -depth * tol * scale at mu = 1, the last grid point, and above
    # -tol * scale on every point before mu = 0.94, so only the grid's
    # last point sets the margin (depth - 1) * tol
    model = sr.build_model((-1.0, 1.0), 0.1 * np.eye(2), [[[1.0, -1.0]]])
    scale = 3.0
    coeffs = np.zeros((10, 2, 2), dtype=np.complex128)
    coeffs[0] = model.kprime.coefficients[0]
    coeffs[9] = -0.5 * depth * _HERM_TOL * scale * np.ones((2, 2))
    model.__dict__["kprime"] = MatrixPolynomial(coeffs)
    margin = density_margin(model)
    assert margin == pytest.approx((depth - 1.0) * _HERM_TOL, rel=1e-3)
    assert (margin <= 0.0) == passes


def test_density_margin_fails_a_non_finite_kprime():
    # NaN, never a pass and never a LinAlgError: for n <= 2 the closed
    # forms carry the NaN, and for n = 3 eigvalsh takes the non-finite
    # matrices as zeros
    model = sr.build_model((-1.0, 1.0), 0.1 * np.eye(2), [[[1.0, -1.0]]])
    models = [model] + [sr.build_model((-1.0, 1.0), 0.1 * np.eye(n), [0.2 * np.eye(n)])
                        for n in (1, 3)]
    for model in models:
        coeffs = model.kprime.coefficients.copy()
        coeffs[0, 0, model.n - 1] = np.nan
        model.__dict__["kprime"] = MatrixPolynomial(coeffs)
        assert np.isnan(density_margin(model)), model.n


def _density_margin_reference(model):
    """density_margin by a batched matmul for b^* b and a batched eigvalsh
    for the least eigenvalue, the path that the n <= 2 closed forms
    replaced."""
    mus = np.linspace(*model.interval, 1000)
    kvals = model.kprime_values(mus)
    bvals = model.b(mus)
    direct = np.conj(np.swapaxes(bvals, 1, 2)) @ bvals
    scale = 1.0 + np.max(np.einsum("mij,mij->m", np.conj(bvals), bvals).real)
    adjoint = np.conj(np.swapaxes(kvals, 1, 2))
    gap = np.max(np.abs(kvals - direct))
    skew = np.max(np.abs(kvals - adjoint))
    min_eig = np.min(np.linalg.eigvalsh(0.5 * (kvals + adjoint)))
    return float((max(gap, skew, -min_eig) - _HERM_TOL * scale) / scale)


def test_density_margin_matches_the_matmul_and_eigvalsh_path(friedrichs_model, model_zoo):
    # the margin is relative to scale, so 1e-15 here is 1e-15 * scale in
    # the gap, the skew and the least eigenvalue
    models = [friedrichs_model] + list(model_zoo) + [model for _, model in hard_models()]
    assert {model.n for model in models} == {1, 2, 3}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in models:
            assert abs(density_margin(model) - _density_margin_reference(model)) <= 1e-15
        # an indefinite K' (b^* b plus diag(0, -1)) fails by its most
        # negative eigenvalue, about -1 + tol, in both paths
        model = sr.build_model((-1.0, 1.0), 0.1 * np.eye(2), [[[1.0, 0.0]]])
        coeffs = model.kprime.coefficients.copy()
        coeffs[0, 1, 1] = -1.0
        model.__dict__["kprime"] = MatrixPolynomial(coeffs)
        margin = density_margin(model)
        assert margin > 0.0
        assert abs(margin - _density_margin_reference(model)) <= 1e-15


@pytest.mark.parametrize("b", [[[[1e200]]], [[[np.inf]]], [[[0.1]], [[np.nan]]]],
                         ids=["overflowing", "infinite", "nan"])
def test_build_model_rejects_a_non_finite_density(b, recwarn):
    with pytest.raises(ModelError, match="non-finite"):
        sr.build_model((-1.0, 1.0), [[0.0]], b)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("interval", [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf)],
                         ids=["overflowing", "infinite-lo", "infinite-hi"])
def test_build_model_rejects_an_interval_whose_length_overflows(interval, recwarn):
    # hi - lo = inf: the semicircle's V0 would be inf * 0 = NaN at its ends
    with pytest.raises(ModelError, match=r"interval \(.*\) has a length beyond"):
        sr.build_model(interval, [[0.0]], [[[0.2]]])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # the widest interval whose length is a float is accepted
    sr.build_model((-8e307, 8e307), [[0.0]], [[[0.2]]])


def test_density_margin_is_negative_on_the_zoo_and_the_wide_models(model_zoo):
    margins = [density_margin(m) for m in list(model_zoo) + wide_models(1, 2)]
    assert max(margins) < 0.0, max(margins)


def test_sigma1_sorted():
    a1 = np.array([[0.3, 0.1], [0.1, -0.2]])
    model = sr.build_model((-1.0, 1.0), a1, [0.1 * np.eye(2)])
    assert np.all(np.diff(model.sigma1) >= 0)
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(a1)) - model.sigma1)) < 1e-14


def test_semibounded_verdict(friedrichs_model):
    region = np.linspace(-1.0, 1.0, 201)
    good = sr.check_semibounded_density(friedrichs_model, region, 0.01)
    assert good.passed
    assert good.samples == 201
    assert abs(good.min_eigenvalue - 0.04) < 1e-14
    bad = sr.check_semibounded_density(friedrichs_model, region, 0.05)
    assert not bad.passed
    with pytest.raises(ModelError):
        sr.check_semibounded_density(friedrichs_model, [], 0.01)
    with pytest.raises(ModelError):
        sr.check_semibounded_density(friedrichs_model, region, 0.0)


def test_semibounded_rank_deficient():
    # m < n forces a kernel in the density: never uniformly positive
    model = sr.build_model((-1.0, 1.0), np.zeros((2, 2)), [[[0.1, 0.0]]])
    verdict = sr.check_semibounded_density(model, np.linspace(-1, 1, 51), 1e-10)
    assert not verdict.passed
