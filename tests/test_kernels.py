"""Kernel correctness: every reduction must match a naive per-node loop
(one explicit inverse per quadrature node) to machine precision,
including the closed-form n == 1 paths."""

import numpy as np
import pytest

from schurroots import _kernels as knp
from schurroots._kernels import backend_name


def _random_problem(rng, n, M=97):
    kv = rng.normal(size=(M, n, n)) + 1j * rng.normal(size=(M, n, n))
    mus = rng.normal(size=M) + 1j * rng.normal(size=M)
    w = rng.normal(size=M) + 1j * rng.normal(size=M)
    # keep Z - mu invertible by pushing Z far off the node cloud
    zm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 5j * np.eye(n)
    zl = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) - 5j * np.eye(n)
    return kv, mus, w, zm, zl


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_match_naive_loop(n):
    rng = np.random.default_rng(100 + n)
    kv, mus, w, zm, zl = _random_problem(rng, n)
    z = 0.3 + 2.5j
    zs = rng.normal(size=7) + 1j * (2.0 + rng.uniform(size=7))
    coeffs = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    eye = np.eye(n)
    inv_r = [np.linalg.inv(zm - mu * eye) for mu in mus]
    inv_l = [np.linalg.inv(zl - mu * eye) for mu in mus]

    poly = np.array([sum(c * mu ** k for k, c in enumerate(coeffs)) for mu in mus])
    cauchy = sum(wk * k / (mu - z) for wk, k, mu in zip(w, kv, mus))
    cauchy_many = np.array([sum(wk * k / (mu - zp) for wk, k, mu in zip(w, kv, mus))
                            for zp in zs])
    resolvent = sum(wk * k @ r for wk, k, r in zip(w, kv, inv_r))
    resolvent_cauchy = sum(wk * k @ r / (mu - z)
                           for wk, k, r, mu in zip(w, kv, inv_r, mus))
    resolvent_cauchy_many = np.array([sum(wk * k @ r / (mu - zp)
                                          for wk, k, r, mu in zip(w, kv, inv_r, mus))
                                      for zp in zs])
    sandwich = sum(wk * left @ k @ r for wk, k, left, r in zip(w, kv, inv_l, inv_r))

    assert _rel(poly, knp.polyval_matrix(coeffs, mus)) < 1e-13
    assert _rel(cauchy, knp.cauchy_sum(kv, mus, w, z)) < 1e-13
    assert _rel(cauchy_many, knp.cauchy_sum_many(kv, mus, w, zs)) < 1e-13
    assert _rel(resolvent, knp.resolvent_sum(kv, mus, w, zm)) < 1e-12
    assert _rel(resolvent_cauchy,
                knp.resolvent_cauchy_sum(kv, mus, w, zm, np.array([z]))[0]) < 1e-12
    assert _rel(sandwich, knp.sandwich_sum(kv, mus, w, zl, zm)) < 1e-12

    # a 1-d array of points: one batched call agrees with the naive loop
    # and with one one-point batch per point
    batched = knp.resolvent_cauchy_sum(kv, mus, w, zm, zs)
    per_point = np.concatenate([knp.resolvent_cauchy_sum(kv, mus, w, zm, zs[k:k + 1])
                                for k in range(len(zs))])
    assert batched.shape == (len(zs), n, n)
    assert _rel(resolvent_cauchy_many, batched) < 1e-12
    assert _rel(per_point, batched) < 1e-14


def _horner_by_node(coeffs, mus):
    # Horner on the (M, r, c) layout, one short loop over r*c per node
    k, r, c = coeffs.shape
    out = np.empty((mus.shape[0], r, c), dtype=np.complex128)
    out[:] = coeffs[k - 1]
    for idx in range(k - 2, -1, -1):
        out *= mus[:, None, None]
        out += coeffs[idx]
    return out


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (3, 2), (4, 1),
                                   (1, 3), (5, 5), (17, 16)])
def test_polyval_matrix_matches_horner_by_node(shape):
    rng = np.random.default_rng(sum(shape))
    for degree in range(5):
        coeffs = (rng.normal(size=(degree + 1,) + shape)
                  + 1j * rng.normal(size=(degree + 1,) + shape))
        for count in (1, 97, 800):
            mus = rng.normal(size=count) + 1j * rng.normal(size=count)
            got = knp.polyval_matrix(coeffs, mus)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _horner_by_node(coeffs, mus))


def test_numpy_resolvent_identity():
    # sum w_k K inv(Z - mu_k) with K = I, single node: plain inverse
    n = 3
    rng = np.random.default_rng(5)
    zm = rng.normal(size=(n, n)) + 4j * np.eye(n)
    kv = np.eye(n, dtype=np.complex128)[None, :, :]
    got = knp.resolvent_sum(kv, np.array([0.7 + 0j]), np.array([1.0 + 0j]), zm)
    expect = np.linalg.inv(zm - 0.7 * np.eye(n))
    assert np.max(np.abs(got - expect)) < 1e-13


def test_numpy_sandwich_identity():
    n = 2
    rng = np.random.default_rng(6)
    zl = rng.normal(size=(n, n)) - 3j * np.eye(n)
    zr = rng.normal(size=(n, n)) + 3j * np.eye(n)
    k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    got = knp.sandwich_sum(k[None], np.array([0.1 + 0j]), np.array([2.0 + 0j]), zl, zr)
    ident = np.eye(n)
    expect = 2.0 * np.linalg.inv(zl - 0.1 * ident) @ k @ np.linalg.inv(zr - 0.1 * ident)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_backend_name_valid():
    assert backend_name() == "numpy"
