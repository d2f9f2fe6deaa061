"""Kernel correctness: every reduction must match a naive per-node loop
(one explicit inverse per quadrature node) to machine precision,
including the closed-form n == 1 paths; the small-matrix layer must match
LAPACK within the accuracy its closed forms promise, and the one-point
cut moments the batched ones."""

import warnings

import numpy as np
import pytest

from schurroots import _kernels as knp
from schurroots._kernels import backend_name
from schurroots.rootsolver import _COND_LIMIT, _cond_within
from schurroots.schur import _cut_moments, _cut_quotients_at, _log_quotient


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


# (m, n, nodes, points, seed): K_k is m x n. The first four are the square
# cases; then one node, one point, and m != n, the shape of the (m, n)
# products of B^*Y
@pytest.mark.parametrize("m, n, nodes, points, seed", [
    (1, 1, 97, 7, 101), (2, 2, 97, 7, 102), (3, 3, 97, 7, 103), (4, 4, 97, 7, 104),
    (2, 2, 1, 7, 105), (2, 2, 97, 1, 106), (3, 2, 97, 7, 107)],
    ids=["1", "2", "3", "4", "one-node", "one-point", "m3-n2"])
def test_kernels_match_naive_loop(m, n, nodes, points, seed):
    rng = np.random.default_rng(seed)
    kv, mus, w, zm, zl = _random_problem(rng, n, nodes)
    if m != n:
        kv = rng.normal(size=(nodes, m, n)) + 1j * rng.normal(size=(nodes, m, n))
        zl = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) - 5j * np.eye(m)
    z = 0.3 + 2.5j
    zs = rng.normal(size=points) + 1j * (2.0 + rng.uniform(size=points))
    coeffs = rng.normal(size=(4, m, n)) + 1j * rng.normal(size=(4, m, n))
    inv_r = [np.linalg.inv(zm - mu * np.eye(n)) for mu in mus]
    inv_l = [np.linalg.inv(zl - mu * np.eye(m)) for mu in mus]

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
                knp.resolvent_cauchy_sum(kv, mus, w, zm, np.array([z]))[1][0]) < 1e-12
    assert _rel(sandwich, knp.sandwich_sum(kv, mus, w, zl, zm)) < 1e-12

    # a 1-d array of points: one batched call agrees with the naive loop
    # and with one one-point batch per point, for both of its sums
    plain, batched = knp.resolvent_cauchy_sum(kv, mus, w, zm, zs)
    per_point = [knp.resolvent_cauchy_sum(kv, mus, w, zm, zs[k:k + 1]) for k in range(len(zs))]
    assert plain.shape == batched.shape == (len(zs), m, n)
    assert _rel(cauchy_many, plain) < 1e-13
    assert _rel(resolvent_cauchy_many, batched) < 1e-12
    for part, got in enumerate((plain, batched)):
        assert _rel(np.concatenate([pair[part] for pair in per_point]), got) < 1e-14


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


# The small-matrix layer: solve, spectral_norms and smallest_singular_values
# against LAPACK. pyproject.toml turns every RuntimeWarning into an error,
# so a closed form that divides by zero or overflows fails these tests.

EPS = np.finfo(float).eps


def _unitary(rng, count):
    q, _ = np.linalg.qr(rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2)))
    return q


def _two_by_two_stacks(rng, count=400):
    """Named (count, 2, 2) stacks: random; condition numbers log-uniform up
    to 1e12; and each matrix of the ill-conditioned stack scaled by a power
    of ten between 1e-150 and 1e150."""
    random = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    conds = 10.0 ** rng.uniform(0, 12, size=count)
    sing = np.zeros((count, 2, 2))
    sing[:, 0, 0], sing[:, 1, 1] = 1.0, 1.0 / conds
    ill = _unitary(rng, count) @ sing @ _unitary(rng, count)
    scaled = ill * 10.0 ** rng.uniform(-150, 150, size=(count, 1, 1))
    return {"random": random, "ill-conditioned": ill, "scaled": scaled}


def _max_rel_err(got, ref):
    # per matrix, the largest entry error relative to the largest entry,
    # without squares that could overflow at entries near 1e300
    return (np.max(np.abs(got - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2)))


@pytest.mark.parametrize("name", ["random", "ill-conditioned", "scaled"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_2x2_matches_lapack_within_cond_eps(name, k):
    rng = np.random.default_rng(11 + k)
    a = _two_by_two_stacks(rng)[name]
    rhs_scale = 10.0 ** rng.uniform(-150, 150, size=(a.shape[0], 1, 1)) if name == "scaled" else 1.0
    b = rhs_scale * (rng.normal(size=(a.shape[0], 2, k)) + 1j * rng.normal(size=(a.shape[0], 2, k)))
    got = knp.solve(a, b)
    ref = np.linalg.solve(a, b)
    assert got.shape == ref.shape
    assert np.all(_max_rel_err(got, ref) <= 10 * np.linalg.cond(a) * EPS)


@pytest.mark.parametrize("name", ["random", "ill-conditioned", "scaled"])
def test_solve_2x2_inverse_matches_lapack_within_cond_eps(name):
    # one right-hand side, the identity, for every matrix of the stack
    a = _two_by_two_stacks(np.random.default_rng(21))[name]
    got = knp.solve(a, np.eye(2))
    assert np.all(_max_rel_err(got, np.linalg.inv(a)) <= 10 * np.linalg.cond(a) * EPS)


@pytest.mark.parametrize("n", [1, 3])
def test_solve_other_sizes_match_lapack(n):
    rng = np.random.default_rng(30 + n)
    a = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n)) + 3 * np.eye(n)
    b = rng.normal(size=(50, n, 2)) + 1j * rng.normal(size=(50, n, 2))
    assert np.allclose(knp.solve(a, b), np.linalg.solve(a, b), rtol=1e-13, atol=0)
    assert np.allclose(knp.solve(a, np.eye(n)), np.linalg.inv(a), rtol=1e-13, atol=0)


# Stacks of fewer than _CRAMER_MIN_STACK 2 x 2 matrices go to LAPACK
# whole, so the tests of Cramer's rule and its fallback run on stacks at
# and above that size.
CRAMER_STACKS = [knp._CRAMER_MIN_STACK, 2 * knp._CRAMER_MIN_STACK + 1]


def test_solve_falls_back_to_lapack_where_cramer_fails():
    # the determinant 1e150 is in range, but 1e200 * 1e150 overflows in
    # Cramer's rule; with b = (1, 1e150) the entries also span more than the
    # safe range, so dividing the matrix by its largest modulus would
    # underflow 1e-50 to 0 and give x0 = 0. Both systems come from LAPACK,
    # and the well-scaled systems around them keep Cramer's rule
    for count in CRAMER_STACKS:
        rng = np.random.default_rng(count)
        a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2)) + 3 * np.eye(2)
        b = rng.normal(size=(count, 2, 1)) + 1j * rng.normal(size=(count, 2, 1))
        bad = [0, count // 2]
        a[bad] = [[1e200, 0.0], [0.0, 1e-50]]
        b[bad] = [[[1e150], [1e150]], [[1.0], [1e150]]]
        got = knp.solve(a, b)
        assert np.allclose(got[0, :, 0], [1e-50, 1e200], rtol=1e-15, atol=0)
        assert np.allclose(got[count // 2, :, 0], [1e-200, 1e200], rtol=1e-15, atol=0)
        assert np.array_equal(got[bad], np.linalg.solve(a[bad], b[bad]))
        # Cramer's rule, x = adj(a) b / det, in _cramer's operations
        good = np.ones(count, dtype=bool)
        good[bad] = False
        (p, q), (r, t) = a[good].transpose(1, 2, 0)
        b0, b1 = b[good, :, 0].T
        det = p * t - q * r
        cramer = np.stack([(t * b0 - q * b1) / det, (p * b1 - r * b0) / det], axis=1)
        assert np.array_equal(got[good, :, 0], cramer)


@pytest.mark.parametrize("singular", [
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 2.0], [2.0, 4.0]],
    [[0.0, 1.0], [0.0, 3.0]],
])
def test_solve_exactly_singular_raises(singular):
    for count in CRAMER_STACKS:
        a = np.tile(np.eye(2, dtype=complex), (count, 1, 1))
        a[3] = singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                knp.solve(a, np.ones((count, 2, 1), dtype=complex))


@pytest.mark.parametrize("count", [knp._CRAMER_MIN_STACK - 1, knp._CRAMER_MIN_STACK])
@pytest.mark.parametrize("name", ["random", "ill-conditioned", "scaled"])
def test_solve_either_side_of_the_crossover_matches_lapack(name, count):
    # one stack below the crossover (LAPACK) and one at it (Cramer's rule):
    # both within 10 cond(a) eps of LAPACK, and a singular matrix in the
    # stack raises LinAlgError on both sides, without a RuntimeWarning
    rng = np.random.default_rng(count)
    a = _two_by_two_stacks(rng, count)[name]
    b = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    got = knp.solve(a, b)
    assert np.all(_max_rel_err(got, np.linalg.solve(a, b)) <= 10 * np.linalg.cond(a) * EPS)
    a = a.copy()
    a[count // 2] = [[1.0, 2.0], [2.0, 4.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            knp.solve(a, b)


def _stack(rng, count, r, c):
    return rng.normal(size=(count, r, c)) + 1j * rng.normal(size=(count, r, c))


SIZES = [1, 2, 3, 16]


@pytest.mark.parametrize("r", SIZES)
@pytest.mark.parametrize("c", SIZES)
def test_spectral_norms_match_lapack(r, c):
    rng = np.random.default_rng(100 * r + c)
    mats = _stack(rng, 40, r, c)
    # per matrix scales from 1e-300 to 1e300: unscaled, the squares of the
    # entries would overflow or underflow
    extreme = mats * 10.0 ** rng.uniform(-300, 300, size=(40, 1, 1))
    for stack in (mats, extreme):
        ref = np.linalg.norm(stack, 2, axis=(1, 2))
        got = knp.spectral_norms(stack)
        assert got.shape == (40,)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)
        # one matrix, and a stack with more than one batch axis
        for k in (0, 17, 39):
            assert abs(float(knp.spectral_norms(stack[k])) - ref[k]) <= 1e-14 * ref[k]
        nested = knp.spectral_norms(stack.reshape(4, 10, r, c))
        assert np.array_equal(nested, got.reshape(4, 10))


@pytest.mark.parametrize("r", SIZES)
@pytest.mark.parametrize("c", SIZES)
def test_spectral_norms_of_zeros_and_nan(r, c):
    rng = np.random.default_rng(7 * r + c)
    mats = _stack(rng, 6, r, c)
    mats[2] = 0.0
    mats[4, r - 1, c - 1] = np.nan
    got = knp.spectral_norms(mats)
    ref = np.linalg.norm(np.delete(mats, 4, axis=0), 2, axis=(1, 2))
    assert got[2] == 0.0
    assert np.isnan(got[4])
    assert np.all(np.abs(np.delete(got, 4) - ref) <= 1e-14 * np.maximum(ref, 1e-300))
    assert knp.spectral_norms(np.zeros((r, c))) == 0.0
    assert np.isnan(knp.spectral_norms(mats[4]))
    assert np.array_equal(knp.spectral_norms(np.zeros((3, r, c))), np.zeros(3))


@pytest.mark.parametrize("r", SIZES)
@pytest.mark.parametrize("c", SIZES)
def test_gram_matrices_match_matmul(r, c):
    rng = np.random.default_rng(300 + 10 * r + c)
    mats = _stack(rng, 40, r, c)
    ref = np.conj(np.swapaxes(mats, 1, 2)) @ mats
    got = knp.gram_matrices(mats)
    assert got.shape == (40, c, c)
    size = np.max(np.abs(ref), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(got - ref) <= 1e-15 * r * size)
    # the closed form is Hermitian to the bit; the one-matrix shape
    assert c > 2 or np.array_equal(got, np.conj(np.swapaxes(got, 1, 2)))
    assert np.array_equal(knp.gram_matrices(mats[3]), got[3])


@pytest.mark.parametrize("n", SIZES)
def test_smallest_hermitian_eigenvalues_match_eigvalsh(n):
    rng = np.random.default_rng(500 + n)
    mats = _stack(rng, 40, n, n)
    # a Hermitian part that is indefinite, definite, scalar and near a
    # double eigenvalue, and per matrix scales from 1e-300 to 1e300
    mats[1] = np.eye(n)
    mats[2] = 3.0 * np.eye(n) + 1e-9j * np.eye(n)
    mats[3] = np.diag(np.linspace(1.0, 1.0 + 1e-12, n)) + 1e-13 * mats[3]
    extreme = mats * 10.0 ** rng.uniform(-300, 300, size=(40, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for stack in (mats, extreme):
            herm = 0.5 * (stack + np.conj(np.swapaxes(stack, 1, 2)))
            ref = np.linalg.eigvalsh(herm)[:, 0]
            got = knp.smallest_hermitian_eigenvalues(stack)
            assert got.shape == (40,)
            size = np.linalg.norm(herm, 2, axis=(1, 2))
            assert np.all(np.abs(got - ref) <= 4e-16 * n * size)
        assert np.all(knp.smallest_hermitian_eigenvalues(mats[1:3]) == [1.0, 3.0])
        # a NaN entry gives NaN and nothing else, where eigvalsh could raise
        mats[5, n - 1, 0] = np.nan
        got = knp.smallest_hermitian_eigenvalues(mats)
    assert np.isnan(got[5]) and np.isfinite(np.delete(got, 5)).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smallest_singular_values_and_condition_match_svd(n):
    rng = np.random.default_rng(40 + n)
    if n == 2:
        stacks = _two_by_two_stacks(rng).values()
    else:
        stacks = [_stack(rng, 400, n, n)]
    for mats in stacks:
        svals = np.linalg.svd(mats, compute_uv=False)
        smin = knp.smallest_singular_values(mats)
        # |det| / sigma_max is accurate to eps sigma_max, as the SVD is
        assert np.all(np.abs(smin - svals[:, -1]) <= 4 * EPS * svals[:, 0])
        ref_cond = svals[:, 0] / svals[:, -1]
        cond = knp.spectral_norms(mats) / smin
        assert np.all(np.abs(cond - ref_cond) <= 10 * ref_cond * ref_cond * EPS)
    zeros = np.zeros((2, n, n), dtype=complex)
    assert np.array_equal(knp.smallest_singular_values(zeros), np.zeros(2))


# eig: the n <= 2 closed form against LAPACK, with bounds fixed here. For
# each matrix Z of a stack, with the unit eigenvectors V_ref of
# np.linalg.eig: the two eigenvalues match LAPACK's, as sets, within
# EIG_C eps ||Z|| cond(V_ref) (cond(V_ref) is the eigenvalue condition of
# the comparison: near an exceptional point LAPACK's own eigenvalues move
# by that much); each eigenvector has unit norm within EIG_C eps and a
# residual ||Z v - lam v|| within EIG_C eps ||Z||. The mutations each
# check catches, each tried on a copy of _kernels.small_eig:
# - no scaling (never dividing by the power of two): the "scaled" stack,
#   whose products of two entries overflow or underflow;
# - the cancelling quadratic, lam = tr/2 +- sqrt((tr/2)^2 - det): the
#   "near-ep" stack, off by about sqrt(eps) ||Z||;
# - the wrong adjugate column (the smaller one): the triangular and
#   Jordan stacks, where it is zero;
# - no check for a defective matrix (qr == 0 sent to the quadratic): the
#   Jordan block, where w = 0 and qr / w divides by zero, and the
#   triangular stacks;
# - no identity for a diagonal matrix: the "diagonal" and "scalar" stacks;
# - no decomposition of the conjugate where the first imaginary part is
#   negative: the conjugation test on the real, diagonal, triangular and
#   Jordan stacks, whose results then differ in signs of zero.

EIG_C = 8


def _eig_stacks(rng, count=200):
    """Named (count, 2, 2) complex stacks of the shapes the closed form
    treats apart, and of entries from 1e-300 to 1e300."""
    random = _stack(rng, count, 2, 2)
    diagonal = np.zeros((count, 2, 2), dtype=complex)
    diagonal[:, [0, 1], [0, 1]] = _stack(rng, count, 1, 2)[:, 0]
    scalar = _stack(rng, count, 1, 1) * np.eye(2)
    upper, lower = np.triu(random), np.tril(_stack(rng, count, 2, 2))
    jordan = _stack(rng, count, 1, 1) * np.eye(2) + np.array([[0, 1], [0, 0]]) * _stack(rng, count, 1, 1)
    # a Jordan block perturbed by 1e-16 to 1e-2 of its size
    near_ep = jordan + _stack(rng, count, 2, 2) * 10.0 ** rng.uniform(-16, -2, size=(count, 1, 1))
    real = rng.normal(size=(count, 2, 2)).astype(complex)
    # from 1e-300 to 1e300: products of two entries over- or underflow
    scaled = random * 10.0 ** rng.uniform(-300, 300, size=(count, 1, 1))
    return {"random": random, "diagonal": diagonal, "scalar": scalar, "upper": upper,
            "lower": lower, "jordan": jordan, "near-ep": near_ep, "random-real": real,
            "scaled": scaled}


EIG_STACKS = list(_eig_stacks(np.random.default_rng(0), count=1))


@pytest.mark.parametrize("name", EIG_STACKS)
def test_eig_2x2_matches_lapack(name):
    mats = _eig_stacks(np.random.default_rng(50))[name]
    for z in mats:
        values, vectors = knp.eig(z)
        assert values.shape == (2,) and vectors.shape == (2, 2)
        ref_values, ref_vectors = np.linalg.eig(z)
        size = np.linalg.norm(z, 2)
        # the residual in the largest entry, so tiny matrices do not underflow
        residual = np.abs(z @ vectors - vectors * values).max(axis=0)
        assert np.all(residual <= EIG_C * EPS * size)
        assert np.all(np.abs(np.linalg.norm(vectors, axis=0) - 1.0) <= EIG_C * EPS)
        if name == "jordan":
            # both sides give the diagonal exactly, and the two parallel
            # eigenvectors fail the basis test, so the Picard map falls back
            assert np.array_equal(values, ref_values)
            assert not _cond_within(vectors, _COND_LIMIT)
            continue
        gap = min(np.abs(values - ref_values).max(), np.abs(values[::-1] - ref_values).max())
        assert gap <= EIG_C * EPS * size * np.linalg.cond(ref_vectors)
        if name in ("diagonal", "scalar", "upper", "lower"):
            assert np.array_equal(values, np.diagonal(z))
        if name in ("diagonal", "scalar"):
            assert np.array_equal(vectors, np.eye(2))


@pytest.mark.parametrize("name", EIG_STACKS)
def test_eig_of_the_conjugate_is_the_conjugate(name):
    for z in _eig_stacks(np.random.default_rng(51))[name]:
        for mat in (z, z[:1, :1]):
            values, vectors = knp.eig(mat)
            conj_values, conj_vectors = knp.eig(np.conj(mat))
            assert conj_values.tobytes() == np.conj(values).tobytes()
            assert conj_vectors.tobytes() == np.conj(vectors).tobytes()


def test_eig_other_sizes_and_non_finite_entries():
    rng = np.random.default_rng(52)
    z = _stack(rng, 1, 3, 3)[0]
    got, want = knp.eig(z), np.linalg.eig(z)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    values, vectors = knp.eig(np.array([[0.3 - 0.2j]]))
    assert values.tolist() == [0.3 - 0.2j] and vectors.tolist() == [[1.0]]
    for n in (1, 2):
        for bad in (np.nan, np.inf):
            mat = np.eye(n, dtype=complex)
            mat[-1, 0] = bad
            with pytest.raises(np.linalg.LinAlgError):
                knp.eig(mat)


@pytest.mark.parametrize("branch", ["physical", 1, -1])
def test_scalar_cut_moments_match_the_batched_ones(branch):
    # the values of _cut_quotients_at against _cut_moments at degrees 0-4,
    # in units of the size of the two terms z^s L and q_s of each moment:
    # different roundings of the logarithm and of z^s, no other difference
    rng = np.random.default_rng(53)
    a, b = -1.0, 1.0
    zs = rng.normal(size=300) * 1.5 + 1j * rng.normal(size=300)
    zs[:20] = rng.uniform(-0.99, 0.99, size=20)  # on the open interval
    if branch == "physical":
        zs[:20] += 1e-3j
    for degree in range(5):
        batched = _cut_moments(a, b, zs, degree, branch)
        for z, want in zip(zs, batched):
            got = np.array(_cut_quotients_at(a, b, complex(z), complex(z), degree, branch)[0])
            log_term, q = abs(want[0]), 0.0
            for s in range(degree + 1):
                if s:
                    q = z * q + (b ** s - a ** s) / s
                size = abs(z) ** s * log_term + abs(q)
                assert abs(got[s] - want[s]) <= 4 * EPS * size


def _log_quotient_pairs(rng, count):
    """Named lists of (u, v): relative gaps from 1e-15 to 0.3, u = v, u =
    -v, and pairs that straddle the negative real axis, at angles from
    1e-15 to 0.3 off it, with moduli apart by up to 0.1 relative."""
    def draw():
        return complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2, 2)

    gaps, straddling = [], []
    for _ in range(count):
        u = draw()
        gap = 10.0 ** rng.uniform(-15, np.log10(0.3)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        gaps.append((u, u * (1.0 + gap)))
        angles = np.pi - 10.0 ** rng.uniform(-15, np.log10(0.3), size=2)
        spread = 1.0 + 10.0 ** rng.uniform(-15, -1) * rng.choice([-1.0, 1.0])
        straddling.append((abs(u) * np.exp(1j * angles[0]),
                           abs(u) * spread * np.exp(-1j * angles[1])))
    equal = [(u, u) for u, _ in gaps]
    opposite = [(u, -u) for u, _ in gaps]
    return {"gaps": gaps, "equal": equal, "opposite": opposite, "straddling": straddling}


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 500, 2.0 ** -500])
def test_log_quotient_matches_mpmath(scale):
    # (Log u - Log v)/(u - v) against 50 digits, within 4 eps relative:
    # close pairs, where the plain quotient cancels, and pairs across the
    # cut of Log, where the atanh form needs its unwinding term
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(54)
    cases = _log_quotient_pairs(rng, 300)
    # far-apart pairs at unit scale, the plain quotient's
    cases["far"] = [(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
                    for _ in range(300)]
    assert sum(abs(u + v) == 0.0 for u, v in cases["opposite"]) == 300
    # every straddling pair is a whole turn apart in argument, and most are
    # close enough for the atanh form
    assert all(abs(np.angle(u) - np.angle(v)) > np.pi for u, v in cases["straddling"])
    assert sum(abs(u - v) < abs(u + v) / 2 for u, v in cases["straddling"]) > 250
    for name, pairs in cases.items():
        if name == "far" and scale != 1.0:
            continue
        for u, v in pairs:
            u, v = u * scale, v * scale
            big_u, big_v = mpmath.mpc(u), mpmath.mpc(v)
            want = (1 / big_u if big_u == big_v
                    else (mpmath.log(big_u) - mpmath.log(big_v)) / (big_u - big_v))
            got = _log_quotient(complex(u), complex(v))
            assert abs(got - complex(want)) <= 4 * EPS * abs(complex(want)), (name, u, v)


@pytest.mark.parametrize("branch", ["physical", 1, -1])
def test_cut_quotients_match_mpmath(branch):
    # the moments and their divided differences at degrees 0-4 against 50
    # digits, at x = y (the derivative), at x within 1e-15 to 1e-1 of y
    # and at x far from y, in units of the size of the terms of each
    # recurrence
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    a, b = -1.0, 1.0
    degree = 4

    def moment(z, s):
        if branch == "physical":
            log_term = mpmath.log((b - z) / (a - z))
        else:
            log_term = mpmath.log(b - z) - mpmath.log(z - a) - 1j * mpmath.pi * branch
        q = 0
        for k in range(1, s + 1):
            q = z * q + mpmath.mpf(b ** k - a ** k) / k
        return z ** s * log_term + q

    rng = np.random.default_rng(55)
    for trial in range(90):
        y = complex(*rng.normal(size=2)) * 1.5
        x = [y, y + 10.0 ** rng.uniform(-15, -1) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
             complex(*rng.normal(size=2)) * 1.5][trial % 3]
        values, quotients = _cut_quotients_at(a, b, complex(x), y, degree, branch)
        big_x, big_y = mpmath.mpc(x), mpmath.mpc(y)
        value_size, quotient_size, q = abs(values[0]), abs(quotients[0]), 0.0
        for s in range(degree + 1):
            if s:
                quotient_size = abs(x) * quotient_size + value_size
                q = y * q + (b ** s - a ** s) / s
                value_size = abs(y) ** s * abs(values[0]) + abs(q)
            if big_x == big_y:
                want = mpmath.diff(lambda z: moment(z, s), big_y)
            else:
                want = (moment(big_x, s) - moment(big_y, s)) / (big_x - big_y)
            assert abs(values[s] - complex(moment(big_y, s))) <= 8 * EPS * value_size
            assert abs(quotients[s] - complex(want)) <= 8 * EPS * quotient_size
