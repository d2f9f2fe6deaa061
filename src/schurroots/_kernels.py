"""Quadrature kernels.

polyval_matrix evaluates a matrix polynomial at M nodes. Every other
function receives precomputed density values `kvals` of shape (M, r, c)
together with the M quadrature nodes and weights, and reduces them to a
single matrix, or to one matrix per point of a 1-d array of evaluation
points (cauchy_sum_many, resolvent_cauchy_sum). These kernels are the hot
path of the whole package.

Conventions: nodes and weights may be complex (contour quadrature),
`zmat` arguments are square complex matrices, resolvents are taken of
(Z - mu) with mu running over the nodes.
"""

import numpy as np

# Largest r*c for which polyval_matrix runs node-major (see there). At
# n = 2 on 800 nodes that layout takes about 2/3 of the time; from 5 x 5
# on, the transpose back makes it slower than the (M, r, c) loop.
_NODE_MAJOR_ENTRIES = 16


def backend_name() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "numpy"


def polyval_matrix(coeffs, mus):
    """Evaluate a matrix polynomial sum_k coeffs[k] mu^k at each mu.

    coeffs: (K, r, c), mus: (M,) -> (M, r, c), C-contiguous. Horner form.
    For small matrices (r*c <= _NODE_MAJOR_ENTRIES) it runs on an
    (r*c, M) node-contiguous buffer, so each pass is one long loop over
    the nodes per matrix entry instead of M short loops over r*c entries;
    for larger ones the transpose back costs more than that saves. Each
    entry sees the same operations in the same order either way, so the
    values are bit for bit those of Horner on the (M, r, c) layout.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    mus = np.asarray(mus, dtype=np.complex128)
    k, r, c = coeffs.shape
    m = mus.shape[0]
    node_major = r * c <= _NODE_MAJOR_ENTRIES
    if node_major:
        flat, x, out = coeffs.reshape(k, r * c, 1), mus, np.empty((r * c, m), np.complex128)
    else:
        flat, x, out = coeffs.reshape(k, 1, r * c), mus[:, None], np.empty((m, r * c), np.complex128)
    out[:] = flat[k - 1]
    for idx in range(k - 2, -1, -1):
        out *= x
        out += flat[idx]
    if node_major:
        out = np.ascontiguousarray(out.T)
    return out.reshape(m, r, c)


def cauchy_sum(kvals, nodes, weights, z):
    """sum_k w_k K_k / (mu_k - z) -> (r, c)."""
    factors = weights / (nodes - z)
    return np.einsum("m,mij->ij", factors, kvals)


def cauchy_sum_many(kvals, nodes, weights, zs):
    """Vectorized cauchy_sum over a batch of points zs: (P,) -> (P, r, c)."""
    factors = weights[None, :] / (nodes[None, :] - zs[:, None])
    return np.einsum("pm,mij->pij", factors, kvals)


def _shifted_solve(a, nodes, rhs):
    # inv(a - mu_k) @ rhs_k for every node; for 1x1 `a` a plain division,
    # which skips the per-call overhead of the batched solve
    if a.shape[0] == 1:
        return rhs / (a[0, 0] - nodes)[:, None, None]
    eye = np.eye(a.shape[0], dtype=np.complex128)
    shifted = a[None, :, :] - nodes[:, None, None] * eye[None, :, :]
    return np.linalg.solve(shifted, rhs)


def _right_resolvent_products(kvals, nodes, zmat):
    # T_k = K_k @ inv(zmat - mu_k), done as one batched solve on transposes
    t = _shifted_solve(zmat.T, nodes, np.swapaxes(kvals, 1, 2))
    return np.swapaxes(t, 1, 2)


def resolvent_sum(kvals, nodes, weights, zmat):
    """sum_k w_k K_k @ inv(zmat - mu_k) -> (r, n)."""
    t = _right_resolvent_products(kvals, nodes, zmat)
    return np.einsum("m,mij->ij", weights, t)


def resolvent_cauchy_sum(kvals, nodes, weights, zmat, zs):
    """sum_k w_k K_k @ inv(zmat - mu_k) / (mu_k - z) at each point z of the
    1-d array zs -> (P, r, n); the resolvent products do not depend on z,
    so they are solved once for all points."""
    t = _right_resolvent_products(kvals, nodes, zmat)
    factors = weights / (nodes - zs[:, None])
    return np.einsum("pm,mij->pij", factors, t)


def _sandwich_products(kvals, nodes, zleft, zright):
    # inv(zleft - mu_k) @ K_k @ inv(zright - mu_k) for every node
    left = _shifted_solve(zleft, nodes, kvals)
    return _right_resolvent_products(left, nodes, zright)


def sandwich_sum(kvals, nodes, weights, zleft, zright):
    """sum_k w_k inv(zleft - mu_k) @ K_k @ inv(zright - mu_k)."""
    t = _sandwich_products(kvals, nodes, zleft, zright)
    return np.einsum("m,mij->ij", weights, t)
