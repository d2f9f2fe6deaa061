"""Quadrature kernels and the small-matrix layer beneath them.

polyval_matrix evaluates a matrix polynomial at M nodes. Every other
quadrature kernel receives precomputed density values `kvals` of shape
(M, r, c) together with the M quadrature nodes and weights, and reduces
them to a single matrix, or to one matrix per point of a 1-d array of
evaluation points (cauchy_sum_many, resolvent_cauchy_sum). Each such sum
is one matrix product (weighted_sums): the weights, or the (P, M) matrix
of the Cauchy factors w_k / (mu_k - z), times the (M, r*c) entries. These
kernels are the hot path of the whole package.

Conventions: nodes and weights may be complex (contour quadrature),
`zmat` arguments are square complex matrices, resolvents are taken of
(Z - mu) with mu running over the nodes.

The small-matrix layer works on stacks (..., r, c) of the 1 x 1 and 2 x 2
matrices the package mostly handles, where a LAPACK call per matrix is
almost all overhead: solve (the batched solves behind every resolvent),
spectral_norms, smallest_singular_values, gram_matrices and
smallest_hermitian_eigenvalues, each in closed form for n <= 2 and
through LAPACK, eigvalsh or matmul otherwise, and eig, the
eigendecomposition of one matrix, in closed form on Python numbers for
n <= 2 (small_eig) and by LAPACK otherwise. solve sends a stack of fewer
than _CRAMER_MIN_STACK (64) 2 x 2 matrices to LAPACK too: below that
measured crossover one batched LAPACK call is faster than the array
operations of the closed form. Where a closed form could
overflow or underflow, solve hands the systems at fault to LAPACK, and
the norms and eig run on each matrix divided by a power of two near its
largest entry (_scales); that division is exact, so it is skipped where
it would change no value (_in_safe_range).
"""

import cmath
import functools
import math

import numpy as np

# Largest r*c for which polyval_matrix runs node-major (see there). At
# n = 2 on 800 nodes that layout takes about 2/3 of the time; from 5 x 5
# on, the transpose back makes it slower than the (M, r, c) loop.
_NODE_MAJOR_ENTRIES = 16

# Fewest 2 x 2 systems in a stack that solve takes by Cramer's rule. A
# smaller stack goes to LAPACK, whose per-call cost is then below that of
# Cramer's dozen array operations: on a 2-vCPU x86-64 VM with one BLAS
# thread the two cross at about 64 matrices, for one or two right-hand
# sides.
_CRAMER_MIN_STACK = 64


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


def weighted_sums(factors, mats):
    """sum_k factors[..., k] mats[k] for a stack mats (M, r, c) and factors
    (..., M) -> (..., r, c): one matrix product of the factors with the
    (M, r*c) entries of the stack."""
    m, r, c = mats.shape
    return (factors @ mats.reshape(m, r * c)).reshape(factors.shape[:-1] + (r, c))


def cauchy_sum(kvals, nodes, weights, z):
    """sum_k w_k K_k / (mu_k - z) -> (r, c)."""
    return weighted_sums(weights / (nodes - z), kvals)


def cauchy_sum_many(kvals, nodes, weights, zs):
    """Vectorized cauchy_sum over a batch of points zs: (P,) -> (P, r, c)."""
    return weighted_sums(weights / (nodes - zs[:, None]), kvals)


# A Frobenius norm squared (_rescaled) or a 2 x 2 determinant (solve)
# inside this range shows that no product of two entries overflowed and
# none that underflowed mattered: every such product is at most 2^901,
# and a term below 2^-1022 is below 2^-122 of the result.
_SAFE_RANGE = (2.0 ** -900, 2.0 ** 900)


def _in_safe_range(values):
    """Whether every one of the nonnegative values lies in _SAFE_RANGE;
    False for a NaN."""
    lo, hi = _SAFE_RANGE
    return bool(lo <= values.min(initial=lo) and values.max(initial=hi) <= hi)


def _scales(rows):
    """(scale, 1 / scale) per matrix of an (r, c, N) entry-major stack:
    the power of two 2^(e-1), 2^e the least power of two above its largest
    modulus (0.5 for a zero or non-finite matrix), and at least 2^-1022 so
    that 1 / scale is finite. Multiplying by 1 / scale is exact and brings
    that modulus into [0.5, 1) (below it for subnormal entries), so no
    product of two entries overflows or underflows while the moduli are
    finite."""
    big = np.abs(rows, order="C").max(axis=(0, 1))
    exponent = np.maximum(np.frexp(big)[1], -1021)
    return np.ldexp(0.5, exponent), np.ldexp(2.0, -exponent)


def _entry_major(mats):
    # the (r, c, N) view of a (..., r, c) stack of N matrices: operations
    # on its entries, written with order="C", run along the N matrices
    # instead of along a short axis of r or c
    r, c = mats.shape[-2:]
    return mats.reshape(-1, r, c).transpose(1, 2, 0)


def _rescaled(kernel, mats):
    """kernel(mats) for a (..., r, c) stack, where kernel returns (values,
    fro2): values of degree one in the matrix, and the Frobenius norms
    squared. Where some fro2 leaves _SAFE_RANGE (a zero, tiny, huge or
    non-finite matrix), kernel runs again on each matrix divided by its
    scale (_scales), and the values are multiplied back; inside the range
    that exact division would change no value above the rounding. A NaN
    entry gives NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        values, fro2 = kernel(mats)
    if _in_safe_range(fro2):
        return values
    scale, inverse = (part.reshape(mats.shape[:-2]) for part in _scales(_entry_major(mats)))
    values, fro2 = kernel(mats * inverse[..., None, None])
    return np.where(np.isnan(fro2), np.nan, scale * values)


def _cramer(rows, b0, b1):
    # (det, x) of the 2 x 2 systems a x = b, entry-major: rows (2, 2, N)
    # holds a, and b0, b1 (k, N) the rows of b; x = adj(a) b / det, (2, k, N)
    (p, q), (r, t) = rows
    det = p * t - q * r
    top = t * b0 - q * b1
    x = np.empty((2,) + top.shape, dtype=top.dtype)
    np.divide(top, det, out=x[0])
    np.divide(p * b1 - r * b0, det, out=x[1])
    return det, x


def solve(a, b):
    """x with a @ x = b for a stack a (..., n, n) and b (..., n, k) of the
    same batch shape, or one b (n, k) for every matrix of a.

    n = 1 divides. n = 2 is Cramer's rule (_cramer), forward stable for
    2 x 2 systems (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., SIAM 2002). Each system whose determinant leaves _SAFE_RANGE
    or whose solution is not finite (a matrix near overflow, underflow or
    singularity) is solved again by np.linalg.solve, which raises
    LinAlgError on an exactly singular matrix. The entries are taken
    entry-major, so that every operation runs along the matrices of the
    stack rather than along a short axis. n >= 3, and a stack of fewer
    than _CRAMER_MIN_STACK 2 x 2 matrices, is np.linalg.solve.
    """
    n, k = b.shape[-2:]
    if n == 1:
        return b / a
    if n > 2 or a.size < n * n * _CRAMER_MIN_STACK:
        return np.linalg.solve(a, np.broadcast_to(b, a.shape[:-1] + (k,)))
    with np.errstate(all="ignore"):
        det, x = _cramer(np.copy(_entry_major(a), order="C"),
                         *np.copy(_entry_major(b), order="C"))
    x, size = x.transpose(2, 0, 1), np.abs(det)
    if not (_in_safe_range(size) and np.isfinite(x).all()):
        lo, hi = _SAFE_RANGE
        at_fault = ~((lo <= size) & (size <= hi) & np.isfinite(x).all(axis=(1, 2)))
        # one b for every matrix is broadcast to the stack first
        full_b = np.broadcast_to(b, a.shape[:-1] + (k,)).reshape(-1, 2, k)
        x[at_fault] = np.linalg.solve(a.reshape(-1, 2, 2)[at_fault], full_b[at_fault])
    return x.reshape(a.shape[:-2] + (2, k))


def _gram_entries(mats):
    # ([g11, g22], g12) of the Gram matrix K^H K of each matrix K of a (...,
    # r, c) stack, c <= 2 (g12 None for c = 1): the entries are summed over
    # the rows in order, one addition of (...) arrays per row, and no
    # reduction runs over a short axis
    r, c = mats.shape[-2:]
    sq = mats.real ** 2 + mats.imag ** 2
    g = [functools.reduce(np.add, [sq[..., i, j] for i in range(r)]) for j in range(c)]
    if c == 1:
        return g, None
    cross = np.conj(mats[..., :, 0]) * mats[..., :, 1]
    return g, functools.reduce(np.add, [cross[..., i] for i in range(r)])


def _largest_closed_form(mats):
    # (sigma_max, fro2) of each matrix of a (..., r, c) stack, c <= 2, from
    # its Gram entries: for c = 2, sigma_max^2 = fro2/2 + hypot((g11 -
    # g22)/2, |g12|)
    g, g12 = _gram_entries(mats)
    if g12 is None:
        return np.sqrt(g[0]), g[0]
    fro2 = g[0] + g[1]
    return np.sqrt(0.5 * fro2 + np.hypot(0.5 * (g[0] - g[1]), np.abs(g12))), fro2


def _largest_by_gram(mats):
    # (sigma_max, fro2) of each matrix of a (..., r, c) stack, c <= r: the
    # root of the largest eigenvalue of K K^H for a square K, else of the
    # smaller K^H K; fro2 is the Gram trace. eigvalsh does not converge on
    # a non-finite Gram matrix, so such a matrix enters it as zeros (its
    # fro2 sends it to _rescaled's second pass, or marks it NaN)
    r, c = mats.shape[-2:]
    adjoint = np.conj(np.swapaxes(mats, -2, -1))
    gram = mats @ adjoint if r == c else adjoint @ mats
    fro2 = np.einsum("...ii->...", gram).real
    finite = np.isfinite(fro2)
    if not finite.all():
        gram = np.where(finite[..., None, None], gram, 0.0)
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1]), fro2


def _scaled_columns(rows):
    # (scale, columns) of one matrix given as rows of Python numbers: the
    # power of two scale = 2^(e-1), 2^e the least power of two above its
    # largest real or imaginary part (0.5 for a zero matrix), and its
    # columns divided by scale, exactly, as lists
    big = max(max(abs(e.real), abs(e.imag)) for row in rows for e in row)
    scale = math.ldexp(0.5, math.frexp(big)[1])
    return scale, [[e / scale for e in col] for col in zip(*rows)]


def _column_norm(cols):
    # the spectral norm of a matrix with at most two columns, given as
    # columns of _scaled_columns: the closed forms of spectral_norms in
    # scalar arithmetic
    g = [sum(e.real * e.real + e.imag * e.imag for e in col) for col in cols]
    if len(cols) == 1:
        return math.sqrt(g[0])
    g12 = abs(sum(x.conjugate() * y for x, y in zip(*cols)))
    return math.sqrt(0.5 * (g[0] + g[1]) + math.hypot(0.5 * (g[0] - g[1]), g12))


def _spectral_norm(rows):
    # the spectral norm of one matrix with at most two columns, given as
    # lists of Python numbers: _column_norm of the matrix scaled by
    # _scaled_columns, in scalar arithmetic, which skips NumPy's per-call
    # cost (almost all the cost of one small matrix)
    scale, cols = _scaled_columns(rows)
    return scale * _column_norm(cols)


def _smallest_singular_value(rows):
    # the smallest singular value of one matrix with n <= 2, given as rows
    # of Python numbers: the modulus for n = 1, and for n = 2 |det| /
    # sigma_max (the two singular values multiply to |det|) on the columns
    # of _scaled_columns, so that the determinant neither overflows nor
    # underflows; 0 for a zero matrix
    if len(rows) == 1:
        return abs(rows[0][0])
    scale, cols = _scaled_columns(rows)
    top = _column_norm(cols)
    (p, r), (q, s) = cols
    return scale * (abs(p * s - q * r) / top) if top > 0.0 else 0.0


def spectral_norms(mats):
    """Largest singular value of each matrix of a (..., r, c) stack -> (...);
    a float for one matrix with min(r, c) <= 2.

    1 x 1 is the modulus, and any other min(r, c) = 1 the vector norm.
    min(r, c) = 2 is the root of the larger eigenvalue of the 2 x 2 Gram
    matrix G, written as (g11 + g22)/2 + hypot((g11 - g22)/2, |g12|),
    which keeps full relative accuracy when the matrix is close to a
    multiple of the identity (the form F/2 + sqrt(F^2/4 - |det K|^2)
    cancels there); one matrix takes it in Python scalars. Otherwise the
    norm is the root of the largest eigenvalue of the smaller Gram matrix
    by a batched eigvalsh, faster than the batched SVD and within about
    1e-15 relative of its value. Stacks are scaled where they need it
    (_rescaled), so no finite input overflows or underflows; a NaN entry
    gives a NaN norm.
    """
    r, c = mats.shape[-2:]
    if r == c == 1:
        return np.abs(mats[..., 0, 0])
    if c > r:
        mats, r, c = np.swapaxes(mats, -2, -1), c, r
    if c > 2:
        return _rescaled(_largest_by_gram, mats)
    if mats.ndim == 2:
        return _spectral_norm(mats.tolist())
    return _rescaled(_largest_closed_form, mats)


def gram_matrices(mats):
    """K^H K for each matrix K of a (..., r, c) stack -> (..., c, c).

    c <= 2 sums its entries over the rows (_gram_entries), the (2, 1)
    entry the conjugate of the (1, 2); c >= 3 is a batched matmul.
    """
    c = mats.shape[-1]
    if c > 2:
        return np.conj(np.swapaxes(mats, -2, -1)) @ mats
    g, g12 = _gram_entries(mats)
    out = np.empty(mats.shape[:-2] + (c, c), dtype=np.complex128)
    out[..., 0, 0] = g[0]
    if c == 2:
        out[..., 1, 1] = g[1]
        out[..., 0, 1] = g12
        out[..., 1, 0] = np.conj(g12)
    return out


def smallest_hermitian_eigenvalues(mats):
    """Least eigenvalue of the Hermitian part (K + K^H)/2 of each matrix K
    of a (..., n, n) stack -> (...).

    n = 1 is Re K. n = 2 is (a + d)/2 - hypot((a - d)/2, |c|) for the
    Hermitian part [[a, c], [conj c, d]], each half taken before the sum
    or difference, so a finite matrix gives no overflow. n >= 3 is a
    batched eigvalsh, into which a non-finite matrix enters as zeros. A
    non-finite entry gives NaN, or an infinite least eigenvalue where the
    closed form reads one.
    """
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0].real
    if n == 2:
        a, d = 0.5 * mats[..., 0, 0].real, 0.5 * mats[..., 1, 1].real
        c = 0.5 * (mats[..., 0, 1] + np.conj(mats[..., 1, 0]))
        return (a + d) - np.hypot(a - d, np.abs(c))
    herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -2, -1)))
    finite = np.isfinite(herm).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(herm)[..., 0]
    least = np.linalg.eigvalsh(np.where(finite[..., None, None], herm, 0.0))[..., 0]
    return np.where(finite, least, np.nan)


def _adjugate_column(p_diff, s_diff, q, r):
    # the larger column of adj(Z - lam) = [[s - lam, -q], [-r, p - lam]],
    # from p - lam and s - lam, divided by its norm
    first = math.hypot(s_diff.real, s_diff.imag, r.real, r.imag)
    second = math.hypot(q.real, q.imag, p_diff.real, p_diff.imag)
    if first >= second:
        return s_diff / first, -r / first
    return -q / second, p_diff / second


def small_eig(rows):
    """eig of one matrix with n <= 2 given as rows of Python complex
    numbers: (values, vector rows), as lists of Python complex numbers."""
    if len(rows) == 1:
        ((z,),) = rows
        if not cmath.isfinite(z):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        # the zero imaginary part of the vector takes the sign of z's, so
        # that conj(Z) gives conj(eig(Z)) to the bit
        return [z], [[complex(1.0, math.copysign(0.0, z.imag))]]
    (p, q), (r, s) = rows
    if not (cmath.isfinite(p) and cmath.isfinite(q) and cmath.isfinite(r) and cmath.isfinite(s)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    big = max(abs(p.real), abs(p.imag), abs(q.real), abs(q.imag),
              abs(r.real), abs(r.imag), abs(s.real), abs(s.imag))
    # a matrix whose first imaginary part that is not zero (for a real
    # matrix, its first, zero with a sign) is negative is decomposed as the
    # conjugate of its conjugate, so that conj(Z) gives conj(eig(Z)) to the
    # bit whatever signs of zero the arithmetic below produces
    flip = math.copysign(1.0, p.imag or q.imag or r.imag or s.imag or p.imag) < 0.0
    if flip:
        p, q, r, s = p.conjugate(), q.conjugate(), r.conjugate(), s.conjugate()
    lo, hi = _SAFE_RANGE
    scaled = not lo <= big * big <= hi
    if scaled:
        exponent = max(math.frexp(big)[1], -1021)
        scale, inverse = math.ldexp(0.5, exponent), math.ldexp(2.0, -exponent)
        p, q, r, s = p * inverse, q * inverse, r * inverse, s * inverse
    if q == 0 and r == 0:
        lam1, lam2, v00, v01, v10, v11 = p, s, 1.0 + 0j, 0j, 0j, 1.0 + 0j
    else:
        qr = q * r
        if qr == 0:
            # triangular: the eigenvalues are the diagonal
            lam1, lam2 = p, s
            diffs1, diffs2 = (0j, s - p), (p - s, 0j)
        else:
            # lam = (p + s)/2 +- root, root = sqrt(((p - s)/2)^2 + qr) with
            # the sign that makes |w| = |(p - s)/2 + root| the larger of the
            # two sums; then p - lam and s - lam are w or -qr/w, neither a
            # difference that cancels
            half_sum, half_diff = 0.5 * (p + s), 0.5 * (p - s)
            root = cmath.sqrt(half_diff * half_diff + qr)
            if (half_diff.conjugate() * root).real < 0.0:
                root = -root
            w = half_diff + root
            lam1, lam2 = half_sum + root, half_sum - root
            diffs1, diffs2 = (-qr / w, -w), (w, qr / w)
        v00, v10 = _adjugate_column(*diffs1, q, r)
        v01, v11 = _adjugate_column(*diffs2, q, r)
    if scaled:
        lam1, lam2 = lam1 * scale, lam2 * scale
    if flip:
        return ([lam1.conjugate(), lam2.conjugate()],
                [[v00.conjugate(), v01.conjugate()], [v10.conjugate(), v11.conjugate()]])
    return [lam1, lam2], [[v00, v01], [v10, v11]]


def eig(mat):
    """Eigenvalues and unit eigenvectors of one square matrix: (values (n,),
    vectors (n, n)), complex, vectors[:, k] belonging to values[k].

    n <= 2 runs in Python scalars (small_eig, which takes and returns
    lists). n = 1 is the entry with the vector [1]. n = 2 takes lam =
    (p + s)/2 +- sqrt(((p - s)/2)^2 + qr) for Z = [[p, q], [r, s]], a
    discriminant that does not cancel where the eigenvalues are close, as
    ((p + s)/2)^2 - det would; where the square of the largest real or
    imaginary part leaves _SAFE_RANGE, on Z divided by a power of two near
    that part (exact, as in _scales), so no product of two entries
    overflows or underflows by more than the rounding. Each eigenvector is
    the larger column of adj(Z - lam), built from differences that do not
    cancel. A diagonal matrix gives its diagonal and the identity, a
    triangular one its diagonal, and a defective one two parallel vectors.
    For n <= 2, eig(conj(Z)) is conj(eig(Z)) bit for bit. n >= 3 is
    np.linalg.eig. A non-finite entry raises LinAlgError, as LAPACK does.
    """
    if mat.shape[0] > 2:
        return np.linalg.eig(mat)
    values, vectors = small_eig(mat.tolist())
    return np.array(values, dtype=np.complex128), np.array(vectors, dtype=np.complex128)


def _smallest_closed_form(mats):
    # (sigma_min, fro2) of each matrix of a (..., 2, 2) stack: |det| /
    # sigma_max, the two singular values multiplying to |det|; 0 for a
    # zero matrix
    top, fro2 = _largest_closed_form(mats)
    det = np.abs(mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0])
    return np.divide(det, top, out=np.zeros_like(top), where=top > 0), fro2


def smallest_singular_values(mats):
    """Smallest singular value of each matrix of a (..., n, n) stack -> (...).

    n = 1 takes |entry|. n = 2 takes |det| / sigma_max, scaled where the
    stack needs it (_rescaled). n >= 3 uses the batched SVD.
    """
    n = mats.shape[-1]
    if n == 1:
        return np.abs(mats[..., 0, 0])
    if n > 2:
        return np.linalg.svd(mats, compute_uv=False)[..., -1]
    return _rescaled(_smallest_closed_form, mats)


def _shifted_solve(a, nodes, rhs):
    # inv(a - mu_k) @ rhs_k for every node; the shifted matrices are built
    # entry-major, the layout in which solve reads them
    shifted = np.empty(a.shape + nodes.shape, dtype=np.complex128)
    shifted[...] = a[:, :, None]
    for i in range(a.shape[0]):
        shifted[i, i] -= nodes
    return solve(shifted.transpose(2, 0, 1), rhs)


def _right_resolvent_products(kvals, nodes, zmat):
    # T_k = K_k @ inv(zmat - mu_k), done as one batched solve on transposes
    t = _shifted_solve(zmat.T, nodes, np.swapaxes(kvals, 1, 2))
    return np.swapaxes(t, 1, 2)


def resolvent_sum(kvals, nodes, weights, zmat):
    """sum_k w_k K_k @ inv(zmat - mu_k) -> (r, n)."""
    return weighted_sums(weights, _right_resolvent_products(kvals, nodes, zmat))


def resolvent_cauchy_sum(kvals, nodes, weights, zmat, zs):
    """(sum_k w_k K_k / (mu_k - z), sum_k w_k K_k @ inv(zmat - mu_k) /
    (mu_k - z)) at each point z of the 1-d array zs -> two (P, r, n)
    stacks: the cauchy_sum_many of K and of its resolvent products, from
    one matrix of Cauchy factors and one matrix product. The resolvent
    products do not depend on z, so they are solved once for all points."""
    n = zmat.shape[0]
    both = np.concatenate([kvals, _right_resolvent_products(kvals, nodes, zmat)], axis=2)
    sums = weighted_sums(weights / (nodes - zs[:, None]), both)
    return sums[..., :n], sums[..., n:]


def _sandwich_products(kvals, nodes, zleft, zright):
    # inv(zleft - mu_k) @ K_k @ inv(zright - mu_k) for every node
    left = _shifted_solve(zleft, nodes, kvals)
    return _right_resolvent_products(left, nodes, zright)


def sandwich_sum(kvals, nodes, weights, zleft, zright):
    """sum_k w_k inv(zleft - mu_k) @ K_k @ inv(zright - mu_k)."""
    return weighted_sums(weights, _sandwich_products(kvals, nodes, zleft, zright))
