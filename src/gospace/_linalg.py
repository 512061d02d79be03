"""Small dense linear-algebra helpers used throughout the package.

All subspaces are handled as arrays of basis ROWS.  Rank decisions use the
conventional cutoff max(shape) * eps * sigma_max.
"""

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def svd_rank(sigma, shape, atol=0.0):
    """Number of singular values above the cutoff max(shape) * eps * sigma_max.

    ``atol`` is an absolute floor for the cutoff; without it a matrix of
    pure rounding noise looks full rank because the cutoff scales with its
    own (tiny) largest singular value.  ``sigma`` may be a stack (..., k) of
    descending singular values: the two entries of ``shape`` and ``atol``
    then broadcast over the stack, so every matrix is cut at its own shape.
    """
    sigma = np.asarray(sigma)
    cut = np.maximum(np.maximum(*shape) * EPS * np.max(sigma, axis=-1, initial=0.0), atol)
    return np.count_nonzero(sigma > cut[..., None], axis=-1)


def null_space(a, atol=0.0):
    """Orthonormal rows spanning the kernel of ``a`` (acting on row vectors x: a @ x = 0)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    # a wide input needs the full V to span its kernel; a tall one never
    # needs the (rows x rows) U that full_matrices would build
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[svd_rank(s, a.shape, atol):]


def null_spaces(a, rows, atol):
    """Kernels of a stack of matrices ``a`` (N, M, K) by one batched SVD.

    Matrix i has ``rows[i]`` real rows; its other rows are zero padding,
    which changes no singular value, so it is cut as :func:`null_space`
    cuts it at its real shape (rows[i], K), with the absolute floor
    ``atol`` (a scalar or one per matrix).  Returns (basis, dims): basis
    (N, K, K) holds orthonormal rows spanning kernel i in its first dims[i]
    rows and zeros below them.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[-2] < a.shape[-1])
    dims = a.shape[-1] - svd_rank(s, (rows, a.shape[-1]), atol)
    basis = vh[:, ::-1]                 # kernel rows first
    return basis * (np.arange(a.shape[-1]) < dims[:, None])[..., None], dims


def gram_schmidt(rows, inner=None):
    """Orthonormalize rows against the inner product matrix ``inner``.

    Each row is projected against all kept rows at once, in two sweeps; a
    row whose remainder falls to 1e-10 of max(1, its original norm) or
    below is dropped.  The leading vectors stay aligned with the input,
    which matters for canonical summand bases.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    q = np.eye(rows.shape[1]) if inner is None else np.asarray(inner, dtype=float)
    out, out_q, k = np.empty_like(rows), np.empty_like(rows), 0   # kept rows, kept @ q
    for v, vq in zip(rows, rows @ q):
        scale = np.sqrt(max(float(vq @ v), 0.0))
        if scale == 0.0:
            continue
        w = v
        for _ in range(2):
            w = w - (out_q[:k] @ w) @ out[:k]
        wq = w @ q
        nw = np.sqrt(max(float(wq @ w), 0.0))
        if nw > 1e-10 * max(scale, 1.0):
            out[k], out_q[k] = w / nw, wq / nw
            k += 1
    return out[:k]


def lstsq_stack(a, b, cols):
    """Minimum-norm least squares over a stack (..., M, K) by one batched SVD.

    Matrix i has ``cols[i]`` real columns (``cols`` may be one int for
    all); its other columns are zero padding, which changes no singular
    value, so it is cut at numpy's cutoff for its real shape,
    max(M, cols[i]) * eps * sigma_max.  Returns (x, residual, rank) with
    residual = a x - b and the rank of each matrix.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = svd_rank(s, (a.shape[-2], cols))
    inv = np.divide(1.0, s, out=np.zeros_like(s),
                    where=np.arange(s.shape[-1]) < rank[..., None])
    x = np.einsum("...ki,...k->...i", vh, inv * np.einsum("...mk,...m->...k", u, b))
    return x, np.einsum("...mk,...k->...m", a, x) - b, rank
