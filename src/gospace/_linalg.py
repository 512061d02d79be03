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
    own (tiny) largest singular value.
    """
    if sigma.size == 0:
        return 0
    cut = max(max(shape) * EPS * float(sigma[0]), atol)
    return int(np.sum(sigma > cut))


def null_space(a, atol=0.0):
    """Orthonormal rows spanning the kernel of ``a`` (acting on row vectors x: a @ x = 0)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    # a wide input needs the full V to span its kernel; a tall one never
    # needs the (rows x rows) U that full_matrices would build
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[svd_rank(s, a.shape, atol):]


def gram_schmidt(rows, inner=None):
    """Orthonormalize rows against the inner product matrix ``inner``.

    Modified Gram-Schmidt with a second sweep; a row whose remainder falls
    to 1e-10 of max(1, its original norm) or below is dropped.  The leading
    vectors stay aligned with the input, which matters for canonical summand
    bases.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[1]

    def dot(a, b):
        return float(a @ b) if inner is None else float(a @ inner @ b)

    out = []
    for v in rows:
        w = v.astype(float).copy()
        scale = np.sqrt(max(dot(v, v), 0.0))
        if scale == 0.0:
            continue
        for _ in range(2):
            for b in out:
                w = w - dot(b, w) * b
        nw = np.sqrt(max(dot(w, w), 0.0))
        if nw > 1e-10 * max(scale, 1.0):
            out.append(w / nw)
    if not out:
        return np.zeros((0, n))
    return np.array(out)


def lstsq_min_norm(a, b):
    """Minimum-norm least-squares solution and the explicit residual.

    ``a`` is one matrix (M, K) with ``b`` of shape (M,) or (M, R), solved by
    ``np.linalg.lstsq``; or a stack (..., M, K) with ``b`` of shape (..., M),
    solved by one batched SVD.  Both drop the singular values at or below
    max(M, K) * eps * sigma_max, numpy's default cutoff.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-2] + (0,) + b.shape[a.ndim - 1:]), -b
    if a.ndim == 2:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        return x, a @ x - b
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cut = max(a.shape[-2:]) * EPS * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    x = np.einsum("...ki,...k->...i", vh, inv * np.einsum("...mk,...m->...k", u, b))
    return x, np.einsum("...mk,...k->...m", a, x) - b

