"""Compact Lie algebras presented by structure constants.

An algebra of dimension n is stored as the tensor ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k``.  The Killing form
``B(x, y) = tr(ad x . ad y)`` and the bi-invariant inner product
``Q = -B`` are computed once at construction; Q must be positive
definite, which restricts the class to compact semisimple algebras.
Vectors are coordinate arrays in the defining basis: one vector of length
n or a stack of rows (N, n).
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    NonClosedError,
    NonCompactError,
)


class LieAlgebra:
    """A real compact Lie algebra given by its structure-constant tensor.

    Parameters
    ----------
    structure : (n, n, n) array_like
        ``structure[i, j, k]`` is the ``e_k`` coefficient of ``[e_i, e_j]``.
        The tensor is antisymmetrized in its first two indices on input, as
        ``(c - c^T) / 2`` over those indices, and the Killing form is one
        (n x n^2)(n^2 x n) matrix product.
    check_compact : bool
        Verify that ``Q = -B`` is positive definite (raises
        :class:`NonCompactError` otherwise).  Disable only for diagnostics.
    """

    def __init__(self, structure, check_compact=True):
        c = np.asarray(structure, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatchError(
                f"structure tensor must be cubic, got shape {c.shape}")
        c = 0.5 * (c - c.transpose(1, 0, 2))
        n = c.shape[0]
        # B_ij = sum_mk c[i, m, k] c[j, k, m]
        b = c.reshape(n, n * n) @ c.transpose(0, 2, 1).reshape(n, n * n).T
        b = 0.5 * (b + b.T)
        q = -b
        if check_compact:
            w = np.linalg.eigvalsh(q)
            if n == 0 or w[0] <= n * _linalg.EPS * max(abs(w[-1]), 1.0):
                raise NonCompactError(
                    "negative Killing form is not positive definite "
                    f"(eigenvalue range [{w[0] if n else 0.0:.3e}, "
                    f"{w[-1] if n else 0.0:.3e}])")
        for a in (c, b, q):
            a.setflags(write=False)
        self.dim = n
        self.structure = c
        self.killing = b
        self.q_form = q

    def _check_vec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,) or x.ndim > 2:
            raise DimensionMismatchError(
                f"expected vector or rows of length {self.dim}, got shape {x.shape}")
        return x

    def bracket(self, x, y):
        """[x, y] in basis coordinates; two stacks of rows (N, dim) bracket
        row by row."""
        x = self._check_vec(x)
        y = self._check_vec(y)
        return np.einsum("...jk,...j->...k", np.tensordot(x, self.structure, 1), y)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


def from_matrices(matrices):
    """Build a :class:`LieAlgebra` from a list of matrices closed under commutators.

    Complex matrices are converted to their real form first (see
    :func:`realify`).  One SVD of the flattened basis gives both its rank and
    the coordinate map; the commutators [m_i, m_j], j > i, are formed,
    solved and checked one basis row i at a time, so no temporary is larger
    than n d^2 floats.  Raises :class:`DimensionMismatchError` unless the
    matrices share a square shape, :class:`DependentBasisError` if they are
    linearly dependent, :class:`NonClosedError` for the first (i, j) whose
    commutator leaves their span (relative residual above 1e-8) and
    :class:`NonCompactError` if the algebra is not compact.
    """
    mats = [np.asarray(m) for m in matrices]
    n = len(mats)
    if n == 0:
        raise DependentBasisError("empty matrix list")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatchError("matrices must share a square shape")
    stack = np.array(mats)
    stack = (realify(stack) if np.iscomplexobj(stack) else stack).astype(float)
    flat = stack.reshape(n, -1)
    u, sigma, vh = np.linalg.svd(flat.T, full_matrices=False)
    rank = _linalg.svd_rank(sigma, flat.shape)
    if rank < n:
        raise DependentBasisError(f"matrices span only {rank} of {n} dimensions")
    # pinv(flat) from the same SVD, formed as np.linalg.pinv forms it
    to_coords = (vh.T @ ((1.0 / sigma)[:, None] * u.T)).T
    norms = np.linalg.norm(flat, axis=1)
    c = np.zeros((n, n, n))
    for i in range(n - 1):
        comm = (stack[i] @ stack[i + 1:] - stack[i + 1:] @ stack[i]).reshape(n - i - 1, -1)
        a = comm @ to_coords
        rel = (np.linalg.norm(a @ flat - comm, axis=1)
               / np.maximum(norms[i] * norms[i + 1:], 1.0))
        bad = np.flatnonzero(rel > 1e-8)
        if bad.size:
            raise NonClosedError(
                f"commutator of matrices {i}, {i + 1 + bad[0]} leaves the span "
                f"(relative residual {rel[bad[0]]:.3e})")
        c[i, i + 1:] = a
        c[i + 1:, i] = -a
    return LieAlgebra(c)


def matrix_coords(matrices, target):
    """Coordinates of ``target`` in the span of ``matrices`` (complex allowed).

    ``target`` may also be a stack of matrices (leading axis); the result
    then holds one coordinate row per target, from one least-squares solve.
    Raises :class:`DimensionMismatchError` when some target leaves the span
    (relative residual above 1e-8).
    """
    mats = np.asarray(matrices)
    tgt = np.asarray(target)
    if np.iscomplexobj(mats):
        mats = realify(mats)
    if np.iscomplexobj(tgt):
        tgt = realify(tgt)
    flat = mats.astype(float).reshape(len(mats), -1)
    w = tgt.astype(float).reshape(-1, flat.shape[1]).T          # one column per target
    a = np.linalg.lstsq(flat.T, w, rcond=None)[0]
    rel = np.linalg.norm(flat.T @ a - w, axis=0) / np.maximum(np.linalg.norm(w, axis=0), 1.0)
    if np.any(rel > 1e-8):
        raise DimensionMismatchError(
            "target matrix is not in the span of the basis "
            f"(relative residual {np.max(rel):.3e})")
    return a.T if tgt.ndim == 3 else a[:, 0]


def direct_sum(*algebras):
    """Direct sum of compact algebras; structure and Killing are block diagonal."""
    dims = [g.dim for g in algebras]
    n = sum(dims)
    c = np.zeros((n, n, n))
    off = 0
    for g, d in zip(algebras, dims):
        c[off:off + d, off:off + d, off:off + d] = g.structure
        off += d
    return LieAlgebra(c)


def _unit_triples(g, trials, seed):
    """Seeded random unit rows x, y, z, each of shape (trials, dim)."""
    t = np.random.default_rng(seed).standard_normal((trials, 3, g.dim))
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    return np.moveaxis(t, 1, 0)


def jacobi_residual(g, trials=100, seed=0):
    """Max norm of the Jacobi cyclic sum over seeded random unit triples."""
    x, y, z = _unit_triples(g, trials, seed)
    j = (g.bracket(x, g.bracket(y, z))
         + g.bracket(y, g.bracket(z, x))
         + g.bracket(z, g.bracket(x, y)))
    return float(np.max(np.linalg.norm(j, axis=-1), initial=0.0))


def q_invariance_residual(g, trials=100, seed=0):
    """Max |Q([x,y],z) + Q(y,[x,z])| over seeded random unit triples.

    Zero in exact arithmetic: Q is invariant under the adjoint action.
    """
    x, y, z = _unit_triples(g, trials, seed)
    q = g.q_form
    sums = np.sum(g.bracket(x, y) @ q * z, axis=-1) + np.sum(y @ q * g.bracket(x, z), axis=-1)
    return float(np.max(np.abs(sums), initial=0.0)) / max(float(np.linalg.norm(q, 2)), 1.0)


# ---------------------------------------------------------------------------
# matrix realizations


def realify(m):
    """Real form of a complex matrix: z = x + iy acting on stacked (x, y).

    A d x d complex matrix becomes the 2d x 2d real matrix
    [[Re, -Im], [Im, Re]]; commutators are preserved.  A stack of matrices
    (leading axis) is converted matrix by matrix.
    """
    m = np.asarray(m)
    re, im = m.real.astype(float), m.imag.astype(float)
    return np.block([[re, -im], [im, re]])


def quaternionify(a, b):
    """Complex 2n x 2n form of the quaternionic matrix A + Bj.

    ``a`` must be anti-Hermitian and ``b`` symmetric for the result to lie in
    the compact symplectic algebra.  Returns [[A, B], [-conj(B), conj(A)]].
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.block([[a, b], [-b.conj(), a.conj()]])


def so_matrices(n):
    """Standard basis of real antisymmetric n x n matrices, pairs (i, j) with i < j."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j], m[j, i] = 1.0, -1.0
            out.append(m)
    return out


def su_matrices(n):
    """Standard basis of traceless anti-Hermitian n x n complex matrices."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1.0, -1.0
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0j
            out.append(m)
    for k in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[k, k], m[k + 1, k + 1] = 1.0j, -1.0j
        out.append(m)
    return out


def sp_matrices(n):
    """Basis of the compact symplectic algebra as complex 2n x 2n matrices.

    Elements are ``quaternionify(a, b)`` with ``a`` running over a u(n) basis
    and ``b`` over complex symmetric matrices; dimension n(2n + 1).
    """
    zero = np.zeros((n, n), dtype=complex)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[i, j], a[j, i] = 1.0, -1.0
            out.append(quaternionify(a, zero))
            a = np.zeros((n, n), dtype=complex)
            a[i, j] = a[j, i] = 1.0j
            out.append(quaternionify(a, zero))
    for k in range(n):
        a = np.zeros((n, n), dtype=complex)
        a[k, k] = 1.0j
        out.append(quaternionify(a, zero))
    for i in range(n):
        for j in range(i, n):
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = b[j, i] = 1.0
            out.append(quaternionify(zero, b))
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = b[j, i] = 1.0j
            out.append(quaternionify(zero, b))
    return out
