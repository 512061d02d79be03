"""Reductive homogeneous structure on a compact Lie algebra.

Given a compact algebra g and a subalgebra h, the Q-orthogonal complement m
is an invariant complement (reductive: [h, m] in m).  This module builds
Q-orthonormal bases for h and m, precomputes all bracket tables in those
coordinates, splits m into invariant summands, and computes the centralizer
subspaces used by the geodesic-orbit checks.

Invariance here always means invariance under the identity component of the
isotropy group; disconnected isotropy is not modeled.  Vectors come in two
flavors: "g-coords" (length dim g, defining basis of g) and "m-coords" /
"h-coords" (coefficients in the orthonormal bases below).  In m-coords and
h-coords the inner product Q is the Euclidean dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import DimensionMismatchError, NotSubalgebraError, ReductivityError
from .liealg import LieAlgebra


def _vec(v, size, name, dtype=float):
    """``v`` as ``dtype``, after checking that it is one vector or a stack of
    rows (N, size)."""
    v = np.asarray(v, dtype=dtype)
    if v.shape[-1:] != (size,) or v.ndim > 2:
        raise DimensionMismatchError(
            f"expected {name}-coords vector or rows of length {size}, got {v.shape}")
    return v


class HomogeneousSpace:
    """Bracket tables of a compact homogeneous space in orthonormal coordinates.

    Attributes
    ----------
    g : LieAlgebra
    h_basis, m_basis : arrays of shape (dim_h, dim_g), (dim_m, dim_g)
        Rows are Q-orthonormal; m is the Q-orthogonal complement of h.
    bracket_hh : (dim_h, dim_h, dim_h)
        [h_i, h_j] in h-coords.
    bracket_hm : (dim_h, dim_m, dim_m)
        [h_i, m_a] in m-coords (the h-part vanishes by reductivity).
    bracket_mm_h : (dim_m, dim_m, dim_h) and bracket_mm_m : (dim_m, dim_m, dim_m)
        h- and m-parts of [m_a, m_b].
    """

    def __init__(self, g, h_basis, m_basis, tables, residuals):
        self.g = g
        self.h_basis = h_basis
        self.m_basis = m_basis
        self.bracket_hh, self.bracket_hm, self.bracket_mm_h, self.bracket_mm_m = tables
        self.closure_residual, self.reductivity_residual = residuals
        for a in (h_basis, m_basis, *tables):
            a.setflags(write=False)

    @property
    def dim_h(self):
        return self.h_basis.shape[0]

    @property
    def dim_m(self):
        return self.m_basis.shape[0]

    def lift_m(self, u):
        """g-coords of an m-coords vector or of a stack of rows (N, dim_m)."""
        return _vec(u, self.dim_m, "m") @ self.m_basis

    def proj_m(self, x):
        """m-coords of the m-component of a g-coords vector or of a stack of
        rows (N, dim_g)."""
        return _vec(x, self.g.dim, "g") @ self.g.q_form @ self.m_basis.T

    def bracket_mm(self, x, y):
        """(h-part, m-part) of [x, y] for x, y in m-coords.

        Also takes two stacks of rows (N, dim_m) and brackets them row by row.
        """
        x = _vec(x, self.dim_m, "m")
        y = _vec(y, self.dim_m, "m")
        out = []
        for table in (self.bracket_mm_h, self.bracket_mm_m):
            xt = (x @ table.reshape(self.dim_m, -1)).reshape(x.shape + table.shape[2:])
            out.append(np.einsum("...bk,...b->...k", xt, y))
        return tuple(out)

    def hm_columns(self, x):
        """Matrix whose j-th column is [h_j, x] in m-coords; a stack of rows
        (N, dim_m) gives a stack of matrices (N, dim_m, dim_h)."""
        x = _vec(x, self.dim_m, "m")
        return np.moveaxis(x @ self.bracket_hm, 0, -1)

    def __repr__(self):
        return f"HomogeneousSpace(dim_g={self.g.dim}, dim_h={self.dim_h}, dim_m={self.dim_m})"


def build(g, h_span):
    """Construct the reductive structure for the subalgebra spanned by ``h_span``.

    ``h_span`` holds spanning vectors of h in g-coords (rows).  The brackets
    are tabulated in Q-orthonormal bases of h and m, so their entries have
    unit scale.  Raises :class:`NotSubalgebraError` if some [h, h] has an
    m-component above 1e-8 and :class:`ReductivityError` if some [h, m] has
    an h-component above 1e-8.
    """
    tol = 1e-8
    if not isinstance(g, LieAlgebra):
        raise DimensionMismatchError("first argument must be a LieAlgebra")
    h_span = np.atleast_2d(np.asarray(h_span, dtype=float))
    if h_span.size and h_span.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"h vectors must have length {g.dim}, got {h_span.shape[1]}")
    if h_span.size == 0:
        h_basis = np.zeros((0, g.dim))
    else:
        h_basis = _linalg.gram_schmidt(h_span, inner=g.q_form)
    # m = Q-orthocomplement: kernel of x -> h_basis @ Q @ x, orthonormal in Q
    m_basis = _linalg.null_space(h_basis @ g.q_form if h_basis.size else
                                 np.zeros((0, g.dim)))
    m_basis = _linalg.gram_schmidt(m_basis, inner=g.q_form)
    if m_basis.shape[0] + h_basis.shape[0] != g.dim:
        raise ReductivityError("h and its complement do not fill the algebra")

    # every bracket table at once, in the orthonormal basis b = (h, m) of g;
    # the coordinate map of that basis is x -> b @ Q @ x
    basis = np.vstack([h_basis, m_basis])
    table = np.einsum("pqr,ip,jq,kr->ijk", g.structure, basis, basis,
                      basis @ g.q_form, optimize=True)
    h, m = slice(0, h_basis.shape[0]), slice(h_basis.shape[0], None)
    hh_m, hm_h = table[h, h, m], table[h, m, h]
    closure_residual = float(np.max(np.abs(hh_m))) if hh_m.size else 0.0
    if closure_residual > tol:
        raise NotSubalgebraError(
            f"[h, h] leaves h (max m-component {closure_residual:.3e})")
    reductivity_residual = float(np.max(np.abs(hm_h))) if hm_h.size else 0.0
    if reductivity_residual > tol:
        raise ReductivityError(
            f"[h, m] leaves m (max h-component {reductivity_residual:.3e})")

    return HomogeneousSpace(g, h_basis, m_basis,
                            tuple(np.ascontiguousarray(table[ix]) for ix in
                                  ((h, h, h), (h, m, m), (m, m, h), (m, m, m))),
                            (closure_residual, reductivity_residual))


# ---------------------------------------------------------------------------
# invariant decompositions of m


@dataclass(frozen=True)
class Decomposition:
    """Orthogonal invariant splitting of m into summands.

    ``summands[i]`` holds orthonormal rows in m-coords spanning the i-th
    summand.  ``commutant_dim`` is the dimension of the symmetric commutant
    of the isotropy action (None when it was never computed); when it
    exceeds the number of summands, other invariant splittings exist and
    the given one is marked non-unique.
    """

    summands: tuple
    commutant_dim: int | None = None

    @property
    def dims(self):
        return tuple(s.shape[0] for s in self.summands)

    @property
    def arity(self):
        return len(self.summands)

    @property
    def non_unique(self):
        return self.commutant_dim is not None and self.commutant_dim > len(self.summands)

    @classmethod
    def from_dims(cls, dims):
        """Coordinate-block splitting of R^n, n = sum(dims); no space needed.

        Every dim must be a positive integer."""
        dims = tuple(dims)
        if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1
               for d in dims):
            raise DimensionMismatchError(f"block dims must be positive integers, got {dims}")
        eye = np.eye(int(sum(dims)))
        out, off = [], 0
        for d in dims:
            out.append(eye[off:off + d])
            off += d
        return cls(summands=tuple(out))

    def split(self, u):
        """Components of an m-coords vector or of a stack of rows (N, n),
        each still in m-coords."""
        u = self._rows(u)
        return [(u @ s.T) @ s for s in self.summands]

    def theta(self, u):
        """Squared component norms (theta_1, ..., theta_s): shape (s,) for one
        vector, (N, s) for a stack of rows.  Complex u gives the analytic
        continuation sum_k c_k^2, unconjugated, for complex-step derivatives."""
        u = self._rows(u, complex if np.iscomplexobj(u) else float)
        theta = np.zeros(u.shape[:-1] + (self.arity,), dtype=u.dtype)
        for i, s in enumerate(self.summands):
            c = u @ s.T
            theta[..., i] = np.einsum("...i,...i->...", c, c)
        return theta

    def _rows(self, u, dtype=float):
        return _vec(u, self.summands[0].shape[1] if self.summands else 0, "m", dtype)

    def completeness_residual(self):
        stack = np.vstack(self.summands)
        gram = stack @ stack.T
        return float(np.max(np.abs(gram - np.eye(stack.shape[0]))))


def invariance_residual(space, dec):
    """Max leakage of [h, m_i] outside m_i over the h basis (orthonormal rows)."""
    worst = 0.0
    for s in dec.summands:
        img = s @ space.bracket_hm                 # [h_w, s_k] in m-coords, (dim_h, d, dim_m)
        out = img - (img @ s.T) @ s
        if out.size:
            worst = max(worst, float(np.max(np.abs(out))))
    return worst


def _hom_gram(a, b):
    """Matrices of the Casimir of h on Hom(m_j, m_i), one per leading index.

    ``a`` (..., dim_h, p, p) and ``b`` (..., dim_h, q, q) are the skew
    stacks A_w and B_w of ad(h_w) on m_i and m_j, h_w orthonormal.  The
    Casimir on X: m_j -> m_i is X -> -K_a X - X K_b + 2 sum_w A_w X B_w
    with K = sum_w A_w^2; in the row-major basis E_pq of p x q matrices it
    is -K_a (x) I - I (x) K_b - 2 sum_w A_w (x) B_w, of shape (..., pq, pq).
    """
    p, q = a.shape[-1], b.shape[-1]
    ka, kb = (np.sum(x @ x, axis=-3) for x in (a, b))
    pair = np.swapaxes(a.reshape(a.shape[:-2] + (p * p,)), -1, -2) @ b.reshape(
        b.shape[:-2] + (q * q,))                    # [(p, r), (q, s)] = sum_w A[p, r] B[q, s]
    gram = (-2.0 * pair.reshape(pair.shape[:-2] + (p, p, q, q)).swapaxes(-3, -2)
            - ka[..., :, None, :, None] * np.eye(q)[:, None, :]
            - np.eye(p)[:, None, :, None] * kb[..., None, :, None, :])
    return gram.reshape(gram.shape[:-4] + (p * q, p * q))


def _sym2_gram(a):
    """Matrices of the Casimir of h on Sym^2 of a summand, from its skew
    stack ``a`` (..., dim_h, n, n), in the orthonormal basis
    e_d = c_d (E_pq + E_qp), p <= q, with c_d = 1/2 on the diagonal and
    1/sqrt(2) off it (p, q from ``np.triu_indices``): shape (..., N, N)
    with N = n (n + 1) / 2.

    The Casimir is the one on Hom(m_i, m_i) restricted to symmetric X, and
    it commutes with transposition, so gram[d, e] = 2 c_d c_e (L[pq, rs] +
    L[pq, sr]) for L = :func:`_hom_gram` (a, a).
    """
    n = a.shape[-1]
    full = _hom_gram(a, a).reshape(a.shape[:-3] + (n, n, n, n))
    # np.triu_indices(n), without its overhead on small blocks
    iu, ju = np.nonzero(np.less_equal.outer(np.arange(n), np.arange(n)))
    c = np.where(iu == ju, 0.5, np.sqrt(0.5))
    p, q = iu[:, None], ju[:, None]
    return 2.0 * np.outer(c, c) * (full[..., p, q, iu, ju] + full[..., p, q, ju, iu])


def symmetric_commutant(space):
    """Frobenius-orthonormal basis (k, n, n) of the symmetric S on m that
    commute with every ad(h)|_m.

    This is the kernel of the Casimir of h on Sym^2(m), S -> -sum_w
    [A_w, [A_w, S]] over A_w = ad(h_w)|_m, h_w orthonormal.  The operator is
    positive semidefinite: one ``eigh`` in an orthonormal basis of symmetric
    matrices and a relative cutoff as in :func:`_linalg.svd_rank` give it.
    It takes all of m as one block, so it is the reference for the
    block-wise count in :func:`symmetric_commutant_dim`.
    """
    n = space.dim_m
    gram = _sym2_gram(space.bracket_hm.transpose(0, 2, 1))
    w, v = np.linalg.eigh(gram)
    k = len(w) - _linalg.svd_rank(w[::-1], gram.shape)
    iu, ju = np.triu_indices(n)
    out = np.zeros((k, n, n))
    out[:, iu, ju] = out[:, ju, iu] = v[:, :k].T * np.where(iu == ju, 1.0, np.sqrt(0.5))
    return out


def symmetric_commutant_dim(space, summands):
    """Dimension of {S symmetric on m : S commutes with every ad(h)|_m}.

    Equals the summand count when the invariant splitting is unique;
    anything larger signals equivalent summands or a finer splitting.

    ``summands`` are orthonormal m-coords rows of an invariant splitting
    m = m_1 + ... + m_s.  Every ad(h)|_m preserves
    each m_i, so the Casimir of :func:`symmetric_commutant` is block
    diagonal over Sym^2(m_i) and Hom(m_j, m_i), i < j, and its spectrum is
    the union of theirs.  Blocks of one shape share one ``eigvalsh``, and
    every eigenvalue is cut at the full operator's cutoff
    (n (n + 1) / 2) eps times the largest of them.  Raises
    :class:`DimensionMismatchError` when the rows are not orthonormal or do
    not fill m, and :class:`ReductivityError` when some [h, m_i] leaves
    m_i by more than 1e-8.
    """
    n = space.dim_m
    summands = _checked_summands(space, summands)
    blocks = [s @ space.bracket_hm @ s.T for s in summands]   # A_w on m_i, transposed
    # key (d,): Sym^2 of a d-dim summand; key (p, q), p <= q: Hom between two
    groups = {}
    for i, a in enumerate(blocks):
        groups.setdefault((a.shape[-1],), []).append((a,))
        for b in blocks[i + 1:]:
            pair = sorted((a, b), key=lambda x: x.shape[-1])
            groups.setdefault(tuple(x.shape[-1] for x in pair), []).append(pair)
    eig = [np.linalg.eigvalsh((_sym2_gram if len(key) == 1 else _hom_gram)(
        *map(np.stack, zip(*group)))).ravel() for key, group in groups.items()]
    w = np.concatenate(eig) if eig else np.zeros(0)
    size = n * (n + 1) // 2
    return size - int(_linalg.svd_rank(w, (size, size)))


def _checked_summands(space, summands):
    """``summands`` as float arrays, after checking that they are
    orthonormal m-coords rows that fill m and span invariant subspaces."""
    n = space.dim_m
    dec = Decomposition(tuple(np.asarray(s, dtype=float) for s in summands))
    shapes = [s.shape for s in dec.summands]
    if (any(len(shape) != 2 or shape[1] != n for shape in shapes)
            or sum(shape[0] for shape in shapes) != n
            or (n and dec.completeness_residual() > 1e-8)):
        raise DimensionMismatchError(
            f"summands must be orthonormal m-coords rows filling m ({n} rows of "
            f"length {n}), got shapes {shapes}")
    leak = invariance_residual(space, dec)
    if leak > 1e-8:
        raise ReductivityError(
            f"summands are not invariant under h (max leakage {leak:.3e})")
    return dec.summands


def isotropy_decompose(space, seed=0):
    """Split m into invariant summands via the symmetric commutant.

    Solves for all symmetric matrices commuting with every ad(h)|_m, draws a
    seeded random element of that space, and groups its eigenvectors by
    eigenvalue clusters (a new cluster starts at a gap above 1e-6 times
    max(1, the largest |eigenvalue|)).  Summand order
    follows ascending eigenvalue of the sampled element; the multiset of
    dimensions is seed-independent.
    """
    n = space.dim_m
    if n == 0:
        return Decomposition(summands=(), commutant_dim=0)
    basis = symmetric_commutant(space)
    rng = np.random.default_rng(seed)
    s = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
    w, v = np.linalg.eigh(s)
    scale = max(1.0, float(np.max(np.abs(w))))
    groups, start = [], 0
    for i in range(1, n + 1):
        if i == n or w[i] - w[i - 1] > 1e-6 * scale:
            groups.append(v[:, start:i].T.copy())
            start = i
    return Decomposition(summands=tuple(groups), commutant_dim=len(basis))


# ---------------------------------------------------------------------------
# centralizer subspaces in h


def centralizer_in_h(space, u, within=None):
    """Centralizers in h of a stack of m-coords rows u (N, dim_m).

    Returns (basis, dims): the orthonormal h-coords rows basis[i, :dims[i]]
    span {w in span(within[i]) : [w, u_i] = 0}, and the rows below them are
    zero.  ``within`` holds orthonormal h-coords rows per direction, (N, k,
    dim_h) padded with zero rows as basis is, and defaults to all of h
    (k = dim_h); basis has shape (N, k, dim_h).  Kernel i is the one of
    alpha -> [alpha @ within[i], u_i], a (dim_m, k) matrix with a unit row
    at the noise floor below it per zero row of within[i], which keeps that
    coordinate out; one batched SVD gives them all, and u_i = 0 gives all
    of span(within[i]).  One direction is the stack ``u[None]``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != space.dim_m:
        raise DimensionMismatchError(
            f"expected a stack of m-coords rows (N, {space.dim_m}), got {u.shape}")
    cols = space.hm_columns(u)                # (N, dim_m, dim_h)
    # absolute floor: [w, u] that is rounding noise on the scale of |u| times
    # the bracket table must count as zero, or C(u) shrinks spuriously
    scale = np.linalg.norm(u, axis=1) * float(np.linalg.norm(space.bracket_hm.ravel()))
    if within is not None:
        pad = np.where(scale > 0.0, scale, 1.0)[:, None] * np.all(within == 0.0, axis=2)
        cols = np.concatenate([cols @ within.transpose(0, 2, 1),
                               pad[:, None] * np.eye(within.shape[1])], axis=1)
    basis, dims = _linalg.null_spaces(cols, space.dim_m,
                                      max(space.dim_m, cols.shape[2]) * _linalg.EPS * scale)
    return (basis if within is None else basis @ within), dims


def tilde_centralizer(space, u):
    """Q-orthocomplement of the centralizer C of u inside its normalizer in
    h, for a stack of m-coords rows u (N, dim_m); (basis, dims) as from
    :func:`centralizer_in_h`, basis of shape (N, dim_h, dim_h).

    Space i is the kernel of w -> ((I - C^T C)[w, c_j] for each row c_j of
    C, C w), which is N(C) ∩ C-perp since C lies in N(C).  C's rows are
    scaled to the norm of ``bracket_hh`` (1 for abelian h), so both blocks
    share one cutoff.  One batched SVD serves the stack: C is padded with
    zero rows to the largest dim C, and kernel i is cut at its real shape
    (dim C (dim_h + 1), dim_h).  A trivial C gives all of h and C = h gives
    nothing.
    """
    c, c_dims = centralizer_in_h(space, u)
    c = c[:, :c_dims.max(initial=0)]
    nh = space.dim_h
    scale = float(np.linalg.norm(space.bracket_hh)) or 1.0
    adj = np.einsum("ijk,ncj->ncki", space.bracket_hh, c)   # [..., i] = [h_i, c_j]
    off_c = np.eye(nh) - c.transpose(0, 2, 1) @ c
    leak = off_c[:, None] @ adj                            # part of [w, c_j] off C
    stacked = np.concatenate([leak.reshape(len(c), c.shape[1] * nh, nh), scale * c],
                             axis=1)
    rows = c_dims * (nh + 1)
    return _linalg.null_spaces(stacked, rows, np.maximum(rows, nh) * _linalg.EPS * scale)
