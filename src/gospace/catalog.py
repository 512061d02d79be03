"""Built-in compact homogeneous spaces with canonical invariant splittings.

Every entry produces a triple ``(space, dec, meta)``: the reductive
structure, a canonical decomposition of m into invariant summands, and a
metadata dict (id, description, tags, dimensions).  Identifiers follow
``family/params``; three families take integer parameters
(``wallach-so/k,l,m``, ``wallach-su/k,l,m``, ``wallach-sp/k,l,m``), the
rest are fixed ids.  su3/su2 comes from a chain of matrix algebras
h < k < g; so6/so3irr and spin8/g2 from the chain h < so(n) < so(n+1), h
the stabilizer of a 3-tensor on R^n; the rest from commuting automorphisms
of g of order 2 or 4 (gradings).

Tags used:

* ``two-summand-go``: two-summand spaces on which every standard metric in
  this package is geodesic-orbit;
* ``wallach-type-i/ii/iii``: three-summand spaces with [m_i, m_i] in h,
  split by whether distinct summands commute (I), close into the third
  summand inside a simple algebra (II), or come from the four-factor
  diagonal construction (III);
* ``control``: entries included to witness failure behavior;
* ``equivalent-summands``: the isotropy splitting is not unique
  (``Decomposition.non_unique``: the symmetric commutant is larger than
  the number of summands).  ``make_space`` derives it from the built
  decomposition, and ``list_catalog`` reads every row's tags from
  ``make_space``, so listing builds the listed entries (once per process).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import homspace
from ._linalg import gram_schmidt, null_space
from .errors import SpecFormatError, UnknownSpecError, UnsupportedRankError
from .liealg import (
    direct_sum,
    from_matrices,
    matrix_coords,
    realify,
    so_matrices,
    sp_matrices,
    su_matrices,
)


def _embed(mats, n):
    """Matrices (..., d, d) in the top-left corner of n x n zeros."""
    mats = np.asarray(mats)
    out = np.zeros(mats.shape[:-2] + (n, n), dtype=mats.dtype)
    out[..., :mats.shape[-2], :mats.shape[-1]] = mats
    return out


def _chain(basis, h_mats, k_mats):
    """Space g/h over the matrix basis of g, for a chain h < k < g of matrix
    algebras, with summands (tangent beyond k, k minus h)."""
    space = homspace.build(from_matrices(basis), matrix_coords(basis, h_mats))
    m2 = gram_schmidt(space.proj_m(matrix_coords(basis, k_mats)))
    return space, (null_space(m2), m2)


def _row_summands(space, groups):
    """Summands spanned by the g-coords rows ``groups[i]``, as orthonormal m-coords."""
    v = np.vstack(groups)
    vm = space.proj_m(v)
    off = np.linalg.norm(space.lift_m(vm) - v, axis=1)
    if np.any(off > 1e-8 * np.maximum(1.0, np.linalg.norm(v, axis=1))):
        raise UnsupportedRankError("summand matrix is not inside m")
    ends = np.cumsum([len(rows) for rows in groups])[:-1]
    return tuple(gram_schmidt(rows) for rows in np.split(vm, ends))


# ---------------------------------------------------------------------------
# entries that are not gradings: chains h < k < g, two of them stabilizers


def _build_su3_su2():
    h_mats = list(_embed(su_matrices(2), 3))
    return _chain(su_matrices(3), h_mats,
                  h_mats + [1j * np.diag([1.0, 1.0, -2.0]).astype(complex)])


def _stabilizer_chain(t, dim_h):
    """Space so(n+1)/h for h the stabilizer in so(n) of the 3-tensor ``t`` on
    R^n, n = len(t): the kernel of A -> A.t, (A.t)_ijk = A_ia t_ajk +
    A_ja t_iak + A_ka t_ija, over the standard basis of so(n).  Summands: the
    tangent beyond so(n) and so(n) minus h."""
    n = len(t)
    mats = np.asarray(so_matrices(n))
    act = (np.einsum("xia,ajk->xijk", mats, t) + np.einsum("xja,iak->xijk", mats, t)
           + np.einsum("xka,ija->xijk", mats, t))
    h = null_space(act.reshape(len(mats), -1).T)
    if len(h) != dim_h:
        raise UnsupportedRankError(
            f"stabilizer of the tensor came out {len(h)}-dimensional, expected {dim_h}")
    return _chain(so_matrices(n + 1), _embed(np.tensordot(h, mats, 1), n + 1),
                  _embed(mats, n + 1))


def _build_so6_so3irr():
    """so(3) irreducible on the traceless symmetric 3x3 matrices S_a
    (orthonormal): the stabilizer in so(5) of the cubic tr(S_a S_b S_c)."""
    s2 = 1.0 / np.sqrt(2.0)
    sym = np.array([np.diag([s2, -s2, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)]
                   + [np.abs(m) * s2 for m in so_matrices(3)])
    return _stabilizer_chain(np.einsum("aij,bjk,cki->abc", sym, sym, sym), 3)


def _build_spin8_g2():
    """g2 as the stabilizer in so(7) of the octonion 3-form <e_i e_j, e_k>,
    from the oriented lines (i, j, k), e_i e_j = e_k, of the imaginary units
    1..7; so(8) acts on the octonions with the unit last."""
    lines = np.array([(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7),
                      (3, 6, 5)]) - 1
    phi = np.zeros((7, 7, 7))
    phi[tuple(np.concatenate([np.roll(lines, s, axis=1) for s in range(3)]).T)] = 1.0
    return _stabilizer_chain(phi - phi.transpose(0, 2, 1), 14)


# ---------------------------------------------------------------------------
# graded entries

# per kind: the standard basis of g and the largest supported k+l+m
_CLASSICAL = {"so": (so_matrices, 10), "su": (su_matrices, 6), "sp": (sp_matrices, 4)}


def _graded(g, autos):
    """Space g/h for the grading of g by commuting automorphisms with A^4 = I.

    Each of ``autos`` acts on g-coords rows by x -> x @ A.  Its real classes
    are 1, the merged pair +-i and -1, with projectors (I + A^2)(I + A)/4,
    (I - A^2)/2 and (I + A^2)(I - A)/4; an involution has (I + A^2)/2 = I and
    no +-i class.  h is the common fixed algebra; the summands are the other
    nonempty joint classes, in ``itertools.product`` order over the classes.
    """
    eye = np.eye(g.dim)
    classes = []
    for a in autos:
        sq = a @ a
        classes.append(((eye + sq) @ (eye + a) / 4, (eye - sq) / 2, (eye + sq) @ (eye - a) / 4))
    spans = [functools.reduce(np.matmul, projs) for projs in itertools.product(*classes)]
    spans = [p[np.linalg.norm(p, axis=1) > 1e-10] for p in spans]
    space = homspace.build(g, spans[0])
    return space, _row_summands(space, [rows for rows in spans[1:] if len(rows)])


def _conjugation(mats, s):
    """Matrix of the automorphism M -> S M S^-1 (S unitary) on the span of
    ``mats``, read off exactly: each image must be +-(a basis matrix).  A
    complex S or basis is compared in real form, where S^-1 is S^T."""
    mats, s = np.asarray(mats), np.asarray(s)
    if np.iscomplexobj(mats) or np.iscomplexobj(s):
        mats, s = realify(mats), realify(s)
    flat = mats.reshape(len(mats), -1)
    img = (s @ mats @ s.T).reshape(flat.shape)
    overlap = img @ flat.T
    rows, hit = np.arange(len(flat)), np.argmax(np.abs(overlap), axis=1)
    sign = np.sign(overlap[rows, hit])
    if not np.array_equal(img, sign[:, None] * flat[hit]):
        raise UnsupportedRankError("conjugation does not permute the basis up to sign")
    out = np.zeros(overlap.shape)
    out[rows, hit] = sign
    return out


def _build_so5_u2():
    """so(5) graded by S = diag(R, R, 1), R the quarter turn: h = u(2), summands
    the last column and the part of so(4) anticommuting with the complex structure."""
    s = np.eye(5)
    s[:4, :4] = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    gm = so_matrices(5)
    return _graded(from_matrices(gm), [_conjugation(gm, s)])


def _build_sp2_sp1u1():
    """sp(2) graded by the quaternionic diag(1, i): h = sp(1) + u(1), summands
    the off-diagonal quaternion and the slot-2 complement of the circle."""
    gm = sp_matrices(2)
    return _graded(from_matrices(gm), [_conjugation(gm, np.diag([1.0, 1j, 1.0, -1j]))])


def _build_wallach(kind, k, l, m):
    """Generalized Wallach space over blocks of sizes k, l, m, graded by the
    sign flips of blocks 3 and 2 (for sp, indices i and i + n share a block)."""
    basis, cap = _CLASSICAL[kind]
    n = k + l + m
    if min(k, l, m) < 1 or n < 3 or n > cap:
        raise UnsupportedRankError(
            f"wallach-{kind} needs k,l,m >= 1 and 3 <= k+l+m <= {cap}, got {k},{l},{m}")
    gm = basis(n)
    block = np.tile(np.repeat([0, 1, 2], (k, l, m)), 2 if kind == "sp" else 1)
    return _graded(from_matrices(gm), [_conjugation(gm, np.diag(np.where(block == b, -1.0, 1.0)))
                                       for b in (2, 1)])


def _build_ledger_obata(factor_basis):
    """The fourth power of the factor over its diagonal, graded by the factor
    swaps (12)(34) and (13)(24)."""
    factor = from_matrices(factor_basis)
    swaps = (np.eye(4)[[1, 0, 3, 2]], np.eye(4)[[2, 3, 0, 1]])
    return _graded(direct_sum(factor, factor, factor, factor),
                   [np.kron(p, np.eye(factor.dim)) for p in swaps])


def _build_product_sym():
    """Three round 2-spheres, graded by the flips of the last axis of
    factors 3, 2 and 1."""
    mats = so_matrices(3)
    flip = np.tile(np.diag(_conjugation(mats, np.diag([1.0, 1.0, -1.0]))), 3)
    factor = np.repeat([0, 1, 2], 3)
    so3 = from_matrices(mats)
    return _graded(direct_sum(so3, so3, so3),
                   [np.diag(np.where(factor == j, flip, 1.0)) for j in (2, 1, 0)])


# ---------------------------------------------------------------------------
# registry


_FIXED = {
    "so5/u2": (
        _build_so5_u2,
        "5x5 rotations over the unitary 2x2 block; summands: tangent beyond "
        "the 4x4 block and its complex-structure complement",
        ("two-summand-go", "two-summand"),
    ),
    "su3/su2": (
        _build_su3_su2,
        "special unitary 3x3 over the top-left 2x2 block; summands: the "
        "off-diagonal column and the residual torus direction",
        ("two-summand-go", "two-summand"),
    ),
    "sp2/sp1u1": (
        _build_sp2_sp1u1,
        "compact symplectic rank 2 over quaternionic slot 1 plus the circle "
        "in slot 2; summands: quaternionic tangent and the slot-2 complement",
        ("two-summand-go", "two-summand"),
    ),
    "su3/t2": (
        lambda: _build_wallach("su", 1, 1, 1),
        "full flag of special unitary 3x3 over its diagonal torus; three "
        "2-dimensional root-plane summands",
        ("wallach-type-ii", "three-summand"),
    ),
    "ledger-obata/su2": (
        lambda: _build_ledger_obata(su_matrices(2)),
        "fourth power of the 3-dimensional compact algebra su2 over its "
        "diagonal; three sign-pattern summands",
        ("wallach-type-iii", "three-summand"),
    ),
    "ledger-obata/so3": (
        lambda: _build_ledger_obata(so_matrices(3)),
        "fourth power of the 3-dimensional rotation algebra over its "
        "diagonal; three sign-pattern summands",
        ("wallach-type-iii", "three-summand"),
    ),
    "product-sym/3xS2": (
        _build_product_sym,
        "product of three round 2-spheres; factor tangent planes as summands "
        "(distinct summands commute)",
        ("wallach-type-i", "three-summand", "control"),
    ),
    "so6/so3irr": (
        _build_so6_so3irr,
        "6x6 rotations over the irreducibly embedded 3-dimensional rotation "
        "algebra (via symmetric traceless 3x3 matrices); two inequivalent "
        "summands of dims 5 and 7",
        ("control", "two-summand"),
    ),
    "spin8/g2": (
        _build_spin8_g2,
        "8x8 rotations over the octonion derivation algebra; two equivalent "
        "7-dimensional summands, splitting not unique",
        ("two-summand-go", "two-summand"),
    ),
}

_FAMILIES = {
    "wallach-so": (
        functools.partial(_build_wallach, "so"),
        "rotations of k+l+m coordinates over the block rotations; three "
        "off-block summands of dims kl, km, lm",
        ("wallach-type-ii", "three-summand"),
    ),
    "wallach-su": (
        functools.partial(_build_wallach, "su"),
        "special unitary k+l+m over the blockwise unitary subalgebra; three "
        "complex off-block summands",
        ("wallach-type-ii", "three-summand"),
    ),
    "wallach-sp": (
        functools.partial(_build_wallach, "sp"),
        "compact symplectic k+l+m over the blockwise symplectic subalgebra; "
        "three quaternionic off-block summands",
        ("wallach-type-ii", "three-summand"),
    ),
}

# listing order; family defaults stand for their family
_LISTED = ("so5/u2", "su3/su2", "sp2/sp1u1", "su3/t2", "wallach-so/2,2,2",
           "wallach-su/1,1,1", "wallach-sp/1,1,1", "ledger-obata/su2",
           "ledger-obata/so3", "product-sym/3xS2", "so6/so3irr", "spin8/g2")


def list_catalog():
    """Catalog rows as (id, description, tags), stable order.

    Descriptions and tags come from ``make_space``, so the first listing in
    a process builds every listed entry.
    """
    rows = []
    for key in _LISTED:
        meta = make_space(key)[2]
        suffix = "" if key in _FIXED else " (parameters k,l,m adjustable)"
        rows.append((key, meta["description"] + suffix, meta["tags"]))
    return rows


def _parse_family_params(spec, params_text):
    parts = params_text.split(",")
    if len(parts) != 3:
        raise SpecFormatError(
            f"family spec needs three integers, got {spec!r}",
            column=spec.index("/") + 2)
    out = []
    col = spec.index("/") + 2
    for tok in parts:
        try:
            out.append(int(tok))
        except ValueError:
            raise SpecFormatError(f"bad integer {tok.strip()!r} in {spec!r}", column=col)
        col += len(tok) + 1
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _make_space_cached(spec):
    family, _, params_text = spec.partition("/")
    if spec in _FIXED:
        builder, desc, tags = _FIXED[spec]
        space, summands = builder()
    elif family in _FAMILIES and params_text:
        builder, desc, tags = _FAMILIES[family]
        space, summands = builder(*_parse_family_params(spec, params_text))
    else:
        raise UnknownSpecError(
            f"unknown space {spec!r}; run the list command for available ids")
    dec = homspace.Decomposition(
        summands=summands, commutant_dim=homspace.symmetric_commutant_dim(space, summands))
    meta = {
        "id": spec,
        "family": family,
        "description": desc,
        "tags": tuple(tags) + (("equivalent-summands",) if dec.non_unique else ()),
        "dim_g": space.g.dim,
        "dim_h": space.dim_h,
        "dims": dec.dims,
    }
    return space, dec, meta


def make_space(spec):
    """Resolve a space spec to ``(space, dec, meta)``; results are cached."""
    return _make_space_cached(str(spec).strip())
