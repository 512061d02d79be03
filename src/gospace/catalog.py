"""Built-in compact homogeneous spaces with canonical invariant splittings.

Every entry produces a triple ``(space, dec, meta)``: the reductive
structure, a canonical decomposition of m into invariant summands, and a
metadata dict (id, description, tags, dimensions).  Identifiers follow
``family/params``; three families take integer parameters
(``wallach-so/k,l,m``, ``wallach-su/k,l,m``, ``wallach-sp/k,l,m``), the
rest are fixed ids.

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
  decomposition; the listed rows carry it without building anything.
"""

from __future__ import annotations

import functools

import numpy as np

from . import homspace
from ._linalg import gram_schmidt, null_space
from .errors import SpecFormatError, UnknownSpecError, UnsupportedRankError
from .liealg import (
    direct_sum,
    from_matrices,
    matrix_coords,
    quaternionify,
    realify,
    so_matrices,
    sp_matrices,
    su_matrices,
)


def _embed(mat, n, offset=0):
    out = np.zeros((n, n), dtype=mat.dtype)
    d = mat.shape[0]
    out[offset:offset + d, offset:offset + d] = mat
    return out


def _two_block_split(space, k_rows):
    """Split m into (tangent beyond k, k minus h) for a chain h < k < g."""
    m2 = gram_schmidt(np.array([space.proj_m(v) for v in k_rows]))
    m1 = null_space(m2)
    return homspace.Decomposition(
        summands=(m1, m2),
        commutant_dim=homspace.symmetric_commutant_dim(space))


def _dec_from_rows(space, groups):
    """Decomposition whose i-th summand is spanned by the g-coords rows ``groups[i]``."""
    v = np.vstack(groups)
    vm = np.array([space.proj_m(x) for x in v])
    off = np.linalg.norm(space.lift_m(vm) - v, axis=1)
    if np.any(off > 1e-8 * np.maximum(1.0, np.linalg.norm(v, axis=1))):
        raise UnsupportedRankError("summand matrix is not inside m")
    ends = np.cumsum([len(rows) for rows in groups])[:-1]
    return homspace.Decomposition(
        summands=tuple(gram_schmidt(rows) for rows in np.split(vm, ends)),
        commutant_dim=homspace.symmetric_commutant_dim(space))


# ---------------------------------------------------------------------------
# two-summand entries


def _build_so5_u2():
    gm = so_matrices(5)
    g = from_matrices(gm)
    u2 = [np.diag([1j, 0.0]), np.diag([0.0, 1j]),
          np.array([[0.0, 1j], [1j, 0.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]],
                                                     dtype=complex)]
    h_mats = [_embed(realify(m), 5) for m in u2]
    k_mats = [_embed(m, 5) for m in so_matrices(4)]
    space = homspace.build(g, matrix_coords(gm, h_mats))
    dec = _two_block_split(space, matrix_coords(gm, k_mats))
    return space, dec


def _build_su3_su2():
    gm = su_matrices(3)
    g = from_matrices(gm)
    h_mats = [_embed(m, 3) for m in su_matrices(2)]
    k_mats = h_mats + [1j * np.diag([1.0, 1.0, -2.0]).astype(complex)]
    space = homspace.build(g, matrix_coords(gm, h_mats))
    dec = _two_block_split(space, matrix_coords(gm, k_mats))
    return space, dec


def _sp_slot(n, idx):
    a = np.zeros((n, n), dtype=complex)
    a[idx, idx] = 1j
    b1 = np.zeros((n, n), dtype=complex)
    b1[idx, idx] = 1.0
    b2 = np.zeros((n, n), dtype=complex)
    b2[idx, idx] = 1j
    zero = np.zeros((n, n), dtype=complex)
    return [quaternionify(a, zero), quaternionify(zero, b1), quaternionify(zero, b2)]


def _build_sp2_sp1u1():
    gm = sp_matrices(2)
    g = from_matrices(gm)
    a_u1 = np.zeros((2, 2), dtype=complex)
    a_u1[1, 1] = 1j
    h_mats = _sp_slot(2, 0) + [quaternionify(a_u1, np.zeros((2, 2), dtype=complex))]
    k_mats = _sp_slot(2, 0) + _sp_slot(2, 1)
    space = homspace.build(g, matrix_coords(gm, h_mats))
    dec = _two_block_split(space, matrix_coords(gm, k_mats))
    return space, dec


def _sym_traceless_basis3():
    s2 = 1.0 / np.sqrt(2.0)
    mats = [np.diag([1.0, -1.0, 0.0]) * s2,
            np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)]
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3))
            m[i, j] = m[j, i] = s2
            mats.append(m)
    return mats


def _build_so6_so3irr():
    gm = so_matrices(6)
    g = from_matrices(gm)
    sym = _sym_traceless_basis3()
    rho = []
    for lmat in so_matrices(3):
        r = np.zeros((5, 5))
        for beta, sb in enumerate(sym):
            img = lmat @ sb - sb @ lmat
            for alpha, sa in enumerate(sym):
                r[alpha, beta] = np.trace(sa @ img)
        rho.append(_embed(0.5 * (r - r.T), 6))
    k_mats = [_embed(m, 6) for m in so_matrices(5)]
    space = homspace.build(g, matrix_coords(gm, rho))
    dec = _two_block_split(space, matrix_coords(gm, k_mats))
    return space, dec


def _quat_table():
    # basis 1, i, j, k
    t = np.zeros((4, 4, 4))
    t[0, :, :] = np.eye(4)
    t[:, 0, :] = np.eye(4)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[a, b, c] = 1.0
        t[b, a, c] = -1.0
        t[a, a, 0] = -1.0
    return t


def _octonion_table():
    # doubling: pairs of quaternions with (a,b)(c,d) = (ac - conj(d)b, da + b conj(c))
    q = _quat_table()
    conj_sign = np.array([1.0, -1.0, -1.0, -1.0])
    t = np.zeros((8, 8, 8))
    for p in range(4):
        for r in range(4):
            t[p, r, :4] += q[p, r]
            t[p + 4, r + 4, :4] -= conj_sign[r] * q[r, p]
            t[p, r + 4, 4:] += q[r, p]
            t[p + 4, r, 4:] += conj_sign[r] * q[p, r]
    return t


def _build_spin8_g2():
    # derivations of the octonion product: D(xy) = (Dx)y + x(Dy) on all basis
    # pairs; the solution space is 14-dimensional and antisymmetric
    oct_t = _octonion_table()
    mat = np.zeros((8 * 8 * 8, 64))
    for p in range(8):
        for r in range(8):
            for t in range(8):
                row = np.zeros((8, 8))
                row[t, :] += oct_t[p, r, :]
                row[:, p] -= oct_t[:, r, t]
                row[:, r] -= oct_t[p, :, t]
                mat[(p * 8 + r) * 8 + t] = row.ravel()
    kernel = null_space(mat)
    if kernel.shape[0] != 14:
        raise UnsupportedRankError(
            f"octonion derivation space came out {kernel.shape[0]}-dimensional")
    der = []
    for d in kernel:
        dm = d.reshape(8, 8)
        if np.max(np.abs(dm + dm.T)) > 1e-10:
            raise UnsupportedRankError("derivation is not antisymmetric")
        der.append(0.5 * (dm - dm.T))
    gm = so_matrices(8)
    g = from_matrices(gm)
    k_mats = [_embed(m, 8, offset=1) for m in so_matrices(7)]
    space = homspace.build(g, matrix_coords(gm, der))
    dec = _two_block_split(space, matrix_coords(gm, k_mats))
    return space, dec


# ---------------------------------------------------------------------------
# three-summand entries

# per kind: the standard basis of g and the largest supported k+l+m
_CLASSICAL = {"so": (so_matrices, 10), "su": (su_matrices, 6), "sp": (sp_matrices, 4)}


def _build_wallach(kind, k, l, m):
    """Generalized Wallach space over blocks of sizes k, l, m.

    Every matrix of g's standard basis acts on the index pairs of one pair
    of blocks (for sp, indices i and i + n share a block): the ones on a
    block with itself span h, the ones on blocks i < j span m_ij.
    """
    basis, cap = _CLASSICAL[kind]
    n = k + l + m
    if min(k, l, m) < 1 or n < 3 or n > cap:
        raise UnsupportedRankError(
            f"wallach-{kind} needs k,l,m >= 1 and 3 <= k+l+m <= {cap}, got {k},{l},{m}")
    gm = basis(n)
    block = np.repeat([0, 1, 2], (k, l, m))
    pairs = []
    for mat in gm:
        # blocks of the nonzero entries; anti-Hermitian, so rows and columns
        # touch the same blocks
        r, c = (block[x % n] for x in np.nonzero(mat))
        pairs.append(None if np.all(r == c) else (r.min(), r.max()))
    rows = np.eye(len(gm))
    space = homspace.build(from_matrices(gm), rows[[p is None for p in pairs]])
    dec = _dec_from_rows(space, [rows[[p == q for p in pairs]]
                                 for q in ((0, 1), (0, 2), (1, 2))])
    return space, dec


_LO_SIGNS = ((1.0, 1.0, -1.0, -1.0), (1.0, -1.0, 1.0, -1.0), (1.0, -1.0, -1.0, 1.0))


def _build_ledger_obata(which):
    if which == "su2":
        factor = from_matrices(su_matrices(2))
    elif which == "so3":
        factor = from_matrices(so_matrices(3))
    else:
        raise UnknownSpecError(f"ledger-obata/{which} is not in the catalog")
    d = factor.dim
    g = direct_sum(factor, factor, factor, factor)
    h_rows = np.zeros((d, 4 * d))
    for a in range(d):
        for blk in range(4):
            h_rows[a, blk * d + a] = 1.0
    groups = []
    for signs in _LO_SIGNS:
        rows = np.zeros((d, 4 * d))
        for a in range(d):
            for blk in range(4):
                rows[a, blk * d + a] = signs[blk]
        groups.append(rows)
    space = homspace.build(g, h_rows)
    dec = _dec_from_rows(space, groups)
    return space, dec


def _build_product_sym():
    so3 = from_matrices(so_matrices(3))
    g = direct_sum(so3, so3, so3)
    h_rows = np.zeros((3, 9))
    for f in range(3):
        h_rows[f, 3 * f] = 1.0          # rotation fixing the last axis of factor f
    groups = []
    for f in range(3):
        rows = np.zeros((2, 9))
        rows[0, 3 * f + 1] = 1.0
        rows[1, 3 * f + 2] = 1.0
        groups.append(rows)
    space = homspace.build(g, h_rows)
    dec = _dec_from_rows(space, groups)
    return space, dec


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
        lambda: _build_ledger_obata("su2"),
        "fourth power of the 3-dimensional compact algebra su2 over its "
        "diagonal; three sign-pattern summands",
        ("wallach-type-iii", "three-summand"),
    ),
    "ledger-obata/so3": (
        lambda: _build_ledger_obata("so3"),
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

_LISTED_FAMILY_DEFAULTS = (
    ("wallach-so/2,2,2", "wallach-so"),
    ("wallach-su/1,1,1", "wallach-su"),
    ("wallach-sp/1,1,1", "wallach-sp"),
)


# listed ids whose decomposition is non_unique; the tests hold this set to
# the tags that make_space derives
_LISTED_NON_UNIQUE = frozenset(
    ("wallach-so/2,2,2", "ledger-obata/su2", "ledger-obata/so3", "spin8/g2"))


def _tagged(tags, non_unique):
    return tuple(tags) + (("equivalent-summands",) if non_unique else ())


def list_catalog():
    """Catalog rows as (id, description, tags), stable order."""
    rows = []
    for key in ("so5/u2", "su3/su2", "sp2/sp1u1", "su3/t2"):
        builder, desc, tags = _FIXED[key]
        rows.append((key, desc, tags))
    for key, fam in _LISTED_FAMILY_DEFAULTS:
        builder, desc, tags = _FAMILIES[fam]
        rows.append((key, desc + " (parameters k,l,m adjustable)", tags))
    for key in ("ledger-obata/su2", "ledger-obata/so3", "product-sym/3xS2",
                "so6/so3irr", "spin8/g2"):
        builder, desc, tags = _FIXED[key]
        rows.append((key, desc, tags))
    return [(key, desc, _tagged(tags, key in _LISTED_NON_UNIQUE))
            for key, desc, tags in rows]


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
    if spec in _FIXED:
        builder, desc, tags = _FIXED[spec]
        space, dec = builder()
        family = spec.split("/")[0]
    else:
        family, _, params_text = spec.partition("/")
        if family in _FAMILIES and params_text:
            builder, desc, tags = _FAMILIES[family]
            k, l, m = _parse_family_params(spec, params_text)
            space, dec = builder(k, l, m)
        else:
            raise UnknownSpecError(
                f"unknown space {spec!r}; run the list command for available ids")
    meta = {
        "id": spec,
        "family": family,
        "description": desc,
        "tags": _tagged(tags, dec.non_unique),
        "dim_g": space.g.dim,
        "dim_h": space.dim_h,
        "dims": dec.dims,
    }
    return space, dec, meta


def make_space(spec):
    """Resolve a space spec to ``(space, dec, meta)``; results are cached."""
    return _make_space_cached(str(spec).strip())
