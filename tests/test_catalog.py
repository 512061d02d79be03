import itertools
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import listed_arity, listed_ids
from gospace import catalog, homspace, liealg
from gospace.errors import SpecFormatError, UnknownSpecError, UnsupportedRankError

# frozen shape expectations for every listed entry:
# id -> (dim_g, dim_h, summand dims)
EXPECTED_SHAPES = {
    "so5/u2": (10, 4, (4, 2)),
    "su3/su2": (8, 3, (4, 1)),
    "sp2/sp1u1": (10, 4, (4, 2)),
    "su3/t2": (8, 2, (2, 2, 2)),
    "wallach-so/2,2,2": (15, 3, (4, 4, 4)),
    "wallach-su/1,1,1": (8, 2, (2, 2, 2)),
    "wallach-sp/1,1,1": (21, 9, (4, 4, 4)),
    "ledger-obata/su2": (12, 3, (3, 3, 3)),
    "ledger-obata/so3": (12, 3, (3, 3, 3)),
    "product-sym/3xS2": (9, 3, (2, 2, 2)),
    "so6/so3irr": (15, 3, (5, 7)),
    "spin8/g2": (28, 14, (7, 7)),
}


def test_listing_is_complete_and_ordered():
    rows = catalog.list_catalog()
    ids = [r[0] for r in rows]
    assert ids == list(EXPECTED_SHAPES)
    assert rows == catalog.list_catalog()        # stable


def test_static_tags_match_the_listing():
    # the test modules pick their ids from the catalog's static tags, so
    # that collecting them builds nothing: those tags are the listed ones
    # less the derived equivalent-summands, and fix the number of summands
    rows = catalog.list_catalog()
    assert listed_ids() == [rid for rid, _, _ in rows]
    for rid, _, tags in rows:
        assert {tag for tag in tags if rid in listed_ids(tag)} == set(tags) - {"equivalent-summands"}
        assert listed_arity(rid) == catalog.make_space(rid)[1].arity


@pytest.mark.parametrize("rid", list(EXPECTED_SHAPES))
def test_entry_shapes(rid):
    space, dec, meta = catalog.make_space(rid)
    dim_g, dim_h, dims = EXPECTED_SHAPES[rid]
    assert space.g.dim == dim_g
    assert space.dim_h == dim_h
    assert dec.dims == dims
    assert meta["id"] == rid
    assert dec.completeness_residual() < 1e-10
    assert homspace.invariance_residual(space, dec) < 1e-10


def test_su3_t2_equals_family_default():
    s1, d1, _ = catalog.make_space("su3/t2")
    s2, d2, _ = catalog.make_space("wallach-su/1,1,1")
    assert s1.g.dim == s2.g.dim
    assert d1.dims == d2.dims


def test_family_parameters():
    space, dec, meta = catalog.make_space("wallach-so/3,3,3")
    assert dec.dims == (9, 9, 9)
    assert space.g.dim == 36                      # so(9)
    space, dec, _ = catalog.make_space("wallach-su/2,1,1")
    assert space.g.dim == 15                      # su(4)
    assert dec.dims == (4, 4, 2)                  # complex blocks 2x1, 2x1, 1x1


# family members beyond the listed defaults, one or more per kind
FAMILY_MEMBERS = ("wallach-su/2,1,1", "wallach-su/2,2,2", "wallach-sp/1,1,2",
                  "wallach-so/3,3,4")


def _closed_form_dims(spec):
    """(dim g, dim h, summand dims) of G(k+l+m)/(G(k)xG(l)xG(m)) by formula."""
    family, _, params = spec.partition("/")
    k, l, m = (int(x) for x in params.split(","))
    # dim of the block algebra (u(d) for su), real dim of one matrix entry,
    # and the one dimension the trace condition of su removes
    dim, entry, trace = {"wallach-so": (lambda d: d * (d - 1) // 2, 1, 0),
                         "wallach-su": (lambda d: d * d, 2, 1),
                         "wallach-sp": (lambda d: d * (2 * d + 1), 4, 0)}[family]
    return (dim(k + l + m) - trace, dim(k) + dim(l) + dim(m) - trace,
            (entry * k * l, entry * k * m, entry * l * m))


@pytest.mark.parametrize("spec", FAMILY_MEMBERS)
def test_family_member_structure(spec):
    space, dec, _ = catalog.make_space(spec)
    assert (space.g.dim, space.dim_h, dec.dims) == _closed_form_dims(spec)
    assert dec.completeness_residual() < 1e-10
    assert homspace.invariance_residual(space, dec) < 1e-10
    assert dec.commutant_dim == 3                 # three inequivalent summands


@pytest.mark.parametrize("spec, dim_h, dims", [
    ("wallach-so/3,3,4", 3 + 3 + 6, (9, 12, 12)),
    ("wallach-so/2,3,5", 1 + 3 + 10, (6, 10, 15)),
])
def test_largest_wallach_so_builds(spec, dim_h, dims):
    space, dec, _ = catalog.make_space(spec)
    assert space.g.dim == 45                      # so(10)
    assert space.dim_h == dim_h
    assert dec.dims == dims
    assert dec.commutant_dim == 3                 # three inequivalent summands
    assert not dec.non_unique


@pytest.mark.parametrize("bad", [
    "wallach-so/2,2",         # wrong count
    "wallach-so/a,b,c",       # not integers
])
def test_family_rejects_syntax(bad):
    with pytest.raises(SpecFormatError):
        catalog.make_space(bad)


RANGE_MESSAGES = {
    "wallach-so/0,1,2":       # parameters below 1
        "wallach-so needs k,l,m >= 1 and 3 <= k+l+m <= 10, got 0,1,2",
    "wallach-so/5,5,5":       # total beyond the supported range
        "wallach-so needs k,l,m >= 1 and 3 <= k+l+m <= 10, got 5,5,5",
    "wallach-su/3,2,2":
        "wallach-su needs k,l,m >= 1 and 3 <= k+l+m <= 6, got 3,2,2",
    "wallach-sp/3,3,3":
        "wallach-sp needs k,l,m >= 1 and 3 <= k+l+m <= 4, got 3,3,3",
}


@pytest.mark.parametrize("bad", list(RANGE_MESSAGES))
def test_family_rejects_range(bad):
    with pytest.raises(UnsupportedRankError) as err:
        catalog.make_space(bad)
    assert str(err.value) == RANGE_MESSAGES[bad]


def test_unknown_space():
    with pytest.raises(UnknownSpecError):
        catalog.make_space("nope/xyz")


def test_make_space_is_cached():
    a = catalog.make_space("so5/u2")
    b = catalog.make_space("so5/u2")
    assert a[0] is b[0] and a[1] is b[1]


# --------------------------------------------------------------------------
# structural bracket facts per tag


def _mm_h_m_blocks(space, dec, i, j):
    """Stacked (h-part, m-part) of [m_i basis, m_j basis]."""
    hs, ms = [], []
    for a in dec.summands[i]:
        for b in dec.summands[j]:
            bh, bm = space.bracket_mm(a, b)
            hs.append(bh)
            ms.append(bm)
    return np.array(hs), np.array(ms)


@pytest.mark.parametrize("rid", listed_ids("three-summand") + list(FAMILY_MEMBERS))
def test_diagonal_brackets_land_in_h(rid):
    space, dec, _ = catalog.make_space(rid)
    for i in range(3):
        _, bm = _mm_h_m_blocks(space, dec, i, i)
        assert np.max(np.abs(bm)) < 1e-10, f"[m_{i}, m_{i}] leaks into m"


@pytest.mark.parametrize("rid", listed_ids("wallach-type-ii") + listed_ids("wallach-type-iii")
                         + list(FAMILY_MEMBERS))
def test_cross_brackets_fill_third_summand(rid):
    space, dec, _ = catalog.make_space(rid)
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            _, bm = _mm_h_m_blocks(space, dec, i, j)
            proj = bm @ dec.summands[k].T
            rank = np.linalg.matrix_rank(proj, tol=1e-8)
            assert rank == dec.dims[k], f"[m_{i}, m_{j}] does not fill m_{k}"
            # and nothing lands outside m_k
            others = np.vstack([dec.summands[s] for s in range(3) if s != k])
            assert np.max(np.abs(bm @ others.T)) < 1e-10


@pytest.mark.parametrize("rid", listed_ids("wallach-type-i"))
def test_type_one_cross_brackets_vanish(rid):
    space, dec, _ = catalog.make_space(rid)
    for i in range(3):
        for j in range(i + 1, 3):
            bh, bm = _mm_h_m_blocks(space, dec, i, j)
            assert np.max(np.abs(bh)) < 1e-10
            assert np.max(np.abs(bm)) < 1e-10


@pytest.mark.parametrize("rid", listed_ids("two-summand"))
def test_two_summand_cross_bracket_nonzero(rid):
    space, dec, _ = catalog.make_space(rid)
    bh, bm = _mm_h_m_blocks(space, dec, 0, 1)
    assert max(np.max(np.abs(bh)), np.max(np.abs(bm))) > 1e-3


def _quat_mul(p, q):
    # Hamilton product over the last axis, coordinates (1, i, j, k)
    w1, v1, w2, v2 = p[..., :1], p[..., 1:], q[..., :1], q[..., 1:]
    return np.concatenate([w1 * w2 - np.sum(v1 * v2, axis=-1, keepdims=True),
                           w1 * v2 + w2 * v1 + np.cross(v1, v2)], axis=-1)


def _octonion_table():
    """T[i, j] = e_i e_j on R^8 with the imaginary units 1..7 on axes 0..6
    and the unit last, from the doubling (a, b)(c, d) = (ac - conj(d) b,
    da + b conj(c)) over pairs of quaternions (1, i, j, k, l, il, jl, kl)."""
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    perm = (np.arange(8) + 1) % 8            # axis -> index in the doubling basis
    x, y = np.eye(8)[perm][:, None], np.eye(8)[perm][None, :]
    a, b, c, d = x[..., :4], x[..., 4:], y[..., :4], y[..., 4:]
    prod = np.concatenate([_quat_mul(a, c) - _quat_mul(d * conj, b),
                           _quat_mul(d, a) + _quat_mul(b, c * conj)], axis=-1)
    return prod[..., perm]


def _so_rows(rows, n):
    return np.tensordot(rows, np.asarray(liealg.so_matrices(n)), 1)


def _tensor_action(mats, t):
    return (np.einsum("xia,ajk->xijk", mats, t) + np.einsum("xja,iak->xijk", mats, t)
            + np.einsum("xka,ija->xijk", mats, t))


def test_spin8_g2_derivation_algebra():
    space, dec, _ = catalog.make_space("spin8/g2")
    assert space.dim_h == 14
    assert dec.non_unique
    g = space.g
    assert liealg.jacobi_residual(g, trials=30, seed=1) < 1e-10
    # every element of h kills the octonion unit and is a derivation:
    # D(e_i e_j) = (D e_i) e_j + e_i (D e_j)
    t = _octonion_table()
    d = _so_rows(space.h_basis, 8)
    assert np.max(np.abs(d[:, :, 7])) <= 1e-12
    lhs = np.einsum("xak,ijk->xija", d, t)
    rhs = np.einsum("xbi,bja->xija", d, t) + np.einsum("xbj,iba->xija", d, t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _sym_traceless3():
    s2 = 1.0 / np.sqrt(2.0)
    mats = [np.diag([s2, -s2, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m = np.zeros((3, 3))
        m[i, j] = m[j, i] = s2
        mats.append(m)
    return np.array(mats)


def _entry_tensors():
    sym = _sym_traceless3()
    return {
        "so6/so3irr": (np.einsum("aij,bjk,cki->abc", sym, sym, sym), 3),
        "spin8/g2": (_octonion_table()[:7, :7, :7], 14),
    }


@pytest.mark.parametrize("spec", ["so6/so3irr", "spin8/g2"])
def test_stabilizer_chain_annihilates_its_tensor(spec):
    t, dim_h = _entry_tensors()[spec]
    n = len(t)
    space, (m1, m2) = catalog._stabilizer_chain(t, dim_h)
    d = _so_rows(space.h_basis, n + 1)
    assert np.max(np.abs(d[:, n])) == 0.0 and np.max(np.abs(d[:, :, n])) == 0.0
    assert np.max(np.abs(_tensor_action(d[:, :n, :n], t))) <= 1e-12
    assert (space.dim_h, len(m1), len(m2)) == (dim_h, n, n * (n - 1) // 2 - dim_h)
    # the tensor written here presents the catalog entry exactly
    npt.assert_array_equal(space.h_basis, catalog.make_space(spec)[0].h_basis)


def test_stabilizer_chain_rejects_the_wrong_dimension():
    # everything in so(4) fixes the zero tensor
    with pytest.raises(UnsupportedRankError) as info:
        catalog._stabilizer_chain(np.zeros((4, 4, 4)), 3)
    assert str(info.value) == "stabilizer of the tensor came out 6-dimensional, expected 3"


def test_so6_so3irr_summands_inequivalent():
    space, dec, _ = catalog.make_space("so6/so3irr")
    assert dec.dims == (5, 7)
    assert dec.commutant_dim == 2


README = Path(__file__).resolve().parent.parent / "README.md"
_README_ROW = re.compile(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \| ([^|]+) \|$", re.M)


def test_readme_space_table_matches_catalog():
    # every fixed-id row: its summand dims and each listed tag; the k,l,m
    # family rows give formulas, not values
    rows = [r for r in _README_ROW.findall(README.read_text()) if "k,l,m" not in r[0]]
    assert set(catalog._FIXED) <= {rid for rid, _, _ in rows}
    for rid, dims, tags in rows:
        _, dec, meta = catalog.make_space(rid)
        assert dec.dims == tuple(int(x) for x in dims.split(",")), rid
        assert {t.strip() for t in tags.split(",")} <= set(meta["tags"]), rid


def test_meta_fields():
    _, _, meta = catalog.make_space("wallach-so/2,2,2")
    assert meta["family"] == "wallach-so"
    assert meta["dims"] == (4, 4, 4)
    assert "wallach-type-ii" in meta["tags"]


def test_listed_equivalent_summands():
    tagged = {rid for rid, _, tags in catalog.list_catalog()
              if "equivalent-summands" in tags}
    assert tagged == {"wallach-so/2,2,2", "ledger-obata/su2", "ledger-obata/so3",
                      "spin8/g2"}


@pytest.mark.parametrize("rid", list(EXPECTED_SHAPES) + [
    "wallach-so/1,1,1", "wallach-so/1,2,2", "wallach-so/2,2,3", "wallach-so/1,2,3"])
def test_equivalent_summands_tag_follows_non_unique(rid):
    _, dec, meta = catalog.make_space(rid)
    assert ("equivalent-summands" in meta["tags"]) == dec.non_unique


def test_summand_rows_outside_m_are_rejected():
    space, _, _ = catalog.make_space("product-sym/3xS2")
    rows = np.eye(9)
    with pytest.raises(UnsupportedRankError, match="^summand matrix is not inside m$"):
        catalog._row_summands(space, [rows[[1, 2]], rows[[0]]])     # e_0 spans h


# --------------------------------------------------------------------------
# graded entries: h and the summands from commuting automorphisms, A^4 = I

# graded by one automorphism of order 4, a quarter-turn conjugation
ORDER_FOUR = ("so5/u2", "sp2/sp1u1")
GRADED = ORDER_FOUR + (
    "su3/t2", "wallach-so/2,2,2", "wallach-su/1,1,1", "wallach-sp/1,1,1",
    "ledger-obata/su2", "ledger-obata/so3", "product-sym/3xS2",
    "wallach-su/1,2,3", "wallach-sp/1,1,2")


def _grading(spec, monkeypatch):
    """(g, autos, space, dec) of a fresh, uncached build of ``spec``, with
    the automorphisms its builder hands to ``catalog._graded``."""
    seen, graded = [], catalog._graded
    monkeypatch.setattr(catalog, "_graded",
                        lambda g, autos: seen.append((g, autos)) or graded(g, autos))
    space, dec, _ = catalog._make_space_cached.__wrapped__(spec)
    (g, autos), = seen
    return g, autos, space, dec


@pytest.mark.parametrize("spec", GRADED)
def test_grading_involutions_are_commuting_automorphisms(spec, monkeypatch):
    # autos act on g-coords rows, x -> x @ A: then [x A, y A] = [x, y] A on
    # every basis pair, A^4 = I (A^2 = I exactly for the involutions, and not
    # for the quarter turns), A preserves Q, and the autos commute
    g, autos, _, _ = _grading(spec, monkeypatch)
    c, eye = g.structure, np.eye(g.dim)
    assert len(autos) in ((1,) if spec in ORDER_FOUR else (2, 3))
    for a in autos:
        npt.assert_allclose(np.einsum("ia,jb,abk->ijk", a, a, c, optimize=True),
                            c @ a, rtol=0, atol=1e-12)
        sq = a @ a
        npt.assert_array_equal(sq @ sq, eye)
        assert np.array_equal(sq, eye) == (spec not in ORDER_FOUR)
        npt.assert_allclose(a @ g.q_form @ a.T, g.q_form, rtol=0, atol=1e-12)
        npt.assert_allclose(a.T @ g.q_form @ a, g.q_form, rtol=0, atol=1e-12)
    for a, b in itertools.combinations(autos, 2):
        npt.assert_array_equal(a @ b, b @ a)


def test_conjugation_rejects_a_non_permuting_matrix():
    # a rotation by 0.3 rad maps a basis matrix to a mixture of basis matrices
    s = np.eye(5)
    s[:2, :2] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    with pytest.raises(UnsupportedRankError,
                       match="^conjugation does not permute the basis up to sign$"):
        catalog._conjugation(liealg.so_matrices(5), s)
    # the same through the real form: a phase of 0.3 rad on one axis of su(3)
    with pytest.raises(UnsupportedRankError,
                       match="^conjugation does not permute the basis up to sign$"):
        catalog._conjugation(liealg.su_matrices(3), np.diag([np.exp(0.3j), 1.0, 1.0]))


# the graded entries whose splitting is unique: commutant = number of summands
UNIQUE_GRADED = tuple(s for s in GRADED if s not in (
    "wallach-so/2,2,2", "ledger-obata/su2", "ledger-obata/so3"))


@pytest.mark.parametrize("spec", UNIQUE_GRADED)
def test_grading_summands_match_isotropy_decompose(spec, monkeypatch):
    # the splitting is unique, so the eigenvalue clusters of a random element
    # of the symmetric commutant give the grading's summands, in some order
    _, _, space, dec = _grading(spec, monkeypatch)
    assert dec.commutant_dim == dec.arity
    found = homspace.isotropy_decompose(space, seed=3)
    assert found.commutant_dim == dec.arity
    got = [p.T @ p for p in found.summands]
    for p in dec.summands:
        hits = [i for i, q in enumerate(got) if np.max(np.abs(q - p.T @ p)) < 1e-10]
        assert len(hits) == 1
        got.pop(hits[0])
    assert not got


# --------------------------------------------------------------------------
# Wang-Ziller bracket constants [ijk] = sum Q([e_a, e_b], e_c)^2 over
# Q-orthonormal bases of summands i, j, k: invariants of the space and its
# splitting, whatever basis of g presents it.  1-based (i, j, k), i <= j <= k;
# every constant not listed is zero.

WANG_ZILLER = {
    "so5/u2": {(1, 1, 2): 2 / 3},
    "sp2/sp1u1": {(1, 1, 2): 2 / 3},
    "su3/su2": {(1, 1, 2): 1.0},
    "so6/so3irr": {(1, 1, 2): 7 / 4, (2, 2, 2): 21 / 20},
    "spin8/g2": {(1, 1, 2): 7 / 6, (2, 2, 2): 7 / 6},
    "su3/t2": {(1, 2, 3): 1 / 3},
    "wallach-su/1,1,1": {(1, 2, 3): 1 / 3},
    "wallach-so/2,2,2": {(1, 2, 3): 1.0},
    "wallach-sp/1,1,1": {(1, 2, 3): 1 / 2},
    "wallach-su/1,1,2": {(1, 2, 3): 1 / 2},
    "ledger-obata/su2": {(1, 2, 3): 3 / 4},
    "ledger-obata/so3": {(1, 2, 3): 3 / 4},
    "product-sym/3xS2": {},
}


@pytest.mark.parametrize("spec", list(WANG_ZILLER))
def test_wang_ziller_constants(spec):
    # from the structure constants and Q of g, not from the bracket tables
    space, dec, _ = catalog.make_space(spec)
    g = space.g
    bases = [p @ space.m_basis for p in dec.summands]      # Q-orthonormal g-coords rows
    for i, j, k in itertools.combinations_with_replacement(range(dec.arity), 3):
        t = np.einsum("ap,bq,pqr,rs,cs->abc", bases[i], bases[j], g.structure,
                      g.q_form, bases[k], optimize=True)
        want = WANG_ZILLER[spec].get((i + 1, j + 1, k + 1), 0.0)
        assert abs(np.sum(t * t) - want) <= 1e-12, (i + 1, j + 1, k + 1)
