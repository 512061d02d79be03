import numpy as np
import numpy.testing as npt
import pytest

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


def three_summand_ids():
    return [rid for rid, _, tags in catalog.list_catalog()
            if "three-summand" in tags]


@pytest.mark.parametrize("rid", three_summand_ids() + list(FAMILY_MEMBERS))
def test_diagonal_brackets_land_in_h(rid):
    space, dec, _ = catalog.make_space(rid)
    for i in range(3):
        _, bm = _mm_h_m_blocks(space, dec, i, i)
        assert np.max(np.abs(bm)) < 1e-10, f"[m_{i}, m_{i}] leaks into m"


@pytest.mark.parametrize("rid", [r for r, _, t in catalog.list_catalog()
                                 if "wallach-type-ii" in t or "wallach-type-iii" in t]
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


@pytest.mark.parametrize("rid", [r for r, _, t in catalog.list_catalog()
                                 if "wallach-type-i" in t])
def test_type_one_cross_brackets_vanish(rid):
    space, dec, _ = catalog.make_space(rid)
    for i in range(3):
        for j in range(i + 1, 3):
            bh, bm = _mm_h_m_blocks(space, dec, i, j)
            assert np.max(np.abs(bh)) < 1e-10
            assert np.max(np.abs(bm)) < 1e-10


@pytest.mark.parametrize("rid", [r for r, _, t in catalog.list_catalog()
                                 if "two-summand" in t])
def test_two_summand_cross_bracket_nonzero(rid):
    space, dec, _ = catalog.make_space(rid)
    bh, bm = _mm_h_m_blocks(space, dec, 0, 1)
    assert max(np.max(np.abs(bh)), np.max(np.abs(bm))) > 1e-3


def test_spin8_g2_derivation_algebra():
    space, dec, _ = catalog.make_space("spin8/g2")
    assert space.dim_h == 14
    assert dec.non_unique
    g = space.g
    assert liealg.jacobi_residual(g, trials=30, seed=1) < 1e-10


def test_so6_so3irr_summands_inequivalent():
    space, dec, _ = catalog.make_space("so6/so3irr")
    assert dec.dims == (5, 7)
    assert dec.commutant_dim == 2


def test_meta_fields():
    _, _, meta = catalog.make_space("wallach-so/2,2,2")
    assert meta["family"] == "wallach-so"
    assert meta["dims"] == (4, 4, 4)
    assert "wallach-type-ii" in meta["tags"]


@pytest.mark.parametrize("rid", list(EXPECTED_SHAPES))
def test_list_tags_equal_make_space_tags(rid):
    listed = {r[0]: r[2] for r in catalog.list_catalog()}
    assert listed[rid] == catalog.make_space(rid)[2]["tags"]


@pytest.mark.parametrize("rid", list(EXPECTED_SHAPES) + [
    "wallach-so/1,1,1", "wallach-so/1,2,2", "wallach-so/2,2,3", "wallach-so/1,2,3"])
def test_equivalent_summands_tag_follows_non_unique(rid):
    _, dec, meta = catalog.make_space(rid)
    assert ("equivalent-summands" in meta["tags"]) == dec.non_unique


def test_summand_rows_outside_m_are_rejected():
    space, _, _ = catalog.make_space("product-sym/3xS2")
    rows = np.eye(9)
    with pytest.raises(UnsupportedRankError, match="^summand matrix is not inside m$"):
        catalog._dec_from_rows(space, [rows[[1, 2]], rows[[0]]])     # e_0 spans h
