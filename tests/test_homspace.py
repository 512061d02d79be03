import numpy as np
import numpy.testing as npt
import pytest

from conftest import listed_ids
from gospace import catalog, homspace, liealg
from gospace.errors import (DimensionMismatchError, NotSubalgebraError,
                            ReductivityError, ZeroVectorError)


@pytest.fixture(scope="module")
def circle_in_so3():
    g = liealg.from_matrices(liealg.so_matrices(3))
    h = np.zeros((1, 3))
    h[0, 0] = 1.0 / np.sqrt(g.q_form[0, 0])       # so(2) spanned by one rotation
    return homspace.build(g, h)


def test_build_dims_and_residuals(circle_in_so3):
    space = circle_in_so3
    assert (space.dim_h, space.dim_m) == (1, 2)
    assert space.closure_residual < 1e-12
    assert space.reductivity_residual < 1e-12


def test_bracket_tables_match_full_bracket(circle_in_so3, rng):
    space = circle_in_so3
    g = space.g
    x = rng.standard_normal(space.dim_m)
    y = rng.standard_normal(space.dim_m)
    bh, bm = space.bracket_mm(x, y)
    full = g.bracket(space.lift_m(x), space.lift_m(y))
    npt.assert_allclose(bh @ space.h_basis + space.lift_m(bm), full, atol=1e-12)
    w = rng.standard_normal(space.dim_h)
    npt.assert_allclose(space.lift_m(space.hm_columns(x) @ w),
                        g.bracket(w @ space.h_basis, space.lift_m(x)), atol=1e-12)


def test_hm_columns_and_ad(circle_in_so3, rng):
    space = circle_in_so3
    w = rng.standard_normal(space.dim_h)
    x = rng.standard_normal(space.dim_m)
    ad_w = np.tensordot(w, space.bracket_hm.transpose(0, 2, 1), 1)
    npt.assert_allclose(ad_w @ x, space.hm_columns(x) @ w, atol=1e-12)
    # column j is [h_j, x], against the structure constants on lifted rows
    cols = space.hm_columns(x)
    npt.assert_allclose(space.lift_m(cols.T),
                        space.g.bracket(space.h_basis, space.lift_m(x)), atol=1e-12)


def test_bracket_and_columns_take_stacks_of_rows(rng):
    space, _, _ = catalog.make_space("su3/t2")
    x = rng.standard_normal((5, space.dim_m))
    y = rng.standard_normal((5, space.dim_m))
    bh, bm = space.bracket_mm(x, y)
    cols = space.hm_columns(x)
    assert cols.shape == (5, space.dim_m, space.dim_h)
    for i in range(5):
        one_h, one_m = space.bracket_mm(x[i], y[i])
        npt.assert_allclose(bh[i], one_h, atol=1e-14)
        npt.assert_allclose(bm[i], one_m, atol=1e-14)
        npt.assert_allclose(cols[i], space.hm_columns(x[i]), atol=1e-14)
    lifted = space.lift_m(x)
    projected = space.proj_m(lifted)
    assert lifted.shape == (5, space.g.dim)
    npt.assert_allclose(projected, x, atol=1e-12)
    for i in range(5):
        npt.assert_allclose(lifted[i], space.lift_m(x[i]), atol=1e-14)
        npt.assert_allclose(projected[i], space.proj_m(lifted[i]), atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        space.hm_columns(np.ones((2, 2, space.dim_m)))
    with pytest.raises(DimensionMismatchError):
        space.proj_m(np.ones((2, 2, space.g.dim)))
    with pytest.raises(DimensionMismatchError):
        space.lift_m(np.ones((2, space.g.dim)))


def test_build_rejects_non_subalgebra():
    g = liealg.from_matrices(liealg.so_matrices(4))
    rows = np.eye(g.dim)[:2]           # two rotation planes, not closed
    assert np.linalg.norm(g.bracket(rows[0], rows[1])) > 0.1
    with pytest.raises(NotSubalgebraError):
        homspace.build(g, rows)


def test_isotropy_decompose_so5_u2():
    space, _, _ = catalog.make_space("so5/u2")
    dec = homspace.isotropy_decompose(space, seed=0)
    assert sorted(dec.dims) == [2, 4]
    assert dec.commutant_dim == 2
    assert not dec.non_unique
    assert homspace.invariance_residual(space, dec) < 1e-12
    assert dec.completeness_residual() < 1e-12
    # the dims multiset is seed independent
    for seed in range(1, 5):
        assert sorted(homspace.isotropy_decompose(space, seed=seed).dims) == [2, 4]


def invariance_residual_loop(space, dec):
    """Leakage over unit vectors of h, one ad(h_i)|_m matrix at a time, kept
    here as the reference for the contraction over all of h."""
    worst = 0.0
    for i in range(space.dim_h):
        a = space.bracket_hm[i].T
        for s in dec.summands:
            img = a @ s.T
            out = img - s.T @ (s @ img)
            if out.size:
                worst = max(worst, float(np.max(np.abs(out))))
    return worst


@pytest.mark.parametrize("rid", listed_ids())
def test_invariance_residual_matches_loop(rid):
    space, dec, _ = catalog.make_space(rid)
    got = homspace.invariance_residual(space, dec)
    assert got < 1e-12
    assert abs(got - invariance_residual_loop(space, dec)) <= 1e-15
    blocks = homspace.Decomposition.from_dims(dec.dims)
    assert abs(homspace.invariance_residual(space, blocks)
               - invariance_residual_loop(space, blocks)) <= 1e-15


@pytest.mark.parametrize("rid", ["so5/u2", "wallach-so/2,2,2", "product-sym/3xS2",
                                 "spin8/g2"])
def test_invariance_residual_detects_coordinate_blocks(rid):
    # coordinate blocks of the canonical dims are not invariant on these spaces
    space, dec, _ = catalog.make_space(rid)
    assert homspace.invariance_residual(space, homspace.Decomposition.from_dims(dec.dims)) >= 0.1


def test_isotropy_decompose_irreducible(circle_in_so3):
    dec = homspace.isotropy_decompose(circle_in_so3, seed=0)
    # the rotation plane is irreducible of complex type: one summand
    assert dec.dims == (2,)
    assert dec.commutant_dim == 1


def test_commutant_of_trivial_complements():
    g = liealg.from_matrices(liealg.so_matrices(3))
    full = homspace.build(g, np.eye(3))                 # h = g, m = 0
    assert len(homspace.symmetric_commutant(full)) == 0
    empty = homspace.isotropy_decompose(full)
    assert empty.dims == ()
    assert empty.theta(np.zeros(0)).shape == (0,)
    assert empty.theta(np.zeros((2, 0))).shape == (2, 0)
    point = homspace.build(g, np.zeros((0, 3)))         # h = 0: all of Sym^2(m)
    assert len(homspace.symmetric_commutant(point)) == 6
    assert homspace.isotropy_decompose(point).dims == (1, 1, 1)


def test_symmetric_commutant_dims():
    expected = {"su3/t2": 3, "spin8/g2": 3, "ledger-obata/su2": 6,
                "product-sym/3xS2": 3}
    for rid, want in expected.items():
        space, dec, _ = catalog.make_space(rid)
        assert dec.commutant_dim == want, rid
        assert homspace.isotropy_decompose(space).commutant_dim == want, rid


def dense_stack_commutant_dim(space):
    """Reference commutant dimension, independent of the package's routine:
    the kernel of the stacked commutator system [ad(h_w), E_d] over the
    dense basis E_d = E_pq + E_qp of symmetric matrices, by a full SVD."""
    n = space.dim_m
    sym = []
    for p in range(n):
        for q in range(p, n):
            e = np.zeros((n, n))
            e[p, q] = e[q, p] = 1.0
            sym.append(e)
    sym = np.array(sym)
    if space.dim_h == 0:
        return len(sym)
    ads = space.bracket_hm.transpose(0, 2, 1)
    comm = (np.einsum("wij,djk->dwik", ads, sym)
            - np.einsum("dij,wjk->dwik", sym, ads))
    mat = comm.reshape(len(sym), -1).T
    sigma = np.linalg.svd(mat, compute_uv=False)
    cut = max(mat.shape) * np.finfo(float).eps * sigma[0]
    return len(sym) - int(np.sum(sigma > cut))


SMALL_M = listed_ids() + [
    "wallach-so/1,1,1", "wallach-so/1,1,2", "wallach-so/1,2,2",
    "wallach-su/2,1,1"]


@pytest.mark.parametrize("rid", SMALL_M)
def test_commutant_dim_matches_dense_stack(rid):
    space, dec, _ = catalog.make_space(rid)
    assert space.dim_m <= 14
    want = dense_stack_commutant_dim(space)
    assert len(homspace.symmetric_commutant(space)) == want
    assert dec.commutant_dim == want
    assert homspace.isotropy_decompose(space).commutant_dim == want


def test_commutant_dim_matches_dense_stack_circle(circle_in_so3):
    assert (len(homspace.symmetric_commutant(circle_in_so3))
            == dense_stack_commutant_dim(circle_in_so3) == 1)


@pytest.mark.parametrize("rid", listed_ids() + [
    "wallach-su/2,2,2", "wallach-sp/1,1,2", "wallach-so/3,3,3", "wallach-so/3,3,4",
    "wallach-so/2,3,5"])
def test_commutant_elements_are_symmetric_and_commute(rid):
    space, dec, _ = catalog.make_space(rid)
    basis = homspace.symmetric_commutant(space)
    # the catalog's block-wise count against the full operator
    assert dec.commutant_dim == len(basis)
    assert homspace.symmetric_commutant_dim(space, dec.summands) == len(basis)
    assert basis.shape[1:] == (space.dim_m, space.dim_m)
    npt.assert_allclose(basis, basis.transpose(0, 2, 1), atol=1e-14)
    npt.assert_allclose(np.einsum("apq,bpq->ab", basis, basis),
                        np.eye(len(basis)), atol=1e-12)
    for a in space.bracket_hm.transpose(0, 2, 1):
        npt.assert_allclose(a @ basis - basis @ a, 0.0, atol=1e-12)


def test_catalog_commutant_decomposes_only_blocks(monkeypatch):
    # wallach-so/3,3,3 has summands of dim 9: its largest Casimir block is
    # Hom(m_j, m_i), 81 x 81, where the full operator on Sym^2(m) is 378 x 378
    sizes = []

    def recording(func):
        def call(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return func(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    catalog._make_space_cached.cache_clear()
    _, dec, _ = catalog.make_space("wallach-so/3,3,3")
    assert dec.commutant_dim == 3
    assert 0 < max(sizes) <= 81


def test_block_commutant_rejects_bad_summands():
    space, dec, _ = catalog.make_space("so5/u2")
    blocks = homspace.Decomposition.from_dims((3, 3)).summands
    with pytest.raises(ReductivityError) as err:
        homspace.symmetric_commutant_dim(space, blocks)
    assert str(err.value) == "summands are not invariant under h (max leakage 4.082e-01)"
    short = (dec.summands[0], dec.summands[1][:1])
    with pytest.raises(DimensionMismatchError) as err:
        homspace.symmetric_commutant_dim(space, short)
    assert str(err.value) == ("summands must be orthonormal m-coords rows filling m "
                              "(6 rows of length 6), got shapes [(4, 6), (1, 6)]")
    for bad in ((dec.summands[0], 2.0 * dec.summands[1]),
                (dec.summands[0][:, :5], dec.summands[1][:, :5])):
        with pytest.raises(DimensionMismatchError, match="^summands must be orthonormal"):
            homspace.symmetric_commutant_dim(space, bad)


def test_non_unique_flags():
    flagged = {rid: catalog.make_space(rid)[1].non_unique
               for rid, _, _ in catalog.list_catalog()}
    assert flagged["spin8/g2"] is True          # two equivalent summands
    assert flagged["ledger-obata/su2"] is True  # three equivalent summands
    assert flagged["so5/u2"] is False
    assert flagged["su3/t2"] is False


def test_centralizer_full_and_trivial(rng):
    space, dec, _ = catalog.make_space("su3/su2")
    # the 1-dim summand commutes with all of h, and a generic vector of the
    # 4-dim summand has trivial centralizer
    us = np.vstack([dec.summands[1][:1], rng.standard_normal(4) @ dec.summands[0]])
    basis, dims = homspace.centralizer_in_h(space, us)
    assert dims.tolist() == [space.dim_h, 0]
    npt.assert_array_equal(basis[1], 0.0)
    assert homspace.tilde_centralizer(space, us)[1].tolist() == [0, space.dim_h]


def test_centralizer_actually_centralizes(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    u = rng.standard_normal((5, dec.dims[0])) @ dec.summands[0]
    basis, dims = homspace.centralizer_in_h(space, u)
    tilde, t_dims = homspace.tilde_centralizer(space, u)
    for v, b, d, t, k in zip(u, basis, dims, tilde, t_dims):
        c = b[:d]
        assert np.linalg.norm(space.hm_columns(v) @ c.T) < 1e-10
        # tilde rows are Q-orthogonal to the centralizer and normalize it
        npt.assert_allclose(c @ t[:k].T, 0.0, atol=1e-10)


def test_decomposition_split_theta(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    u = rng.standard_normal(space.dim_m)
    parts = dec.split(u)
    npt.assert_allclose(sum(parts), u, atol=1e-12)
    # a stack of rows splits row by row
    for part, p in zip(dec.split(np.vstack([u, -2.0 * u])), parts):
        npt.assert_allclose(part, [p, -2.0 * p], atol=1e-14)
    th = dec.theta(u)
    npt.assert_allclose([float(p @ p) for p in parts], th, atol=1e-12)
    assert th.shape == (3,)
    stack = rng.standard_normal((4, space.dim_m))
    th = dec.theta(stack)
    assert th.shape == (4, 3)
    for row, want in zip(stack, th):
        npt.assert_allclose(dec.theta(row), want, atol=1e-14)
    for bad in (np.ones(5), np.ones((4, 5)), np.ones((2, 2, 6))):
        for f in (dec.theta, dec.split):
            with pytest.raises(DimensionMismatchError) as err:
                f(bad)
            assert str(err.value) == ("expected m-coords vector or rows of length 6, "
                                      f"got {bad.shape}")


@pytest.mark.parametrize("dims", [(2, 0), (2, -1), (2.5, 2), (True, 2)])
def test_from_dims_rejects_bad_block_dims(dims):
    with pytest.raises(DimensionMismatchError) as err:
        homspace.Decomposition.from_dims(dims)
    assert str(err.value) == f"block dims must be positive integers, got {dims}"


def test_zero_vector_guard():
    from gospace import finsler, gocheck
    space, dec, _ = catalog.make_space("su3/t2")
    with pytest.raises(ZeroVectorError):
        gocheck.residuals(space, dec, (finsler.l_linear([1.0, 1.0, 1.0]),),
                          np.zeros((1, space.dim_m)))
