import numpy as np
import numpy.testing as npt
import pytest

from gospace import catalog, homspace, liealg
from gospace.errors import (DimensionMismatchError, NotSubalgebraError,
                            ZeroVectorError)


@pytest.fixture(scope="module")
def circle_in_so3():
    g = liealg.from_matrices(liealg.so_matrices(3))
    h = np.zeros((1, 3))
    h[0, 0] = 1.0 / g.q_norm(np.eye(3)[0])        # so(2) spanned by one rotation
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
    npt.assert_allclose(space.lift_h(bh) + space.lift_m(bm), full, atol=1e-12)
    w = rng.standard_normal(space.dim_h)
    npt.assert_allclose(space.lift_m(space.bracket_hm_vec(w, x)),
                        g.bracket(space.lift_h(w), space.lift_m(x)), atol=1e-12)


def test_hm_columns_and_ad(circle_in_so3, rng):
    space = circle_in_so3
    w = rng.standard_normal(space.dim_h)
    x = rng.standard_normal(space.dim_m)
    npt.assert_allclose(space.ad_h_on_m(w) @ x, space.bracket_hm_vec(w, x),
                        atol=1e-12)
    cols = space.hm_columns(x)
    for j in range(space.dim_h):
        e = np.zeros(space.dim_h)
        e[j] = 1.0
        npt.assert_allclose(cols[:, j], space.bracket_hm_vec(e, x), atol=1e-12)


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
    with pytest.raises(DimensionMismatchError):
        space.hm_columns(np.ones((2, 2, space.dim_m)))
    with pytest.raises(DimensionMismatchError):
        space.bracket_hm_vec(np.ones((2, space.dim_h)), x[0])


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


def test_isotropy_decompose_irreducible(circle_in_so3):
    dec = homspace.isotropy_decompose(circle_in_so3, seed=0)
    # the rotation plane is irreducible of complex type: one summand
    assert dec.dims == (2,)
    assert dec.commutant_dim == 1


def test_commutant_of_trivial_complements():
    g = liealg.from_matrices(liealg.so_matrices(3))
    full = homspace.build(g, np.eye(3))                 # h = g, m = 0
    assert homspace.symmetric_commutant_dim(full) == 0
    assert homspace.isotropy_decompose(full).dims == ()
    point = homspace.build(g, np.zeros((0, 3)))         # h = 0: all of Sym^2(m)
    assert homspace.symmetric_commutant_dim(point) == 6
    assert homspace.isotropy_decompose(point).dims == (1, 1, 1)


def test_symmetric_commutant_dims():
    expected = {"su3/t2": 3, "spin8/g2": 3, "ledger-obata/su2": 6,
                "product-sym/3xS2": 3}
    for rid, want in expected.items():
        space, dec, _ = catalog.make_space(rid)
        assert dec.commutant_dim == want, rid
        assert homspace.symmetric_commutant_dim(space) == want, rid


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
    ads = np.array([space.ad_h_on_m(w) for w in np.eye(space.dim_h)])
    comm = (np.einsum("wij,djk->dwik", ads, sym)
            - np.einsum("dij,wjk->dwik", sym, ads))
    mat = comm.reshape(len(sym), -1).T
    sigma = np.linalg.svd(mat, compute_uv=False)
    cut = max(mat.shape) * np.finfo(float).eps * sigma[0]
    return len(sym) - int(np.sum(sigma > cut))


SMALL_M = [rid for rid, _, _ in catalog.list_catalog()] + [
    "wallach-so/1,1,1", "wallach-so/1,1,2", "wallach-so/1,2,2",
    "wallach-su/2,1,1"]


@pytest.mark.parametrize("rid", SMALL_M)
def test_commutant_dim_matches_dense_stack(rid):
    space, dec, _ = catalog.make_space(rid)
    assert space.dim_m <= 14
    want = dense_stack_commutant_dim(space)
    assert homspace.symmetric_commutant_dim(space) == want
    assert dec.commutant_dim == want
    assert homspace.isotropy_decompose(space).commutant_dim == want


def test_commutant_dim_matches_dense_stack_circle(circle_in_so3):
    assert (homspace.symmetric_commutant_dim(circle_in_so3)
            == dense_stack_commutant_dim(circle_in_so3) == 1)


@pytest.mark.parametrize("rid", [rid for rid, _, _ in catalog.list_catalog()] + [
    "wallach-su/2,2,2", "wallach-sp/1,1,2", "wallach-so/3,3,4", "wallach-so/2,3,5"])
def test_commutant_elements_are_symmetric_and_commute(rid):
    space, _, _ = catalog.make_space(rid)
    basis = homspace.symmetric_commutant(space)
    assert basis.shape[1:] == (space.dim_m, space.dim_m)
    npt.assert_allclose(basis, basis.transpose(0, 2, 1), atol=1e-14)
    npt.assert_allclose(np.einsum("apq,bpq->ab", basis, basis),
                        np.eye(len(basis)), atol=1e-12)
    for w in np.eye(space.dim_h):
        a = space.ad_h_on_m(w)
        npt.assert_allclose(a @ basis - basis @ a, 0.0, atol=1e-12)


def test_non_unique_flags():
    flagged = {rid: catalog.make_space(rid)[1].non_unique
               for rid, _, _ in catalog.list_catalog()}
    assert flagged["spin8/g2"] is True          # two equivalent summands
    assert flagged["ledger-obata/su2"] is True  # three equivalent summands
    assert flagged["so5/u2"] is False
    assert flagged["su3/t2"] is False


def test_centralizer_full_and_trivial(rng):
    space, dec, _ = catalog.make_space("su3/su2")
    # the 1-dim summand commutes with all of h
    y = dec.summands[1][0]
    assert homspace.centralizer_in_h(space, y).shape[0] == space.dim_h
    assert homspace.tilde_centralizer(space, y).shape[0] == 0
    # a generic vector of the 4-dim summand has trivial centralizer
    x = dec.summands[0].T @ rng.standard_normal(4)
    assert homspace.centralizer_in_h(space, x).shape[0] == 0
    assert homspace.tilde_centralizer(space, x).shape[0] == space.dim_h


def test_centralizer_actually_centralizes(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    u = dec.summands[0].T @ rng.standard_normal(dec.dims[0])
    c = homspace.centralizer_in_h(space, u)
    for row in c:
        assert np.linalg.norm(space.bracket_hm_vec(row, u)) < 1e-10
    # tilde rows are Q-orthogonal to the centralizer and normalize it
    t = homspace.tilde_centralizer(space, u)
    if c.shape[0] and t.shape[0]:
        npt.assert_allclose(c @ t.T, 0.0, atol=1e-10)


def test_decomposition_split_theta(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    u = rng.standard_normal(space.dim_m)
    parts = dec.split(u)
    npt.assert_allclose(sum(parts), u, atol=1e-12)
    th = dec.theta(u)
    npt.assert_allclose([float(p @ p) for p in parts], th, atol=1e-12)
    assert th.shape == (3,)


def test_zero_vector_guard():
    from gospace import finsler, gocheck
    space, dec, _ = catalog.make_space("su3/t2")
    with pytest.raises(ZeroVectorError):
        gocheck.residuals(space, dec, finsler.l_linear([1.0, 1.0, 1.0]),
                          np.zeros((1, space.dim_m)), go=False)
