import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import listed_ids, raises_exactly
from gospace import catalog, liealg
from gospace.errors import (DependentBasisError, DimensionMismatchError,
                            NonClosedError, NonCompactError)


def so_algebra(n):
    return liealg.from_matrices(liealg.so_matrices(n))


def test_so3_killing_matches_matrix_trace_form():
    # for n x n antisymmetric matrices B(X, Y) = (n - 2) tr(XY)
    mats = liealg.so_matrices(3)
    g = liealg.from_matrices(mats)
    expected = np.array([[(3 - 2) * np.trace(x @ y) for y in mats] for x in mats])
    npt.assert_allclose(g.killing, expected, atol=1e-12)


def test_so5_killing_matches_matrix_trace_form():
    mats = liealg.so_matrices(5)
    g = liealg.from_matrices(mats)
    expected = np.array([[(5 - 2) * np.trace(x @ y) for y in mats] for x in mats])
    npt.assert_allclose(g.killing, expected, atol=1e-10)


def test_su_killing_matches_complex_trace_form():
    # B(X, Y) = 2n tr(XY) in the complex trace; independent of realification
    n = 3
    mats = liealg.su_matrices(n)
    g = liealg.from_matrices(mats)
    expected = np.array([[2 * n * np.trace(x @ y).real for y in mats]
                         for x in mats])
    npt.assert_allclose(g.killing, expected, atol=1e-10)


def test_sp_basis_dimension():
    for n in (1, 2, 3):
        assert len(liealg.sp_matrices(n)) == 2 * n * n + n


@pytest.mark.parametrize("build", [
    lambda: so_algebra(3),
    lambda: so_algebra(4),
    lambda: liealg.from_matrices(liealg.su_matrices(3)),
    lambda: liealg.from_matrices(liealg.sp_matrices(2)),
])
def test_jacobi_and_invariance(build):
    g = build()
    assert liealg.jacobi_residual(g, trials=50, seed=0) < 1e-12
    assert liealg.q_invariance_residual(g, trials=50, seed=0) < 1e-12
    w = np.linalg.eigvalsh(g.q_form)
    assert w[0] > 0


def jacobi_and_invariance_loops(g, trials=100, seed=0):
    """The probes as one (3, dim) draw and one bracket per vector each trial,
    kept here as the reference for the batched ones."""
    def bracket(x, y):
        return np.einsum("ijk,i,j->k", g.structure, x, y)

    rng = np.random.default_rng(seed)
    jac = inv = 0.0
    for _ in range(trials):
        x, y, z = rng.standard_normal((3, g.dim))
        for v in (x, y, z):
            v /= np.linalg.norm(v)
        j = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        jac = max(jac, float(np.linalg.norm(j)))
        inv = max(inv, abs(float(bracket(x, y) @ g.q_form @ z + y @ g.q_form @ bracket(x, z))))
    return jac, inv / max(float(np.linalg.norm(g.q_form, 2)), 1.0)


@pytest.mark.parametrize("rid", listed_ids())
def test_probes_match_per_trial_loops(rid):
    g = catalog.make_space(rid)[0].g
    jac, inv = jacobi_and_invariance_loops(g)
    assert abs(liealg.jacobi_residual(g) - jac) <= 1e-15
    assert abs(liealg.q_invariance_residual(g) - inv) <= 1e-15


def test_probes_detect_a_bracket_that_is_not_a_lie_algebra():
    c = np.random.default_rng(0).standard_normal((6, 6, 6))
    g = liealg.LieAlgebra(c - c.transpose(1, 0, 2), check_compact=False)
    assert liealg.jacobi_residual(g, trials=50) > 0.1
    assert liealg.q_invariance_residual(g, trials=50) > 0.1
    jac, inv = jacobi_and_invariance_loops(g, trials=50)
    assert liealg.jacobi_residual(g, trials=50) == pytest.approx(jac, rel=1e-12)
    assert liealg.q_invariance_residual(g, trials=50) == pytest.approx(inv, rel=1e-12)


def test_structure_tensor_antisymmetric_exactly():
    g = so_algebra(4)
    npt.assert_array_equal(g.structure, -np.swapaxes(g.structure, 0, 1))


def test_bracket_ad_consistency(rng):
    mats = liealg.so_matrices(4)
    g = liealg.from_matrices(mats)
    x = rng.standard_normal((3, g.dim))
    y = rng.standard_normal((3, g.dim))
    # row by row, against the commutators of the matrix realizations
    xm, ym = np.tensordot(x, mats, 1), np.tensordot(y, mats, 1)
    npt.assert_allclose(g.bracket(x, y),
                        liealg.matrix_coords(mats, xm @ ym - ym @ xm), atol=1e-12)
    for i in range(3):
        npt.assert_allclose(g.bracket(x, y)[i], g.bracket(x[i], y[i]), atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        g.bracket(np.ones((2, 2, g.dim)), np.ones(g.dim))
    # Q-antisymmetry of ad
    z = rng.standard_normal(g.dim)
    q = g.q_form
    assert g.bracket(x[0], y[0]) @ q @ z == pytest.approx(-(y[0] @ q @ g.bracket(x[0], z)))


def test_noncompact_rejected():
    # sl(2, R): [h, e] = 2e, [h, f] = -2f, [e, f] = h
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    with pytest.raises(NonCompactError):
        liealg.LieAlgebra(c)
    g = liealg.LieAlgebra(c, check_compact=False)
    assert g.dim == 3


def test_from_matrices_errors():
    a = liealg.so_matrices(3)
    with pytest.raises(DependentBasisError):
        liealg.from_matrices([a[0], a[0]])
    with pytest.raises(NonClosedError):
        liealg.from_matrices([a[0], a[1]])      # [a0, a1] leaves the span
    with pytest.raises(DependentBasisError):
        liealg.from_matrices([])


def test_from_matrices_error_messages():
    # the shape check comes before stacking: numpy's own ValueError never shows
    build, square = liealg.from_matrices, "matrices must share a square shape"
    for mats in ([np.zeros((3, 3)), np.zeros((4, 4))],
                 [np.zeros((3, 3)), np.eye(4, dtype=complex)],
                 [np.zeros((3, 4))],
                 [np.zeros((2, 2)), np.zeros((2, 3))]):
        raises_exactly(DimensionMismatchError, square, build, mats)
    a = liealg.so_matrices(3)
    raises_exactly(DependentBasisError, "matrices span only 1 of 2 dimensions",
                   build, [a[0], 2.0 * a[0]])
    # in so(4), [E01, E23] = 0 stays in the span and [E01, E02] = -E12 is
    # the first pair in row order to leave it: |E12| / (|E01| |E02|) = 1/sqrt(2)
    e01, e02, _, _, _, e23 = liealg.so_matrices(4)
    raises_exactly(NonClosedError, "commutator of matrices 0, 2 leaves the span "
                   "(relative residual 7.071e-01)", build, [e01, e23, e02])


def _pairwise_structure(mats):
    """Structure constants one commutator at a time: [m_i, m_j] in the
    real form, coordinates from np.linalg.lstsq."""
    real = np.array([liealg.realify(m) if np.iscomplexobj(m) else m for m in mats])
    n = len(real)
    flat = real.reshape(n, -1)
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            comm = real[i] @ real[j] - real[j] @ real[i]
            c[i, j] = np.linalg.lstsq(flat.T, comm.ravel(), rcond=None)[0]
    return c


@pytest.mark.parametrize("basis", [
    lambda: liealg.so_matrices(5),
    lambda: liealg.su_matrices(3),
    lambda: liealg.sp_matrices(2),
    lambda: liealg.sp_matrices(3),
], ids=["so5", "su3", "sp2", "sp3"])
def test_from_matrices_matches_pairwise_reference(basis):
    mats = basis()
    npt.assert_allclose(liealg.from_matrices(mats).structure, _pairwise_structure(mats),
                        rtol=0, atol=1e-14)


def test_from_matrices_peak_memory():
    # one basis row of commutators at a time: sp(4) (n = 36, realified 16 x 16)
    # allocates about 1.3 MiB at its peak, where all n(n - 1)/2 commutators
    # at once took 5.1 MiB
    mats = liealg.sp_matrices(4)
    liealg.from_matrices(mats)
    tracemalloc.start()
    try:
        liealg.from_matrices(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_matrix_coords_roundtrip(rng):
    mats = liealg.so_matrices(4)
    coeff = rng.standard_normal(len(mats))
    target = sum(c * m for c, m in zip(coeff, mats))
    npt.assert_allclose(liealg.matrix_coords(mats, target), coeff, atol=1e-10)
    with pytest.raises(DimensionMismatchError):
        liealg.matrix_coords(mats, np.eye(4))   # symmetric, outside the span


def test_matrix_coords_stack_matches_one_by_one(rng):
    mats = liealg.su_matrices(3)                 # complex: realified inside
    coeff = rng.standard_normal((5, len(mats)))
    targets = [sum(c * m for c, m in zip(row, mats)) for row in coeff]
    rows = liealg.matrix_coords(mats, targets)
    assert rows.shape == coeff.shape
    for row, target in zip(rows, targets):
        npt.assert_allclose(row, liealg.matrix_coords(mats, target), atol=1e-12)
    npt.assert_allclose(rows, coeff, atol=1e-10)
    with pytest.raises(DimensionMismatchError):
        liealg.matrix_coords(mats, targets + [np.eye(3, dtype=complex)])


def test_direct_sum_blocks():
    g1 = so_algebra(3)
    g2 = liealg.from_matrices(liealg.su_matrices(2))
    g = liealg.direct_sum(g1, g2)
    assert g.dim == g1.dim + g2.dim
    x = np.zeros(g.dim)
    y = np.zeros(g.dim)
    x[0] = 1.0
    y[g1.dim] = 1.0                             # one vector per block
    npt.assert_allclose(g.bracket(x, y), np.zeros(g.dim), atol=1e-14)


def test_realify_quaternionify_shapes():
    a = np.array([[1j]])
    r = liealg.realify(a)
    assert r.shape == (2, 2)
    npt.assert_allclose(r, [[0.0, -1.0], [1.0, 0.0]])
    qa = liealg.quaternionify(np.array([[1j]]), np.array([[0j]]))
    assert qa.shape == (2, 2)
    npt.assert_allclose(qa, np.diag([1j, -1j]))
