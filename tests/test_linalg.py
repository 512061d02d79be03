import numpy as np
import numpy.testing as npt
import pytest

from gospace import _linalg


def test_null_space_basic():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ns = _linalg.null_space(a)
    assert ns.shape == (1, 3)
    npt.assert_allclose(np.abs(ns[0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_null_space_empty_input_is_identity():
    ns = _linalg.null_space(np.zeros((0, 4)))
    npt.assert_allclose(ns, np.eye(4))


def test_null_space_noise_floor():
    # a matrix of pure rounding noise must have a full kernel once the
    # caller supplies the absolute scale of the computation
    rng = np.random.default_rng(0)
    a = 1e-17 * rng.standard_normal((5, 3))
    assert _linalg.null_space(a).shape[0] < 3          # relative cutoff fooled
    assert _linalg.null_space(a, atol=1e-12).shape[0] == 3


@pytest.mark.parametrize("shape, rank", [
    ((40, 6), 4),       # tall
    ((6, 6), 3),        # square
    ((3, 8), 2),        # wide, rank deficient
    ((5, 7), 5),        # wide, full row rank
])
def test_null_space_tall_square_wide(shape, rank):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    for noise, atol in ((0.0, 0.0), (1e-11, 1e-8)):
        b = a + noise * rng.standard_normal(shape)
        if noise and rank < min(shape):
            # the relative cutoff alone counts the perturbation as rank
            assert _linalg.null_space(b).shape[0] < shape[1] - rank
        x = _linalg.null_space(b, atol=atol)
        assert x.shape == (shape[1] - rank, shape[1])
        npt.assert_allclose(x @ x.T, np.eye(x.shape[0]), atol=1e-12)
        npt.assert_allclose(b @ x.T, 0.0, atol=1e-12 * np.linalg.norm(a) + 1e3 * noise)


def test_gram_schmidt_plain_and_weighted(rng):
    rows = rng.standard_normal((4, 7))
    out = _linalg.gram_schmidt(rows)
    npt.assert_allclose(out @ out.T, np.eye(4), atol=1e-10)
    # weighted inner product
    w = rng.standard_normal((7, 7))
    inner = w @ w.T + 7 * np.eye(7)
    out = _linalg.gram_schmidt(rows, inner=inner)
    npt.assert_allclose(out @ inner @ out.T, np.eye(4), atol=1e-10)


def test_gram_schmidt_drops_dependent_rows(rng):
    a = rng.standard_normal(5)
    rows = np.vstack([a, 2.0 * a, rng.standard_normal(5)])
    out = _linalg.gram_schmidt(rows)
    assert out.shape[0] == 2


def test_lstsq_min_norm_residual_vector(rng):
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    x, res = _linalg.lstsq_min_norm(a, b)
    npt.assert_allclose(res, a @ x - b, atol=1e-12)
    # residual orthogonal to the column space at the optimum
    npt.assert_allclose(a.T @ res, np.zeros(3), atol=1e-10)


def test_lstsq_min_norm_stack_matches_numpy(rng):
    # a stack of systems, every third one rank deficient, against lstsq one by one
    a = rng.standard_normal((9, 7, 4))
    a[::3, :, 3] = a[::3, :, 0] - 2.0 * a[::3, :, 1]
    b = rng.standard_normal((9, 7))
    x, res = _linalg.lstsq_min_norm(a, b)
    assert x.shape == (9, 4) and res.shape == (9, 7)
    for i in range(9):
        want = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        npt.assert_allclose(x[i], want, atol=1e-12)
        npt.assert_allclose(res[i], a[i] @ want - b[i], atol=1e-12)
    # one matrix with several right-hand sides, as numpy takes them
    x, res = _linalg.lstsq_min_norm(a[0], b[:3].T)
    npt.assert_allclose(x, np.linalg.lstsq(a[0], b[:3].T, rcond=None)[0], atol=1e-12)
    assert res.shape == (7, 3)
    x, res = _linalg.lstsq_min_norm(np.zeros((9, 7, 0)), b)
    assert x.shape == (9, 0)
    npt.assert_allclose(res, -b)


def test_lstsq_min_norm_empty_columns():
    b = np.array([1.0, -2.0])
    x, res = _linalg.lstsq_min_norm(np.zeros((2, 0)), b)
    assert x.size == 0
    npt.assert_allclose(res, -b)


def test_subspace_intersection():
    a = np.eye(4)[:2]                     # span{e1, e2}
    b = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    inter = _linalg.subspace_intersection(a, b)
    assert inter.shape == (1, 4)
    npt.assert_allclose(np.abs(inter[0]), [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_subspace_distance():
    a = np.eye(3)[:1]
    b = np.array([[0.0, 1.0, 0.0]])
    assert _linalg.subspace_distance(a, a) < 1e-14
    assert _linalg.subspace_distance(a, b) == pytest.approx(1.0)
