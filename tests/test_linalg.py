import numpy as np
import numpy.testing as npt
import pytest

from gospace import _linalg, catalog, homspace


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


def gram_schmidt_loop(rows, inner=None):
    """The row-by-row modified Gram-Schmidt, one inner product per pair, that
    the batched sweeps replaced; kept here as the reference."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))

    def dot(a, b):
        return float(a @ b) if inner is None else float(a @ inner @ b)

    out = []
    for v in rows:
        w = v.copy()
        scale = np.sqrt(max(dot(v, v), 0.0))
        if scale == 0.0:
            continue
        for _ in range(2):
            for b in out:
                w = w - dot(b, w) * b
        nw = np.sqrt(max(dot(w, w), 0.0))
        if nw > 1e-10 * max(scale, 1.0):
            out.append(w / nw)
    return np.array(out) if out else np.zeros((0, rows.shape[1]))


@pytest.mark.parametrize("weighted", [False, True])
def test_gram_schmidt_matches_row_loop(rng, weighted):
    for n in (3, 7, 12):
        a = rng.standard_normal((5, n))
        # dependent, zero and negligible rows mixed in between independent ones
        rows = np.vstack([a[:2], a[0] - 3.0 * a[1], a[2:4], np.zeros(n),
                          1e-12 * a[3], a[4], a[1] + 0.5 * a[4], 40.0 * a[2]])
        inner = None
        if weighted:
            w = rng.standard_normal((n, n))
            inner = w @ w.T + n * np.eye(n)
        out, ref = _linalg.gram_schmidt(rows, inner), gram_schmidt_loop(rows, inner)
        assert out.shape == ref.shape == (min(n, 5), n)
        npt.assert_allclose(out, ref, rtol=0.0, atol=1e-14)


def test_gram_schmidt_matches_row_loop_on_catalog_h_spans(monkeypatch):
    spans = []
    build = homspace.build

    def recording(g, h_span):
        spans.append((g.q_form, np.asarray(h_span, dtype=float)))
        return build(g, h_span)

    monkeypatch.setattr(homspace, "build", recording)
    catalog._make_space_cached.cache_clear()
    catalog.list_catalog()
    assert len(spans) == 12
    for q, h_span in spans:
        out, ref = _linalg.gram_schmidt(h_span, q), gram_schmidt_loop(h_span, q)
        assert out.shape == ref.shape
        npt.assert_allclose(out, ref, rtol=0.0, atol=1e-14)


def test_lstsq_stack_residual_vector(rng):
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    x, res, rank = _linalg.lstsq_stack(a, b, 3)
    assert rank == 3
    npt.assert_allclose(res, a @ x - b, atol=1e-12)
    # residual orthogonal to the column space at the optimum
    npt.assert_allclose(a.T @ res, np.zeros(3), atol=1e-10)


def test_lstsq_stack_matches_numpy(rng):
    # a stack of systems, every third one rank deficient, against lstsq one by one
    a = rng.standard_normal((9, 7, 4))
    a[::3, :, 3] = a[::3, :, 0] - 2.0 * a[::3, :, 1]
    b = rng.standard_normal((9, 7))
    x, res, rank = _linalg.lstsq_stack(a, b, 4)
    assert x.shape == (9, 4) and res.shape == (9, 7)
    assert rank.tolist() == [3, 4, 4] * 3
    for i in range(9):
        want = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        npt.assert_allclose(x[i], want, atol=1e-12)
        npt.assert_allclose(res[i], a[i] @ want - b[i], atol=1e-12)


def test_lstsq_stack_empty_columns(rng):
    # no columns: x is empty and the residual is -b, for a stack and for one matrix
    b = rng.standard_normal((9, 7))
    x, res, rank = _linalg.lstsq_stack(np.zeros((9, 7, 0)), b, 0)
    assert x.shape == (9, 0) and rank.tolist() == [0] * 9
    npt.assert_array_equal(res, -b)
    x, res, _ = _linalg.lstsq_stack(np.zeros((2, 0)), b[0, :2], 0)
    assert x.size == 0
    npt.assert_array_equal(res, -b[0, :2])



def test_svd_rank_stack_cuts_each_matrix_at_its_shape():
    # 5e-16 lies between the cutoffs 2 * eps and 4 * eps of a unit matrix
    sigma = np.array([[1.0, 5e-16]] * 3)
    rows = np.array([2, 4, 1])
    want = [_linalg.svd_rank(s, (r, 2)) for s, r in zip(sigma, rows)]
    assert want == [2, 1, 2]
    assert _linalg.svd_rank(sigma, (rows, 2)).tolist() == want
    atol = np.array([0.0, 0.0, 1e-15])
    assert _linalg.svd_rank(sigma, (rows, 2), atol=atol).tolist() == [2, 1, 1]
    assert _linalg.svd_rank(np.zeros((3, 0)), (rows, 0)).tolist() == [0, 0, 0]


def test_null_spaces_match_null_space_of_real_rows(rng):
    # zero rows pad each matrix to a common height, in the middle and at the end
    real = [rng.standard_normal((r, 2)) @ rng.standard_normal((2, 6)) for r in (1, 3, 5)]
    real += [rng.standard_normal((4, 6)), np.zeros((0, 6))]
    stack = np.zeros((len(real), 8, 6))
    for a, m in zip(stack, real):
        a[:len(m) // 2], a[4:4 + len(m) - len(m) // 2] = m[:len(m) // 2], m[len(m) // 2:]
    rows = np.array([len(m) for m in real])
    basis, dims = _linalg.null_spaces(stack, rows, 0.0)
    assert basis.shape == (5, 6, 6)
    assert dims.tolist() == [5, 4, 4, 2, 6]
    for m, b, d in zip(real, basis, dims):
        want = _linalg.null_space(m)
        npt.assert_allclose(b[:d].T @ b[:d], want.T @ want, atol=1e-12)
        npt.assert_array_equal(b[d:], 0.0)
    # the absolute floor, one per matrix
    noise = 1e-17 * rng.standard_normal((2, 5, 3))
    assert _linalg.null_spaces(noise, 5, np.array([0.0, 1e-12]))[1][1] == 3


def test_lstsq_stack_cuts_at_real_columns(rng):
    # sigma = (1, 1e-15) lies above numpy's cutoff 3 eps for the (3, 2)
    # matrix, below the 6 eps of the zero-padded (3, 6) one
    a = np.zeros((2, 3, 6))
    a[0, 0, 0], a[0, 1, 3] = 1.0, 1e-15
    a[1, :, :4] = rng.standard_normal((3, 4))
    b = np.array([[1.0, 1e-15, 0.5], rng.standard_normal(3)])
    cols = np.array([2, 4])
    x, res, rank = _linalg.lstsq_stack(a, b, cols)
    assert rank.tolist() == [2, 3]
    for i, keep in enumerate(([0, 3], [0, 1, 2, 3])):
        want, _, want_rank, _ = np.linalg.lstsq(a[i][:, keep], b[i], rcond=None)
        assert rank[i] == want_rank
        npt.assert_allclose(x[i, keep], want, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(res[i], a[i][:, keep] @ want - b[i], atol=1e-12)
    assert _linalg.lstsq_stack(a[:1], b[:1], 6)[2].tolist() == [1]
