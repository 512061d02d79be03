import numpy as np
import numpy.testing as npt
import pytest

from conftest import fd_gradient, fd_hessian
from gospace import catalog, finsler, homspace
from gospace.errors import (BoundaryNondifferentiableError,
                            DimensionMismatchError, InvalidProfileError,
                            NonPositiveCoefficientError,
                            NotStronglyConvexError, SpecFormatError,
                            ZeroVectorError)


# --------------------------------------------------------------------------
# L functions


def test_linear_value_grad_hess():
    fn = finsler.l_linear([2.0, 3.0])
    th = np.array([0.7, 1.1])
    assert fn.value(th) == pytest.approx(2.0 * 0.7 + 3.0 * 1.1)
    npt.assert_allclose(fn.grad(th), [2.0, 3.0])
    npt.assert_allclose(fn.hess(th), np.zeros((2, 2)))
    with pytest.raises(NonPositiveCoefficientError):
        finsler.l_linear([1.0, -1.0])


@pytest.mark.parametrize("mk", [
    lambda: finsler.l_linear([1.0, 2.5]),
    lambda: finsler.parse_metric("phi:1,0,0.25"),
    lambda: finsler.parse_metric("phi:1,0.1"),
])
def test_two_block_grad_hess_vs_fd(mk, rng):
    fn = mk()
    for _ in range(10):
        th = rng.uniform(0.2, 2.0, size=2)
        npt.assert_allclose(fn.grad(th), fd_gradient(fn.value, th),
                            rtol=1e-6, atol=1e-8)
        npt.assert_allclose(fn.hess(th), fd_hessian(fn.value, th),
                            rtol=2e-4, atol=1e-6)


def test_pert3_grad_hess_vs_fd(rng):
    fn = finsler.l_pert3([1.0, 2.0, 1.5], 0.8)
    for _ in range(10):
        th = rng.uniform(0.2, 2.0, size=3)
        npt.assert_allclose(fn.grad(th), fd_gradient(fn.value, th),
                            rtol=1e-6, atol=1e-8)
        npt.assert_allclose(fn.hess(th), fd_hessian(fn.value, th),
                            rtol=2e-4, atol=1e-6)


def test_l_homogeneity(rng):
    for fn in (finsler.parse_metric("phi:1,0,0.25"),
               finsler.l_pert3([1.0, 1.0, 1.0], 0.5)):
        th = rng.uniform(0.2, 2.0, size=fn.arity)
        # positive 1-homogeneity and the Euler identity
        assert fn.value(3.7 * th) == pytest.approx(3.7 * fn.value(th))
        assert float(fn.grad(th) @ th) == pytest.approx(fn.value(th))


@pytest.mark.parametrize("mtext", ["linear:1,2.5,3", "phi:1,0,0.25", "phi:1,0.1",
                                   "pert3:1,2,1.5,0.8"])
def test_grad_hess_take_stacks(mtext, rng):
    fn = finsler.parse_metric(mtext)
    th = rng.uniform(0.2, 2.0, size=(7, fn.arity))
    if fn.boundary_ok[-1]:
        th[0, -1] = 0.0                          # an admissible face row
    g, h = fn.grad(th), fn.hess(th)
    assert g.shape == (7, fn.arity) and h.shape == (7, fn.arity, fn.arity)
    for i in range(7):
        npt.assert_allclose(g[i], fn.grad(th[i]), rtol=1e-14, atol=1e-15)
        npt.assert_allclose(h[i], fn.hess(th[i]), rtol=1e-14, atol=1e-15)


def test_pert3_guards():
    with pytest.raises(NonPositiveCoefficientError):
        finsler.l_pert3([1.0, 1.0, 1.0], 27.0)      # too large a perturbation
    with pytest.raises(DimensionMismatchError):
        finsler.l_pert3([1.0, 1.0], 0.1)


# --------------------------------------------------------------------------
# profiles and their admissibility


def test_profile_validation():
    with pytest.raises(InvalidProfileError):
        finsler.PhiProfile((1.0, -2.0)).validate()   # phi(1) < 0
    with pytest.raises(InvalidProfileError):
        finsler.parse_metric("phi:1,0,5")            # phi - t phi' < 0 inside
    finsler.PhiProfile((1.0, 0.0, 0.25)).validate()  # fine


def test_convexity_screen_rejects():
    # skip profile validation to reach the fundamental-tensor screen
    bad = finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 5.0)), check=False)
    report = finsler.strong_convexity_check(bad, (2, 2))
    assert not report.ok
    assert report.min_eigenvalue < 0


def test_boundary_dispatch():
    even = finsler.parse_metric("phi:1,0,0.25")
    assert even.boundary_ok == (True, True)
    odd = finsler.parse_metric("phi:1,0.1")
    assert odd.boundary_ok == (True, False)
    th0 = np.array([1.0, 0.0])
    npt.assert_allclose(even.grad(th0), [1.0, 1.5])  # psi = 1 + .5 t^2 + ...
    with pytest.raises(BoundaryNondifferentiableError):
        odd.grad(th0)


def test_boundary_matches_interior_limit():
    fn = finsler.parse_metric("phi:1,0,0.25")
    g0 = fn.grad(np.array([1.0, 0.0]))
    g_eps = fn.grad(np.array([1.0, 1e-10]))
    npt.assert_allclose(g0, g_eps, rtol=1e-6)


# --------------------------------------------------------------------------
# fundamental tensor on catalog spaces


def tensors(fn, dec, ys):
    """Fundamental tensors and A_y(y) at the rows ``ys``, from the batched kernels."""
    _, comps, theta = finsler.block_data(fn, dec, ys)
    g1 = fn.grad(theta)
    return (finsler.fundamental_tensors(dec, g1, fn.hess(theta), comps),
            finsler.apply_grad(g1, comps))


@pytest.mark.parametrize("spec,mtext", [
    ("so5/u2", "linear:1,2"),
    ("so5/u2", "phi:1,0,0.25"),
    ("su3/t2", "pert3:1,1,1,0.5"),
])
def test_fundamental_tensor_is_hessian_of_half_f_squared(spec, mtext, rng):
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)

    def half_f2(y):
        return 0.5 * finsler.f_squared(fn, dec, y)

    ys = rng.standard_normal((5, space.dim_m))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    for y, got in zip(ys, tensors(fn, dec, ys)[0]):
        npt.assert_allclose(got, fd_hessian(half_f2, y), rtol=1e-5, atol=1e-6)
        npt.assert_allclose(finsler.metric_operator(fn, dec, y), got, rtol=0, atol=1e-14)


def test_a_u_of_u_matches_operator(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    us = rng.standard_normal((10, space.dim_m))
    for u, auu in zip(us, tensors(fn, dec, us)[1]):
        a = finsler.metric_operator(fn, dec, u)
        npt.assert_allclose(auu, a @ u, rtol=1e-12, atol=1e-12)


def test_tensor_zero_homogeneity(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("phi:1,0,0.25")
    y = rng.standard_normal(space.dim_m)
    a1, a2 = tensors(fn, dec, np.array([y, 4.2 * y]))[0]
    npt.assert_allclose(a1, a2, atol=1e-12)


def test_f_squared_euler_identity(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("phi:1,0,0.25")
    y = rng.standard_normal(space.dim_m)
    g = finsler.metric_operator(fn, dec, y)
    assert float(y @ g @ y) == pytest.approx(finsler.f_squared(fn, dec, y))


def test_spray_vector_solves_metric_equation(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    ys = rng.standard_normal((1, space.dim_m))
    a, auu = tensors(fn, dec, ys)
    _, eta = finsler.spray_rows(space, a, ys, auu)
    rhs = np.einsum("ibk,b,k->i", space.bracket_mm_m, ys[0], auu[0])
    npt.assert_allclose(a[0] @ eta[0], rhs, atol=1e-10)


def test_zero_vector_guards():
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    assert finsler.f_squared(fn, dec, np.zeros(space.dim_m)) == 0.0
    with pytest.raises(ZeroVectorError):
        finsler.metric_operator(fn, dec, np.zeros(space.dim_m))


@pytest.mark.parametrize("fn", [
    finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 5.0)), check=False),
    finsler.l_from_phi(finsler.PhiProfile((1.0, 0.1)), check=False),
    finsler.l_pert3([1.0, 1.0, 1.0], 0.5, check=False),
])
def test_strong_convexity_screen_matches_loop(fn):
    # the screen before batching: one tensor and one eigvalsh per direction
    dims = (2,) * fn.arity
    dec = homspace.Decomposition.from_dims(dims)
    rng = np.random.default_rng(0)
    patterns = [(True,) * fn.arity]
    for mask in range(1, 2 ** fn.arity - 1):
        keep = tuple(bool(mask >> i & 1) for i in range(fn.arity))
        if all(fn.boundary_ok[i] for i, k in enumerate(keep) if not k):
            patterns.append(keep)
    mins = []
    for it in range(64):
        u = np.concatenate([rng.standard_normal(2) if keep else np.zeros(2)
                            for keep in patterns[it % len(patterns)]])
        u /= np.linalg.norm(u)
        mins.append(np.linalg.eigvalsh(tensors(fn, dec, u[None])[0][0])[0])
    report = finsler.strong_convexity_check(fn, dims)
    assert report.samples == 64
    assert report.min_eigenvalue == pytest.approx(min(mins), rel=1e-12, abs=1e-14)
    assert report.ok == (min(mins) > 1e-10)


def test_strong_convexity_report_fields():
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    report = finsler.strong_convexity_check(fn, (2, 2, 2))
    assert report.ok
    assert report.min_eigenvalue > 0
    assert report.samples > 0


# --------------------------------------------------------------------------
# metric spec parsing


def test_parse_metric_kinds():
    assert finsler.parse_metric("linear:1,2").kind == "linear"
    assert finsler.parse_metric("phi:1,0,0.25").kind == "phi"
    assert finsler.parse_metric("pert3:1,1,1,0.5").kind == "pert3"
    assert finsler.parse_metric(" linear:1,2 ").spec_string == "linear:1,2"


@pytest.mark.parametrize("bad", [
    "linear",            # no colon
    "linear:1",          # too few coefficients
    "phi:a,b",           # not numbers
    "pert3:1,1,1",       # missing eps
    "cubic:1,2",         # unknown kind
])
def test_parse_metric_rejects(bad):
    with pytest.raises(SpecFormatError):
        finsler.parse_metric(bad)


def test_parse_metric_error_column():
    with pytest.raises(SpecFormatError) as exc:
        finsler.parse_metric("linear:1,x")
    assert exc.value.column == 10


def test_parse_metric_arity_guard():
    with pytest.raises(SpecFormatError):
        finsler.parse_metric("linear:1,2", arity=3)
