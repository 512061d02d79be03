from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import exact_profile_accepts, fd_gradient, fd_hessian, ref_tensor
from gospace import catalog, finsler, homspace
from gospace.errors import (BoundaryNondifferentiableError,
                            DimensionMismatchError, InvalidProfileError,
                            NonPositiveCoefficientError,
                            NotPositiveDefiniteError,
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


@pytest.mark.parametrize("spec,mtext", [
    ("so5/u2", "linear:1,2.5"),
    ("so5/u2", "phi:1,0,0.25"),
    ("su3/t2", "pert3:1,2,1.5,0.8"),
])
def test_value_and_f_squared_take_stacks(spec, mtext, rng):
    _, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    ys = rng.standard_normal((5, sum(dec.dims)))
    ys[1] = 0.0                                  # F(0) = 0
    ys[2] = dec.summands[0][0]                   # the other blocks vanish
    th = dec.theta(ys)
    got, values = finsler.f_squared(fn, dec, ys), fn.value(th)
    assert got.shape == values.shape == (5,) and got[1] == 0.0
    npt.assert_array_equal(got, values)
    npt.assert_array_equal(values, [fn.value(row) for row in th])
    npt.assert_allclose(got, [finsler.f_squared(fn, dec, y) for y in ys], rtol=1e-14, atol=0)


def test_pert3_guards():
    with pytest.raises(NonPositiveCoefficientError):
        finsler.l_pert3([1.0, 1.0, 1.0], 27.0)      # too large a perturbation
    with pytest.raises(DimensionMismatchError):
        finsler.l_pert3([1.0, 1.0], 0.1)


# --------------------------------------------------------------------------
# profiles and their admissibility


@pytest.mark.parametrize("mtext,message", [
    ("phi:0", "phi(0) = 0 is not positive"),
    ("phi:-1,0,0.25", "phi(0) = -1 is not positive"),
    ("phi:1,-2", "phi'(0) = -2 is negative, so dL/dtheta_2 -> -inf at the theta_2 = 0 face"),
    ("phi:1,-1e-13,0.25",
     "phi'(0) = -1e-13 is negative, so dL/dtheta_2 -> -inf at the theta_2 = 0 face"),
    ("phi:1,1.024,-0.506",
     "phi(0) + phi''(0) = -0.012 is negative at the theta_2 = 0 face, which is not C^2"),
    ("phi:1,0.121,-0.504,0.333",
     "phi(0) + phi''(0) = -0.008 is negative at the theta_2 = 0 face, which is not C^2"),
])
def test_profile_limit_rules(mtext, message):
    # the t -> 0 end of the theta_2 = 0 face, which no grid point reaches
    # when that face is not C^2, decided from the coefficients
    with pytest.raises(InvalidProfileError) as info:
        finsler.parse_metric(mtext)
    assert str(info.value) == message


def test_profile_limit_rules_leave_the_rest_to_the_screen():
    # phi(0) + phi''(0) = 0 with phi'(0) > 0: P3 = 1.5 t^2 is positive for t > 0
    assert finsler.parse_metric("phi:1,0.065,-0.5").boundary_ok == (True, False)
    # on a C^2 face the grid has the face row itself: there dL/dtheta_2 =
    # phi(0) (phi(0) + phi''(0)) = -0.2
    with pytest.raises(NotStronglyConvexError) as info:
        finsler.parse_metric("phi:1,0,-0.6")
    assert str(info.value) == ("fundamental tensor has eigenvalue -2.000e-01 "
                               "at block norms [1.0, 0.0]")
    with pytest.raises(NotStronglyConvexError) as info:
        finsler.parse_metric("phi:1,0,5")                 # phi - t phi' < 0 inside
    assert str(info.value) == ("fundamental tensor has eigenvalue -2.400e+01 "
                               "at block norms [0.0, 1.0]")


def test_profile_face_rule_is_exact():
    # the face is C^2 iff a_1 = a_3 = 0 in phi^2, with no tolerance
    assert finsler.parse_metric("phi:1,0,0.25").boundary_ok == (True, True)
    assert finsler.parse_metric("phi:1,0,0.25,1e-13").boundary_ok == (True, False)
    assert finsler.parse_metric("phi:1,1e-13,0.25").boundary_ok == (True, False)


def test_profile_acceptance_matches_exact_reference():
    # seeded profiles phi = 1 + ... of degree 1 to 4; among them are three,
    # such as phi:1,0.121,-0.504,0.333, whose in-plane curvature is negative
    # only near t = 0
    rng = np.random.default_rng(0)
    for _ in range(300):
        coeffs = (1.0, *np.round(rng.normal(0.0, 0.4, rng.integers(1, 5)), 3))
        mtext = "phi:" + ",".join(format(float(c), "g") for c in coeffs)
        try:
            finsler.parse_metric(mtext)
            accepted = True
        except (InvalidProfileError, NotStronglyConvexError):
            accepted = False
        assert accepted == exact_profile_accepts(coeffs), mtext


def _seeded_profiles():
    rng = np.random.default_rng(28)
    seeded = [tuple(rng.uniform(-1.0, 1.0, size=d + 1)) for d in range(9)]
    return seeded + [(1.0, 0.0, 0.25, 0.0, 0.0), (0.5, -0.3, 0.0), (0.0, 0.0),
                     (1.0,), (2.5,), (1.0, 0.0, 0.25, 0.0, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0)]


def _reference_l(coeffs, theta):
    """value, grad and hess of L from phi^2 by numpy.polynomial, as a
    reference that shares no evaluation code: psi'/2t and (t psi'' - psi')/4t^3
    term by term from psi = sum_k a_k t^k, their 1/t terms dropped on the face."""
    psi = npoly.polymul(coeffs, coeffs)
    psi = np.concatenate([psi, np.zeros(max(0, 5 - psi.size))])
    dpsi, k = npoly.polyder(psi), np.arange(psi.size)
    e = k * (k - 2) * psi / 4.0                  # (t psi'' - psi')/4t^3 at t^(k-4)
    total = theta[:, 0] + theta[:, 1]
    x = theta[:, 1] / total
    th = np.sqrt(x)
    inv = np.divide(1.0, th, out=np.zeros_like(th), where=th > 0.0)
    big = npoly.polyval(th, psi)
    dbig = npoly.polyval(th, dpsi[1:] / 2.0) + dpsi[0] / 2.0 * inv
    d2big = npoly.polyval(th, e[4:]) + inv * (e[3] + e[1] * inv * inv)
    v = np.stack([x, x - 1.0], axis=-1)
    return (total * big, np.stack([big - x * dbig, big + (1.0 - x) * dbig], axis=-1),
            (d2big / total)[:, None, None] * v[:, :, None] * v[:, None, :])


@pytest.mark.parametrize("coeffs", _seeded_profiles())
def test_profile_algebra_is_bit_identical_to_numpy_polynomial(coeffs):
    # Horner's rule on the reversed coefficients runs the steps of
    # numpy.polynomial's polyval, and each coefficient of the self-product
    # sums a palindromic list of products, which reversal leaves unchanged;
    # so equality is exact, trailing zeros or not
    phi = finsler.PhiProfile(coeffs)
    t = np.linspace(0.0, 1.0, 201)
    assert np.array_equal(phi.value(t), npoly.polyval(t, coeffs))
    assert np.array_equal(phi.d1(t), npoly.polyval(t, npoly.polyder(coeffs)))
    fn = finsler.l_from_phi(phi, check=False)
    theta = 1.7 * np.stack([1.0 - t, t], axis=1)
    if not fn.boundary_ok[1]:
        theta = theta[1:]
    for got, want in zip((fn.value(theta), fn.grad(theta), fn.hess(theta)),
                         _reference_l(coeffs, theta)):
        assert np.array_equal(got, want)


def _exact_psi(coeffs):
    """Coefficients a_k of psi = phi^2, lowest degree first, as exact fractions."""
    c = [Fraction(v) for v in coeffs]
    a = [Fraction(0)] * (2 * len(c) + 3)         # four zeros past the degree
    for i, ci in enumerate(c):
        for j, cj in enumerate(c):
            a[i + j] += ci * cj
    return a


def _exact_grad_hess(coeffs, t):
    """grad and hess of L = S psi(t) at theta = (1 - t^2, t^2), t rational, by
    the chain rule in exact arithmetic; at t = 0 the face limits a_0 + a_2
    and 2 a_4, valid when the odd a_k vanish."""
    a = _exact_psi(coeffs)
    x = t * t                                    # S = 1
    if t == 0:
        return [a[0], a[0] + a[2]], [[0, 0], [0, 2 * a[4]]]
    psi = sum(ak * t ** k for k, ak in enumerate(a))
    dpsi = sum(k * ak * t ** (k - 1) for k, ak in enumerate(a) if k >= 1)
    d2psi = sum(k * (k - 1) * ak * t ** (k - 2) for k, ak in enumerate(a) if k >= 2)
    dt, dx = [-x / (2 * t), (1 - x) / (2 * t)], [-x, 1 - x]         # d/dtheta_j of t, x
    q = dpsi / (2 * t)
    dq = [(d2psi / (2 * t) - dpsi / (2 * t * t)) * d for d in dt]
    w = (-x, 1 - x)                              # grad_i = psi + w_i q
    return ([psi + wi * q for wi in w],
            [[dpsi * dt[j] - dx[j] * q + wi * dq[j] for j in range(2)] for wi in w])


@pytest.mark.parametrize("coeffs", _seeded_profiles())
def test_profile_derivatives_match_exact_rationals(coeffs):
    # at t = 2^-k every float input is exact, so each difference from the
    # exact value is rounding of the evaluation alone; the quotient forms
    # psi'/2t and (t psi'' - psi')/4t^3 lose every digit by t = 2^-26
    fn = finsler.l_from_phi(finsler.PhiProfile(coeffs), check=False)
    ts = [Fraction(1, 2 ** k) for k in range(27)] + ([Fraction(0)] if fn.boundary_ok[1] else [])
    theta = np.array([[float(1 - t * t), float(t * t)] for t in ts])
    grad, hess = fn.grad(theta), fn.hess(theta)
    for t, g, h in zip(ts, grad, hess):
        want_g, want_h = _exact_grad_hess(coeffs, t)
        for got, want in zip([*g, *h.ravel()], [*want_g, *want_h[0], *want_h[1]]):
            assert abs(Fraction(float(got)) - want) <= Fraction(1e-13) * abs(want), (t, got)


@pytest.mark.parametrize("mtext", ["phi:1,0,0.25", "phi:1,0,0.1", "phi:1,0,0.4"])
def test_even_profile_hessian_near_the_face(mtext):
    # psi is even, so L = S P(x) with P(x) = psi(sqrt x) a polynomial and the
    # L-Hessian is P''(x) / S (x, x - 1)(x, x - 1)^T, exactly at the float theta
    fn = finsler.parse_metric(mtext)
    a = _exact_psi(float(v) for v in mtext[4:].split(","))
    assert not any(a[1::2])
    for x in (1e-31, 1e-20, 1e-16, 1e-14, 1e-13, 1e-8):
        total = 1 + Fraction(x)
        xe = Fraction(x) / total
        d2p = sum(k * (k - 1) * a[2 * k] * xe ** (k - 2) for k in range(2, len(a) // 2))
        v = (xe, xe - 1)
        hess = fn.hess(np.array([1.0, x]))
        for i in range(2):
            for j in range(2):
                want = d2p / total * v[i] * v[j]
                assert abs(Fraction(float(hess[i, j])) - want) <= Fraction(1e-15) * abs(want)


def test_profile_degree_ignores_trailing_zeros():
    assert finsler.PhiProfile((1.0, 0.0, 0.25, 0.0, -0.0)).coeffs == (1.0, 0.0, 0.25)
    assert finsler.PhiProfile((0.0, 0.0)).coeffs == (0.0,)
    assert finsler.PhiProfile((1.0,) + (0.0,) * 20).coeffs == (1.0,)
    for coeffs in ((), (1.0,) * 10, (1.0,) * 9 + (1e-9, 0.0)):
        with pytest.raises(InvalidProfileError, match="^profile degree must be between 0 and 8$"):
            finsler.PhiProfile(coeffs)


@pytest.mark.parametrize("lambdas", [[1e-15, 1.0], [1.0, 3.0, 1e-10], [1e-200, 1e-190]])
def test_linear_rejects_relative_eigenvalues_at_the_screen_cutoff(lambdas):
    # the fundamental tensor of linear:lambda has the eigenvalues lambda_i at
    # every point, so the screen's 1e-10 relative rule needs no sampling
    lo, hi = min(lambdas), max(lambdas)
    with pytest.raises(NotStronglyConvexError) as info:
        finsler.l_linear(lambdas)
    assert str(info.value) == (f"fundamental tensor has eigenvalue {lo:.3e} "
                               f"at every point (largest {hi:.3e})")
    finsler.l_linear([1.01e-10 * hi if x == lo else x for x in lambdas])


def test_convexity_screen_rejects():
    # skip profile validation to reach the fundamental-tensor screen
    bad = finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 5.0)), check=False)
    with pytest.raises(NotStronglyConvexError) as info:
        finsler.strong_convexity_check(bad, (2, 2))
    assert str(info.value).startswith("fundamental tensor has eigenvalue -")


def test_boundary_dispatch():
    even = finsler.parse_metric("phi:1,0,0.25")
    assert even.boundary_ok == (True, True)
    odd = finsler.parse_metric("phi:1,0.1")
    assert odd.boundary_ok == (True, False)
    th0 = np.array([1.0, 0.0])
    npt.assert_allclose(even.grad(th0), [1.0, 1.5])  # psi = 1 + .5 t^2 + ...
    with pytest.raises(BoundaryNondifferentiableError):
        odd.grad(th0)


@pytest.mark.parametrize("scaled,plain", [
    ("phi:1e-7,1e-8", "phi:1,0.1"),
    ("phi:1e-7,0,2.5e-8", "phi:1,0,0.25"),
    ("phi:1e7,1e6", "phi:1,0.1"),
])
def test_boundary_faces_do_not_depend_on_the_scale(scaled, plain):
    # the C^2 test of the theta_2 = 0 face compares the odd coefficients of
    # phi^2 with its largest one, so phi and c phi admit the same faces
    assert finsler.parse_metric(scaled).boundary_ok == finsler.parse_metric(plain).boundary_ok


@pytest.mark.parametrize("c", [1e-150, 1e-9, 1.0, 1e9, 1e150])
def test_positive_definite_cutoff_scales_with_the_metric(c, monkeypatch):
    # the cutoff is n eps |largest eigenvalue|: eigenvalue ratios 1e-14 pass
    # and 1e-16 fail at every scale of L; with h2 = 0 the spectrum is read
    # off g1, so no eigvalsh runs
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    dims, theta, h2 = (2, 2), np.array([[0.5, 0.5]]), np.zeros((1, 2, 2))
    finsler.require_positive_definite(dims, c * np.array([[1.0, 1e-14]]), h2, theta)
    with pytest.raises(NotPositiveDefiniteError) as info:
        finsler.require_positive_definite(dims, c * np.array([[1.0, 1e-16]]), h2, theta)
    assert str(info.value) == ("fundamental tensor not positive definite "
                               f"(min eigenvalue {c * 1e-16:.3e})")


def test_boundary_matches_interior_limit():
    fn = finsler.parse_metric("phi:1,0,0.25")
    g0 = fn.grad(np.array([1.0, 0.0]))
    g_eps = fn.grad(np.array([1.0, 1e-10]))
    npt.assert_allclose(g0, g_eps, rtol=1e-6)


# --------------------------------------------------------------------------
# fundamental tensor on catalog spaces


def tensors(fn, dec, ys):
    """Fundamental tensors (N, n, n) and A_y(y) at the rows ``ys``, from the
    batched kernels: the block form applied to the identity."""
    _, comps, theta = finsler.block_data(fn, dec, ys)
    g1 = fn.grad(theta)
    eye = np.broadcast_to(np.eye(ys.shape[1]), (len(ys),) + (ys.shape[1],) * 2)
    return (finsler.apply_tensor(dec, g1, fn.hess(theta), comps, eye),
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


def test_zero_vector_guards():
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    assert finsler.f_squared(fn, dec, np.zeros(space.dim_m)) == 0.0
    with pytest.raises(ZeroVectorError):
        finsler.metric_operator(fn, dec, np.zeros(space.dim_m))


def _unscreened_pert3(lambdas, eps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finsler, "strong_convexity_check", lambda fn, dims: fn)
        return finsler.l_pert3(lambdas, eps)


@pytest.mark.parametrize("fn", [
    finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 5.0)), check=False),
    finsler.l_from_phi(finsler.PhiProfile((1.0, 0.1)), check=False),
    finsler.l_from_phi(finsler.PhiProfile((1.0, 0.435, -0.199, 0.002, -0.108, -0.222)),
                       check=False),
    finsler.l_pert3([1.0, 1.0, 1.0], 0.5),
    _unscreened_pert3([0.967, 0.22, 2.008], 2.613),
])
def test_strong_convexity_screen_matches_loop(fn):
    # the screen as a loop: one dense tensor and one eigvalsh per grid row,
    # step 1/255 on the segment and 1/21 on the triangle
    dims = (2,) * fn.arity
    dec = homspace.Decomposition.from_dims(dims)
    m = 255 if fn.arity == 2 else 21
    rows = [(i, m - i) for i in range(m + 1)] if fn.arity == 2 else [
        (i, j, m - i - j) for i in range(m + 1) for j in range(m + 1 - i)]
    spectra, us = [], []
    for row in rows:
        if any(k == 0 and not ok for k, ok in zip(row, fn.boundary_ok)):
            continue
        u = np.concatenate([[np.sqrt(k / m), 0.0] for k in row])
        us.append(u)
        spectra.append(np.linalg.eigvalsh(ref_tensor(fn, dec, u)))
    spectra = np.array(spectra)
    best = int(np.argmin(spectra[:, 0]))
    if spectra[best, 0] > 1e-10 * np.max(spectra):
        assert finsler.strong_convexity_check(fn, dims) is fn
        return
    with pytest.raises(NotStronglyConvexError) as info:
        finsler.strong_convexity_check(fn, dims)
    assert str(info.value) == (
        f"fundamental tensor has eigenvalue {spectra[best, 0]:.3e} "
        f"at block norms {np.round(dec.theta(us[best]), 6).tolist()}")


@pytest.mark.parametrize("dims", [(2, 0), (2, -1), (2.5, 2)])
def test_strong_convexity_rejects_bad_block_dims(dims):
    # (2, 0) divided by a zero norm, (2, -1) failed inside np.repeat and
    # (2.5, 2) was truncated to (2, 2)
    with pytest.raises(DimensionMismatchError) as err:
        finsler.strong_convexity_check(finsler.l_from_phi((1.0, 0.0, 0.25)), dims)
    assert str(err.value) == f"block dims must be positive integers, got {dims}"


def test_strong_convexity_check_returns_the_norm():
    # the screen returns the norm it passes, so parsing can chain it
    fn = finsler.l_pert3([1.0, 1.0, 1.0], 0.0)
    assert finsler.strong_convexity_check(fn, (2, 2, 2)) is fn
    assert finsler.strong_convexity_check(fn, (1, 3, 2)) is fn


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
