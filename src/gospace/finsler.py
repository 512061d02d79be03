"""Block-diagonal Minkowski norms and their fundamental tensors.

A norm on m = m_1 + ... + m_s is encoded by a function L of the squared
block norms theta_i = |y_i|^2, positively 1-homogeneous, with
F(y) = sqrt(L(theta)).  Three kinds are supported:

* ``linear``: L = sum(lambda_i * theta_i), the Riemannian diagonal case;
* ``phi``: s = 2 with L = (theta_1 + theta_2) * phi(sqrt(theta_2 / sum))^2
  for a polynomial profile phi;
* ``pert3``: s = 3 linear plus the symmetric cubic perturbation
  eps * theta_1 theta_2 theta_3 / sum^2.

The fundamental tensor at y (Hessian of F^2/2 in orthonormal m-coords) is
assembled from the gradient and Hessian of L; it equals the metric operator
of the norm, which is what every geodesic-orbit criterion consumes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BoundaryNondifferentiableError,
    DimensionMismatchError,
    InvalidProfileError,
    NonPositiveCoefficientError,
    NotPositiveDefiniteError,
    NotStronglyConvexError,
    SingularOperatorError,
    SpecFormatError,
    ZeroVectorError,
)
from . import _linalg
from .homspace import Decomposition

_ODD_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class LFunction:
    """Positively 1-homogeneous function of the squared block norms.

    ``grad`` and ``hess`` take theta of shape (s,) or a stack (N, s) and
    return (..., s) and (..., s, s).  ``boundary_ok[i]`` records whether the
    face theta_i = 0 admits a C^2 evaluation; the gradient and Hessian
    callables raise :class:`BoundaryNondifferentiableError` on inadmissible
    faces.
    """

    arity: int
    kind: str
    value: callable = field(repr=False)
    grad: callable = field(repr=False)
    hess: callable = field(repr=False)
    boundary_ok: tuple
    spec_string: str


def _format_floats(vals):
    return ",".join(format(v, "g") for v in vals)


def l_linear(lambdas):
    """Diagonal Riemannian kind: L(theta) = sum(lambda_i theta_i), lambda_i > 0."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DimensionMismatchError("need a 1-d list of coefficients")
    if np.any(lam <= 0.0):
        raise NonPositiveCoefficientError(f"coefficients must be positive, got {lam.tolist()}")
    lam.setflags(write=False)
    s = lam.size

    def value(theta):
        return float(lam @ np.asarray(theta, dtype=float))

    def grad(theta):
        return np.broadcast_to(lam, np.shape(theta)[:-1] + (s,)).copy()

    def hess(theta):
        return np.zeros(np.shape(theta)[:-1] + (s, s))

    return LFunction(arity=s, kind="linear", value=value, grad=grad, hess=hess,
                     boundary_ok=(True,) * s,
                     spec_string="linear:" + _format_floats(lam))


@dataclass(frozen=True)
class PhiProfile:
    """Polynomial profile phi(theta) = c0 + c1 theta + ... on [0, 1].

    Validation samples a dense grid and requires phi > 0 together with the
    two coefficient-positivity conditions phi - theta phi' > 0 and
    phi - (theta - 1/theta) phi' > 0; these are exactly positivity of the
    L-gradient for the induced two-block norm.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if len(cs) == 0 or len(cs) > 9:
            raise InvalidProfileError("profile degree must be between 0 and 8")
        object.__setattr__(self, "coeffs", cs)

    def value(self, theta):
        return npoly.polyval(theta, self.coeffs)

    def d1(self, theta):
        return npoly.polyval(theta, npoly.polyder(self.coeffs))

    def validate(self, grid=2001):
        t = np.linspace(0.0, 1.0, grid)
        v = self.value(t)
        if np.any(v <= 0.0):
            bad = t[int(np.argmin(v))]
            raise InvalidProfileError(f"phi is not positive on [0,1] (phi({bad:.4f}) <= 0)")
        d = self.d1(t)
        p1 = v - t * d
        if np.any(p1 <= 0.0):
            bad = t[int(np.argmin(p1))]
            raise InvalidProfileError(
                f"phi - theta*phi' is not positive on [0,1] (fails at theta={bad:.4f})")
        ti, vi, di = t[1:], v[1:], d[1:]
        p2 = vi - (ti - 1.0 / ti) * di
        if np.any(p2 <= 0.0):
            bad = ti[int(np.argmin(p2))]
            raise InvalidProfileError(
                f"phi - (theta - 1/theta)*phi' is not positive on (0,1] "
                f"(fails at theta={bad:.4f})")
        return self


def l_from_phi(phi, check=True):
    """Two-block kind L = (theta_1 + theta_2) phi(sqrt(theta_2/sum))^2.

    ``check=True`` validates the profile and screens strong convexity at
    block dims (2, 2); the fundamental-tensor spectrum does not depend on
    block dims beyond multiplicities, so that screen is exhaustive.
    The theta_2 = 0 face is C^2 only when the odd low-order coefficients of
    phi^2 vanish (in particular phi'(0) = 0).
    """
    if not isinstance(phi, PhiProfile):
        phi = PhiProfile(tuple(phi))
    if check:
        phi.validate()
    psi = npoly.polymul(phi.coeffs, phi.coeffs)
    psi = np.concatenate([psi, np.zeros(max(0, 5 - psi.size))])
    dpsi = npoly.polyder(psi)
    d2psi = npoly.polyder(psi, 2)
    scale = max(1.0, float(np.max(np.abs(psi))))
    face2_ok = bool(abs(psi[1]) <= _ODD_COEFF_TOL * scale
                    and abs(psi[3]) <= _ODD_COEFF_TOL * scale)

    def value(theta):
        t1, t2 = float(theta[0]), float(theta[1])
        total = t1 + t2
        if total == 0.0:
            return 0.0
        th = np.sqrt(t2 / total)
        return float(total * npoly.polyval(th, psi))

    def _phi_derivs(theta, need_second):
        theta = np.asarray(theta, dtype=float)
        total = theta[..., 0] + theta[..., 1]
        if np.any(total <= 0.0):
            raise ZeroVectorError("norm data requested at the zero vector")
        x = theta[..., 1] / total
        th = np.sqrt(x)
        face = th == 0.0
        if not face2_ok and np.any(face):
            raise BoundaryNondifferentiableError(
                "theta_2 = 0 face is not C^2 for this profile "
                "(phi^2 has odd low-order terms)")
        ts = np.where(face, 1.0, th)              # the face takes the limits below
        pd = npoly.polyval(ts, dpsi)
        if need_second:
            d2big = (ts * npoly.polyval(ts, d2psi) - pd) / (4.0 * ts ** 3)
            return total, x, np.where(face, 2.0 * psi[4], d2big)
        return total, x, npoly.polyval(th, psi), np.where(face, psi[2], pd / (2.0 * ts))

    def grad(theta):
        _, x, big_phi, dbig = _phi_derivs(theta, need_second=False)
        return np.stack([big_phi - x * dbig, big_phi + (1.0 - x) * dbig], axis=-1)

    def hess(theta):
        total, x, d2big = _phi_derivs(theta, need_second=True)
        v = np.stack([x, x - 1.0], axis=-1)
        return (d2big / total)[..., None, None] * v[..., :, None] * v[..., None, :]

    fn = LFunction(arity=2, kind="phi", value=value, grad=grad, hess=hess,
                   boundary_ok=(True, face2_ok),
                   spec_string="phi:" + _format_floats(phi.coeffs))
    return _screened(fn, (2, 2)) if check else fn


def l_pert3(lambdas, eps, check=True):
    """Three-block kind L = sum(lambda_i theta_i) + eps * theta_1 theta_2 theta_3 / sum^2."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise DimensionMismatchError("pert3 needs exactly three coefficients")
    if np.any(lam <= 0.0):
        raise NonPositiveCoefficientError(f"coefficients must be positive, got {lam.tolist()}")
    eps = float(eps)
    if abs(eps) >= 27.0 * float(np.min(lam)):
        raise NonPositiveCoefficientError(
            "perturbation too large for positivity: need |eps| < 27*min(lambda)")
    lam.setflags(write=False)

    def _pieces(theta):
        th = np.asarray(theta, dtype=float)
        total = np.sum(th, axis=-1)[..., None]
        if np.any(total <= 0.0):
            raise ZeroVectorError("norm data requested at the zero vector")
        prod = np.prod(th, axis=-1)[..., None]
        partials = np.stack([th[..., 1] * th[..., 2], th[..., 0] * th[..., 2],
                             th[..., 0] * th[..., 1]], axis=-1)
        return th, total, prod, partials

    def value(theta):
        th = np.asarray(theta, dtype=float)
        total = float(np.sum(th))
        if total == 0.0:
            return 0.0
        return float(lam @ th + eps * np.prod(th) / total ** 2)

    def grad(theta):
        th, total, prod, partials = _pieces(theta)
        return lam + eps * (partials / total ** 2 - 2.0 * prod / total ** 3)

    def hess(theta):
        th, total, prod, partials = _pieces(theta)
        # entry (i, j) is theta_k for the third index k, zero on the diagonal
        cross = th[..., [[0, 2, 1], [2, 0, 0], [1, 0, 0]]] * (1.0 - np.eye(3))
        total, prod = total[..., None], prod[..., None]
        h = (cross / total ** 2
             - 2.0 * (partials[..., :, None] + partials[..., None, :]) / total ** 3
             + 6.0 * prod / total ** 4)
        return eps * h

    fn = LFunction(arity=3, kind="pert3", value=value, grad=grad, hess=hess,
                   boundary_ok=(True, True, True),
                   spec_string=f"pert3:{_format_floats(lam)},{format(eps, 'g')}")
    return _screened(fn, (2, 2, 2)) if check and eps != 0.0 else fn


# ---------------------------------------------------------------------------
# fundamental tensor and friends, on stacks of m-coords rows ys (N, n)


def block_data(fn, dec, ys):
    """Validated rows ``ys`` (N, n) with their block components (N, s, n)
    and squared block norms theta (N, s).

    Raises for the first row that is zero or that vanishes on a block whose
    face is not C^2 for this norm.
    """
    ys = np.asarray(ys, dtype=float)
    if dec.arity != fn.arity:
        raise DimensionMismatchError(
            f"norm has {fn.arity} blocks but decomposition has {dec.arity}")
    n = int(sum(dec.dims))
    if ys.ndim != 2 or ys.shape[1] != n:
        raise DimensionMismatchError(f"expected m-coords vector of length {n}")
    coords = [ys @ s.T for s in dec.summands]
    theta = np.stack([np.einsum("ij,ij->i", c, c) for c in coords], axis=1)
    zero = np.einsum("ij,ij->i", ys, ys) == 0.0
    bad = (theta == 0.0) & ~np.array(fn.boundary_ok)
    flagged = np.flatnonzero(zero | np.any(bad, axis=1))
    if flagged.size:
        i = flagged[0]
        if zero[i]:
            raise ZeroVectorError("norm data requested at the zero vector")
        raise BoundaryNondifferentiableError(
            f"block {int(np.argmax(bad[i])) + 1} vanishes but that face is not C^2 "
            "for this norm")
    comps = np.stack([c @ s for c, s in zip(coords, dec.summands)], axis=1)
    return ys, comps, theta


def apply_grad(g1, comps):
    """A_y(y) = sum_a dL/dtheta_a * y_a for each row."""
    return np.einsum("ra,rak->rk", g1, comps)


def fundamental_tensors(dec, g1, h2, comps):
    """Fundamental tensors (N, n, n), the Hessians of F^2/2: grad_a(L) on
    each summand plus rank-one couplings of the block components (N, s, n)
    from the L-Hessian.  This matrix is the metric operator A_y of the norm."""
    proj = np.stack([s.T @ s for s in dec.summands])
    out = np.einsum("ra,akl->rkl", g1, proj)
    if np.any(h2):
        out += 2.0 * np.einsum("rab,rak,rbl->rkl", h2, comps, comps)
    return 0.5 * (out + out.swapaxes(1, 2))


def require_positive_definite(a):
    """The stack of tensors ``a``, after checking that each is positive definite."""
    w = np.linalg.eigvalsh(a)
    bad = np.flatnonzero(w[:, 0] <= a.shape[-1] * _linalg.EPS
                         * np.maximum(np.abs(w[:, -1]), 1.0))
    if bad.size:
        raise NotPositiveDefiniteError(
            f"fundamental tensor not positive definite (min eigenvalue {w[bad[0], 0]:.3e})")
    return a


def spray_rows(space, a, ys, auu):
    """(rhs, eta) for each row: eta solves g_y(eta, .) = g_y(y, [., y]_m) = rhs,
    given the tensors ``a`` at the rows ``ys`` and ``auu`` = A_y(y)."""
    rhs = np.einsum("rib,rb->ri", np.tensordot(auu, space.bracket_mm_m, axes=(-1, 2)), ys)
    try:
        eta = np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(f"metric operator is singular at this vector: {exc}")
    if not np.all(np.isfinite(eta)):
        raise SingularOperatorError("metric operator solve produced non-finite values")
    return rhs, eta


def metric_operator(fn, dec, y):
    """Metric operator A_y at one vector y: the fundamental tensor, checked
    to be positive definite."""
    _, comps, theta = block_data(fn, dec, np.asarray(y, dtype=float)[None])
    a = fundamental_tensors(dec, fn.grad(theta), fn.hess(theta), comps)
    return require_positive_definite(a)[0]


def f_squared(fn, dec, y):
    """F(y)^2 = L(theta(y)); accepts y = 0."""
    y = np.asarray(y, dtype=float)
    return fn.value(dec.theta(y))


def admissible_faces(boundary_ok):
    """Block patterns (keep flags) with at least one block kept and one
    dropped, every dropped block admitting theta_i = 0; in bitmask order."""
    s = len(boundary_ok)
    out = []
    for mask in range(1, 2 ** s - 1):
        keep = tuple(bool(mask >> i & 1) for i in range(s))
        if all(ok for ok, k in zip(boundary_ok, keep) if not k):
            out.append(keep)
    return out


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    min_eigenvalue: float
    witness: np.ndarray
    witness_theta: np.ndarray
    samples: int


def strong_convexity_check(fn, dims, samples=64, seed=0):
    """Scan unit vectors (interior plus admissible degenerate-block patterns)
    for the smallest fundamental-tensor eigenvalue.

    Returns a :class:`ConvexityReport`; ``ok`` means every sampled tensor was
    positive definite.  This is a sampled certificate of failure, not a proof
    of convexity.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != fn.arity:
        raise DimensionMismatchError(
            f"norm has {fn.arity} blocks but {len(dims)} dims were given")
    dec = Decomposition.from_dims(dims)
    rng = np.random.default_rng(seed)
    patterns = [tuple(True for _ in dims)] + admissible_faces(fn.boundary_ok)
    us = np.zeros((samples, sum(dims)))
    for it, u in enumerate(us):
        keep = patterns[it % len(patterns)]
        off = 0
        for i, d in enumerate(dims):
            if keep[i]:
                u[off:off + d] = rng.standard_normal(d)
            off += d
        u /= np.linalg.norm(u)
    _, comps, theta = block_data(fn, dec, us)
    a = fundamental_tensors(dec, fn.grad(theta), fn.hess(theta), comps)
    w = np.linalg.eigvalsh(a)[:, 0]
    best = int(np.argmin(w))
    return ConvexityReport(ok=bool(w[best] > 1e-10), min_eigenvalue=float(w[best]),
                           witness=us[best], witness_theta=theta[best], samples=samples)


def _screened(fn, dims):
    report = strong_convexity_check(fn, dims)
    if not report.ok:
        raise NotStronglyConvexError(
            f"fundamental tensor has eigenvalue {report.min_eigenvalue:.3e} "
            f"at block norms {np.round(report.witness_theta, 6).tolist()}")
    return fn


# ---------------------------------------------------------------------------
# metric grammar


def parse_metric(text, arity=None, check=True):
    """Parse ``linear:...``, ``phi:...`` or ``pert3:...`` into an LFunction.

    ``arity`` (when given) must match the block count of the parsed norm.
    The original text is kept as the norm's ``spec_string`` so reports echo
    the user's input.
    """
    text = text.strip()
    if ":" not in text:
        raise SpecFormatError(f"metric must look like kind:args, got {text!r}",
                              column=len(text))
    kind, _, args = text.partition(":")
    kind = kind.strip()
    vals = []
    col = len(kind) + 2
    for tok in args.split(","):
        try:
            vals.append(float(tok))
        except ValueError:
            raise SpecFormatError(f"bad number {tok.strip()!r} in metric", column=col)
        col += len(tok) + 1
    if kind == "linear":
        if len(vals) < 2:
            raise SpecFormatError("linear needs at least two coefficients",
                                  column=len(kind) + 2)
        fn = l_linear(vals)
    elif kind == "phi":
        fn = l_from_phi(PhiProfile(tuple(vals)), check=check)
    elif kind == "pert3":
        if len(vals) != 4:
            raise SpecFormatError("pert3 needs lambda1,lambda2,lambda3,eps",
                                  column=len(kind) + 2)
        fn = l_pert3(vals[:3], vals[3], check=check)
    else:
        raise SpecFormatError(f"unknown metric kind {kind!r}", column=1)
    if arity is not None and fn.arity != arity:
        raise SpecFormatError(
            f"metric has {fn.arity} blocks but the space decomposition has {arity}")
    return dataclasses.replace(fn, spec_string=text)
