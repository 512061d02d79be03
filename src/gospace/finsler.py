"""Block-diagonal Minkowski norms and their fundamental tensors.

A norm on m = m_1 + ... + m_s is encoded by a function L of the squared
block norms theta_i = |y_i|^2, positively 1-homogeneous, with
F(y) = sqrt(L(theta)).  Three kinds are supported:

* ``linear``: L = sum(lambda_i * theta_i), the Riemannian diagonal case;
* ``phi``: s = 2 with L = (theta_1 + theta_2) * phi(sqrt(theta_2 / sum))^2
  for a polynomial profile phi, its coefficients stored lowest degree first
  and evaluated, like the derivatives of L, by Horner's rule;
* ``pert3``: s = 3 linear plus the symmetric cubic perturbation
  eps * theta_1 theta_2 theta_3 / sum^2.

The fundamental tensor A_y at y (Hessian of F^2/2 in orthonormal m-coords)
is the metric operator of the norm, which is what every geodesic-orbit
criterion consumes.  It is g1_i = dL/dtheta_i on each summand plus a
coupling of rank at most s between the block components, so it is applied
and its spectrum is taken in that block form, never as a dense n x n array.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryNondifferentiableError,
    DimensionMismatchError,
    InvalidProfileError,
    NonPositiveCoefficientError,
    NotPositiveDefiniteError,
    NotStronglyConvexError,
    SpecFormatError,
    ZeroVectorError,
)
from . import _linalg
from .homspace import Decomposition

# parse_metric's bounds on the largest |coefficient| of L: the squares of
# the brackets and gradients built from it neither overflow nor underflow
_MAX_COEFF = 1e150
_MIN_COEFF = 1e-150


@dataclass(frozen=True)
class LFunction:
    """Positively 1-homogeneous function of the squared block norms.

    ``value``, ``grad`` and ``hess`` take theta of shape (s,) or a stack
    (N, s) and return (...), (..., s) and (..., s, s); ``value`` also takes
    complex theta, for complex-step derivatives.  ``boundary_ok[i]``
    records whether the face theta_i = 0 admits a C^2 evaluation; the
    gradient and Hessian callables raise
    :class:`BoundaryNondifferentiableError` on inadmissible faces.
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
    """Diagonal Riemannian kind L = sum(lambda_i theta_i), lambda_i > 1e-10 max(lambda) > 0."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DimensionMismatchError("need a 1-d list of coefficients")
    if np.any(lam <= 0.0):
        raise NonPositiveCoefficientError(f"coefficients must be positive, got {lam.tolist()}")
    if lam.min() <= 1e-10 * lam.max():       # strong_convexity_check's rule, exactly
        raise NotStronglyConvexError(f"fundamental tensor has eigenvalue {lam.min():.3e} "
                                     f"at every point (largest {lam.max():.3e})")
    lam.setflags(write=False)

    def value(theta):
        return np.asarray(theta) @ lam

    def grad(theta):
        return np.broadcast_to(lam, np.shape(theta)[:-1] + lam.shape).copy()

    def hess(theta):
        return np.zeros(np.shape(theta)[:-1] + 2 * lam.shape)

    return LFunction(arity=lam.size, kind="linear", value=value, grad=grad, hess=hess,
                     boundary_ok=(True,) * lam.size,
                     spec_string="linear:" + _format_floats(lam))


@dataclass(frozen=True)
class PhiProfile:
    """Polynomial profile phi(theta) = c0 + c1 theta + ... on [0, 1], stored
    lowest degree first without trailing zeros and evaluated by Horner's
    rule.  Its admissibility is decided by :func:`l_from_phi`.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        cs = cs[:max(1, len(np.trim_zeros(cs, "b")))]      # trailing zeros add no degree
        if len(cs) == 0 or len(cs) > 9:
            raise InvalidProfileError("profile degree must be between 0 and 8")
        object.__setattr__(self, "coeffs", cs)

    def value(self, theta):
        return np.polyval(self.coeffs[::-1], theta)

    def d1(self, theta):
        return np.polyval(np.polyder(self.coeffs[::-1]), theta)


def l_from_phi(phi, check=True):
    """Two-block kind L = (theta_1 + theta_2) phi(sqrt(theta_2/sum))^2.

    ``check=True`` screens strong convexity at block dims (2, 2), whose
    spectrum holds every eigenvalue of the fundamental tensor, the L-gradient
    phi (phi - t phi') and phi (t phi + (1 - t^2) phi') / t included.  The
    screen's grid never reaches the t -> 0 end of a face that is not C^2, so
    three exact coefficient rules come first: phi(0) > 0; phi'(0) >= 0, else
    the second gradient entry tends to -inf; and on a face that is not C^2,
    phi(0) + phi''(0) >= 0, the in-plane curvature phi - t phi' +
    (1 - t^2) phi'' at t = 0 (the b = 1 positivity lemma for (alpha,
    beta)-metrics).  The theta_2 = 0 face is C^2 iff the coefficients a_1
    and a_3 of psi = phi^2 = sum_k a_k t^k are exactly zero.  ``grad`` and
    ``hess`` take psi'/2t = sum_k (k a_k/2) t^(k-2) and (t psi'' - psi')/4t^3
    = sum_k (k (k-2) a_k/4) t^(k-4) term by term, so nothing cancels near the
    face; on it the 1/t powers drop out and the limits a_2 and 2 a_4 remain.
    """
    if not isinstance(phi, PhiProfile):
        phi = PhiProfile(tuple(phi))
    psi = np.polymul(phi.coeffs[::-1], phi.coeffs[::-1])   # psi[-1 - k] multiplies theta^k
    psi = np.concatenate([np.zeros(max(0, 5 - psi.size)), psi])
    k = np.arange(psi.size)[::-1]
    c1, c2 = k * psi / 2.0, k * (k - 2) * psi / 4.0   # the terms of the two sums above
    face2_ok = bool(psi[-2] == 0.0 and psi[-4] == 0.0)
    b0, b1, b2 = (phi.coeffs + (0.0, 0.0))[:3]          # phi(0), phi'(0), phi''(0) / 2
    if check and not b0 > 0.0:
        raise InvalidProfileError(f"phi(0) = {b0:g} is not positive")
    if check and b1 < 0.0:
        raise InvalidProfileError(f"phi'(0) = {b1:g} is negative, so dL/dtheta_2 -> -inf "
                                  "at the theta_2 = 0 face")
    if check and not face2_ok and b0 + 2.0 * b2 < 0.0:
        raise InvalidProfileError(f"phi(0) + phi''(0) = {b0 + 2.0 * b2:g} is negative at the "
                                  "theta_2 = 0 face, which is not C^2")

    def value(theta):
        theta = np.asarray(theta)
        total = theta[..., 0] + theta[..., 1]
        x = np.divide(theta[..., 1], total, out=np.zeros_like(total), where=total != 0.0)
        return total * np.polyval(psi, np.sqrt(x))

    def _phi_t(theta):
        # (sum, x, t, 1/t) with 1/t = 0 on the face, where the odd terms drop out
        theta = np.asarray(theta, dtype=float)
        total = theta[..., 0] + theta[..., 1]
        if np.any(total <= 0.0):
            raise ZeroVectorError("norm data requested at the zero vector")
        x = theta[..., 1] / total
        t = np.sqrt(x)
        if not face2_ok and np.any(t == 0.0):
            raise BoundaryNondifferentiableError(
                "theta_2 = 0 face is not C^2 for this profile "
                "(phi^2 has odd low-order terms)")
        return total, x, t, np.divide(1.0, t, out=np.zeros_like(t), where=t > 0.0)

    def grad(theta):
        _, x, t, r = _phi_t(theta)
        big_phi = np.polyval(psi, t)
        dbig = np.polyval(c1[:-2], t) + c1[-2] * r            # psi'(t) / 2t
        return np.stack([big_phi - x * dbig, big_phi + (1.0 - x) * dbig], axis=-1)

    def hess(theta):
        total, x, t, r = _phi_t(theta)
        d2big = np.polyval(c2[:-4], t) + r * (c2[-4] + c2[-2] * r * r)   # (t psi'' - psi') / 4t^3
        v = np.stack([x, x - 1.0], axis=-1)
        return (d2big / total)[..., None, None] * v[..., :, None] * v[..., None, :]

    fn = LFunction(arity=2, kind="phi", value=value, grad=grad, hess=hess,
                   boundary_ok=(True, face2_ok),
                   spec_string="phi:" + _format_floats(phi.coeffs))
    return strong_convexity_check(fn, (2, 2)) if check else fn


def l_pert3(lambdas, eps):
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
        th = np.asarray(theta)
        total = np.sum(th, axis=-1)
        return th @ lam + eps * np.prod(th, axis=-1) / np.where(total == 0.0, 1.0, total) ** 2

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
    return strong_convexity_check(fn, (2, 2, 2)) if eps != 0.0 else fn


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
        raise DimensionMismatchError(
            f"expected a stack of m-coords rows (N, {n}), got {ys.shape}")
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


def apply_diag(dec, g1, x):
    """D x = sum_a grad_a(L) P_a x for a stack x (N, n, k), P_a the projection
    on summand a: the block-diagonal part of A_y."""
    return sum(g[:, None, None] * (s.T @ (s @ x)) for g, s in zip(g1.T, dec.summands))


def apply_tensor(dec, g1, h2, comps, x):
    """A_y x for a stack x (N, n, k), without forming A_y: :func:`apply_diag`
    plus 2 sum_ab h2_ab y_a <y_b, x> over the block components (N, s, n),
    h2 being the L-Hessian."""
    out = apply_diag(dec, g1, x)
    if np.any(h2):
        out = out + 2.0 * (comps.swapaxes(1, 2) @ (h2 @ (comps @ x)))
    return out


def tensor_spectrum(dims, g1, h2, theta):
    """(smallest, largest) eigenvalue of A_y per row, from one (N, s, s)
    eigvalsh of R = diag(g1) + 2 D h2 D, D = diag(sqrt(theta)), which is A_y
    on the span of the unit block components; a block with theta_i = 0
    enters R through g1_i alone, and on the rest of summand i A_y is g1_i.
    A zero L-Hessian (``linear``) leaves R = diag(g1), with no eigvalsh.
    """
    if not np.any(h2):
        return g1.min(axis=1), g1.max(axis=1)
    root = np.sqrt(theta)
    r = 2.0 * root[:, :, None] * h2 * root[:, None, :] + g1[:, :, None] * np.eye(len(dims))
    w = np.concatenate([np.linalg.eigvalsh(r), g1[:, np.asarray(dims) >= 2]], axis=1)
    return w.min(axis=1), w.max(axis=1)


def require_positive_definite(dims, g1, h2, theta):
    """Raise unless A_y is positive definite on every row: its smallest
    eigenvalue must exceed n eps |largest|, n = sum(dims)."""
    lo, hi = tensor_spectrum(dims, g1, h2, theta)
    bad = np.flatnonzero(lo <= sum(dims) * _linalg.EPS * np.abs(hi))
    if bad.size:
        raise NotPositiveDefiniteError(
            f"fundamental tensor not positive definite (min eigenvalue {lo[bad[0]]:.3e})")


def metric_operator(fn, dec, y):
    """Metric operator A_y at one vector y as an (n, n) matrix, checked to
    be positive definite."""
    y = np.asarray(y, dtype=float)
    n = int(sum(dec.dims))
    if y.shape != (n,):
        raise DimensionMismatchError(f"expected m-coords vector of length {n}")
    _, comps, theta = block_data(fn, dec, y[None])
    g1, h2 = fn.grad(theta), fn.hess(theta)
    require_positive_definite(dec.dims, g1, h2, theta)
    a = apply_tensor(dec, g1, h2, comps, np.eye(n)[None])[0]
    return 0.5 * (a + a.T)


def f_squared(fn, dec, y):
    """F(y)^2 = L(theta(y)) for one vector y or a stack of rows (N, n), which
    gives (N,); y = 0 gives 0."""
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


@functools.cache
def _simplex_grid(s):
    # step 1/m for the largest m with at most 256 points; stars and bars:
    # each point is the gaps between s - 1 bars among m + s - 1 slots
    m = max((k for k in range(1, 256) if math.comb(k + s - 1, s - 1) <= 256), default=1)
    bars = np.array(list(itertools.combinations(range(m + s - 1), s - 1)), dtype=float)
    grid = (np.diff(bars, axis=1, prepend=-1.0, append=m + s - 1.0) - 1.0) / m
    grid.setflags(write=False)
    return grid


def strong_convexity_check(fn, dims):
    """``fn``, after taking the fundamental-tensor spectrum on one fixed
    barycentric grid of the block-norm simplex, step 1/M for the largest M
    that gives at most 256 points, less the face points ``fn.boundary_ok``
    refuses.

    Raises :class:`NotStronglyConvexError` when the smallest eigenvalue is at
    most 1e-10 times the largest on the grid.  This is a deterministic
    certificate of failure, not a proof of convexity: a dip between grid
    points, or at the limit of a face that is not C^2, goes unseen.
    """
    dec = Decomposition.from_dims(dims)
    dims = dec.dims
    if len(dims) != fn.arity:
        raise DimensionMismatchError(
            f"norm has {fn.arity} blocks but {len(dims)} dims were given")
    theta = _simplex_grid(len(dims))
    theta = theta[np.all((theta > 0.0) | np.array(fn.boundary_ok), axis=1)]
    lo, hi = tensor_spectrum(dims, fn.grad(theta), fn.hess(theta), theta)
    best = int(np.argmin(lo))
    if lo[best] <= 1e-10 * np.max(hi):
        raise NotStronglyConvexError(
            f"fundamental tensor has eigenvalue {lo[best]:.3e} "
            f"at block norms {np.round(theta[best], 6).tolist()}")
    return fn


# ---------------------------------------------------------------------------
# metric grammar


def parse_metric(text, arity=None):
    """Parse ``linear:...``, ``phi:...`` or ``pert3:...`` into an LFunction.

    ``arity`` (when given) must match the block count of the parsed norm.
    The original text is kept as the norm's ``spec_string`` so reports echo
    the user's input.  The coefficients of L (lambda_i and eps, and for
    ``phi`` those of phi^2) must be at most 1e150 in magnitude, and unless
    they are all zero the largest must be at least 1e-150.
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
            val = float(tok)
        except ValueError:
            val = None
        if val is None or not np.isfinite(val):
            raise SpecFormatError(f"bad number {tok.strip()!r} in metric", column=col)
        vals.append(val)
        col += len(tok) + 1
    if kind not in ("linear", "phi", "pert3"):
        raise SpecFormatError(f"unknown metric kind {kind!r}", column=1)
    coeffs = np.array(vals)
    if kind == "phi":
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.polymul(coeffs[::-1], coeffs[::-1])[::-1]
    name = "phi^2 coefficient" if kind == "phi" else "coefficient"
    big = np.flatnonzero(~(np.abs(coeffs) <= _MAX_COEFF))
    if big.size:
        raise SpecFormatError(f"{name} {coeffs[big[0]]:g} exceeds {_MAX_COEFF:g} in magnitude")
    if any(vals) and np.max(np.abs(coeffs)) < _MIN_COEFF:
        raise SpecFormatError(f"{name}s are all below {_MIN_COEFF:g} in magnitude")
    if kind == "linear":
        if len(vals) < 2:
            raise SpecFormatError("linear needs at least two coefficients",
                                  column=len(kind) + 2)
        fn = l_linear(vals)
    elif kind == "phi":
        fn = l_from_phi(PhiProfile(tuple(vals)))
    else:
        if len(vals) != 4:
            raise SpecFormatError("pert3 needs lambda1,lambda2,lambda3,eps",
                                  column=len(kind) + 2)
        fn = l_pert3(vals[:3], vals[3])
    if arity is not None and fn.arity != arity:
        raise SpecFormatError(
            f"metric has {fn.arity} blocks but the space decomposition has {arity}")
    return dataclasses.replace(fn, spec_string=text)
