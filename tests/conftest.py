"""Shared oracles for the test suite: finite differences and the dense
fundamental tensor, plus the listed catalog ids by tag.

The oracles are deliberately independent of the package's own derivative
and block-form tensor code: central differences with curvature-appropriate
step sizes, the tensor summed entry by entry from its defining formula, and
an exact Sturm-count test of profile admissibility in rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from gospace import catalog


def listed_ids(*tags):
    """Listed catalog ids, in listing order, whose static tags include every
    one of ``tags``.  The tags are read from the catalog's tables, so
    collecting a test module builds no space and one broken builder fails
    only its own cases; the derived ``equivalent-summands`` tag is not
    among them."""
    return [rid for rid in catalog._LISTED
            if set(tags) <= set(_static_tags(rid))]


def raises_exactly(exc, message, func, *args):
    """func(*args) raises exc with exactly this message."""
    with pytest.raises(exc) as info:
        func(*args)
    assert str(info.value) == message


def listed_arity(rid):
    """Number of summands of a listed id, from its static tags."""
    return 2 if "two-summand" in _static_tags(rid) else 3


def _static_tags(rid):
    family = rid.partition("/")[0]
    return (catalog._FIXED[rid] if rid in catalog._FIXED else catalog._FAMILIES[family])[2]


def fd_gradient(f, x, eps=None):
    x = np.asarray(x, dtype=float)
    if eps is None:
        eps = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, float(np.linalg.norm(x)))
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        out[i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return out


def fd_hessian(f, x, eps=None):
    x = np.asarray(x, dtype=float)
    if eps is None:
        eps = np.finfo(float).eps ** 0.25 * max(1.0, float(np.linalg.norm(x)))
    n = x.size
    out = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = eps
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / eps ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = eps
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * eps ** 2)
    return out


def ref_tensor(fn, dec, u):
    """Dense fundamental tensor (n, n) at one vector u: the L-gradient on
    each summand plus the L-Hessian couplings of the block components."""
    comps, theta = dec.split(u), dec.theta(u)
    g1, h2 = fn.grad(theta), fn.hess(theta)
    out = np.zeros((u.size, u.size))
    for a, s in enumerate(dec.summands):
        out += g1[a] * (s.T @ s)
    for a in range(dec.arity):
        for b in range(dec.arity):
            out += 2.0 * h2[a, b] * np.outer(comps[a], comps[b])
    return 0.5 * (out + out.T)


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _at(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _poly_sum(*terms):
    """sum of coeff * t^shift * p over (coeff, shift, p), lowest degree first."""
    out = [Fraction(0)] * max(shift + len(p) for _, shift, p in terms)
    for coeff, shift, p in terms:
        for i, v in enumerate(p):
            out[shift + i] += coeff * v
    return _trim(out)


def _positive_on_unit_interval(p):
    """p > 0 on [0, 1]: positive at both ends and, by Sturm's theorem, no
    root in between."""
    if not p or _at(p, 0) <= 0 or _at(p, 1) <= 0:
        return False
    seq = [p, _trim([k * c for k, c in enumerate(p)][1:])]
    while len(seq[-1]) > 1:
        rem = list(seq[-2])
        while len(rem) >= len(seq[-1]):
            q = rem[-1] / seq[-1][-1]
            for i, c in enumerate(seq[-1]):
                rem[len(rem) - len(seq[-1]) + i] -= q * c
            rem = _trim(rem[:-1])
        seq.append([-c for c in rem])

    def changes(x):
        signs = [v > 0 for q in seq if q for v in [_at(q, x)] if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(0) == changes(1)


def exact_profile_accepts(coeffs):
    """Whether the phi profile (lowest degree first) gives a strongly convex
    norm, exactly, from its float coefficients as binary rationals: phi,
    P1 = phi - t phi', P2 = t phi + (1 - t^2) phi' (P2/t when phi'(0) = 0,
    with phi'(0) < 0 refused) and P3 = phi - t phi' + (1 - t^2) phi'' all
    positive on [0, 1], except that P3(0) = 0 is accepted."""
    c = _trim([Fraction(v) for v in coeffs])
    d = _trim([k * v for k, v in enumerate(c)][1:])
    d2 = _trim([k * v for k, v in enumerate(d)][1:])
    if not c or (d and d[0] < 0):
        return False
    p1 = _poly_sum((1, 0, c), (-1, 1, d))
    p2 = _poly_sum((1, 1, c), (1, 0, d), (-1, 2, d))
    p3 = _poly_sum((1, 0, c), (-1, 1, d), (1, 0, d2), (-1, 2, d2))
    if not (d and d[0]):
        p2 = p2[1:]
    while p3 and p3[0] == 0:
        p3 = p3[1:]
    return all(_positive_on_unit_interval(p) for p in (c, p1, p2, p3))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
