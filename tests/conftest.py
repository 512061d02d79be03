"""Shared oracles for the test suite: finite differences and the dense
fundamental tensor, plus the listed catalog ids by tag.

The oracles are deliberately independent of the package's own derivative
and block-form tensor code: central differences with curvature-appropriate
step sizes, and the tensor summed entry by entry from its defining formula.
"""

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
