"""Geodesic-orbit and natural-reductivity decision procedures.

Two independent per-direction residuals drive everything:

* operator route: least-squares solve of [w + u, A_u(u)] = 0 over w in h,
  assembled from the L-gradient and the bracket tables;
* spray route: membership of the spray vector eta(u) in the tangent space
  of the isotropy orbit {[w, u] : w in h}, measured through the metric
  operator (A_u-weighted least squares).

Both are normalized by D(u) = max(|[u, A_u(u)]|, |u|^2), which makes them
equal in exact arithmetic; their numerical discrepancy is itself a check.
Verdicts are sampled certificates: NOT_GO is proved by a witness, GO is
evidence at the sampled tolerance.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import DimensionMismatchError, ZeroVectorError
from .finsler import (PhiProfile, admissible_faces, apply_grad, block_data,
                      fundamental_tensors, l_from_phi,
                      require_positive_definite, spray_rows)
from .homspace import centralizer_in_h, tilde_centralizer

GO = "GO"
NOT_GO = "NOT_GO"
INCONCLUSIVE = "INCONCLUSIVE"
NR = "NR"
NOT_NR = "NOT_NR"

FAIL_FACTOR = 1e3          # a sample this far above tol proves failure


@dataclass
class CheckReport:
    """Outcome of a sampled check; serializable via :meth:`to_dict`."""

    check: str
    verdict: str
    samples: int
    max_residual: float
    tol: float
    seed: int
    witness: dict | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out.update(out.pop("extras"))
        return out


# ---------------------------------------------------------------------------
# sampling plan


def sample_plan(dec, boundary_ok, samples, seed):
    """Deterministic test directions in m-coords, as rows of a (samples, n) array.

    Half the quota is uniform on the unit sphere; the rest are structured
    combinations of per-summand unit vectors over a logarithmic weight grid,
    starting with admissible degenerate patterns (some blocks exactly zero).
    """
    rng = np.random.default_rng(seed)
    n = int(sum(dec.dims))
    s = dec.arity
    out = []

    def unit_in_summand(i):
        v = dec.summands[i].T @ rng.standard_normal(dec.dims[i])
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else v

    n_uniform = samples // 2
    n_struct = samples - n_uniform
    for _ in range(n_uniform):
        v = rng.standard_normal(n)
        out.append(v / np.linalg.norm(v))

    count = 0
    for keep in admissible_faces(boundary_ok):
        if count >= n_struct:
            break
        v = sum(unit_in_summand(i) for i in range(s) if keep[i])
        out.append(v / np.linalg.norm(v))
        count += 1
    grid = np.logspace(-1.5, 1.5, 7) if s == 2 else np.logspace(-1.0, 1.0, 5)
    while count < n_struct:
        parts = [unit_in_summand(i) for i in range(s)]
        for combo in _weight_combos(s, grid):
            if count >= n_struct:
                break
            v = sum(t * p for t, p in zip(combo, parts))
            out.append(v / np.linalg.norm(v))
            count += 1
    return np.array(out)


def _weight_combos(s, grid):
    # first block at weight 1, every other block over the grid
    if s <= 3:
        # last block fastest
        for rest in itertools.product(grid, repeat=s - 1):
            yield (1.0, *map(float, rest))
        return
    # more blocks: lift one block at a time above the lowest weight, then
    # every pair, and so on, so each block is lifted alone early in the plan
    for r in range(s):
        for lifted in itertools.combinations(range(s - 1), r):
            for vals in itertools.product(grid[1:], repeat=r):
                rest = dict(zip(lifted, vals))
                yield (1.0, *(float(rest.get(i, grid[0])) for i in range(s - 1)))


# ---------------------------------------------------------------------------
# the residual engine: every residual takes a stack of directions u (N, n)

CHUNK = 32        # rows per array pass; bounds the (CHUNK, n, n) intermediates and peak memory


def _shared(space, dec, fn, u):
    """(u, comps, theta, g1, A_u(u), [u, A_u(u)]_h, [u, A_u(u)]_m) at rows u."""
    u, comps, theta = block_data(fn, dec, u)
    g1 = fn.grad(theta)
    auu = apply_grad(g1, comps)
    return (u, comps, theta, g1, auu, *space.bracket_mm(u, auu))


def _norm(x):
    return np.linalg.norm(x, axis=-1)


def _scale(sh):
    """D(u) = max(|[u, A_u(u)]|, |u|^2)."""
    u, *_, bh, bm = sh
    return np.maximum(np.hypot(_norm(bh), _norm(bm)), _norm(u) ** 2)


def _operator(space, sh):
    *_, auu, bh, bm = sh
    _, resid = _linalg.lstsq_min_norm(space.hm_columns(auu), -bm)
    return np.hypot(_norm(resid), _norm(bh)) / _scale(sh)


def _spray(space, dec, fn, sh):
    u, comps, theta, g1, auu, _, _ = sh
    a = require_positive_definite(fundamental_tensors(dec, g1, fn.hess(theta), comps))
    rhs, eta = spray_rows(space, a, u, auu)
    _, resid = _linalg.lstsq_min_norm(a @ space.hm_columns(u), (a @ eta[..., None])[..., 0])
    return _norm(resid) / np.maximum(_norm(rhs), _norm(u) ** 2)


def _nr(sh):
    u, *_, auu, bh, bm = sh
    den = _norm(u) * _norm(auu)
    if np.any(den == 0.0):
        raise ZeroVectorError("natural-reductivity residual undefined at zero")
    return np.hypot(_norm(bh), _norm(bm)) / den


def residuals(space, dec, fn, plan, go=True):
    """Residual arrays (operator, spray, nr) over the rows of ``plan`` (N, n).

    Works in chunks of CHUNK rows and computes A_u(u) and [u, A_u(u)] once
    per direction; a single direction u is the plan ``u[None]``.
    ``go=False`` computes only the NR residual, and None for the others.
    """
    parts = ([], [], [])
    for start in range(0, len(plan), CHUNK):
        sh = _shared(space, dec, fn, plan[start:start + CHUNK])
        if go:
            parts[0].append(_operator(space, sh))
            parts[1].append(_spray(space, dec, fn, sh))
        parts[2].append(_nr(sh))
    return tuple(np.concatenate(p) if p else None for p in parts)


def _single(space, dec, fn, u):
    return _shared(space, dec, fn, np.asarray(u, dtype=float)[None])


# ---------------------------------------------------------------------------
# sampled verdicts


def _band(worst, proof, tol, yes, no):
    # yes when the worst sample passes; no when some proof sample fails by FAIL_FACTOR
    return yes if worst <= tol else no if proof > FAIL_FACTOR * tol else INCONCLUSIVE


def _nr_report(plan, res, tol, seed):
    worst = int(np.argmax(res))
    witness = {"index": worst, "u": [float(x) for x in plan[worst]],
               "residual": float(res[worst])}
    return CheckReport(check="nr", verdict=_band(res[worst], res[worst], tol, NR, NOT_NR),
                       samples=len(plan), max_residual=float(res[worst]), tol=tol,
                       seed=seed, witness=witness)


def go_verdict(space, dec, fn, samples=200, seed=42, tol=1e-8):
    """Sampled geodesic-orbit verdict under both criteria.

    GO: every sample passes both criteria at ``tol``.  NOT_GO: some sample
    fails both by a factor of 1e3.  Anything else is INCONCLUSIVE.  The
    report records the worst sample as witness and flags any sample where
    the two criteria disagree at those thresholds.
    """
    return verdicts(space, dec, fn, samples=samples, seed=seed, tol=tol)[0]


def nr_check(space, dec, fn, samples=200, seed=42, tol=1e-8):
    """Sampled natural-reductivity verdict: NR iff every residual is <= tol,
    NOT_NR when some residual exceeds 1e3 * tol, INCONCLUSIVE otherwise."""
    plan = sample_plan(dec, fn.boundary_ok, samples, seed)
    return _nr_report(plan, residuals(space, dec, fn, plan, go=False)[2], tol, seed)


def verdicts(space, dec, fn, samples=200, seed=42, tol=1e-8):
    """(go_verdict, nr_check) reports from one sample plan and one engine pass."""
    plan = sample_plan(dec, fn.boundary_ok, samples, seed)
    r_op, r_sp, r_nr = residuals(space, dec, fn, plan)
    lo, hi = np.minimum(r_op, r_sp), np.maximum(r_op, r_sp)
    worst = int(np.argmax(hi))
    witness = {"index": worst, "u": [float(x) for x in plan[worst]],
               "operator_residual": float(r_op[worst]),
               "spray_residual": float(r_sp[worst])}
    # NOT_GO needs one sample that fails both criteria
    go = CheckReport(
        check="go", verdict=_band(hi[worst], np.max(lo), tol, GO, NOT_GO),
        samples=len(plan), max_residual=float(hi[worst]), tol=tol, seed=seed,
        witness=witness, extras={
            "max_residual_operator": float(np.max(r_op)),
            "max_residual_spray": float(np.max(r_sp)),
            "max_criteria_gap": float(np.max(np.abs(r_op - r_sp))),
            "criteria_disagree": bool(np.any((lo <= tol) & (hi > FAIL_FACTOR * tol))),
        })
    return go, _nr_report(plan, r_nr, tol, seed)


# ---------------------------------------------------------------------------
# structure-specific replays


def two_summand_phi_check(space, dec, phi, u1, u2):
    """Two-summand geodesic-orbit equation assembled from the profile itself.

    For u = u1 + u2 with u_i in the i-th summand, solves the coefficient form
    ``-(phi'/t)[u1,u2]_m = (phi - t phi')[w,u1] + (phi - (t-1/t) phi')[w,u2]``
    with t = |u2|/|u|, adds the w-independent h-part of the cross bracket,
    and rescales by phi(t) onto the operator-criterion scale, so the result
    agrees with the operator residual of :func:`residuals` to machine precision.
    """
    if dec.arity != 2:
        raise DimensionMismatchError("phi-form check needs a two-summand splitting")
    if not isinstance(phi, PhiProfile):
        phi = PhiProfile(tuple(phi))
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    u = u1 + u2
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        raise ZeroVectorError("phi-form check undefined at zero")
    t = float(np.linalg.norm(u2) / nrm)
    if t == 0.0:
        raise ZeroVectorError("phi-form check needs a nonzero second component")
    pv = float(phi.value(t))
    pd = float(phi.d1(t))
    c1 = pv - t * pd
    c2 = pv - (t - 1.0 / t) * pd
    bh, bm = space.bracket_mm(u1, u2)
    cols = c1 * space.hm_columns(u1) + c2 * space.hm_columns(u2)
    _, resid_vec = _linalg.lstsq_min_norm(cols, -(pd / t) * bm)
    num = np.hypot(pv * float(np.linalg.norm(resid_vec)),
                   pv * (pd / t) * float(np.linalg.norm(bh)))
    return float(num) / float(_scale(_single(space, dec, l_from_phi(phi, check=False), u))[0])


def wallach_system_check(space, dec, fn, u):
    """Blockwise three-summand geodesic-orbit system; returns per-block residuals.

    Solves the joint least squares over w of
    ``L_i [w, u_i] + (L_k - L_j) [u_j, u_k] = 0`` projected to each summand
    (indices j < k complementary to i) and splits the optimal residual by
    block, all on the shared scale D(u).  The stacked norm of the returned
    triple agrees with the operator-criterion residual.
    """
    if dec.arity != 3:
        raise DimensionMismatchError("three-block system needs a three-summand splitting")
    sh = _single(space, dec, fn, u)
    _, comps, _, g1, *_ = (x[0] for x in sh)
    pieces, rhs = [], []
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        p = dec.summands[i]
        pieces.append(g1[i] * (p @ space.hm_columns(comps[i])))
        rhs.append(-(g1[k] - g1[j]) * (p @ space.bracket_mm(comps[j], comps[k])[1]))
    _, resid = _linalg.lstsq_min_norm(np.vstack(pieces), np.concatenate(rhs))
    blocks = np.split(resid, np.cumsum(dec.dims)[:-1])
    return np.array([np.linalg.norm(b) for b in blocks]) / _scale(sh)[0]


def centralizer_condition_check(space, dec, x, y, tol=1e-8):
    """Feasibility and uniqueness of the two-block centralizer equation.

    Looks for z_x in C~(x+y) centralizing x and z_y in C~(x+y) centralizing
    y with [x, y] = [z_y, x] + [z_x, y].  Returns a dict with feasibility,
    uniqueness (trivial kernel of the stacked column map), the relative
    residual, and the minimizers.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = x + y
    tilde = (tilde_centralizer(space, u) if np.linalg.norm(u) > 0
             else np.eye(space.dim_h))
    cx = centralizer_in_h(space, x) if np.linalg.norm(x) > 0 else np.eye(space.dim_h)
    cy = centralizer_in_h(space, y) if np.linalg.norm(y) > 0 else np.eye(space.dim_h)
    sx = _linalg.subspace_intersection(tilde, cx)
    sy = _linalg.subspace_intersection(tilde, cy)
    _, target = space.bracket_mm(x, y)
    mat = np.hstack([space.hm_columns(x) @ sy.T, space.hm_columns(y) @ sx.T])
    coef, resid_vec = _linalg.lstsq_min_norm(mat, target)
    scale = max(float(np.linalg.norm(target)),
                float(np.linalg.norm(x) * np.linalg.norm(y)), _linalg.EPS)
    residual = float(np.linalg.norm(resid_vec)) / scale
    if mat.shape[1]:
        rank = _linalg.svd_rank(np.linalg.svd(mat, compute_uv=False), mat.shape)
        unique = bool(rank == mat.shape[1])
    else:
        unique = True
    n_sy = sy.shape[0]
    z_y = coef[:n_sy] @ sy if n_sy else np.zeros(space.dim_h)
    z_x = coef[n_sy:] @ sx if sx.shape[0] else np.zeros(space.dim_h)
    return {
        "feasible": bool(residual <= tol),
        "unique": unique,
        "residual": residual,
        "z_x": z_x,
        "z_y": z_y,
    }
