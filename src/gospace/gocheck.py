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

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import DimensionMismatchError, ZeroVectorError
from .finsler import (PhiProfile, a_u_of_u, l_from_phi, l_linear,
                      metric_operator)
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
        out = {
            "check": self.check,
            "verdict": self.verdict,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "seed": self.seed,
            "witness": self.witness,
        }
        out.update(self.extras)
        return out


# ---------------------------------------------------------------------------
# sampling plan


def sample_plan(dec, boundary_ok, samples, seed):
    """Deterministic list of test directions in m-coords.

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

    patterns = []
    for mask in range(1, 2 ** s - 1):
        keep = tuple(bool(mask >> i & 1) for i in range(s))
        if all(boundary_ok[i] for i in range(s) if not keep[i]):
            patterns.append(keep)
    weight_grids = [np.logspace(-1.5, 1.5, 7), np.logspace(-1.0, 1.0, 5)]

    n_uniform = samples // 2
    n_struct = samples - n_uniform
    for _ in range(n_uniform):
        v = rng.standard_normal(n)
        out.append(v / np.linalg.norm(v))

    count = 0
    for keep in patterns:
        if count >= n_struct:
            break
        v = sum(unit_in_summand(i) for i in range(s) if keep[i])
        out.append(v / np.linalg.norm(v))
        count += 1
    grid = weight_grids[0] if s == 2 else weight_grids[1]
    while count < n_struct:
        parts = [unit_in_summand(i) for i in range(s)]
        for combo in _weight_combos(s, grid):
            if count >= n_struct:
                break
            v = sum(t * p for t, p in zip(combo, parts))
            out.append(v / np.linalg.norm(v))
            count += 1
    return out


def _weight_combos(s, grid):
    # first block at weight 1, every other block over the grid, last fastest
    for rest in itertools.product(grid, repeat=s - 1):
        yield (1.0, *map(float, rest))


# ---------------------------------------------------------------------------
# per-direction residuals


def nr_residual(space, dec, fn, u):
    """|[u, A_u(u)]| / (|u| |A_u(u)|), using the full bracket (h and m parts)."""
    u = np.asarray(u, dtype=float)
    auu = a_u_of_u(fn, dec, u)
    bh, bm = space.bracket_mm(u, auu)
    num = float(np.sqrt(bh @ bh + bm @ bm))
    den = float(np.linalg.norm(u) * np.linalg.norm(auu))
    if den == 0.0:
        raise ZeroVectorError("natural-reductivity residual undefined at zero")
    return num / den


def _operator_ls(space, dec, fn, u):
    """Least squares for [w + u, A_u(u)] = 0; returns (residual, w, scale D)."""
    u = np.asarray(u, dtype=float)
    auu = a_u_of_u(fn, dec, u)
    bh, bm = space.bracket_mm(u, auu)
    cols = space.hm_columns(auu)                     # column j = [h_j, A_u(u)]_m
    w, resid_m = _linalg.lstsq_min_norm(cols, -bm)
    resid = float(np.sqrt(resid_m @ resid_m + bh @ bh))
    d = max(float(np.sqrt(bm @ bm + bh @ bh)), float(u @ u))
    return resid / d, w, d


def go_residual_operator(space, dec, fn, u):
    """Normalized least-squares residual of the operator criterion at u."""
    return _operator_ls(space, dec, fn, u)[0]


def go_check_operator(space, dec, fn, u, tol=1e-8):
    """(residual, minimizer w) for the operator criterion; w is None above tol."""
    resid, w, _ = _operator_ls(space, dec, fn, u)
    return resid, (w if resid <= tol else None)


def go_check_spray(space, dec, fn, u, tol=1e-8):
    """Spray-route residual: distance of eta(u) from span{[w, u]} in the
    metric-operator norm, on the shared scale D(u)."""
    u = np.asarray(u, dtype=float)
    a = metric_operator(fn, dec, u)
    auu = a_u_of_u(fn, dec, u)
    wt = np.einsum("ibk,b,k->i", space.bracket_mm_m, u, auu)
    eta = np.linalg.solve(a, wt)
    cols = space.hm_columns(u)                       # column j = [h_j, u]_m
    acols = a @ cols
    _, resid_vec = _linalg.lstsq_min_norm(acols, a @ eta)
    d = max(float(np.linalg.norm(wt)), float(u @ u))
    return float(np.linalg.norm(resid_vec)) / d


# ---------------------------------------------------------------------------
# sampled verdicts


def _map_indexed(fn, items, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def go_verdict(space, dec, fn, samples=200, seed=42, tol=1e-8, threads=1):
    """Sampled geodesic-orbit verdict under both criteria.

    GO: every sample passes both criteria at ``tol``.  NOT_GO: some sample
    fails both by a factor of 1e3.  Anything else is INCONCLUSIVE.  The
    report records the worst sample as witness and flags any sample where
    the two criteria disagree at those thresholds.
    """
    plan = sample_plan(dec, fn.boundary_ok, samples, seed)

    def one(u):
        return (go_residual_operator(space, dec, fn, u),
                go_check_spray(space, dec, fn, u))

    pairs = _map_indexed(one, plan, threads)
    r_op = np.array([p[0] for p in pairs])
    r_sp = np.array([p[1] for p in pairs])
    worst = int(np.argmax(np.maximum(r_op, r_sp)))
    disagree = bool(np.any(((r_op <= tol) & (r_sp > FAIL_FACTOR * tol))
                           | ((r_sp <= tol) & (r_op > FAIL_FACTOR * tol))))
    if np.all(r_op <= tol) and np.all(r_sp <= tol):
        verdict = GO
    elif np.any((r_op > FAIL_FACTOR * tol) & (r_sp > FAIL_FACTOR * tol)):
        verdict = NOT_GO
    else:
        verdict = INCONCLUSIVE
    witness = {
        "index": worst,
        "u": [float(x) for x in plan[worst]],
        "operator_residual": float(r_op[worst]),
        "spray_residual": float(r_sp[worst]),
    }
    return CheckReport(
        check="go", verdict=verdict, samples=len(plan),
        max_residual=float(max(r_op[worst], r_sp[worst])), tol=tol, seed=seed,
        witness=witness,
        extras={
            "max_residual_operator": float(np.max(r_op)),
            "max_residual_spray": float(np.max(r_sp)),
            "max_criteria_gap": float(np.max(np.abs(r_op - r_sp))),
            "criteria_disagree": disagree,
        })


def nr_check(space, dec, fn, samples=200, seed=42, tol=1e-8, threads=1):
    """Sampled natural-reductivity verdict: NR iff every residual is <= tol."""
    plan = sample_plan(dec, fn.boundary_ok, samples, seed)
    res = np.array(_map_indexed(lambda u: nr_residual(space, dec, fn, u),
                                plan, threads))
    worst = int(np.argmax(res))
    verdict = NR if res[worst] <= tol else NOT_NR
    witness = {"index": worst, "u": [float(x) for x in plan[worst]],
               "residual": float(res[worst])}
    return CheckReport(check="nr", verdict=verdict, samples=len(plan),
                       max_residual=float(res[worst]), tol=tol, seed=seed,
                       witness=witness)


def riemann_two_param_check(space, dec, lam, mu, samples=200, seed=42,
                            tol=1e-8, threads=1):
    """go_verdict for the diagonal two-block Riemannian metric (lam, mu)."""
    if dec.arity != 2:
        raise DimensionMismatchError("two-parameter check needs a two-summand splitting")
    fn = l_linear([float(lam), float(mu)])
    rep = go_verdict(space, dec, fn, samples=samples, seed=seed, tol=tol,
                     threads=threads)
    rep.extras["lambda"] = float(lam)
    rep.extras["mu"] = float(mu)
    return rep


# ---------------------------------------------------------------------------
# structure-specific replays


def two_summand_phi_check(space, dec, phi, u1, u2):
    """Two-summand geodesic-orbit equation assembled from the profile itself.

    For u = u1 + u2 with u_i in the i-th summand, solves the coefficient form
    ``-(phi'/t)[u1,u2]_m = (phi - t phi')[w,u1] + (phi - (t-1/t) phi')[w,u2]``
    with t = |u2|/|u|, adds the w-independent h-part of the cross bracket,
    and rescales by phi(t) onto the operator-criterion scale, so the result
    agrees with :func:`go_residual_operator` to machine precision.
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
    auu = a_u_of_u(l_from_phi(phi, check=False), dec, u)
    ch, cm = space.bracket_mm(u, auu)
    d = max(float(np.sqrt(ch @ ch + cm @ cm)), nrm ** 2)
    return float(num) / d


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
    u = np.asarray(u, dtype=float)
    comps = dec.split(u)
    theta = dec.theta(u)
    g1 = fn.grad(theta)
    pieces = []
    rhs_pieces = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        p = dec.summands[i]
        cols_i = p @ space.hm_columns(comps[i])
        _, cross = space.bracket_mm(comps[j], comps[k])
        pieces.append(g1[i] * cols_i)
        rhs_pieces.append(-(g1[k] - g1[j]) * (p @ cross))
    stacked = np.vstack(pieces)
    rhs = np.concatenate(rhs_pieces)
    _, resid_vec = _linalg.lstsq_min_norm(stacked, rhs)
    auu = a_u_of_u(fn, dec, u)
    bh, bm = space.bracket_mm(u, auu)
    d = max(float(np.sqrt(bm @ bm + bh @ bh)), float(u @ u))
    out = []
    off = 0
    for i in range(3):
        ni = dec.dims[i]
        out.append(float(np.linalg.norm(resid_vec[off:off + ni])) / d)
        off += ni
    return np.array(out)


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
    cols = []
    for row in sy:
        cols.append(space.bracket_hm_vec(row, x))
    for row in sx:
        cols.append(space.bracket_hm_vec(row, y))
    mat = np.array(cols).T if cols else np.zeros((space.dim_m, 0))
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
