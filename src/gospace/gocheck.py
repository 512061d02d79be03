"""Geodesic-orbit and natural-reductivity decision procedures.

Every GO residual is one projection per direction and metric: the part of
[u, A_u(u)]_m off the span of the columns [h_j, A_u(u)]_m.  Each summand
is ad(h)-invariant, so [w, A_u(u)] = D [w, u] with D = sum_i dL/dtheta_i P_i,
and the equivariance A_u [w, u] = [w, A_u(u)] puts A_u [h, u] in the same
span.  That one projection fills both GO fields of a report: the operator
residual of [w + u, A_u(u)] = 0 over w in h (Kowalski-Vanhecke) adds the
h-part [u, A_u(u)]_h, which vanishes by ad-invariance of Q, and the spray
residual min_w |A_u [w, u] - [u, A_u(u)]_m| (Latifi) is the projection
alone.  Every GO and NR residual is divided by the one scale
D(u) = |u| |A_u(u)|, of degree 2 in u and 1 in L like each numerator, so
scaling u or L moves none.  The projection comes from three solves of the
ridged dim_h x dim_h normal equations, whose w is always feasible: a
residual can only overstate the least-squares minimum.  The metrics of one
call share the block data of its rows and take one pass each.  The
independent check, :func:`latifi_residuals`, evaluates Latifi's lemma from
the structure constants and values of L alone by an SVD least squares; the
``crossval`` suite compares against it.  Verdicts are sampled certificates:
NOT_GO is proved by a witness, GO is evidence at the sampled tolerance.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import DimensionMismatchError, NotPositiveDefiniteError, ZeroVectorError
from .finsler import (PhiProfile, admissible_faces, apply_grad, block_data,
                      require_positive_definite)
from .homspace import centralizer_in_h, tilde_centralizer

GO = "GO"
NOT_GO = "NOT_GO"
INCONCLUSIVE = "INCONCLUSIVE"
NR = "NR"
NOT_NR = "NOT_NR"

FAIL_FACTOR = 1e3          # a sample this far above tol proves failure
DEFAULT_TOL = 1e-8         # the sampled checks' defaults, shared by suites and cli
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42


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
    The random stream is drawn in that order: the uniform rows, then each
    pattern's kept blocks, then one draw of every block per round of the grid.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise DimensionMismatchError(f"sample count must be an integer, got {samples}")
    if samples < 0:
        raise DimensionMismatchError(f"sample count must be non-negative, got {samples}")
    rng = np.random.default_rng(seed)
    n = int(sum(dec.dims))
    s = dec.arity
    n_uniform = samples // 2
    n_struct = samples - n_uniform
    plan = np.zeros((samples, n))
    rng.standard_normal(out=plan[:n_uniform])

    faces = np.array(admissible_faces(boundary_ok)[:n_struct], dtype=bool).reshape(-1, s)
    kept = np.repeat(faces, dec.dims, axis=1)
    z = np.zeros(kept.shape)
    z[kept] = rng.standard_normal(np.count_nonzero(kept))   # row-major: kept blocks in order
    start = n_uniform + len(faces)          # first weighted row
    plan[n_uniform:start] = _block_units(dec, z).sum(axis=1)

    if start < samples:
        grid = np.logspace(-1.5, 1.5, 7) if s == 2 else np.logspace(-1.0, 1.0, 5)
        combos = np.array(list(itertools.islice(_weight_combos(s, grid), samples - start)))
        rnd, k = np.divmod(np.arange(samples - start), len(combos))
        parts = _block_units(dec, rng.standard_normal((rnd[-1] + 1, n)))
        for i in range(s):
            term = parts[rnd, i]
            term *= combos[k, i, None]
            plan[start:] += term

    plan /= np.sqrt(np.einsum("ij,ij->i", plan, plan))[:, None]
    return plan


def _block_units(dec, z):
    """Per-summand unit vectors (N, s, n) in m-coords from summand coords z (N, n);
    a block of z that is all zero gives a zero vector."""
    blocks = np.split(z, np.cumsum(dec.dims)[:-1], axis=1)
    v = np.stack([b @ p for b, p in zip(blocks, dec.summands)], axis=1)
    nv = np.linalg.norm(v, axis=2, keepdims=True)
    return np.divide(v, nv, out=np.zeros_like(v), where=nv > 0)


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

BUDGET = 2 ** 17  # floats (1 MiB) per (rows, n, max(n, dim_h)) array; sets the rows per array pass


def _scaled(fn, u, comps, theta):
    """(g1, A_u(u), D(u) = |u| |A_u(u)|) at rows u with their block data."""
    g1 = fn.grad(theta)
    auu = apply_grad(g1, comps)
    scale = _norm(u) * _norm(auu)
    if np.any(scale == 0.0):
        raise ZeroVectorError("residual scale |u| |A_u(u)| vanishes")
    return g1, auu, scale


def _norm(x):
    return np.sqrt(np.add.reduce(x * x, axis=-1))   # np.linalg.norm(x, axis=-1), x real


# _off_orbit solves the normal equations of its columns a with a ridge,
# (a^T a + delta I) w = a^T r with delta = _RIDGE tr(a^T a) per row, and
# refines w against the exact residual r = b - a w.  Every w is a feasible
# point of min_w |b - a w|, so the residual can only overstate the least-
# squares minimum: the solve never makes a false GO.  A singular value
# sigma of a is resolved by a factor delta / (sigma^2 + delta) per solve,
# which makes the ridge a cutoff near 1e-6 of the largest one.  On 200-row
# plans of the listed entries under their batteries (seeds 1-10) the
# smallest nonzero singular value of the columns is at least 1.2e-3 of the
# largest and the zero ones at most 1.0e-15 of it, so each solve gains five
# digits or more and three reach rounding level.  A direction within about
# 1e-5 of a face can have columns below the cutoff, and its GO residuals
# may then overstate by the order of that distance.
_RIDGE = 1e-12
_SOLVES = 3


def _off_orbit(a, b):
    """The part of b (N, n) off the column space of a (N, n, k), from
    _SOLVES solves of the ridged k x k normal equations per row; a row whose
    columns are all zero keeps all of b."""
    at = a.swapaxes(1, 2)
    gram = at @ a
    trace = np.trace(gram, axis1=1, axis2=2)
    diag = np.arange(gram.shape[-1])
    gram[:, diag, diag] += np.where(trace > 0.0, _RIDGE * trace, 1.0)[:, None]
    w = np.zeros(gram.shape[:2])
    off = b
    for _ in range(_SOLVES):
        w += np.linalg.solve(gram, at @ off[..., None])[..., 0]
        off = b - (a @ w[..., None])[..., 0]
    return off


def _metric_residuals(space, dec, fn, u, comps, theta):
    """(operator, spray, nr) residuals of one metric at rows u with their block
    data.  Once A_u is positive definite on every row, the GO fields project
    [u, A_u(u)]_m off the columns [h_j, A_u(u) / max_i dL/dtheta_i]_m."""
    g1, auu, scale = _scaled(fn, u, comps, theta)
    bh, bm = space.bracket_mm(u, auu)
    require_positive_definite(dec.dims, g1, fn.hess(theta), theta)
    cols = space.hm_columns(auu / np.max(g1, axis=1, keepdims=True))
    off = _norm(_off_orbit(cols, bm))
    bh = _norm(bh)
    return np.hypot(off, bh) / scale, off / scale, np.hypot(bh, _norm(bm)) / scale


def residuals(space, dec, fns, plan):
    """One triple of residual arrays (operator, spray, nr) over the rows of
    ``plan`` (N, n) per metric of the sequence ``fns``.

    Works in chunks of max(1, BUDGET // (n * max(n, dim_h))) rows, n = dim m,
    so every plan of a few hundred directions is one array pass and a long
    plan runs in bounded memory.  Each chunk splits its rows into blocks once
    per boundary pattern, then takes one pass per metric, whose three
    dim_h x dim_h solves, no SVD or QR, give both GO fields.  Errors come
    metric by metric, rows then D(u); a non-positive-definite A_u only after
    every metric of the chunk passed those.  One direction u is ``u[None]``.
    """
    fns = tuple(fns)
    rows = max(1, BUDGET // max(space.dim_m * max(space.dim_m, space.dim_h), 1))
    parts = [[] for _ in fns]
    for start in range(0, max(len(plan), 1), rows):
        chunk = plan[start:start + rows]
        blocks, indefinite = {}, None
        for fn, part in zip(fns, parts):
            if fn.boundary_ok not in blocks:
                blocks[fn.boundary_ok] = block_data(fn, dec, chunk)
            try:
                part.append(_metric_residuals(space, dec, fn, *blocks[fn.boundary_ok]))
            except NotPositiveDefiniteError as err:
                indefinite = indefinite or err
        if indefinite:
            raise indefinite
    return [tuple(map(np.concatenate, zip(*part))) for part in parts]


def latifi_residuals(space, dec, fn, plan):
    """GO residuals from Latifi's lemma, an oracle for :func:`residuals`.

    u is a geodesic vector iff some w in h gives g_u(u, [u + w, z]_m) = 0 for
    every z in m.  With gamma = grad(F^2/2)(u), g_u(u, .) = <gamma, .>, and
    ad-invariance of Q turns that into [u, gamma]_m + [w, gamma]_m = 0.
    For each row u of ``plan`` (N, n), gamma_k = Im F^2(u + i h e_k) / 2h,
    the complex step of ``fn.value`` over ``dec.theta`` at h = 1e-30;
    the brackets come from the structure constants of g, lifted by
    ``space.m_basis`` and ``space.h_basis`` and projected back through
    ``g.q_form``; w from one batched least squares.  The residual
    |[u + w, gamma]_m| is divided by D(u) = |u| |gamma|, as gamma = A_u(u).
    It uses neither the derivatives of L nor the bracket tables, and the
    complex step has no subtraction, so it is accurate to rounding.
    """
    plan = np.asarray(plan, dtype=float)
    g = space.g
    n = space.dim_m
    if plan.ndim != 2 or plan.shape[1] != n:
        raise DimensionMismatchError(
            f"expected a stack of m-coords rows (N, {n}), got {plan.shape}")
    h = 1e-30
    f = fn.value(dec.theta((plan[:, None] + 1j * h * np.eye(n)).reshape(-1, n)))
    gamma = (f.imag / (2.0 * h)).reshape(len(plan), n)
    ad = np.tensordot(gamma @ space.m_basis, g.structure, axes=(1, 1))   # row p: [e_p, gamma]
    b = np.einsum("np,npk->nk", plan @ space.m_basis, ad)               # [u, gamma]
    to_m = g.q_form @ space.m_basis.T
    cols = (space.h_basis @ ad @ to_m).transpose(0, 2, 1)              # [h_j, gamma]_m
    _, resid, _ = _linalg.lstsq_stack(cols, -(b @ to_m), space.dim_h)
    return _norm(resid) / (_norm(plan) * _norm(gamma))


# ---------------------------------------------------------------------------
# sampled verdicts


def _band(worst, proof, tol, yes, no):
    # yes when the worst sample passes; no when some proof sample fails by FAIL_FACTOR
    return yes if worst <= tol else no if proof > FAIL_FACTOR * tol else INCONCLUSIVE


def go_verdict(space, dec, fn, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Sampled geodesic-orbit verdict from the one GO projection.

    GO: every operator residual is at most ``tol``.  NOT_GO: some spray
    residual, the operator residual without its vanishing h-part, exceeds
    1e3 * tol.  Anything else is INCONCLUSIVE.  The report records the worst
    sample as witness, with both GO fields, and the largest spray residual
    and gap between the two fields.
    """
    return verdicts(space, dec, fn, samples=samples, seed=seed, tol=tol)[0]


def nr_check(space, dec, fn, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Sampled natural-reductivity verdict: NR iff every residual is <= tol,
    NOT_NR when some residual exceeds 1e3 * tol, INCONCLUSIVE otherwise."""
    return verdicts(space, dec, fn, samples=samples, seed=seed, tol=tol)[1]


def verdicts(space, dec, fn, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """(go_verdict, nr_check) reports from one sample plan and one engine pass."""
    plan = sample_plan(dec, fn.boundary_ok, samples, seed)
    return reports(plan, residuals(space, dec, (fn,), plan)[0], tol, seed)


def reports(plan, residuals, tol, seed):
    """(go, nr) CheckReports from a plan (N, n) and its residual arrays
    (operator, spray, nr), one metric's triple from :func:`residuals`, in
    which no spray residual exceeds its operator residual.

    The verdict rules live here: the bands and the worst-sample witnesses.
    ``seed`` is only recorded.
    """
    if len(plan) == 0:
        raise DimensionMismatchError("a verdict needs at least one sample, got an empty plan")
    r_op, r_sp, r_nr = residuals
    worst = int(np.argmax(r_op))
    witness = {"index": worst, "u": [float(x) for x in plan[worst]],
               "operator_residual": float(r_op[worst]),
               "spray_residual": float(r_sp[worst])}
    # the spray residual never exceeds the operator's, so NOT_GO needs one
    # sample whose spray residual fails
    go = CheckReport(
        check="go", verdict=_band(r_op[worst], np.max(r_sp), tol, GO, NOT_GO),
        samples=len(plan), max_residual=float(r_op[worst]), tol=tol, seed=seed,
        witness=witness, extras={"max_residual_spray": float(np.max(r_sp)),
                                 "max_criteria_gap": float(np.max(r_op - r_sp))})
    k = int(np.argmax(r_nr))
    nr = CheckReport(check="nr", verdict=_band(r_nr[k], r_nr[k], tol, NR, NOT_NR),
                     samples=len(plan), max_residual=float(r_nr[k]), tol=tol, seed=seed,
                     witness={"index": k, "u": [float(x) for x in plan[k]],
                              "residual": float(r_nr[k])})
    return go, nr


# ---------------------------------------------------------------------------
# structure-specific replays


def two_summand_phi_check(space, dec, phi, u1, u2):
    """Two-summand geodesic-orbit equation assembled from the profile itself.

    For rows u = u1 + u2 of two stacks (N, dim_m), u_i in the i-th summand,
    solves the coefficient form
    ``-(phi'/t)[u1,u2]_m = (phi - t phi')[w,u1] + (phi - (t-1/t) phi')[w,u2]``
    with t = |u2|/|u| by one batched least squares, adds the w-independent
    h-part of the cross bracket, and divides by D(u) / phi(t) =
    |u| |c1 u1 + c2 u2|, as A_u(u) = phi(t) (c1 u1 + c2 u2) with c1, c2 the
    two coefficients above.  The residuals (N,) agree with the operator
    residuals of :func:`residuals` to machine precision.
    """
    if dec.arity != 2:
        raise DimensionMismatchError("phi-form check needs a two-summand splitting")
    if not isinstance(phi, PhiProfile):
        phi = PhiProfile(tuple(phi))
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    n = space.dim_m
    if u1.shape != u2.shape or u1.shape[1:] != (n,):
        raise DimensionMismatchError(f"u1 and u2 must be stacks of the same shape (N, {n}), "
                                     f"got {u1.shape} and {u2.shape}")
    u = u1 + u2
    nrm = _norm(u)
    if np.any(nrm == 0.0):
        raise ZeroVectorError("phi-form check undefined at zero")
    t = _norm(u2) / nrm
    if np.any(t == 0.0):
        raise ZeroVectorError("phi-form check needs a nonzero second component")
    pv = phi.value(t)
    pd = phi.d1(t)
    c1 = pv - t * pd
    c2 = pv - (t - 1.0 / t) * pd
    bh, bm = space.bracket_mm(u1, u2)
    cols = (c1[:, None, None] * space.hm_columns(u1)
            + c2[:, None, None] * space.hm_columns(u2))
    _, resid, _ = _linalg.lstsq_stack(cols, -(pd / t)[:, None] * bm, cols.shape[-1])
    scale = nrm * _norm(c1[:, None] * u1 + c2[:, None] * u2)
    return np.hypot(_norm(resid), (pd / t) * _norm(bh)) / scale


def wallach_system_check(space, dec, fn, u):
    """Blockwise three-summand geodesic-orbit system; per-block residuals.

    For each row of ``u`` (N, dim_m), solves the joint least squares over w
    of ``L_i [w, u_i] + (L_k - L_j) [u_j, u_k] = 0`` projected to each
    summand (indices j < k complementary to i), one batched solve for the
    stack, and splits the optimal residual by block, all on the shared
    scale D(u).  Returns (N, 3); the norm of each row agrees with the
    operator residual.
    """
    if dec.arity != 3:
        raise DimensionMismatchError("three-block system needs a three-summand splitting")
    u, comps, theta = block_data(fn, dec, u)
    g1, _, scale = _scaled(fn, u, comps, theta)
    pieces, rhs = [], []
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        p = dec.summands[i]
        pieces.append(g1[:, i, None, None] * (p @ space.hm_columns(comps[:, i])))
        rhs.append(-(g1[:, k] - g1[:, j])[:, None]
                   * (space.bracket_mm(comps[:, j], comps[:, k])[1] @ p.T))
    cols = np.concatenate(pieces, axis=1)
    _, resid, _ = _linalg.lstsq_stack(cols, np.concatenate(rhs, axis=1), cols.shape[-1])
    blocks = np.split(resid, np.cumsum(dec.dims)[:-1], axis=1)
    return np.stack([_norm(b) for b in blocks], axis=1) / scale[:, None]


PAIR_BUDGET = 2 ** 15  # floats (256 KiB) per largest per-pair array; sets the pairs per chunk


def centralizer_condition_check(space, x, y):
    """Feasibility and uniqueness of the two-block centralizer equation.

    For each pair of rows of x, y (N, dim_m), looks for z_x in C~(x+y)
    centralizing x and z_y in C~(x+y) centralizing y with
    [x, y] = [z_y, x] + [z_x, y].  One pair is ``x[None], y[None]``.
    Returns a dict of arrays over the pairs: feasibility (residual at most
    1e-8, relative to max(|[x, y]|, |x| |y|) and 0 where that is 0, so it
    does not depend on the scale of the pair), uniqueness (full column rank
    of the solve's column map, which is exact for u = x + y != 0 since that
    map is z -> [z_x + z_y, u] and C~(u) is orthogonal to C(u)), the
    residual and z_x, z_y (N, dim_h).

    Pairs run in chunks that keep the largest per-pair array, the C~ stack
    of dim_h^2 (dim_h + 1) floats or the kernels' 2 (dim_m + dim_h) dim_h,
    within PAIR_BUDGET floats.  Each of four stages is one batched SVD per
    chunk, and every rank is cut at the pair's own shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"x and y must be stacks of the same shape, got {x.shape} and {y.shape}")
    nh = space.dim_h
    rows = max(1, PAIR_BUDGET // max(nh * nh * (nh + 1), 2 * (space.dim_m + nh) * nh, 1))
    parts = [_centralizer_chunk(space, x[i:i + rows], y[i:i + rows])
             for i in range(0, max(len(x), 1), rows)]
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _centralizer_chunk(space, x, y):
    nh = space.dim_h
    u = x + y
    tilde, t_dims = tilde_centralizer(space, u)
    everything = _norm(u) == 0.0                  # u = 0 gives all of h
    tilde[everything], t_dims[everything] = np.eye(nh), nh
    k = t_dims.max(initial=0)   # widest C~ of the chunk; width dim_h costs spin8/g2 a third more
    # C~(u) ∩ C(x) and C~(u) ∩ C(y) as one batched kernel
    s, d = centralizer_in_h(space, np.concatenate([x, y]),
                            within=np.concatenate([tilde[:, :k]] * 2))
    (sx, sy), (dx, dy) = np.split(s, 2), np.split(d, 2)
    _, target = space.bracket_mm(x, y)
    mat = np.concatenate([space.hm_columns(x) @ sy.transpose(0, 2, 1),
                          space.hm_columns(y) @ sx.transpose(0, 2, 1)], axis=2)
    coef, resid, rank = _linalg.lstsq_stack(mat, target, dx + dy)
    scale = np.maximum(_norm(target), _norm(x) * _norm(y))
    residual = np.divide(_norm(resid), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return {
        "feasible": residual <= 1e-8,
        "unique": rank == dx + dy,
        "residual": residual,
        "z_x": np.einsum("nk,nkh->nh", coef[:, k:], sx),
        "z_y": np.einsum("nk,nkh->nh", coef[:, :k], sy),
    }
