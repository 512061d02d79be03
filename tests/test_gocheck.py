import dataclasses
import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import listed_arity, listed_ids, raises_exactly as _raises, ref_tensor
from gospace import _linalg, catalog, finsler, gocheck, homspace, suites
from gospace.errors import (BoundaryNondifferentiableError,
                            DimensionMismatchError, NotPositiveDefiniteError,
                            ZeroVectorError)


def unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# the two criteria agree sample by sample


@pytest.mark.parametrize("spec,mtext", [
    ("so5/u2", "phi:1,0,0.25"),
    ("su3/t2", "linear:1,1,2"),
    ("wallach-sp/1,1,1", "pert3:1,1,1,0.5"),
    ("so6/so3irr", "linear:3,0.5"),
])
def test_operator_vs_spray_agreement(spec, mtext, rng):
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = np.array([unit(rng, space.dim_m) for _ in range(25)])
    r_op, r_sp, _ = gocheck.residuals(space, dec, (fn,), plan)[0]
    assert np.max(np.abs(r_op - r_sp)) < 1e-9


def test_operator_minimizer_solves_equation(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    u = unit(rng, space.dim_m)
    assert gocheck.residuals(space, dec, (fn,), u[None])[0][0][0] < 1e-12
    _, comps, theta = finsler.block_data(fn, dec, u[None])
    auu = finsler.apply_grad(fn.grad(theta), comps)[0]
    bh, bm = space.bracket_mm(u, auu)
    w = np.linalg.lstsq(space.hm_columns(auu), -bm, rcond=None)[0]
    lhs = space.hm_columns(auu) @ w + bm
    npt.assert_allclose(lhs, np.zeros_like(lhs), atol=1e-10)
    npt.assert_allclose(bh, np.zeros_like(bh), atol=1e-10)


def test_operator_residual_scale_invariant(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    u = unit(rng, space.dim_m)
    r1, r2 = gocheck.residuals(space, dec, (fn,), np.array([u, 11.0 * u]))[0][0]
    assert abs(r1 - r2) < 1e-10


def test_single_summand_directions_always_pass(rng):
    # a direction lying in one summand brackets to zero with its own image
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    plan = np.array([dec.summands[i].T @ rng.standard_normal(dec.dims[i])
                     for i in range(3)])
    r_op, _, r_nr = gocheck.residuals(space, dec, (fn,), plan)[0]
    assert np.all(r_op < 1e-12) and np.all(r_nr < 1e-12)


# --------------------------------------------------------------------------
# verdicts


def test_go_verdict_go_and_witness_fields():
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("phi:1,0.1")
    rep = gocheck.go_verdict(space, dec, fn, samples=60, seed=3)
    assert rep.verdict == gocheck.GO
    assert rep.samples == 60
    assert rep.max_residual < 1e-10
    d = rep.to_dict()
    assert d["check"] == "go" and set(rep.extras) == {"max_residual_spray", "max_criteria_gap"}
    assert d["max_residual_spray"] <= d["max_residual"] == rep.max_residual


def test_go_verdict_not_go_has_large_witness():
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,1,2")
    rep = gocheck.go_verdict(space, dec, fn, samples=60, seed=3)
    assert rep.verdict == gocheck.NOT_GO
    assert rep.witness["operator_residual"] > 1e-3
    assert rep.witness["spray_residual"] > 1e-3


def test_go_verdict_inconclusive_zone():
    # a perturbation small enough to sit between tol and the failure factor
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.l_pert3([1.0, 1.0, 1.0], 1e-4)
    rep = gocheck.go_verdict(space, dec, fn, samples=40, seed=42)
    assert rep.verdict == gocheck.INCONCLUSIVE


def test_nr_check_inconclusive_band():
    # residual 0.063: above tol = 1e-3 but not above 1000 * tol
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("phi:1,0,0.25")
    rep = gocheck.nr_check(space, dec, fn, samples=200, seed=42, tol=1e-3)
    assert 1e-3 < rep.max_residual <= 1.0
    assert rep.verdict == gocheck.INCONCLUSIVE
    rep = gocheck.nr_check(space, dec, fn, samples=200, seed=42, tol=1e-5)
    assert rep.verdict == gocheck.NOT_NR


def test_verdicts_match_separate_checks():
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    go, nr = gocheck.verdicts(space, dec, fn, samples=50, seed=4)
    assert go.to_dict() == gocheck.go_verdict(space, dec, fn, samples=50, seed=4).to_dict()
    assert nr.to_dict() == gocheck.nr_check(space, dec, fn, samples=50, seed=4).to_dict()


def test_nr_check_verdicts():
    space, dec, _ = catalog.make_space("product-sym/3xS2")
    fn = finsler.parse_metric("linear:1,2,3")
    rep = gocheck.nr_check(space, dec, fn, samples=40, seed=3)
    assert rep.verdict == gocheck.NR and rep.max_residual < 1e-12

    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("phi:1,0,0.25")
    rep = gocheck.nr_check(space, dec, fn, samples=40, seed=3)
    assert rep.verdict == gocheck.NOT_NR and rep.max_residual > 1e-3


def test_sample_plan_deterministic_and_boundary_aware():
    space, dec, _ = catalog.make_space("so5/u2")
    plan1 = gocheck.sample_plan(dec, (True, True), 30, seed=7)
    plan2 = gocheck.sample_plan(dec, (True, True), 30, seed=7)
    assert len(plan1) == 30
    npt.assert_array_equal(np.array(plan1), np.array(plan2))
    for u in plan1:
        assert np.linalg.norm(u) == pytest.approx(1.0)
    # with a bad second face, no sample may have a vanishing second block
    plan = gocheck.sample_plan(dec, (True, False), 30, seed=7)
    assert all(dec.theta(u)[1] > 0 for u in plan)


def _per_sample_plan(dec, boundary_ok, samples, seed):
    # the generator before the plan was drawn as arrays: one direction at a
    # time, one norm per direction, the same random stream
    rng = np.random.default_rng(seed)
    n, s = int(sum(dec.dims)), dec.arity
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
    for keep in finsler.admissible_faces(boundary_ok):
        if count >= n_struct:
            break
        v = sum(unit_in_summand(i) for i in range(s) if keep[i])
        out.append(v / np.linalg.norm(v))
        count += 1
    grid = np.logspace(-1.5, 1.5, 7) if s == 2 else np.logspace(-1.0, 1.0, 5)
    while count < n_struct:
        parts = [unit_in_summand(i) for i in range(s)]
        for combo in gocheck._weight_combos(s, grid):
            if count >= n_struct:
                break
            v = sum(t * p for t, p in zip(combo, parts))
            out.append(v / np.linalg.norm(v))
            count += 1
    return np.array(out)


def _plan_cases():
    for spec in listed_ids():
        for mtext in suites.battery_for(listed_arity(spec)):
            yield pytest.param(spec, mtext, id=f"{spec}-{mtext}")
    yield pytest.param("wallach-so/2,2,2", None, id="wallach-so/2,2,2-six-summands")


@pytest.mark.parametrize("spec,mtext", _plan_cases())
def test_sample_plan_matches_per_sample_generator(spec, mtext):
    # each listed entry under each battery metric's faces, and the
    # six-summand splitting of wallach-so/2,2,2 with no face admitted
    space, dec, _ = catalog.make_space(spec)
    if mtext is None:
        dec, boundary_ok = homspace.isotropy_decompose(space), (False,) * 6
    else:
        boundary_ok = finsler.parse_metric(mtext).boundary_ok
    for samples, seed in itertools.product((1, 2, 3, 7, 77, 200), (0, 5, 42)):
        plan = gocheck.sample_plan(dec, boundary_ok, samples, seed)
        ref = _per_sample_plan(dec, boundary_ok, samples, seed)
        assert plan.shape == ref.shape == (samples, sum(dec.dims))
        assert np.max(np.abs(plan - ref)) <= 1e-15


def _lex_weight_combos(s, grid):
    # the generator before every block was spread: last block fastest
    for rest in itertools.product(grid, repeat=s - 1):
        yield (1.0, *map(float, rest))


@pytest.mark.parametrize("spec,boundary_ok", [
    ("so5/u2", (True, True)),
    ("su3/su2", (True, False)),
    ("su3/t2", (True, True, True)),
    ("ledger-obata/su2", (False, False, False)),
])
def test_sample_plan_unchanged_up_to_three_summands(spec, boundary_ok, monkeypatch):
    _, dec, _ = catalog.make_space(spec)
    decs = [dec, homspace.Decomposition.from_dims((5,))]
    plans = [gocheck.sample_plan(d, boundary_ok[:d.arity], 200, seed=3) for d in decs]
    monkeypatch.setattr(gocheck, "_weight_combos", _lex_weight_combos)
    for d, plan in zip(decs, plans):
        ref = gocheck.sample_plan(d, boundary_ok[:d.arity], 200, seed=3)
        npt.assert_array_equal(plan, np.array(ref))


def test_sample_plan_weights_every_summand(monkeypatch):
    # six 2-dim summands; with no admissible boundary face every structured
    # sample is a weighted combination, and each block must be lifted
    space, _, _ = catalog.make_space("wallach-so/2,2,2")
    dec = homspace.isotropy_decompose(space)
    assert dec.dims == (2,) * 6
    plan = gocheck.sample_plan(dec, (False,) * 6, 200, seed=3)
    theta = np.array([dec.theta(u) for u in plan[100:]])
    assert np.all(theta.max(axis=0) >= 0.5)
    # the lexicographic walk never lifts the second and third blocks
    monkeypatch.setattr(gocheck, "_weight_combos", _lex_weight_combos)
    plan = gocheck.sample_plan(dec, (False,) * 6, 200, seed=3)
    theta = np.array([dec.theta(u) for u in plan[100:]])
    assert np.all(theta.max(axis=0)[1:3] < 0.01)


# --------------------------------------------------------------------------
# the batched engine against the per-direction formulas it replaced


def _ref_lstsq_residual(a, b):
    if a.shape[1] == 0:
        return -b
    return a @ np.linalg.lstsq(a, b, rcond=None)[0] - b


def _ref_residuals(space, dec, fn, u):
    """(operator, spray, nr) residuals at one direction, one formula each,
    all divided by D(u) = |u| |A_u(u)|.

    The spray reference solves for eta with the dense tensor and projects
    off span(A_u [h, u]); the engine projects off span([h, A_u(u)]), so
    this also tests the equivariance A_u [w, u] = [w, A_u(u)] that it
    relies on."""
    g1 = fn.grad(dec.theta(u))
    auu = sum(g * c for g, c in zip(g1, dec.split(u)))
    bh = np.einsum("abk,a,b->k", space.bracket_mm_h, u, auu)
    bm = np.einsum("abk,a,b->k", space.bracket_mm_m, u, auu)
    big = np.sqrt(bh @ bh + bm @ bm)
    scale = np.linalg.norm(u) * np.linalg.norm(auu)
    # operator: least squares of [w + u, A_u(u)] = 0 over w in h
    cols = np.einsum("jab,a->bj", space.bracket_hm, auu)
    resid_m = _ref_lstsq_residual(cols, -bm)
    r_op = np.sqrt(resid_m @ resid_m + bh @ bh) / scale
    # spray: eta from the metric equation, then its distance from [h, u]
    a = ref_tensor(fn, dec, u)
    wt = np.einsum("ibk,b,k->i", space.bracket_mm_m, u, auu)
    eta = np.linalg.solve(a, wt)
    cols = np.einsum("jab,a->bj", space.bracket_hm, u)
    resid = _ref_lstsq_residual(a @ cols, a @ eta)
    r_sp = np.linalg.norm(resid) / scale
    r_nr = big / scale
    return r_op, r_sp, r_nr


def _count_calls(monkeypatch, name):
    # shape of the first argument of every np.linalg.<name> call, in call order
    shapes, func = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return func(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def _shared_pattern(fns):
    # the boundary pattern whose plan every metric of fns accepts
    return tuple(map(all, zip(*(fn.boundary_ok for fn in fns))))


ENGINE_CASES = [(spec, mtext)
                for spec in listed_ids()
                for mtext in suites.battery_for(listed_arity(spec))]

# on these the face rows in m1 are fixed by h: [h, u] = 0
ZERO_TANGENT_CASES = [(spec, mtext)
                      for spec in ("wallach-so/1,1,2", "wallach-so/1,1,3")
                      for mtext in suites.battery_for(3)]


@pytest.mark.parametrize("spec,mtext", ENGINE_CASES + ZERO_TANGENT_CASES)
def test_engine_matches_per_direction_formulas(spec, mtext, monkeypatch):
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 77, seed=11)
    got = np.array(gocheck.residuals(space, dec, (fn,), plan)[0])
    want = np.array([_ref_residuals(space, dec, fn, u) for u in plan]).T
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the spray residual is the operator's without its h-part
    assert np.all(got[1] <= got[0])
    # a budget of 32 rows runs the plan as 32 + 32 + 13 rows, three
    # dim_h x dim_h solves per chunk
    with monkeypatch.context() as m:
        m.setattr(gocheck, "BUDGET", 32 * space.dim_m * max(space.dim_m, space.dim_h) + 1)
        shapes = _count_calls(m, "solve")
        chunked = np.array(gocheck.residuals(space, dec, (fn,), plan)[0])
    assert shapes == [(rows, space.dim_h, space.dim_h) for rows in (32, 32, 13) for _ in range(3)]
    npt.assert_allclose(chunked, got, rtol=0, atol=1e-15)
    # a single direction is a one-row plan, and a zero-row plan gives empty arrays
    for i in (0, 40, 76):
        single = np.array(gocheck.residuals(space, dec, (fn,), plan[i][None])[0])[:, 0]
        npt.assert_allclose(single, got[:, i], rtol=0, atol=1e-12)
    empty = gocheck.residuals(space, dec, (fn,), plan[:0])[0]
    assert [r.shape for r in empty] == [(0,)] * 3


def _norm(x):
    return np.linalg.norm(x, axis=-1)


def _table_brackets(space, dec, fn, plan):
    """([u, A_u(u)]_h, [u, A_u(u)]_m, A_u(u)) over a plan (N, n), from the
    bracket tables."""
    comps = np.stack([plan @ s.T @ s for s in dec.summands], axis=1)
    auu = np.einsum("na,nak->nk", fn.grad(dec.theta(plan)), comps)
    bh = np.einsum("abk,na,nb->nk", space.bracket_mm_h, plan, auu)
    bm = np.einsum("abk,na,nb->nk", space.bracket_mm_m, plan, auu)
    return bh, bm, auu


def _svd_operator_residuals(space, dec, fn, plan):
    """Operator residuals over a plan (N, n) from the bracket tables: the
    part of [u, A_u(u)]_m off the left singular vectors of the columns
    [h_j, A_u(u)]_m, one batched SVD cut at numpy's lstsq cutoff, with the
    h-part alongside, divided by D(u) = |u| |A_u(u)|."""
    bh, bm, auu = _table_brackets(space, dec, fn, plan)
    cols = np.einsum("jab,na->nbj", space.bracket_hm, auu)
    left, sigma, _ = np.linalg.svd(cols, full_matrices=False)
    left = left * (np.arange(sigma.shape[1]) < _linalg.svd_rank(sigma, cols.shape[1:])[:, None])[:, None]
    off = bm - np.einsum("nmk,nk->nm", left, np.einsum("nmk,nm->nk", left, bm))
    return np.hypot(_norm(off), _norm(bh)) / (_norm(plan) * _norm(auu))


@pytest.mark.parametrize("spec", ["wallach-so/1,1,1", "wallach-so/1,1,2", "wallach-so/1,1,3"])
def test_zero_orbit_tangent_keeps_the_whole_bracket(spec):
    # rows whose [h, u] is exactly zero (every row when h = 0, the m1 face
    # rows of the other two) have nothing to project off: the spray
    # residual is |[u, A_u(u)]_m| / D(u) itself, and no solve is singular
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric("linear:1,2,3")
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 200, seed=42)
    fixed = ~np.any(space.hm_columns(plan), axis=(1, 2))
    assert np.any(fixed)
    (r_op, r_sp, _), = gocheck.residuals(space, dec, (fn,), plan)
    bh, bm, auu = _table_brackets(space, dec, fn, plan[fixed])
    scale = _norm(plan[fixed]) * _norm(auu)
    npt.assert_allclose(r_sp[fixed], _norm(bm) / scale, rtol=0, atol=1e-15)
    npt.assert_allclose(r_op[fixed], np.hypot(_norm(bh), _norm(bm)) / scale, rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec,mtext", ENGINE_CASES)
def test_engine_operator_residual_bounds_the_svd_reference(spec, mtext):
    # every w the engine's solve returns is a feasible point of the least
    # squares, so its operator residual never falls below the SVD
    # minimum beyond rounding: the solve cannot make a false GO
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 200, seed=7)
    got = gocheck.residuals(space, dec, (fn,), plan)[0][0]
    want = _svd_operator_residuals(space, dec, fn, plan)
    assert np.all(got >= want - 1e-15)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def _near_boundary_rows(dec, boundary_ok, ts, draws, seed):
    """Unit rows u_i + t (u_j + ...) for every summand i whose complement the
    metric admits as a face, every t of ``ts`` and ``draws`` draws of the
    per-summand unit vectors u_j; returns (plan, t of each row)."""
    rng = np.random.default_rng(seed)
    rows, row_t = [], []
    for _ in range(draws):
        units = [rng.standard_normal(d) @ s for d, s in zip(dec.dims, dec.summands)]
        units = [v / np.linalg.norm(v) for v in units]
        for i, lead in enumerate(units):
            if not all(ok for j, ok in enumerate(boundary_ok) if j != i):
                continue
            rest = sum(v for j, v in enumerate(units) if j != i)
            rows += [lead + t * rest for t in ts]
            row_t += list(ts)
    plan = np.array(rows)
    return plan / _norm(plan)[:, None], np.array(row_t)


@pytest.mark.parametrize("spec", ["so5/u2", "spin8/g2", "wallach-sp/1,1,1"])
def test_engine_near_the_boundary(spec):
    # at u = u_i + t (u_j + ...) the part of h that fixes u_i moves u by
    # O(t) only, so [h, u] has singular values of order t.  Down to
    # t = 1e-4 the ridge resolves them and every residual stays within
    # 1e-12 of the per-direction formulas.  Below, it drops them as its
    # cutoff of about 1e-6 of the largest singular value says, and the GO
    # residuals may overstate the formulas by O(t), up to 2.5e-7 measured,
    # but never understate the SVD minimum
    space, dec, _ = catalog.make_space(spec)
    for mtext in suites.battery_for(dec.arity):
        fn = finsler.parse_metric(mtext)
        plan, t = _near_boundary_rows(dec, fn.boundary_ok, np.logspace(-2, -12, 11), 2, 3)
        got = np.array(gocheck.residuals(space, dec, (fn,), plan)[0])
        want = np.array([_ref_residuals(space, dec, fn, u) for u in plan]).T
        resolved = t >= 1e-4
        npt.assert_allclose(got[:, resolved], want[:, resolved], rtol=0, atol=1e-12)
        npt.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)
        assert np.all(got[0] >= _svd_operator_residuals(space, dec, fn, plan) - 1e-15), mtext
        assert np.all(got[:2] - want[:2] <= 1e-6), mtext


SCALES = (1e-149, 1e-9, 1e-3, 1e3, 1e9, 1e100, 1e149)


def _scaled(mtext, c):
    """The metric text of c L: phi is scaled by sqrt(c), the other kinds'
    coefficients by c."""
    kind, _, args = mtext.partition(":")
    k = c ** 0.5 if kind == "phi" else c
    return kind + ":" + ",".join(repr(float(x) * k) for x in args.split(","))


@pytest.mark.parametrize("spec,mtext", ENGINE_CASES)
def test_verdicts_do_not_depend_on_the_scale_of_the_metric(spec, mtext):
    # c L has the geodesics of L, and every residual's numerator and D(u)
    # are of degree 1 in L: the plan, the verdicts and the residuals stay
    # those of c = 1 from 1e-149 to 1e149
    space, dec, _ = catalog.make_space(spec)
    fns = [finsler.parse_metric(_scaled(mtext, c)) for c in (1.0,) + SCALES]
    assert {fn.boundary_ok for fn in fns} == {fns[0].boundary_ok}
    plan = gocheck.sample_plan(dec, fns[0].boundary_ok, 60, seed=42)
    res = gocheck.residuals(space, dec, fns, plan)
    want = [r.verdict for r in gocheck.reports(plan, res[0], 1e-8, 42)]
    for c, got in zip(SCALES, res[1:]):
        assert [r.verdict for r in gocheck.reports(plan, got, 1e-8, 42)] == want, c
        npt.assert_allclose(got, res[0], rtol=0, atol=1e-12, err_msg=str(c))


def _refuse(*args, **kwargs):
    raise AssertionError("engine code called")


@pytest.mark.parametrize("spec,mtext", ENGINE_CASES)
def test_latifi_oracle_shares_no_engine_code(spec, mtext, monkeypatch):
    # with the derivatives of L, the bracket tables and the engine's stages
    # all refusing to run, the oracle still runs and lands every sample in
    # the operator residual's band, within 1e-8 of it
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 77, seed=11)
    r_op = gocheck.residuals(space, dec, (fn,), plan)[0][0]
    values_only = dataclasses.replace(fn, grad=_refuse, hess=_refuse)
    for name in ("bracket_mm", "hm_columns"):
        monkeypatch.setattr(homspace.HomogeneousSpace, name, _refuse)
    for name in ("_metric_residuals", "_off_orbit"):
        monkeypatch.setattr(gocheck, name, _refuse)
    with pytest.raises(AssertionError, match="engine code called"):
        gocheck.residuals(space, dec, (fn,), plan)
    oracle = gocheck.latifi_residuals(space, dec, values_only, plan)
    assert oracle.shape == r_op.shape
    assert np.max(np.abs(oracle - r_op)) <= 1e-8
    bands = [1e-8, gocheck.FAIL_FACTOR * 1e-8]
    npt.assert_array_equal(np.digitize(oracle, bands, right=True),
                           np.digitize(r_op, bands, right=True))


@pytest.mark.parametrize("spec,mtext", ENGINE_CASES)
def test_tensor_spectrum_matches_dense_eigvalsh(spec, mtext):
    # the s x s block form against the dense tensor on every row of a plan,
    # face rows included; su3/su2 has a one-dimensional second summand
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 77, seed=11)
    theta = dec.theta(plan)
    lo, hi = finsler.tensor_spectrum(dec.dims, fn.grad(theta), fn.hess(theta), theta)
    dense = np.array([np.linalg.eigvalsh(ref_tensor(fn, dec, u)) for u in plan])
    scale = np.max(np.abs(dense), axis=1)
    npt.assert_array_less(np.abs(lo - dense[:, 0]), 1e-13 * scale)
    npt.assert_array_less(np.abs(hi - dense[:, -1]), 1e-13 * scale)


@pytest.mark.parametrize("spec,mtext", [(spec, m) for spec in listed_ids()
                                        for m in suites.battery_for(listed_arity(spec))
                                        if m.startswith("linear:")])
def test_zero_hessian_spectrum_is_the_eigvalsh_spectrum(spec, mtext, monkeypatch):
    # with h2 = 0 the spectrum is read off g1 with no eigvalsh, bit for bit
    # what the (N, s, s) eigvalsh of diag(g1) gives, on a plan's rows and on
    # each face theta_j = 0 (j != i), su3/su2's one-dimensional summand included
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 77, seed=11)
    theta = np.vstack([dec.theta(plan), np.eye(dec.arity)])
    g1, h2 = fn.grad(theta), fn.hess(theta)
    assert not np.any(h2)
    root = np.sqrt(theta)
    r = 2.0 * root[:, :, None] * h2 * root[:, None, :] + g1[:, :, None] * np.eye(dec.arity)
    w = np.concatenate([np.linalg.eigvalsh(r), g1[:, np.asarray(dec.dims) >= 2]], axis=1)
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    lo, hi = finsler.tensor_spectrum(dec.dims, g1, h2, theta)
    npt.assert_array_equal(lo, w.min(axis=1))
    npt.assert_array_equal(hi, w.max(axis=1))


def test_positivity_decomposes_nothing_wider_than_s(monkeypatch):
    # a residuals pass and the parse-time convexity screens take their
    # spectra from s x s matrices only, never from an n x n tensor
    space, dec, _ = catalog.make_space("wallach-so/2,2,2")
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 200, seed=1)
    widths, eigvalsh = [], np.linalg.eigvalsh

    def counted(a):
        widths.append(a.shape[-1])
        return eigvalsh(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    gocheck.residuals(space, dec, (fn,), plan)
    finsler.parse_metric("phi:1,0,0.25")
    finsler.parse_metric("pert3:1,1,1,0.5")
    assert widths == [3, 2, 3]


@pytest.mark.parametrize("spec", listed_ids())
def test_one_array_pass_per_plan(spec, monkeypatch):
    # one residuals call over a whole battery on a 200-row plan projects
    # each metric once, by three solves of its dim_h x dim_h normal
    # equations, which give both GO criteria; the NR residual takes none,
    # and nr_check is the NR half of the same pass.  Nothing is factored by
    # SVD or QR, and no n x n matrix (A_u) is ever solved
    space, dec, _ = catalog.make_space(spec)
    fns = [finsler.parse_metric(m) for m in suites.battery_for(dec.arity)]
    plan = gocheck.sample_plan(dec, _shared_pattern(fns), 200, seed=1)
    calls = {name: _count_calls(monkeypatch, name) for name in ("svd", "qr", "solve")}
    gocheck.residuals(space, dec, fns, plan)
    normal = (200, space.dim_h, space.dim_h)
    assert calls == {"svd": [], "qr": [], "solve": [normal] * (3 * len(fns))}
    for check in (gocheck.verdicts, gocheck.nr_check):
        for shapes in calls.values():
            shapes.clear()
        check(space, dec, fns[0], samples=200, seed=1)
        assert calls == {"svd": [], "qr": [], "solve": [normal] * 3}


@pytest.mark.parametrize("spec", listed_ids())
def test_metrics_share_one_residual_pass(spec):
    # grouping metrics changes nothing: each metric's triple from a call
    # over the whole battery equals its own single-metric call bit for bit
    space, dec, _ = catalog.make_space(spec)
    fns = [finsler.parse_metric(m) for m in suites.battery_for(dec.arity)]
    plan = gocheck.sample_plan(dec, _shared_pattern(fns), 200, seed=3)
    together = gocheck.residuals(space, dec, fns, plan)
    assert len(together) == len(fns)
    for fn, got in zip(fns, together):
        want = gocheck.residuals(space, dec, (fn,), plan)[0]
        for g, w in zip(got, want):
            npt.assert_array_equal(g, w)
    assert gocheck.residuals(space, dec, (), plan) == []


@pytest.mark.parametrize("spec", listed_ids())
@pytest.mark.parametrize("budget", [gocheck.BUDGET, 2 ** 12])
def test_block_data_once_per_chunk_and_pattern(spec, budget, monkeypatch):
    # a pass over the whole battery splits each chunk's rows into blocks
    # once per boundary pattern, in the metrics' order: twice for the
    # two-block battery and once for the three-block one
    space, dec, _ = catalog.make_space(spec)
    fns = [finsler.parse_metric(m) for m in suites.battery_for(dec.arity)]
    plan = gocheck.sample_plan(dec, _shared_pattern(fns), 200, seed=1)
    one_chunk = budget == gocheck.BUDGET
    monkeypatch.setattr(gocheck, "BUDGET", budget)
    calls, block_data = [], finsler.block_data

    def counted(fn, dec, ys):
        calls.append((fn.boundary_ok, len(ys)))
        return block_data(fn, dec, ys)
    monkeypatch.setattr(gocheck, "block_data", counted)
    gocheck.residuals(space, dec, fns, plan)
    patterns = list(dict.fromkeys(fn.boundary_ok for fn in fns))
    assert len(patterns) == {2: 2, 3: 1}[dec.arity]
    rows = max(1, budget // (space.dim_m * max(space.dim_m, space.dim_h)))
    chunks = [len(plan[i:i + rows]) for i in range(0, len(plan), rows)]
    assert (len(chunks) == 1) == one_chunk
    assert calls == [(p, k) for k in chunks for p in patterns]


def _replace_grad(fn, g1):
    # fn with dL/dtheta the constant row g1 (and no Hessian) at every point
    return dataclasses.replace(
        fn, grad=lambda theta: np.broadcast_to(g1, np.shape(theta)).copy(),
        hess=lambda theta: np.zeros(np.shape(theta) + np.shape(theta)[-1:]))


def test_multi_metric_errors_keep_their_order():
    # every metric's rows and scale D(u) are checked, in metric order,
    # before any metric's A_u is found not positive definite; of those the
    # first metric's is reported
    space, dec, _ = catalog.make_space("so5/u2")
    base = finsler.parse_metric("linear:1,2")
    odd = finsler.parse_metric("phi:1,0.1")            # theta_2 = 0 face not C^2
    indefinite = _replace_grad(base, [1.0, -1.0])
    steeper = _replace_grad(base, [1.0, -2.0])
    flat = _replace_grad(base, [0.0, 0.0])
    plan = gocheck.sample_plan(dec, base.boundary_ok, 40, seed=2)
    scale = "residual scale |u| |A_u(u)| vanishes"
    pd = "fundamental tensor not positive definite (min eigenvalue {:.3e})"
    for fns in ((indefinite, flat), (flat, indefinite)):
        _raises(ZeroVectorError, scale, gocheck.residuals, space, dec, fns, plan)
    _raises(NotPositiveDefiniteError, pd.format(-1.0), gocheck.residuals, space, dec,
            (base, indefinite, steeper), plan)
    _raises(NotPositiveDefiniteError, pd.format(-2.0), gocheck.residuals, space, dec,
            (steeper, base, indefinite), plan)
    face = "block 2 vanishes but that face is not C^2 for this norm"
    _raises(BoundaryNondifferentiableError, face, gocheck.residuals, space, dec,
            (indefinite, odd, flat), plan)
    _raises(ZeroVectorError, scale, gocheck.residuals, space, dec, (flat, odd), plan)
    _raises(ZeroVectorError, "norm data requested at the zero vector", gocheck.residuals,
            space, dec, (indefinite, flat), np.vstack([plan, np.zeros(space.dim_m)]))


def test_battery_memory_stays_at_one_metric():
    # one pass over a four-metric group holds one metric's arrays at a time:
    # its traced peak is within 10% of the largest single-metric peak
    space, dec, _ = catalog.make_space("spin8/g2")
    fns = [fn for fn in map(finsler.parse_metric, suites.BATTERY_TWO_BLOCK)
           if fn.boundary_ok == (True, True)]
    assert len(fns) == 4
    plan = gocheck.sample_plan(dec, (True, True), 200, seed=1)

    def peak(group):
        gocheck.residuals(space, dec, group, plan)
        tracemalloc.start()
        try:
            gocheck.residuals(space, dec, group, plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    single = max(peak((fn,)) for fn in fns)
    assert peak(fns) <= 1.1 * single


@pytest.mark.parametrize("spec", listed_ids())
def test_battery_reports_match_single_metric_passes(spec):
    # the suites' grouped pass reports what each metric's own pass reports
    # on the same plan
    space, dec, _ = catalog.make_space(spec)
    (_, _, _, rows), = suites._battery([spec], 200, 5, 1e-8)
    assert [row[0] for row in rows] == list(suites.battery_for(dec.arity))
    for mtext, go, nr, fn, plan, res in rows:
        assert fn.spec_string == mtext
        npt.assert_array_equal(plan, gocheck.sample_plan(dec, fn.boundary_ok, 200, 5))
        own = gocheck.residuals(space, dec, (fn,), plan)[0]
        for got, want in zip(res, own):
            npt.assert_array_equal(got, want)
        want = gocheck.reports(plan, own, 1e-8, 5)
        assert [go.to_dict(), nr.to_dict()] == [r.to_dict() for r in want]


def test_engine_errors_keep_their_messages():
    space, dec, _ = catalog.make_space("so5/u2")
    n = space.dim_m
    odd = finsler.parse_metric("phi:1,0.1")            # theta_2 = 0 face not C^2
    u1 = dec.summands[0][0]
    face = "block 2 vanishes but that face is not C^2 for this norm"
    zero = "norm data requested at the zero vector"
    length = f"expected m-coords vector of length {n}"

    for func in (lambda u: finsler.metric_operator(odd, dec, u),
                 lambda u: gocheck.residuals(space, dec, (odd,), u[None])):
        _raises(BoundaryNondifferentiableError, face, func, u1)
        _raises(ZeroVectorError, zero, func, np.zeros(n))
    for shape in ((n + 1,), (2, n)):
        _raises(DimensionMismatchError, length, finsler.metric_operator, odd, dec,
                np.ones(shape))
    for shape in ((1, n + 1), (1, 2, n)):
        _raises(DimensionMismatchError,
                f"expected a stack of m-coords rows (N, {n}), got {shape}",
                gocheck.residuals, space, dec, (odd,), np.ones(shape))
    three = finsler.parse_metric("linear:1,2,3")
    _raises(DimensionMismatchError, "norm has 3 blocks but decomposition has 2",
            gocheck.residuals, space, dec, (three,), u1[None])
    # below the coefficients parse_metric accepts, |A_u(u)|^2 underflows and
    # no residual has a scale
    tiny = finsler.l_linear([1e-170, 1e-170])
    _raises(ZeroVectorError, "residual scale |u| |A_u(u)| vanishes",
            gocheck.residuals, space, dec, (tiny,), u1[None])
    # the first bad row of a plan decides the error
    plan = np.array([dec.summands[1][0], np.zeros(n), u1])
    _raises(ZeroVectorError, zero, gocheck.residuals, space, dec, (odd,), plan)
    _raises(BoundaryNondifferentiableError, face, gocheck.residuals, space, dec,
            (odd,), plan[[0, 2, 1]])


def test_residuals_reject_a_single_vector():
    # the engine takes stacks only: one direction u is the plan u[None]
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    _raises(DimensionMismatchError, "expected a stack of m-coords rows (N, 6), got (6,)",
            gocheck.residuals, space, dec, (fn,), dec.summands[0][0])


@pytest.mark.parametrize("shape", [(6,), (3, 5)])
def test_latifi_residuals_reject_what_residuals_rejects(shape):
    # the oracle validates its plan as the engine does, with the same message
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    message = f"expected a stack of m-coords rows (N, 6), got {shape}"
    for func in (lambda p: gocheck.residuals(space, dec, (fn,), p),
                 lambda p: gocheck.latifi_residuals(space, dec, fn, p)):
        _raises(DimensionMismatchError, message, func, np.ones(shape))


def test_verdicts_reject_bad_sample_counts():
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    empty = "a verdict needs at least one sample, got an empty plan"
    negative = "sample count must be non-negative, got -3"
    for check in (gocheck.verdicts, gocheck.go_verdict, gocheck.nr_check):
        _raises(DimensionMismatchError, empty, check, space, dec, fn, 0)
        _raises(DimensionMismatchError, negative, check, space, dec, fn, -3)
    _raises(DimensionMismatchError, negative, gocheck.sample_plan, dec, fn.boundary_ok, -3, 1)
    for bad in (2.5, True):
        message = f"sample count must be an integer, got {bad}"
        for check in (gocheck.verdicts, gocheck.go_verdict, gocheck.nr_check):
            _raises(DimensionMismatchError, message, check, space, dec, fn, bad)
        _raises(DimensionMismatchError, message, gocheck.sample_plan, dec, fn.boundary_ok, bad, 1)
    # numpy integers are counts too
    npt.assert_array_equal(gocheck.sample_plan(dec, fn.boundary_ok, np.int64(5), 1),
                           gocheck.sample_plan(dec, fn.boundary_ok, 5, 1))
    assert gocheck.go_verdict(space, dec, fn, np.int64(5)).samples == 5
    # an empty plan still has residuals, three empty arrays; only reports refuse it
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 0, 1)
    assert plan.shape == (0, space.dim_m)
    res = gocheck.residuals(space, dec, (fn,), plan)[0]
    assert [r.shape for r in res] == [(0,)] * 3
    _raises(DimensionMismatchError, empty, gocheck.reports, plan, res, 1e-8, 1)


def test_metrics_can_share_a_plan():
    # metrics with the same boundary pattern draw the same plan, so one plan
    # can serve them all: the engine must leave it as it found it
    space, dec, _ = catalog.make_space("su3/t2")
    fns = [finsler.parse_metric(m) for m in suites.BATTERY_THREE_BLOCK]
    assert len({fn.boundary_ok for fn in fns}) == 1
    plan = gocheck.sample_plan(dec, fns[0].boundary_ok, 50, seed=4)
    for fn in fns:
        got = gocheck.reports(plan, gocheck.residuals(space, dec, (fn,), plan)[0], 1e-8, 4)
        want = gocheck.verdicts(space, dec, fn, samples=50, seed=4)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


def test_engine_positive_definite_errors():
    # phi = 1 + t^2 fails phi - t phi' > 0 at t = 1: there, on the second
    # block alone, the tensor vanishes on the first block
    space, _, _ = catalog.make_space("so5/u2")
    dec = homspace.Decomposition.from_dims((4, 2))
    flat = finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 1.0)), check=False)
    u = np.eye(6)[5]
    pd = "fundamental tensor not positive definite (min eigenvalue 0.000e+00)"
    _raises(NotPositiveDefiniteError, pd, finsler.metric_operator, flat, dec, u)
    _raises(NotPositiveDefiniteError, pd, gocheck.residuals, space, dec, (flat,), u[None])
    # a convexity-violating profile: the first failing direction of the plan
    bad = finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 5.0)), check=False)
    space, dec, _ = catalog.make_space("so5/u2")
    plan = gocheck.sample_plan(dec, bad.boundary_ok, 100, seed=2)
    spectra = [np.linalg.eigvalsh(ref_tensor(bad, dec, u)) for u in plan]
    eps = np.finfo(float).eps
    first = next(w[0] for w in spectra if w[0] <= len(w) * eps * abs(w[-1]))
    assert first < -1e-3
    for check in (gocheck.go_verdict, gocheck.nr_check):
        with pytest.raises(NotPositiveDefiniteError) as info:
            check(space, dec, bad, samples=100, seed=2)
        assert str(info.value) == ("fundamental tensor not positive definite "
                                   f"(min eigenvalue {first:.3e})")
    # past the first 32 rows, the first failing row still names the error;
    # a zero row anywhere in the pass is reported before it
    plan = gocheck.sample_plan(dec, bad.boundary_ok, 400, seed=2)
    spectra = np.array([np.linalg.eigvalsh(ref_tensor(bad, dec, u)) for u in plan])
    fails = spectra[:, 0] <= 6 * eps * np.abs(spectra[:, -1])
    good, failing = plan[~fails], plan[fails]
    assert len(good) >= 40 and len(failing) >= 2
    plan = np.vstack([good[:40], failing[1:], failing[:1]])
    _raises(NotPositiveDefiniteError, "fundamental tensor not positive definite "
            f"(min eigenvalue {spectra[fails][1, 0]:.3e})",
            gocheck.residuals, space, dec, (bad,), plan)
    _raises(ZeroVectorError, "norm data requested at the zero vector",
            gocheck.residuals, space, dec, (bad,), np.vstack([plan, np.zeros(6)]))


# --------------------------------------------------------------------------
# structure-specific replays


def test_two_summand_phi_check_matches_operator(rng):
    space, dec, _ = catalog.make_space("sp2/sp1u1")
    phi = finsler.PhiProfile((1.0, 0.0, 0.25))
    fn = finsler.parse_metric("phi:1,0,0.25")
    plan = np.array([unit(rng, space.dim_m) for _ in range(15)])
    op = gocheck.residuals(space, dec, (fn,), plan)[0][0]
    a = gocheck.two_summand_phi_check(space, dec, phi, *dec.split(plan))
    assert a.shape == (15,)
    assert np.max(np.abs(a - op)) < 1e-12
    one = gocheck.two_summand_phi_check(space, dec, phi, *dec.split(plan[3:4]))
    assert one.shape == (1,) and abs(one[0] - a[3]) < 1e-15


def test_two_summand_phi_check_zero_rows(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    phi = finsler.PhiProfile((1.0, 0.0, 0.25))
    u1, u2 = dec.split(np.array([unit(rng, space.dim_m) for _ in range(3)]))
    _raises(ZeroVectorError, "phi-form check undefined at zero",
            gocheck.two_summand_phi_check, space, dec, phi,
            np.vstack([u1, 0 * u1[:1]]), np.vstack([u2, 0 * u2[:1]]))
    _raises(ZeroVectorError, "phi-form check needs a nonzero second component",
            gocheck.two_summand_phi_check, space, dec, phi, u1, np.vstack([u2[:2], 0 * u2[:1]]))


def test_two_summand_phi_check_rejects_bad_shapes(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    phi = finsler.PhiProfile((1.0, 0.0, 0.25))
    u1, u2 = dec.split(unit(rng, space.dim_m)[None])
    for a, b in ((u1[0], u2[0]), (u1, u2[:, :5])):
        _raises(DimensionMismatchError, "u1 and u2 must be stacks of the same shape "
                f"(N, 6), got {a.shape} and {b.shape}",
                gocheck.two_summand_phi_check, space, dec, phi, a, b)


def test_wallach_system_matches_operator(rng):
    space, dec, _ = catalog.make_space("ledger-obata/su2")
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    plan = np.array([unit(rng, space.dim_m) for _ in range(15)])
    blocks = gocheck.wallach_system_check(space, dec, fn, plan)
    assert blocks.shape == (15, 3)
    op = gocheck.residuals(space, dec, (fn,), plan)[0][0]
    assert np.max(np.abs(np.linalg.norm(blocks, axis=1) - op)) < 1e-12


def test_wallach_system_flags_unequal_partials(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,1,2")
    u = sum(dec.summands[i].T @ unit(rng, dec.dims[i]) for i in range(3))
    blocks = gocheck.wallach_system_check(space, dec, fn, u[None])
    assert blocks.shape == (1, 3)
    assert np.max(blocks) > 1e-3


# --------------------------------------------------------------------------
# centralizer equation


def _pairs(space, dec, rng, count):
    z = rng.standard_normal((count, space.dim_m))
    return z[:, :dec.dims[0]] @ dec.summands[0], z[:, dec.dims[0]:] @ dec.summands[1]


def _equation_gap(space, x, y, out):
    # [x, y] - [z_y, x] - [z_x, y] per pair, with the hm_columns sign convention
    _, target = space.bracket_mm(x, y)
    lhs = (np.einsum("nmh,nh->nm", space.hm_columns(x), out["z_y"])
           + np.einsum("nmh,nh->nm", space.hm_columns(y), out["z_x"]))
    return lhs - target, target


def test_centralizer_condition_feasible_unique(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    x, y = _pairs(space, dec, rng, 20)
    out = gocheck.centralizer_condition_check(space, x, y)
    assert {key: v.shape[0] for key, v in out.items()} == dict.fromkeys(out, 20)
    assert np.all(out["feasible"]) and np.all(out["unique"])
    # the minimizers actually solve the equation
    gap, _ = _equation_gap(space, x, y, out)
    npt.assert_allclose(gap, 0.0, atol=1e-8)


def test_centralizer_condition_zero_inputs():
    space, dec, _ = catalog.make_space("so5/u2")
    x = np.zeros((1, space.dim_m))
    y = dec.summands[1][:1]
    out = gocheck.centralizer_condition_check(space, x, y)
    assert out["feasible"][0]
    npt.assert_allclose(out["z_x"], 0.0, atol=1e-10)


def test_centralizer_condition_fails_on_control(rng):
    space, dec, _ = catalog.make_space("so6/so3irr")
    x, y = _pairs(space, dec, rng, 1)
    out = gocheck.centralizer_condition_check(space, x, y)
    assert not out["feasible"][0]
    assert out["residual"][0] > 1e-3


@pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
def test_centralizer_condition_does_not_depend_on_the_scale(scale):
    # five infeasible so6/so3irr pairs (residuals 0.14-0.29 at scale 1): an
    # absolute floor on the denominator read them feasible at 1e-12
    space, dec, _ = catalog.make_space("so6/so3irr")
    x, y = _pairs(space, dec, np.random.default_rng(1), 5)
    want = gocheck.centralizer_condition_check(space, x, y)
    got = gocheck.centralizer_condition_check(space, scale * x, scale * y)
    assert not want["feasible"].any()
    assert np.all((want["residual"] > 0.1) & (want["residual"] < 0.3))
    assert got["feasible"].tolist() == want["feasible"].tolist()
    assert got["unique"].tolist() == want["unique"].tolist()
    npt.assert_allclose(got["residual"], want["residual"], rtol=1e-12, atol=0)


def test_centralizer_stacks_shapes():
    space, dec, _ = catalog.make_space("so5/u2")
    u = dec.summands[0][0]
    for call in (homspace.centralizer_in_h, homspace.tilde_centralizer):
        _raises(DimensionMismatchError,
                f"expected a stack of m-coords rows (N, 6), got {u.shape}", call, space, u)
    empty = np.zeros((0, space.dim_m))
    out = gocheck.centralizer_condition_check(space, empty, empty)
    assert {key: v.shape for key, v in out.items()} == {
        "feasible": (0,), "unique": (0,), "residual": (0,), "z_x": (0, 4), "z_y": (0, 4)}


def test_centralizer_condition_rejects_unequal_stacks():
    space, dec, _ = catalog.make_space("so5/u2")
    x, y = _pairs(space, dec, np.random.default_rng(1), 2)
    _raises(DimensionMismatchError,
            "x and y must be stacks of the same shape, got (1, 6) and (2, 6)",
            gocheck.centralizer_condition_check, space, x[:1], y)
    _raises(DimensionMismatchError,
            "x and y must be stacks of the same shape, got (2, 6) and (6,)",
            gocheck.centralizer_condition_check, space, x, y[0])


def test_centralizer_condition_with_trivial_isotropy():
    # h = 0: no z to solve for, so a pair is feasible only when [x, y]_m = 0
    space, dec, _ = catalog.make_space("wallach-so/1,1,1")
    assert space.dim_h == 0
    zero = np.zeros((1, space.dim_m))
    x = np.vstack([dec.summands[0][:1], zero])
    y = np.vstack([dec.summands[1][:1], zero])
    out = gocheck.centralizer_condition_check(space, x, y)
    assert out["feasible"].tolist() == [False, True]
    assert out["unique"].tolist() == [True, True]
    npt.assert_allclose(out["residual"], [np.sqrt(0.5), 0.0], rtol=0, atol=1e-12)
    assert out["z_x"].shape == out["z_y"].shape == (2, 0)


@pytest.mark.parametrize("spec", ["so5/u2", "su3/su2", "sp2/sp1u1", "so6/so3irr", "spin8/g2",
                                  "su3/t2", "wallach-sp/1,1,1", "ledger-obata/su2"])
def test_centralizer_condition_unique_for_every_nonzero_u(spec, rng):
    # for z_x in C~(u) ∩ C(x) and z_y in C~(u) ∩ C(y), [z_y, x] + [z_x, y] =
    # [z_x + z_y, u], and C~(u) is orthogonal to C(u): the column map is
    # injective whenever u = x + y != 0, for arbitrary (not summand-split) pairs
    space, _, _ = catalog.make_space(spec)
    x, y = rng.standard_normal((2, 40, space.dim_m))
    assert np.all(gocheck.centralizer_condition_check(space, x, y)["unique"])


@pytest.mark.parametrize("spec", ["so5/u2", "su3/t2"])
def test_centralizer_condition_unique_at_zero_u_iff_x_has_trivial_centralizer(spec, rng):
    # u = 0 gives C~(u) = h and the map (z_x, z_y) -> [z_y - z_x, x] on C(x)^2
    space, dec, _ = catalog.make_space(spec)
    x = np.vstack([dec.summands[0][:1], dec.summands[1][:1],
                   rng.standard_normal((2, space.dim_m))])
    out = gocheck.centralizer_condition_check(space, x, -x)
    assert out["unique"].tolist() == [False, False, True, True]
    assert (homspace.centralizer_in_h(space, x)[1] == 0).tolist() == out["unique"].tolist()


def _reference_centralizer(space, v):
    # C(v) as one kernel of the (dim_m, dim_h) map w -> [w, v], with the
    # |v| |bracket_hm| noise floor
    cols = space.hm_columns(v)
    scale = np.linalg.norm(v) * np.linalg.norm(space.bracket_hm)
    return _linalg.null_space(cols, atol=max(cols.shape) * _linalg.EPS * scale)


def _intersection(rows_a, rows_b):
    # reference: kernel of the stacked projector complements of two
    # orthonormal row spaces; projector entries have unit scale
    n = rows_a.shape[1]
    off = np.vstack([np.eye(n) - r.T @ r for r in (rows_a, rows_b)])
    return _linalg.null_space(off, atol=2 * n * _linalg.EPS)


def _two_step_tilde(space, u):
    # reference C~(u) in two steps: the normalizer N of C = C(u) in h as one
    # kernel, then the orthocomplement of C inside N
    c = _reference_centralizer(space, u)
    nh = space.dim_h
    off_c = np.eye(nh) - c.T @ c
    stacked = np.vstack([np.zeros((0, nh))] + [
        off_c @ np.einsum("ijk,j->ki", space.bracket_hh, cj) for cj in c])
    n = _linalg.null_space(stacked, atol=max(stacked.shape) * _linalg.EPS
                           * np.linalg.norm(space.bracket_hh))
    mat = c @ n.T
    return _linalg.null_space(mat, atol=max(mat.shape) * _linalg.EPS) @ n


def _reference_condition(space, x, y):
    # the centralizer equation for one pair, with C~(u) ∩ C(x) and
    # C~(u) ∩ C(y) taken as intersections of full subspaces of h
    full = np.eye(space.dim_h)
    u = x + y
    tilde = _two_step_tilde(space, u) if np.linalg.norm(u) > 0 else full
    cx = _reference_centralizer(space, x) if np.linalg.norm(x) > 0 else full
    cy = _reference_centralizer(space, y) if np.linalg.norm(y) > 0 else full
    sx, sy = _intersection(tilde, cx), _intersection(tilde, cy)
    mat = np.hstack([space.hm_columns(x) @ sy.T, space.hm_columns(y) @ sx.T])
    _, target = space.bracket_mm(x, y)
    resid = mat @ np.linalg.lstsq(mat, target, rcond=None)[0] - target
    scale = max(np.linalg.norm(target), np.linalg.norm(x) * np.linalg.norm(y), _linalg.EPS)
    residual = float(np.linalg.norm(resid)) / scale
    unique = (not mat.shape[1] or _linalg.svd_rank(
        np.linalg.svd(mat, compute_uv=False), mat.shape) == mat.shape[1])
    return {"feasible": residual <= 1e-8, "unique": unique, "residual": residual,
            "scale": scale, "tilde": tilde, "sx": sx, "sy": sy, "columns": mat.shape[1]}


TWO_SUMMAND = ["so5/u2", "su3/su2", "sp2/sp1u1", "spin8/g2", "so6/so3irr"]


def _reference_stack(space, dec, spec):
    # 20 generic pairs, then one pair with x = 0 and one with y = 0
    x, y = _pairs(space, dec, np.random.default_rng(7), 20)
    zero = np.zeros((1, space.dim_m))
    x, y = np.vstack([x, zero, x[:1]]), np.vstack([y, y[:1], zero])
    if spec == "su3/su2":
        # u = x has trivial C, and u = y in the 1-dim summand has C = h
        x, y = np.vstack([x, x[:1], zero]), np.vstack([y, zero, dec.summands[1][:1]])
    return x, y


@pytest.mark.parametrize("spec", TWO_SUMMAND)
def test_centralizer_condition_matches_intersection_reference(spec, monkeypatch):
    space, dec, _ = catalog.make_space(spec)
    # record the real shapes handed to the batched kernels and the solve
    shapes = {"rows": [], "cols": []}
    null_spaces, lstsq_stack = _linalg.null_spaces, _linalg.lstsq_stack
    monkeypatch.setattr(_linalg, "null_spaces", lambda a, rows, atol: (
        shapes["rows"].append(rows), null_spaces(a, rows, atol))[1])
    monkeypatch.setattr(_linalg, "lstsq_stack", lambda a, b, cols: (
        shapes["cols"].append(cols), lstsq_stack(a, b, cols))[1])
    x, y = _reference_stack(space, dec, spec)
    got = gocheck.centralizer_condition_check(space, x, y)
    gap, _ = _equation_gap(space, x, y, got)
    columns = []
    for i in range(len(x)):
        want = _reference_condition(space, x[i], y[i])
        assert (got["feasible"][i], got["unique"][i]) == (want["feasible"], want["unique"])
        assert abs(got["residual"][i] - want["residual"]) <= 1e-14
        # z_x, z_y solve the equation up to the reported residual
        assert abs(np.linalg.norm(gap[i]) / want["scale"] - got["residual"][i]) <= 1e-14
        for z, ref, v in ((got["z_x"][i], want["sx"], x[i]), (got["z_y"][i], want["sy"], y[i])):
            npt.assert_allclose(z - ref.T @ (ref @ z), 0.0, atol=1e-10)   # z in C~ ∩ C(v)
        columns.append(want["columns"])
        if not want["columns"]:
            npt.assert_array_equal(np.vstack([got["z_x"][i], got["z_y"][i]]), 0.0)
        for v, ref in ((x[i], want["sx"]), (y[i], want["sy"])):
            basis, dims = homspace.centralizer_in_h(space, v[None], within=want["tilde"][None])
            s = basis[0, :dims[0]]
            assert s.shape == ref.shape
            npt.assert_allclose(basis[0, dims[0]:], 0.0)
            npt.assert_allclose(s @ s.T, np.eye(len(s)), atol=1e-12)
            npt.assert_allclose(s - s @ want["tilde"].T @ want["tilde"], 0.0, atol=1e-12)
            npt.assert_allclose(space.hm_columns(v) @ s.T, 0.0, atol=1e-12)
    # both centralizer pieces are trivial for some pairs here: the column
    # map is empty, and uniqueness must still agree with the reference
    assert (0 in columns) == (spec in ("su3/su2", "spin8/g2", "so6/so3irr"))
    # each cutoff comes from the pair's own shape: (dim C (dim_h + 1), dim_h)
    # for C~(u), and the unpadded column count for the solve
    c_dims = [len(_reference_centralizer(space, u)) for u in x + y]
    tilde_rows = [r for r in shapes["rows"] if np.ndim(r)]      # one per chunk
    assert np.concatenate(tilde_rows).tolist() == [c * (space.dim_h + 1) for c in c_dims]
    assert np.concatenate(shapes["cols"]).tolist() == columns


def test_centralizer_condition_chunks_agree(monkeypatch):
    space, dec, _ = catalog.make_space("spin8/g2")
    x, y = _pairs(space, dec, np.random.default_rng(11), 40)
    whole = gocheck.centralizer_condition_check(space, x, y)
    nh = space.dim_h
    calls = []
    real = gocheck.tilde_centralizer
    monkeypatch.setattr(gocheck, "tilde_centralizer",
                        lambda space, u: calls.append(len(u)) or real(space, u))
    monkeypatch.setattr(gocheck, "PAIR_BUDGET", 3 * nh * nh * (nh + 1))
    split = gocheck.centralizer_condition_check(space, x, y)
    assert calls == [3] * 13 + [1]
    for key in ("feasible", "unique"):
        npt.assert_array_equal(split[key], whole[key])
    npt.assert_allclose(split["residual"], whole["residual"], rtol=0, atol=1e-14)
    for key in ("z_x", "z_y"):
        npt.assert_allclose(split[key], whole[key], rtol=0, atol=1e-10)


def test_centralizer_condition_svd_calls_per_stage(monkeypatch):
    # C(u), C~(u), both restricted kernels and the final solve: the count
    # follows the stages, not the 22 pairs nor the values of dim C~ in them
    space, dec, _ = catalog.make_space("so5/u2")
    x, y = _reference_stack(space, dec, "so5/u2")
    assert set(homspace.tilde_centralizer(space, x + y)[1].tolist()) == {1, 4}
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    out = gocheck.centralizer_condition_check(space, x, y)
    assert np.all(out["feasible"] & out["unique"])
    assert [shape[0] for shape in calls] == [22, 22, 44, 22]


@pytest.mark.parametrize("spec", TWO_SUMMAND)
def test_centralizer_in_h_takes_padded_within(spec):
    # the zero-padded C~ from tilde_centralizer gives the same kernels as
    # its rows cut to each direction's own dim C~
    space, dec, _ = catalog.make_space(spec)
    x, y = _reference_stack(space, dec, spec)
    tilde, t_dims = homspace.tilde_centralizer(space, x + y)
    for v in (x, y):
        basis, dims = homspace.centralizer_in_h(space, v, within=tilde)
        for i, k in enumerate(t_dims):
            want, d = homspace.centralizer_in_h(space, v[i:i + 1], within=tilde[i:i + 1, :k])
            assert dims[i] == d[0]
            assert _projector_gap(basis[i, :dims[i]], want[0, :d[0]]) <= 1e-12
            npt.assert_array_equal(basis[i, dims[i]:], 0.0)


def _projector_gap(a, b):
    return np.linalg.norm(a.T @ a - b.T @ b, 2) if a.shape == b.shape else np.inf


@pytest.mark.parametrize("spec", TWO_SUMMAND + ["su3/t2"])
def test_tilde_centralizer_matches_two_step_reference(spec):
    # a generic u and a u inside each summand, all in one stack; on su3/su2
    # the 4-dim summand has trivial C and the 1-dim summand has C = h
    space, dec, _ = catalog.make_space(spec)
    rng = np.random.default_rng(3)
    us = np.array([rng.standard_normal(space.dim_m)] + [
        s.T @ rng.standard_normal(len(s)) for s in dec.summands])
    basis, dims = homspace.tilde_centralizer(space, us)
    assert basis.shape == (len(us), space.dim_h, space.dim_h)
    for u, b, d in zip(us, basis, dims):
        got = b[:d]
        assert _projector_gap(got, _two_step_tilde(space, u)) <= 1e-10
        npt.assert_allclose(got @ got.T, np.eye(d), atol=1e-12)
        npt.assert_array_equal(b[d:], 0.0)
    if spec == "su3/su2":
        assert homspace.centralizer_in_h(space, us[1:])[1].tolist() == [0, space.dim_h]
