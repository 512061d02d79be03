import itertools

import numpy as np
import numpy.testing as npt
import pytest

from gospace import catalog, finsler, gocheck, homspace, suites
from gospace.errors import (BoundaryNondifferentiableError,
                            DimensionMismatchError, NotPositiveDefiniteError,
                            SingularOperatorError, ZeroVectorError)


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
    r_op, r_sp, _ = gocheck.residuals(space, dec, fn, plan)
    assert np.max(np.abs(r_op - r_sp)) < 1e-9


def test_operator_minimizer_solves_equation(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    u = unit(rng, space.dim_m)
    assert gocheck.residuals(space, dec, fn, u[None])[0][0] < 1e-12
    _, comps, theta = finsler.block_data(fn, dec, u[None])
    auu = finsler.apply_grad(fn.grad(theta), comps)[0]
    bh, bm = space.bracket_mm(u, auu)
    w = np.linalg.lstsq(space.hm_columns(auu), -bm, rcond=None)[0]
    lhs = space.bracket_hm_vec(w, auu) + bm
    npt.assert_allclose(lhs, np.zeros_like(lhs), atol=1e-10)
    npt.assert_allclose(bh, np.zeros_like(bh), atol=1e-10)


def test_operator_residual_scale_invariant(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    u = unit(rng, space.dim_m)
    r1, r2 = gocheck.residuals(space, dec, fn, np.array([u, 11.0 * u]))[0]
    assert abs(r1 - r2) < 1e-10


def test_single_summand_directions_always_pass(rng):
    # a direction lying in one summand brackets to zero with its own image
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    plan = np.array([dec.summands[i].T @ rng.standard_normal(dec.dims[i])
                     for i in range(3)])
    r_op, _, r_nr = gocheck.residuals(space, dec, fn, plan)
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
    assert not rep.extras["criteria_disagree"]
    d = rep.to_dict()
    assert d["check"] == "go" and "max_residual_operator" in d


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


def _ref_tensor(fn, dec, u):
    comps, theta = dec.split(u), dec.theta(u)
    g1, h2 = fn.grad(theta), fn.hess(theta)
    out = np.zeros((u.size, u.size))
    for a, s in enumerate(dec.summands):
        out += g1[a] * (s.T @ s)
    for a in range(dec.arity):
        for b in range(dec.arity):
            out += 2.0 * h2[a, b] * np.outer(comps[a], comps[b])
    return 0.5 * (out + out.T)


def _ref_residuals(space, dec, fn, u):
    """(operator, spray, nr) residuals at one direction, one formula each."""
    g1 = fn.grad(dec.theta(u))
    auu = sum(g * c for g, c in zip(g1, dec.split(u)))
    bh = np.einsum("abk,a,b->k", space.bracket_mm_h, u, auu)
    bm = np.einsum("abk,a,b->k", space.bracket_mm_m, u, auu)
    big = np.sqrt(bh @ bh + bm @ bm)
    # operator: least squares of [w + u, A_u(u)] = 0 over w in h
    cols = np.einsum("jab,a->bj", space.bracket_hm, auu)
    resid_m = _ref_lstsq_residual(cols, -bm)
    r_op = np.sqrt(resid_m @ resid_m + bh @ bh) / max(big, u @ u)
    # spray: eta from the metric equation, then its distance from [h, u]
    a = _ref_tensor(fn, dec, u)
    wt = np.einsum("ibk,b,k->i", space.bracket_mm_m, u, auu)
    eta = np.linalg.solve(a, wt)
    cols = np.einsum("jab,a->bj", space.bracket_hm, u)
    resid = _ref_lstsq_residual(a @ cols, a @ eta)
    r_sp = np.linalg.norm(resid) / max(np.linalg.norm(wt), u @ u)
    r_nr = big / (np.linalg.norm(u) * np.linalg.norm(auu))
    return r_op, r_sp, r_nr


ENGINE_CASES = [(spec, mtext)
                for spec, _, _ in catalog.list_catalog()
                for mtext in suites.battery_for(catalog.make_space(spec)[1].arity)]


@pytest.mark.parametrize("spec,mtext", ENGINE_CASES)
def test_engine_matches_per_direction_formulas(spec, mtext):
    space, dec, _ = catalog.make_space(spec)
    fn = finsler.parse_metric(mtext)
    plan = gocheck.sample_plan(dec, fn.boundary_ok, 77, seed=11)   # 32 + 32 + 13
    got = np.array(gocheck.residuals(space, dec, fn, plan))
    want = np.array([_ref_residuals(space, dec, fn, u) for u in plan]).T
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    # a single direction is a one-row plan
    for i in (0, 40, 76):
        single = np.array(gocheck.residuals(space, dec, fn, plan[i][None]))[:, 0]
        npt.assert_allclose(single, got[:, i], rtol=0, atol=1e-12)
    _, _, nr_only = gocheck.residuals(space, dec, fn, plan, go=False)
    npt.assert_array_equal(nr_only, got[2])


def _raises(exc, message, func, *args):
    with pytest.raises(exc) as info:
        func(*args)
    assert str(info.value) == message


def test_engine_errors_keep_their_messages():
    space, dec, _ = catalog.make_space("so5/u2")
    n = space.dim_m
    odd = finsler.parse_metric("phi:1,0.1")            # theta_2 = 0 face not C^2
    u1 = dec.summands[0][0]
    face = "block 2 vanishes but that face is not C^2 for this norm"
    zero = "norm data requested at the zero vector"
    length = f"expected m-coords vector of length {n}"

    def one_row(go):
        return lambda u: gocheck.residuals(space, dec, odd, u[None], go=go)

    for func in (lambda u: finsler.metric_operator(odd, dec, u),
                 one_row(True), one_row(False)):
        _raises(BoundaryNondifferentiableError, face, func, u1)
        _raises(ZeroVectorError, zero, func, np.zeros(n))
        _raises(DimensionMismatchError, length, func, np.ones(n + 1))
        _raises(DimensionMismatchError, length, func, np.ones((2, n)))
    three = finsler.parse_metric("linear:1,2,3")
    _raises(DimensionMismatchError, "norm has 3 blocks but decomposition has 2",
            gocheck.residuals, space, dec, three, u1[None])
    # the first bad row of a plan decides the error
    plan = np.array([dec.summands[1][0], np.zeros(n), u1])
    _raises(ZeroVectorError, zero, gocheck.residuals, space, dec, odd, plan)
    _raises(BoundaryNondifferentiableError, face, gocheck.residuals, space, dec,
            odd, plan[[0, 2, 1]])


def test_engine_positive_definite_and_singular_errors():
    # phi = 1 + t^2 fails phi - t phi' > 0 at t = 1: there, on the second
    # block alone, the tensor vanishes on the first block
    space, _, _ = catalog.make_space("so5/u2")
    dec = homspace.Decomposition.from_dims((4, 2))
    flat = finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 1.0)), check=False)
    u = np.eye(6)[5]
    ys, comps, theta = finsler.block_data(flat, dec, u[None])
    g1 = flat.grad(theta)
    a = finsler.fundamental_tensors(dec, g1, flat.hess(theta), comps)
    _raises(SingularOperatorError, "metric operator is singular at this vector: "
            "Singular matrix", finsler.spray_rows, space, a, ys,
            finsler.apply_grad(g1, comps))
    pd = "fundamental tensor not positive definite (min eigenvalue 0.000e+00)"
    _raises(NotPositiveDefiniteError, pd, finsler.metric_operator, flat, dec, u)
    _raises(NotPositiveDefiniteError, pd, gocheck.residuals, space, dec, flat, u[None])
    # a convexity-violating profile: the first failing direction of the plan
    bad = finsler.l_from_phi(finsler.PhiProfile((1.0, 0.0, 5.0)), check=False)
    space, dec, _ = catalog.make_space("so5/u2")
    plan = gocheck.sample_plan(dec, bad.boundary_ok, 100, seed=2)
    spectra = [np.linalg.eigvalsh(_ref_tensor(bad, dec, u)) for u in plan]
    eps = np.finfo(float).eps
    first = next(w[0] for w in spectra if w[0] <= len(w) * eps * max(abs(w[-1]), 1.0))
    assert first < -1e-3
    with pytest.raises(NotPositiveDefiniteError) as info:
        gocheck.go_verdict(space, dec, bad, samples=100, seed=2)
    assert str(info.value) == ("fundamental tensor not positive definite "
                               f"(min eigenvalue {first:.3e})")
    assert gocheck.nr_check(space, dec, bad, samples=100, seed=2).samples == 100


# --------------------------------------------------------------------------
# structure-specific replays


def test_two_summand_phi_check_matches_operator(rng):
    space, dec, _ = catalog.make_space("sp2/sp1u1")
    phi = finsler.PhiProfile((1.0, 0.0, 0.25))
    fn = finsler.parse_metric("phi:1,0,0.25")
    plan = np.array([unit(rng, space.dim_m) for _ in range(15)])
    op = gocheck.residuals(space, dec, fn, plan)[0]
    for u, b in zip(plan, op):
        a = gocheck.two_summand_phi_check(space, dec, phi, *dec.split(u))
        assert abs(a - b) < 1e-12


def test_wallach_system_matches_operator(rng):
    space, dec, _ = catalog.make_space("ledger-obata/su2")
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    plan = np.array([unit(rng, space.dim_m) for _ in range(15)])
    for u, op in zip(plan, gocheck.residuals(space, dec, fn, plan)[0]):
        blocks = gocheck.wallach_system_check(space, dec, fn, u)
        assert blocks.shape == (3,)
        joint = float(np.sqrt(np.sum(blocks ** 2)))
        assert abs(joint - op) < 1e-12


def test_wallach_system_flags_unequal_partials(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,1,2")
    u = sum(dec.summands[i].T @ unit(rng, dec.dims[i]) for i in range(3))
    blocks = gocheck.wallach_system_check(space, dec, fn, u)
    assert np.max(blocks) > 1e-3


# --------------------------------------------------------------------------
# centralizer equation


def test_centralizer_condition_feasible_unique(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    for _ in range(20):
        x = dec.summands[0].T @ rng.standard_normal(dec.dims[0])
        y = dec.summands[1].T @ rng.standard_normal(dec.dims[1])
        out = gocheck.centralizer_condition_check(space, dec, x, y)
        assert out["feasible"] and out["unique"]
        # the minimizers actually solve the equation
        _, target = space.bracket_mm(x, y)
        lhs = (space.bracket_hm_vec(out["z_y"], x)
               + space.bracket_hm_vec(out["z_x"], y))
        npt.assert_allclose(lhs, target, atol=1e-8)


def test_centralizer_condition_zero_inputs():
    space, dec, _ = catalog.make_space("so5/u2")
    x = np.zeros(space.dim_m)
    y = dec.summands[1][0]
    out = gocheck.centralizer_condition_check(space, dec, x, y)
    assert out["feasible"]
    npt.assert_allclose(out["z_x"], 0.0, atol=1e-10)


def test_centralizer_condition_fails_on_control(rng):
    space, dec, _ = catalog.make_space("so6/so3irr")
    x = dec.summands[0].T @ rng.standard_normal(dec.dims[0])
    y = dec.summands[1].T @ rng.standard_normal(dec.dims[1])
    out = gocheck.centralizer_condition_check(space, dec, x, y)
    assert not out["feasible"]
    assert out["residual"] > 1e-3
