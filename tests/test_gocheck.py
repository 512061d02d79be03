import numpy as np
import numpy.testing as npt
import pytest

from gospace import catalog, finsler, gocheck, homspace


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
    for _ in range(25):
        u = unit(rng, space.dim_m)
        r_op = gocheck.go_residual_operator(space, dec, fn, u)
        r_sp = gocheck.go_check_spray(space, dec, fn, u)
        assert abs(r_op - r_sp) < 1e-9


def test_operator_minimizer_solves_equation(rng):
    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("linear:1,2")
    u = unit(rng, space.dim_m)
    resid, w = gocheck.go_check_operator(space, dec, fn, u, tol=1e-8)
    assert resid < 1e-12 and w is not None
    auu = finsler.a_u_of_u(fn, dec, u)
    bh, bm = space.bracket_mm(u, auu)
    lhs = space.bracket_hm_vec(w, auu) + bm
    npt.assert_allclose(lhs, np.zeros_like(lhs), atol=1e-10)
    npt.assert_allclose(bh, np.zeros_like(bh), atol=1e-10)


def test_operator_residual_scale_invariant(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    u = unit(rng, space.dim_m)
    r1 = gocheck.go_residual_operator(space, dec, fn, u)
    r2 = gocheck.go_residual_operator(space, dec, fn, 11.0 * u)
    assert abs(r1 - r2) < 1e-10


def test_single_summand_directions_always_pass(rng):
    # a direction lying in one summand brackets to zero with its own image
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    for i in range(3):
        u = dec.summands[i].T @ rng.standard_normal(dec.dims[i])
        assert gocheck.go_residual_operator(space, dec, fn, u) < 1e-12
        assert gocheck.nr_residual(space, dec, fn, u) < 1e-12


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


def test_nr_check_verdicts():
    space, dec, _ = catalog.make_space("product-sym/3xS2")
    fn = finsler.parse_metric("linear:1,2,3")
    rep = gocheck.nr_check(space, dec, fn, samples=40, seed=3)
    assert rep.verdict == gocheck.NR and rep.max_residual < 1e-12

    space, dec, _ = catalog.make_space("so5/u2")
    fn = finsler.parse_metric("phi:1,0,0.25")
    rep = gocheck.nr_check(space, dec, fn, samples=40, seed=3)
    assert rep.verdict == gocheck.NOT_NR and rep.max_residual > 1e-3


def test_threads_do_not_change_results():
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,2,3")
    r1 = gocheck.go_verdict(space, dec, fn, samples=30, seed=5, threads=1)
    r2 = gocheck.go_verdict(space, dec, fn, samples=30, seed=5, threads=3)
    assert r1.verdict == r2.verdict
    assert r1.max_residual == r2.max_residual
    assert r1.witness == r2.witness


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


def test_sample_plan_weights_every_summand():
    # six 2-dim summands; with no admissible boundary face every structured
    # sample is a weighted combination, and each block must be weighted
    space, _, _ = catalog.make_space("wallach-so/2,2,2")
    dec = homspace.isotropy_decompose(space)
    assert dec.dims == (2,) * 6
    plan = gocheck.sample_plan(dec, (False,) * 6, 200, seed=3)
    theta = np.array([dec.theta(u) for u in plan[100:]])
    assert np.all(theta.max(axis=0) > 1e-3)


# --------------------------------------------------------------------------
# structure-specific replays


def test_two_summand_phi_check_matches_operator(rng):
    space, dec, _ = catalog.make_space("sp2/sp1u1")
    phi = finsler.PhiProfile((1.0, 0.0, 0.25))
    fn = finsler.parse_metric("phi:1,0,0.25")
    for _ in range(15):
        u = unit(rng, space.dim_m)
        u1, u2 = dec.split(u)
        a = gocheck.two_summand_phi_check(space, dec, phi, u1, u2)
        b = gocheck.go_residual_operator(space, dec, fn, u)
        assert abs(a - b) < 1e-12


def test_wallach_system_matches_operator(rng):
    space, dec, _ = catalog.make_space("ledger-obata/su2")
    fn = finsler.parse_metric("pert3:1,1,1,0.5")
    for _ in range(15):
        u = unit(rng, space.dim_m)
        blocks = gocheck.wallach_system_check(space, dec, fn, u)
        assert blocks.shape == (3,)
        joint = float(np.sqrt(np.sum(blocks ** 2)))
        op = gocheck.go_residual_operator(space, dec, fn, u)
        assert abs(joint - op) < 1e-12


def test_wallach_system_flags_unequal_partials(rng):
    space, dec, _ = catalog.make_space("su3/t2")
    fn = finsler.parse_metric("linear:1,1,2")
    u = sum(dec.summands[i].T @ unit(rng, dec.dims[i]) for i in range(3))
    blocks = gocheck.wallach_system_check(space, dec, fn, u)
    assert np.max(blocks) > 1e-3


def test_riemann_two_param_check():
    space, dec, _ = catalog.make_space("so6/so3irr")
    rep = gocheck.riemann_two_param_check(space, dec, 1.0, 2.0, samples=40, seed=5)
    assert rep.verdict == gocheck.NOT_GO
    assert rep.extras["lambda"] == 1.0 and rep.extras["mu"] == 2.0
    rep = gocheck.riemann_two_param_check(space, dec, 2.0, 2.0, samples=40, seed=5)
    assert rep.verdict == gocheck.GO


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
