"""Named verification suites bundling the package's structural claims.

Each suite runs a battery of (space, metric) checks with fixed seeds and
returns a SuiteResult whose items say what was asserted and whether it
held.  Suites are the CLI's `verify` targets; the same batteries back the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import catalog, gocheck
from .finsler import PhiProfile, parse_metric
from .gocheck import GO, NOT_GO, NR, NOT_NR

# documented default battery: equal linear, two unequal linear, and the
# curvature-carrying profiles (two-block) or the cubic perturbation (three-block)
BATTERY_TWO_BLOCK = ("linear:1,1", "linear:1,2", "linear:3,0.5",
                     "phi:1,0,0.25", "phi:1,0.1")
BATTERY_THREE_BLOCK = ("linear:1,1,1", "linear:1,1,2", "linear:1,2,3",
                       "pert3:1,1,1,0.5")

SUITE_NAMES = ("thm1-converse", "thm2-wallach", "cor-wallach-normal",
               "type1-nr", "crossval", "invariants")


def battery_for(arity):
    if arity == 2:
        return BATTERY_TWO_BLOCK
    if arity == 3:
        return BATTERY_THREE_BLOCK
    raise ValueError(f"no default battery for {arity} summands")


def equal_linear_for(arity):
    return "linear:" + ",".join(["1"] * arity)


@dataclass
class SuiteItem:
    name: str
    passed: bool
    detail: str

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class SuiteResult:
    suite: str
    items: list = field(default_factory=list)

    @property
    def passed(self):
        return all(it.passed for it in self.items)

    def add(self, name, passed, detail):
        self.items.append(SuiteItem(name, bool(passed), detail))

    def to_dict(self):
        return {"suite": self.suite, "passed": self.passed,
                "items": [it.to_dict() for it in self.items]}


def _spaces_with_tag(tag):
    return [rid for rid, _, tags in catalog.list_catalog() if tag in tags]


def suite_thm1_converse(samples=200, seed=42, tol=1e-8):
    """Two-summand entries: GO for the whole battery, NOT_NR off the normal
    metric, and the two-block centralizer equation solvable and unique."""
    out = SuiteResult("thm1-converse")
    for spec in _spaces_with_tag("two-summand-go"):
        space, dec, _ = catalog.make_space(spec)
        for mtext in battery_for(dec.arity):
            fn = parse_metric(mtext)
            rep, nr = gocheck.verdicts(space, dec, fn, samples=samples,
                                       seed=seed, tol=tol)
            out.add(f"{spec} {mtext} go", rep.verdict == GO,
                    f"verdict={rep.verdict} max_residual={rep.max_residual:.3e}")
            if mtext.startswith("phi:"):
                out.add(f"{spec} {mtext} nr", nr.verdict == NOT_NR
                        and nr.max_residual > 1e-3,
                        f"verdict={nr.verdict} max_residual={nr.max_residual:.3e}")
        rng = np.random.default_rng(seed)
        bad = 0
        worst = 0.0
        for _ in range(100):
            x = dec.summands[0].T @ rng.standard_normal(dec.dims[0])
            y = dec.summands[1].T @ rng.standard_normal(dec.dims[1])
            res = gocheck.centralizer_condition_check(space, dec, x, y, tol=1e-8)
            worst = max(worst, res["residual"])
            if not (res["feasible"] and res["unique"]):
                bad += 1
        out.add(f"{spec} centralizer-equation", bad == 0,
                f"failures={bad}/100 worst_residual={worst:.3e}")
    return out


def _wallach_battery_items(out, spec, samples, seed, tol):
    space, dec, _ = catalog.make_space(spec)
    for mtext in battery_for(dec.arity):
        fn = parse_metric(mtext)
        rep = gocheck.go_verdict(space, dec, fn, samples=samples, seed=seed,
                                 tol=tol)
        equal = mtext == equal_linear_for(dec.arity)
        want = GO if equal else NOT_GO
        ok = rep.verdict == want
        if not equal:
            w = rep.witness
            ok = ok and min(w["operator_residual"], w["spray_residual"]) > 1e-3
        out.add(f"{spec} {mtext} go={want}", ok,
                f"verdict={rep.verdict} max_residual={rep.max_residual:.3e}")


def suite_thm2_wallach(samples=200, seed=42, tol=1e-8):
    """Three-summand entries with all cross brackets nonzero: GO exactly for
    the equal-coefficient linear metric within the battery."""
    out = SuiteResult("thm2-wallach")
    for spec in _spaces_with_tag("wallach-type-ii") + _spaces_with_tag("wallach-type-iii"):
        _wallach_battery_items(out, spec, samples, seed, tol)
    return out


def suite_cor_wallach_normal(samples=200, seed=42, tol=1e-8):
    """Normal (equal-coefficient) metrics on su3/t2 and wallach-sp/1,1,1
    are GO; the battery confirms the equal-only-GO pattern on both."""
    out = SuiteResult("cor-wallach-normal")
    for spec in ("su3/t2", "wallach-sp/1,1,1"):
        _wallach_battery_items(out, spec, samples, seed, tol)
    return out


def suite_type1_nr(samples=200, seed=42, tol=1e-8):
    """Product-of-rank-one entry: every battery metric naturally reductive."""
    out = SuiteResult("type1-nr")
    for spec in _spaces_with_tag("wallach-type-i"):
        space, dec, _ = catalog.make_space(spec)
        for mtext in battery_for(dec.arity):
            fn = parse_metric(mtext)
            go, nr = gocheck.verdicts(space, dec, fn, samples=samples, seed=seed,
                                      tol=tol)
            out.add(f"{spec} {mtext} nr", nr.verdict == NR
                    and nr.max_residual <= 1e-10 and go.verdict == GO,
                    f"nr={nr.verdict} residual={nr.max_residual:.3e} go={go.verdict}")
    return out


CROSSVAL_SPACES = ("so5/u2", "su3/su2", "su3/t2", "wallach-sp/1,1,1", "so6/so3irr")


def suite_crossval(samples=60, seed=42, tol=1e-8):
    """Per-sample agreement of the operator and spray criteria over at least
    1000 (space, metric, direction) triples."""
    out = SuiteResult("crossval")
    triples = 0
    for spec in CROSSVAL_SPACES:
        space, dec, _ = catalog.make_space(spec)
        for mtext in battery_for(dec.arity):
            fn = parse_metric(mtext)
            plan = gocheck.sample_plan(dec, fn.boundary_ok, samples, seed)
            r_op, r_sp, _ = gocheck.residuals(space, dec, fn, plan)
            gap = float(np.max(np.abs(r_op - r_sp)))
            agree = not np.any(((r_op <= tol) != (r_sp <= tol))
                               & (np.maximum(r_op, r_sp) > gocheck.FAIL_FACTOR * tol))
            triples += len(plan)
            out.add(f"{spec} {mtext} agreement", agree and gap <= 1e-6,
                    f"samples={len(plan)} max_gap={gap:.3e}")
    out.add("total triples >= 1000", triples >= 1000, f"triples={triples}")
    return out


def suite_invariants(samples=40, seed=42, tol=1e-8):
    """Cross-cutting identities: normal metric everywhere NR and GO, NR
    implies GO, residual scale invariance, the profile-form and blockwise
    specializations, and centralizer uniqueness when feasible."""
    out = SuiteResult("invariants")
    rng = np.random.default_rng(seed)

    for rid, _, tags in catalog.list_catalog():
        space, dec, _ = catalog.make_space(rid)
        fn = parse_metric(equal_linear_for(dec.arity))
        go, nr = gocheck.verdicts(space, dec, fn, samples=samples, seed=seed,
                                  tol=tol)
        out.add(f"{rid} normal metric nr+go",
                nr.verdict == NR and go.verdict == GO,
                f"nr={nr.verdict} go={go.verdict}")

    def unit_rows(n):
        u = rng.standard_normal((20, n))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    space, dec, _ = catalog.make_space("so5/u2")
    fn = parse_metric("phi:1,0,0.25")
    u = unit_rows(space.dim_m)
    worst = float(np.max(np.abs(gocheck.residuals(space, dec, fn, u)[0]
                                - gocheck.residuals(space, dec, fn, 7.3 * u)[0])))
    out.add("so5/u2 residual scale invariance", worst <= 1e-10,
            f"max |r(u) - r(7.3u)| = {worst:.3e}")

    phi = PhiProfile((1.0, 0.0, 0.25))
    u = unit_rows(space.dim_m)
    a = [gocheck.two_summand_phi_check(space, dec, phi, *dec.split(x)) for x in u]
    worst = float(np.max(np.abs(a - gocheck.residuals(space, dec, fn, u)[0])))
    out.add("so5/u2 profile-form specialization", worst <= 1e-10,
            f"max gap vs operator residual = {worst:.3e}")

    space3, dec3, _ = catalog.make_space("su3/t2")
    fn3 = parse_metric("linear:1,2,3")
    u = unit_rows(space3.dim_m)
    joint = [np.linalg.norm(gocheck.wallach_system_check(space3, dec3, fn3, x)) for x in u]
    worst = float(np.max(np.abs(joint - gocheck.residuals(space3, dec3, fn3, u)[0])))
    out.add("su3/t2 blockwise reassembly", worst <= 1e-10,
            f"max gap vs operator residual = {worst:.3e}")

    for spec in _spaces_with_tag("two-summand-go"):
        space, dec, _ = catalog.make_space(spec)
        bad = 0
        for _ in range(30):
            x = dec.summands[0].T @ rng.standard_normal(dec.dims[0])
            y = dec.summands[1].T @ rng.standard_normal(dec.dims[1])
            res = gocheck.centralizer_condition_check(space, dec, x, y, tol=1e-8)
            if res["feasible"] and not res["unique"]:
                bad += 1
        out.add(f"{spec} centralizer uniqueness when feasible", bad == 0,
                f"feasible-but-nonunique={bad}/30")
    return out


_SUITES = {
    "thm1-converse": suite_thm1_converse,
    "thm2-wallach": suite_thm2_wallach,
    "cor-wallach-normal": suite_cor_wallach_normal,
    "type1-nr": suite_type1_nr,
    "crossval": suite_crossval,
    "invariants": suite_invariants,
}


def run_suite(name, samples=None, seed=42, tol=1e-8):
    """Run one named suite; ``samples=None`` keeps the suite's own default."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    fn = _SUITES[name]
    kwargs = {"seed": seed, "tol": tol}
    if samples is not None:
        kwargs["samples"] = samples
    return fn(**kwargs)
