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
from .finsler import PhiProfile, l_from_phi, parse_metric
from .gocheck import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, GO, NOT_GO, NR, NOT_NR

# documented default battery: equal linear, two unequal linear, and the
# curvature-carrying profiles (two-block) or the cubic perturbation (three-block)
BATTERY_TWO_BLOCK = ("linear:1,1", "linear:1,2", "linear:3,0.5",
                     "phi:1,0,0.25", "phi:1,0.1")
BATTERY_THREE_BLOCK = ("linear:1,1,1", "linear:1,1,2", "linear:1,2,3",
                       "pert3:1,1,1,0.5")


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


def _spaces_with_tag(tag):
    return [rid for rid, _, tags in catalog.list_catalog() if tag in tags]


def _battery(specs, samples, seed, tol):
    """(spec, space, dec, [(metric, go, nr, fn, plan, residuals), ...]) per
    space of ``specs``, over its default battery, with each metric's parsed
    norm, sample plan and residual triple; each battery is parsed once per
    call, each space is built once, and the metrics that share a boundary
    pattern share one sample plan and one residual pass."""
    parsed = {}
    for spec in specs:
        space, dec, _ = catalog.make_space(spec)
        if dec.arity not in parsed:
            parsed[dec.arity] = [(m, parse_metric(m)) for m in battery_for(dec.arity)]
        battery = parsed[dec.arity]
        found = {}
        for pattern in dict.fromkeys(fn.boundary_ok for _, fn in battery):
            group = [fn for _, fn in battery if fn.boundary_ok == pattern]
            plan = gocheck.sample_plan(dec, pattern, samples, seed)
            for fn, res in zip(group, gocheck.residuals(space, dec, group, plan)):
                found[fn] = (*gocheck.reports(plan, res, tol, seed), fn, plan, res)
        yield spec, space, dec, [(m, *found[fn]) for m, fn in battery]


def _centralizer_pairs(space, dec, rng, count):
    """Centralizer-equation results (arrays over the pairs) for ``count``
    pairs x in m1, y in m2, drawn from ``rng`` pair by pair, x first."""
    z = rng.standard_normal((count, dec.dims[0] + dec.dims[1]))
    x, y = z[:, :dec.dims[0]] @ dec.summands[0], z[:, dec.dims[0]:] @ dec.summands[1]
    return gocheck.centralizer_condition_check(space, x, y)


def suite_thm1_converse(samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Two-summand entries: GO for the whole battery, NOT_NR off the normal
    metric, and the two-block centralizer equation solvable and unique."""
    out = SuiteResult("thm1-converse")
    for spec, space, dec, rows in _battery(_spaces_with_tag("two-summand-go"),
                                           samples, seed, tol):
        for mtext, go, nr, *_ in rows:
            out.add(f"{spec} {mtext} go", go.verdict == GO,
                    f"verdict={go.verdict} max_residual={go.max_residual:.3e}")
            if mtext.startswith("phi:"):
                out.add(f"{spec} {mtext} nr", nr.verdict == NOT_NR
                        and nr.max_residual > 1e-3,
                        f"verdict={nr.verdict} max_residual={nr.max_residual:.3e}")
        res = _centralizer_pairs(space, dec, np.random.default_rng(seed), 100)
        bad = np.count_nonzero(~(res["feasible"] & res["unique"]))
        worst = np.max(res["residual"])
        out.add(f"{spec} centralizer-equation", bad == 0,
                f"failures={bad}/100 worst_residual={worst:.3e}")
    return out


def _equal_only_go(suite, specs, samples, seed, tol):
    """GO for the equal-coefficient linear metric, NOT_GO for every other
    battery metric, with a witness whose GO fields (one projection) exceed 1e-3."""
    out = SuiteResult(suite)
    for spec, _, dec, rows in _battery(specs, samples, seed, tol):
        for mtext, go, *_ in rows:
            equal = mtext == equal_linear_for(dec.arity)
            want = GO if equal else NOT_GO
            w = go.witness
            ok = go.verdict == want and (
                equal or min(w["operator_residual"], w["spray_residual"]) > 1e-3)
            out.add(f"{spec} {mtext} go={want}", ok,
                    f"verdict={go.verdict} max_residual={go.max_residual:.3e}")
    return out


def suite_thm2_wallach(samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Three-summand entries with all cross brackets nonzero: GO exactly for
    the equal-coefficient linear metric within the battery."""
    specs = _spaces_with_tag("wallach-type-ii") + _spaces_with_tag("wallach-type-iii")
    return _equal_only_go("thm2-wallach", specs, samples, seed, tol)


def suite_cor_wallach_normal(samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Normal (equal-coefficient) metrics on su3/t2 and wallach-sp/1,1,1
    are GO; the battery confirms the equal-only-GO pattern on both."""
    return _equal_only_go("cor-wallach-normal", ("su3/t2", "wallach-sp/1,1,1"),
                          samples, seed, tol)


def suite_type1_nr(samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Product-of-rank-one entry: every battery metric naturally reductive."""
    out = SuiteResult("type1-nr")
    for spec, _, _, rows in _battery(_spaces_with_tag("wallach-type-i"),
                                     samples, seed, tol):
        for mtext, go, nr, *_ in rows:
            out.add(f"{spec} {mtext} nr", nr.verdict == NR
                    and nr.max_residual <= 1e-10 and go.verdict == GO,
                    f"nr={nr.verdict} residual={nr.max_residual:.3e} go={go.verdict}")
    return out


CROSSVAL_SPACES = ("so5/u2", "su3/su2", "su3/t2", "wallach-sp/1,1,1", "so6/so3irr")


def suite_crossval(samples=60, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Per-sample agreement of the operator residual with the Latifi oracle
    :func:`gocheck.latifi_residuals`, which shares no engine code: the same
    band at ``tol`` and a gap of at most 1e-12 on every one of at least 1000
    (space, metric, direction) triples."""
    out = SuiteResult("crossval")
    triples = 0
    bands = [tol, gocheck.FAIL_FACTOR * tol]
    for spec, space, dec, rows in _battery(CROSSVAL_SPACES, samples, seed, tol):
        for mtext, _, _, fn, plan, (r_op, *_) in rows:
            oracle = gocheck.latifi_residuals(space, dec, fn, plan)
            gap = float(np.max(np.abs(r_op - oracle)))
            same = np.array_equal(np.digitize(r_op, bands, right=True),
                                  np.digitize(oracle, bands, right=True))
            triples += len(plan)
            out.add(f"{spec} {mtext} agreement", same and gap <= 1e-12,
                    f"samples={len(plan)} max_gap={gap:.3e}")
    out.add("total triples >= 1000", triples >= 1000, f"triples={triples}")
    return out


def suite_invariants(samples=40, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
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
    fns = (fn, *(l_from_phi(PhiProfile((c, 0.0, 0.25 * c)), check=False) for c in (1e50, 1e-50)))
    ops = np.array([r for r, *_ in gocheck.residuals(space, dec, fns, np.vstack([u, 7.3 * u]))])
    worst = float(np.max(np.abs(ops - np.tile(ops[0, :len(u)], 2))))
    out.add("so5/u2 residual scale invariance", worst <= 1e-10,
            f"max |r(tu; cL) - r(u; L)| over t = 1, 7.3 and c = 1, 1e100, 1e-100 = {worst:.3e}")

    phi = PhiProfile((1.0, 0.0, 0.25))
    u = unit_rows(space.dim_m)
    a = gocheck.two_summand_phi_check(space, dec, phi, *dec.split(u))
    worst = float(np.max(np.abs(a - gocheck.residuals(space, dec, (fn,), u)[0][0])))
    out.add("so5/u2 profile-form specialization", worst <= 1e-10,
            f"max gap vs operator residual = {worst:.3e}")

    space3, dec3, _ = catalog.make_space("su3/t2")
    fn3 = parse_metric("linear:1,2,3")
    u = unit_rows(space3.dim_m)
    joint = np.linalg.norm(gocheck.wallach_system_check(space3, dec3, fn3, u), axis=1)
    worst = float(np.max(np.abs(joint - gocheck.residuals(space3, dec3, (fn3,), u)[0][0])))
    out.add("su3/t2 blockwise reassembly", worst <= 1e-10,
            f"max gap vs operator residual = {worst:.3e}")

    for spec in _spaces_with_tag("two-summand-go"):
        space, dec, _ = catalog.make_space(spec)
        res = _centralizer_pairs(space, dec, rng, 30)
        bad = np.count_nonzero(res["feasible"] & ~res["unique"])
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
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, samples=None, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Run one named suite; ``samples=None`` keeps the suite's own default."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    fn = _SUITES[name]
    kwargs = {"seed": seed, "tol": tol}
    if samples is not None:
        kwargs["samples"] = samples
    return fn(**kwargs)
