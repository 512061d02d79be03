"""The three workloads: inputs made from the seed, the operations, and the
checks each output must pass.

Each workload has a fixed list of operations (one pass), a ``setup`` that
makes its inputs ready, ``run(op)`` that performs one operation through the
package's public entry points, and ``check(op, out)`` that returns ``None``
when the output is right or a one-line reason when it is not.  The checks
rest on closed-form dimensions, the paper's theorems and the method's own
properties, never on saved output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from tracing import package_modules

# ---------------------------------------------------------------------------
# space builds: dimensions from closed formulas


def so(n):
    return n * (n - 1) // 2


def su(n):
    return n * n - 1


def sp(n):
    return n * (2 * n + 1)


G2 = 14

# id -> (dim g, dim h, summand dims), each from the chain h < k < g that
# defines the entry: a summand of a chain is dim(upper) - dim(lower)
FIXED_DIMS = {
    "so5/u2": (so(5), 4, (so(5) - so(4), so(4) - 4)),
    "su3/su2": (su(3), su(2), (su(3) - 4, 4 - su(2))),
    "sp2/sp1u1": (sp(2), sp(1) + 1, (sp(2) - 2 * sp(1), sp(1) - 1)),
    "ledger-obata/su2": (4 * su(2), su(2), (su(2),) * 3),
    "ledger-obata/so3": (4 * so(3), so(3), (so(3),) * 3),
    "product-sym/3xS2": (3 * so(3), 3 * so(2), (so(3) - so(2),) * 3),
    "so6/so3irr": (so(6), so(3), (so(6) - so(5), so(5) - so(3))),
    "spin8/g2": (so(8), G2, (so(8) - so(7), so(7) - G2)),
}


def expected_dims(spec):
    """(dim g, dim h, summand dims) of a catalog id, by formula."""
    if spec == "su3/t2":
        spec = "wallach-su/1,1,1"
    if spec in FIXED_DIMS:
        return FIXED_DIMS[spec]
    family, _, params = spec.partition("/")
    k, l, m = (int(x) for x in params.split(","))
    n = k + l + m
    if family == "wallach-so":
        return so(n), so(k) + so(l) + so(m), (k * l, k * m, l * m)
    if family == "wallach-su":
        # S(U(k) x U(l) x U(m)) has dimension k^2 + l^2 + m^2 - 1
        return su(n), k * k + l * l + m * m - 1, (2 * k * l, 2 * k * m, 2 * l * m)
    if family == "wallach-sp":
        return sp(n), sp(k) + sp(l) + sp(m), (4 * k * l, 4 * k * m, 4 * l * m)
    raise KeyError(spec)


LISTED = ("so5/u2", "su3/su2", "sp2/sp1u1", "su3/t2", "wallach-so/2,2,2",
          "wallach-su/1,1,1", "wallach-sp/1,1,1", "ledger-obata/su2",
          "ledger-obata/so3", "product-sym/3xS2", "so6/so3irr", "spin8/g2")
LARGE = ("wallach-su/2,2,2", "wallach-sp/1,1,2", "wallach-so/3,3,3")

TWO_SUMMAND_GO = ("so5/u2", "su3/su2", "sp2/sp1u1", "spin8/g2")
WALLACH = ("su3/t2", "wallach-sp/1,1,1", "wallach-so/2,3,3", "ledger-obata/su2")
TYPE_I = ("product-sym/3xS2",)
CONTROL = ("so6/so3irr",)

ROUNDING = 1e-11          # bound on residuals that are zero in exact arithmetic


def clear_caches(package):
    """Drop every memo the package keeps, so the next build is cold."""
    for mod in package_modules(package):
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def build_spaces(package, specs):
    clear_caches(package)
    for spec in specs:
        package.catalog.make_space(spec)


class Workload:
    name = ""
    setup_specs = ()

    def __init__(self, package, seed):
        self.pkg = package
        self.rng = random.Random(seed)
        self.ops = self.make_ops()

    def setup(self):
        build_spaces(self.pkg, self.setup_specs)

    def make_ops(self):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def known_fault(self, op):
        """Reason an operation is expected to fail, or None."""
        return None

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(list(argv))
        return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# build: one cold catalog.make_space per operation


class Build(Workload):
    """The 12 listed entries and three larger Wallach members, in seeded order."""

    name = "build"
    setup_specs = ("su3/su2",)          # pays first-call costs before timing

    def make_ops(self):
        ops = list(LISTED + LARGE)
        self.rng.shuffle(ops)
        self.last = {}
        return ops

    def run(self, op):
        clear_caches(self.pkg)
        return self.pkg.catalog.make_space(op)

    def check(self, op, out):
        space, dec, meta = out
        fresh = self.last.get(op) is not space
        self.last[op] = space
        if not fresh:
            return "make_space returned the space of an earlier build"
        dim_g, dim_h, dims = expected_dims(op)
        got = (space.g.dim, space.dim_h, tuple(dec.dims))
        if got != (dim_g, dim_h, tuple(dims)):
            return f"dims (g, h, summands) {got}, expected {(dim_g, dim_h, dims)}"
        if (meta["dim_g"], meta["dim_h"], tuple(meta["dims"])) != got:
            return "metadata dims disagree with the space"
        hs, la = self.pkg.homspace, self.pkg.liealg
        residuals = {
            "closure": space.closure_residual,
            "reductivity": space.reductivity_residual,
            "invariance": hs.invariance_residual(space, dec),
            "completeness": dec.completeness_residual(),
            "jacobi": la.jacobi_residual(space.g),
        }
        for what, value in residuals.items():
            if not value <= ROUNDING:
                return f"{what} residual {value:.3e} above rounding level"
        if dec.commutant_dim is None or dec.commutant_dim < dec.arity:
            return f"commutant dim {dec.commutant_dim} below arity {dec.arity}"
        if op == "spin8/g2" and not dec.commutant_dim > dec.arity:
            return "spin8/g2 summands are equivalent, commutant must exceed arity"
        return None


# ---------------------------------------------------------------------------
# check: cli check on a seeded grid of (space, metric) pairs

COEFFS = (0.5, 1.0, 1.5, 2.0, 3.0)
NR_BAND_OP = ("so5/u2", "phi:1,0,0.25", None, 1e-3)


class Check(Workload):
    """Two metrics per space: one linear (normal on five seeded spaces,
    unequal elsewhere) and one phi (two summands) or pert3 (three)."""

    name = "check"
    spaces = TWO_SUMMAND_GO + CONTROL + WALLACH + TYPE_I
    setup_specs = spaces

    def _linear(self, arity, equal):
        if equal:
            return [self.rng.choice(COEFFS)] * arity
        while True:
            lam = [self.rng.choice(COEFFS) for _ in range(arity)]
            if len(set(lam)) > 1:
                return lam

    def make_ops(self):
        rng = self.rng
        normal = set(rng.sample(self.spaces, 5))
        ops = []
        for space in self.spaces:
            arity = len(expected_dims(space)[2])
            lam = self._linear(arity, space in normal)
            ops.append((space, "linear:" + ",".join(f"{x:g}" for x in lam)))
            if arity == 2:
                b = rng.choice((0.0, round(rng.uniform(0.05, 0.2), 3)))
                ops.append((space, f"phi:1,{b:g},{round(rng.uniform(0.1, 0.4), 3):g}"))
            else:
                lam = [rng.choice(COEFFS) for _ in range(3)]
                eps = round(rng.uniform(0.3, 1.0) * min(lam), 3)
                ops.append((space, "pert3:" + ",".join(f"{x:g}" for x in lam + [eps])))
        ops = [(space, metric, rng.randrange(10 ** 6), None) for space, metric in ops]
        rng.shuffle(ops)
        return ops + [NR_BAND_OP]

    def known_fault(self, op):
        if op == NR_BAND_OP:
            return ("nr_check has no INCONCLUSIVE band: NOT_NR at a residual "
                    "between tol and 1000*tol")
        return None

    def run(self, op):
        space, metric, seed, tol = op
        argv = ["check", "--space", space, "--metric", metric]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if tol is not None:
            argv += ["--tol", repr(tol)]
        return self._cli(argv)

    def check(self, op, out):
        space, metric, _, op_tol = op
        rc, text = out
        try:
            rep = json.loads(text)
        except ValueError:
            return f"exit {rc}, no JSON report"
        go, nr = rep["verdicts"]["go"], rep["verdicts"]["nr"]
        if rc != 0 and not (rc == 2 and "INCONCLUSIVE" in (go, nr)):
            return f"exit code {rc} with verdicts {go}/{nr}"
        tol = rep["tol"]
        if (rep["space"], rep["metric"], rep["samples"], tol) != (
                space, metric, 200, 1e-8 if op_tol is None else op_tol):
            return "report does not echo its inputs"
        if not rep["criteria_max_gap"] <= 1e-6:
            return f"criteria_max_gap {rep['criteria_max_gap']:.3e} above 1e-6"
        # the README's bands: <= tol, > 1000 tol, INCONCLUSIVE between
        res = rep["max_residuals"]
        r_go = max(res["go_operator"], res["go_spray"])
        w = rep["witness"]["go"]
        band_go = ("GO" if r_go <= tol else "NOT_GO"
                   if min(w["operator_residual"], w["spray_residual"]) > 1e3 * tol
                   else "INCONCLUSIVE")
        band_nr = ("NR" if res["nr"] <= tol else "NOT_NR" if res["nr"] > 1e3 * tol
                   else "INCONCLUSIVE")
        if (go, nr) != (band_go, band_nr):
            return (f"verdicts {go}/{nr} outside the bands of residuals "
                    f"{r_go:.3e}/{res['nr']:.3e} at tol {tol:g} ({band_go}/{band_nr})")
        if nr == "NR" and go != "GO":
            return "NR without GO"
        if op_tol is None and "INCONCLUSIVE" in (go, nr):
            return f"{space} {metric}: INCONCLUSIVE at the default tol"
        want_go, want_nr = expected_verdicts(space, metric)
        for got, want, prop in ((go, want_go, "GO"), (nr, want_nr, "NR")):
            if want is not None and (got == prop) != want:
                rule = "gives" if want else "rules out"
                return f"{space} {metric}: {got}, the theorem {rule} {prop}"
        return None


def _coefficients(metric):
    kind, _, args = metric.partition(":")
    return kind, [float(x) for x in args.split(",")]


def expected_verdicts(space, metric):
    """(GO holds, NR holds) by the theorems; None where no theorem applies."""
    kind, vals = _coefficients(metric)
    normal = kind == "linear" and len(set(vals)) == 1
    if normal:
        return True, True                      # the normal metric, everywhere
    if space in TWO_SUMMAND_GO:
        return True, False                     # GO, not NR off the normal metric
    if space in WALLACH:
        return False, False                    # GO exactly for the normal metric
    if space in TYPE_I:
        return True, True                      # distinct summands commute
    return None, None


# ---------------------------------------------------------------------------
# verify: the six suites with warm spaces


class Verify(Workload):
    name = "verify"
    setup_specs = LISTED
    suites = ("thm1-converse", "thm2-wallach", "cor-wallach-normal",
              "type1-nr", "crossval", "invariants")

    def make_ops(self):
        return [(suite, self.rng.randrange(10 ** 6)) for suite in self.suites]

    def run(self, op):
        suite, seed = op
        return self._cli(["verify", suite, "--format", "json", "--seed", str(seed)])

    def check(self, op, out):
        rc, text = out
        try:
            rep = json.loads(text)
        except ValueError:
            return f"exit {rc}, no JSON report"
        failed = [it["name"] for it in rep["items"] if not it["passed"]]
        if rc != 0 or not rep["passed"] or failed or not rep["items"]:
            return f"exit {rc}, failed items {failed}"
        if rep["suite"] != op[0] or rep["seed"] != op[1]:
            return "report does not echo its inputs"
        return None


WORKLOADS = {w.name: w for w in (Build, Check, Verify)}
