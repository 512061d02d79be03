import csv
import json
from pathlib import Path

import pytest

from gospace import cli, gocheck, suites


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------
# list


def test_list_text(capsys):
    code, out, _ = run(capsys, "list")
    assert code == cli.EXIT_OK
    assert "so5/u2" in out and "spin8/g2" in out


def test_list_json_and_tag_filter(capsys):
    code, out, _ = run(capsys, "list", "--tags", "two-summand-go",
                       "--format", "json")
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    ids = {r["id"] for r in rows}
    assert ids == {"so5/u2", "su3/su2", "sp2/sp1u1", "spin8/g2"}


# --------------------------------------------------------------------------
# check: exit codes


def test_check_go_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--space", "so5/u2",
                       "--metric", "linear:1,2", "--samples", "40")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["verdicts"]["go"] == "GO"


def test_check_with_orbit_tangent_zero_rows(capsys):
    # one face row of the plan lies in m1, which h fixes, so its [h, u] is
    # zero; the check still ends in a verdict.  The worst row is the unit
    # u = u1 + u3 with |u1|^2 = |u3|^2 = 1/2, where |[u, A_u(u)]| = 1/2 and
    # D(u) = |u| |u1 + 3 u3| = sqrt(5)
    code, out, _ = run(capsys, "check", "--space", "wallach-so/1,1,2",
                       "--metric", "linear:1,2,3")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["verdicts"] == {"go": "NOT_GO", "nr": "NOT_NR"}
    assert rep["max_residuals"]["go_operator"] == pytest.approx(0.5 / 5 ** 0.5, abs=1e-12)


def test_check_expect_match_and_mismatch(capsys):
    args = ("check", "--space", "su3/t2", "--metric", "linear:1,1,2",
            "--samples", "40")
    code, _, _ = run(capsys, *args, "--expect", "NOT_GO")
    assert code == cli.EXIT_OK
    code, _, err = run(capsys, *args, "--expect", "GO")
    assert code == cli.EXIT_MISMATCH
    assert "expected" in err


def test_check_expect_nr_verdicts(capsys):
    args = ("check", "--space", "product-sym/3xS2", "--metric", "linear:1,2,3",
            "--samples", "40")
    code, _, _ = run(capsys, *args, "--expect", "NR")
    assert code == cli.EXIT_OK
    code, _, _ = run(capsys, *args, "--expect", "NOT_NR")
    assert code == cli.EXIT_MISMATCH


def test_check_inconclusive_exit_two(capsys):
    code, out, _ = run(capsys, "check", "--space", "su3/t2",
                       "--metric", "pert3:1,1,1,0.0001", "--samples", "40")
    assert code == cli.EXIT_INCONCLUSIVE
    assert json.loads(out)["verdicts"]["go"] == "INCONCLUSIVE"


NR_BAND = ("check", "--space", "so5/u2", "--metric", "phi:1,0,0.25",
           "--tol", "1e-3")


def test_check_nr_inconclusive_exit_two(capsys):
    # NR residual 0.063 lies between tol and 1000 * tol; GO passes
    code, out, _ = run(capsys, *NR_BAND)
    assert code == cli.EXIT_INCONCLUSIVE
    rep = json.loads(out)
    assert rep["verdicts"] == {"go": "GO", "nr": "INCONCLUSIVE"}
    assert 1e-3 < rep["max_residuals"]["nr"] <= 1.0


@pytest.mark.parametrize("argv, expect, code", [
    (NR_BAND, "GO", cli.EXIT_OK),
    (NR_BAND, "INCONCLUSIVE", cli.EXIT_MISMATCH),      # compared against GO
    (NR_BAND, "NOT_NR", cli.EXIT_MISMATCH),
    (("check", "--space", "su3/t2", "--metric", "pert3:1,1,1,0.0001",
      "--samples", "40"), "INCONCLUSIVE", cli.EXIT_OK),
    (("check", "--space", "su3/t2", "--metric", "pert3:1,1,1,0.0001",
      "--samples", "40"), "NOT_NR", cli.EXIT_MISMATCH),
    (("check", "--space", "su3/t2", "--metric", "pert3:1,1,1,0.0001",
      "--samples", "40"), "GO", cli.EXIT_MISMATCH),
])
def test_check_expect_decides_exit_before_inconclusive(capsys, argv, expect, code):
    got, _, err = run(capsys, *argv, "--expect", expect)
    assert got == code
    assert ("expected" in err) == (code == cli.EXIT_MISMATCH)


def test_check_metric_rejected_exit_three(capsys):
    code, _, err = run(capsys, "check", "--space", "so5/u2",
                       "--metric", "phi:1,-2")
    assert code == cli.EXIT_METRIC_REJECTED
    assert "metric rejected" in err


@pytest.mark.parametrize("scaled,plain,verdicts", [
    ("phi:1e-6", "phi:1", {"go": "GO", "nr": "NR"}),          # the normal metric
    ("phi:1e-6,0,2.5e-7", "phi:1,0,0.25", {"go": "GO", "nr": "NOT_NR"}),
])
def test_check_scaled_profile_passes_like_the_profile(capsys, scaled, plain, verdicts):
    # the convexity screen's cutoff is relative to the largest eigenvalue of
    # its scan, so a profile scaled by 1e-6 is accepted like the profile itself
    for metric in (scaled, plain):
        code, out, _ = run(capsys, "check", "--space", "so5/u2", "--metric", metric,
                           "--samples", "100")
        assert code == cli.EXIT_OK
        assert json.loads(out)["verdicts"] == verdicts


@pytest.mark.parametrize("metric,lo", [("linear:1e-15,1", "1.000e-15"),
                                       ("linear:1e-20,1", "1.000e-20"),
                                       ("linear:1,1e-10", "1.000e-10")])
def test_check_ill_conditioned_linear_exit_three(capsys, metric, lo):
    # positive definite, but at or below the convexity screen's relative
    # cutoff: a metric rejection, not an internal error
    line = (f"metric rejected: fundamental tensor has eigenvalue {lo} "
            "at every point (largest 1.000e+00)\n")
    assert run(capsys, "check", "--space", "so5/u2", "--metric", metric) == (
        cli.EXIT_METRIC_REJECTED, "", line)


def test_check_profile_trailing_zeros_do_not_count_towards_the_degree(capsys):
    padded, plain = "phi:1,0,0.25,0,0,0,0,0,0,0", "phi:1,0,0.25"
    reports = []
    for metric in (padded, plain):
        code, out, _ = run(capsys, "check", "--space", "so5/u2", "--metric", metric,
                           "--samples", "40")
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        assert rep.pop("metric") == metric
        rep.pop("wallclock")
        reports.append(rep)
    assert reports[0] == reports[1]
    code, out, err = run(capsys, "check", "--space", "so5/u2",
                         "--metric", "phi:1,0,0.25,0,0,0,0,0,0,1e-9")
    assert (code, out, err) == (cli.EXIT_METRIC_REJECTED, "",
                                "metric rejected: profile degree must be between 0 and 8\n")


def test_check_nonconvex_pert_exit_three(capsys):
    code, _, err = run(capsys, "check", "--space", "su3/t2",
                       "--metric", "pert3:1,1,1,40")
    assert code == cli.EXIT_METRIC_REJECTED


_FACE_CURVATURE = ("phi(0) + phi''(0) = {} is negative at the theta_2 = 0 face, "
                   "which is not C^2")


@pytest.mark.parametrize("metric,spaces,message", [
    ("phi:1,1.024,-0.506", ("so5/u2", "su3/su2", "spin8/g2"), _FACE_CURVATURE.format(-0.012)),
    ("phi:1,0.121,-0.504,0.333", ("so5/u2", "su3/su2", "spin8/g2"),
     _FACE_CURVATURE.format(-0.008)),
    ("pert3:0.967,0.22,2.008,2.613", ("su3/t2", "wallach-sp/1,1,1", "ledger-obata/su2"),
     "fundamental tensor has eigenvalue -1.331e-01 at block norms "
     "[0.333333, 0.285714, 0.380952]"),
    ("phi:1,-1e-13,0.25", ("spin8/g2",),
     "phi'(0) = -1e-13 is negative, so dL/dtheta_2 -> -inf at the theta_2 = 0 face"),
])
def test_check_metrics_that_are_not_strongly_convex_exit_three(capsys, metric, spaces, message):
    # none is strongly convex, so each is a metric rejection and never an
    # internal error (exit 5), whatever the space
    for space in spaces:
        assert run(capsys, "check", "--space", space, "--metric", metric) == (
            cli.EXIT_METRIC_REJECTED, "", f"metric rejected: {message}\n")


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("space,metric,message", [
    ("so5/u2", "linear:1e200,1e200", "coefficient 1e+200 exceeds 1e+150 in magnitude"),
    ("so5/u2", "phi:1e200", "phi^2 coefficient inf exceeds 1e+150 in magnitude"),
    ("so5/u2", "phi:1e76", "phi^2 coefficient 1e+152 exceeds 1e+150 in magnitude"),
    ("su3/t2", "pert3:1,1,1,-2e150", "coefficient -2e+150 exceeds 1e+150 in magnitude"),
    ("so5/u2", "linear:1e-200,1e-200", "coefficients are all below 1e-150 in magnitude"),
    ("so5/u2", "phi:1e-76", "phi^2 coefficients are all below 1e-150 in magnitude"),
    ("so5/u2", "phi:1e-200,0,1e-201", "phi^2 coefficients are all below 1e-150 in magnitude"),
    ("su3/t2", "pert3:1e-151,1e-151,1e-151,0", "coefficients are all below 1e-150 in magnitude"),
])
def test_check_rejects_coefficients_whose_squares_overflow(capsys, space, metric, message):
    # or underflow: a largest coefficient below 1e-150 leaves |A_u(u)|^2
    # below the smallest normal float
    code, out, err = run(capsys, "check", "--space", space, "--metric", metric)
    assert (code, out, err) == (cli.EXIT_BAD_SPEC, "", f"bad spec: {message}\n")


@pytest.mark.parametrize("metric", ["linear:1e150,1e150", "phi:1e75",
                                    "linear:1e-100,1e-100", "phi:1e-74"])
def test_check_largest_coefficients_give_strict_json(capsys, metric):
    # the normal metric at the largest and at small scales: D(u) = |u| |A_u(u)|
    # scales with L like every residual's numerator, so both verdicts hold
    code, out, _ = run(capsys, "check", "--space", "so5/u2", "--metric", metric,
                       "--samples", "100")
    assert code == cli.EXIT_OK
    assert _strict_json(out)["verdicts"] == {"go": "GO", "nr": "NR"}


def test_check_all_zero_coefficients_stay_metric_rejections(capsys):
    for metric in ("linear:0,0", "phi:0"):
        code, out, _ = run(capsys, "check", "--space", "so5/u2", "--metric", metric)
        assert (code, out) == (cli.EXIT_METRIC_REJECTED, "")


def test_json_reports_refuse_nan():
    for fmt in (cli._format_check, cli._format_verify):
        with pytest.raises(ValueError, match="not JSON compliant"):
            fmt({"max_residual": float("nan")}, "json")


@pytest.mark.parametrize("argv", [
    ("check", "--space", "nope/zilch", "--metric", "linear:1,1"),
    ("check", "--space", "so5/u2", "--metric", "bogus:1,1"),
    ("check", "--space", "so5/u2", "--metric", "linear:1,2,3"),
    ("check", "--space", "wallach-so/2,2", "--metric", "linear:1,1,1"),
    ("check", "--space", "wallach-so/9,9,9", "--metric", "linear:1,1,1"),
    ("check", "--space", "so5/u2"),
    ("verify", "no-such-suite"),
])
def test_bad_spec_exit_four(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == cli.EXIT_BAD_SPEC


@pytest.mark.parametrize("space, metric, line", [
    ("so5/u2", "linear:1,x", "bad spec: bad number 'x' in metric (column 10)\n"),
    ("so5/u2", "linear:1,nan", "bad spec: bad number 'nan' in metric (column 10)\n"),
    ("so5/u2", "linear:1,inf", "bad spec: bad number 'inf' in metric (column 10)\n"),
    ("so5/u2", "phi:1,0,nan", "bad spec: bad number 'nan' in metric (column 9)\n"),
    ("so5/u2", "phi:inf", "bad spec: bad number 'inf' in metric (column 5)\n"),
    ("wallach-so/2,a,2", "linear:1,1,1",
     "bad spec: bad integer 'a' in 'wallach-so/2,a,2' (column 14)\n"),
])
def test_bad_spec_names_column_once(capsys, space, metric, line):
    code, _, err = run(capsys, "check", "--space", space, "--metric", metric)
    assert code == cli.EXIT_BAD_SPEC
    assert err == line


def test_bad_numbers_exit_four(capsys):
    code, _, _ = run(capsys, "check", "--space", "so5/u2",
                     "--metric", "linear:1,1", "--samples", "0")
    assert code == cli.EXIT_BAD_SPEC
    code, _, _ = run(capsys, "check", "--space", "so5/u2",
                     "--metric", "linear:1,1", "--tol", "-1")
    assert code == cli.EXIT_BAD_SPEC


# --------------------------------------------------------------------------
# check: report content


def test_check_report_schema(capsys):
    code, out, _ = run(capsys, "check", "--space", "sp2/sp1u1",
                       "--metric", "phi:1,0.1", "--samples", "40",
                       "--seed", "9")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["schema_version"] == cli.SCHEMA_VERSION
    assert rep["space"] == "sp2/sp1u1"
    assert rep["metric"] == "phi:1,0.1"
    assert rep["samples"] == 40 and rep["seed"] == 9
    assert set(rep["max_residuals"]) == {"go_operator", "go_spray", "nr"}
    assert rep["verdicts"] == {"go": "GO", "nr": "NOT_NR"}
    assert rep["witness"]["nr"]["residual"] > 1e-3
    # wallclock is informational and always the trailing key
    assert list(rep)[-1] == "wallclock"


EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "report.example.json"


def _key_tree(obj):
    return {k: _key_tree(v) for k, v in obj.items()} if isinstance(obj, dict) else None


def test_report_example_matches_fresh_run(capsys):
    # the README's example report is the output of this command; the GO
    # residuals and witness sit at rounding level and are not compared
    example = json.loads(EXAMPLE.read_text())
    code, out, _ = run(capsys, "check", "--space", "so5/u2",
                       "--metric", "phi:1,0,0.25", "--samples", "100")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert _key_tree(rep) == _key_tree(example)
    for key in ("schema_version", "command", "space", "metric", "samples",
                "seed", "tol", "verdicts"):
        assert rep[key] == example[key], key
    assert rep["max_residuals"]["nr"] == pytest.approx(
        example["max_residuals"]["nr"], rel=1e-12, abs=0.0)
    assert rep["witness"]["nr"]["residual"] == pytest.approx(
        example["witness"]["nr"]["residual"], rel=1e-12, abs=0.0)


def test_check_deterministic_modulo_wallclock(capsys):
    args = ("check", "--space", "su3/su2", "--metric", "phi:1,0,0.25",
            "--samples", "50", "--seed", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wallclock"), r2.pop("wallclock")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_parser_built_once_per_process(capsys):
    # the parser is kept across calls: a usage error and then a valid check
    # in one process give what two fresh processes give
    calls = [("check", "--space", "so5/u2", "--metric", "linear:1,2", "--bogus"),
             ("check", "--space", "so5/u2", "--metric", "linear:1,2", "--samples", "30")]

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        return code, json.loads(out) if out else out, err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert cli._build_parser() is cli._build_parser()
    kept = [outcome(argv) for argv in calls]
    for got in fresh + kept:
        if got[1]:
            got[1].pop("wallclock")
    assert kept == fresh
    assert [code for code, _, _ in kept] == [cli.EXIT_BAD_SPEC, cli.EXIT_OK]
    assert kept[0][2] == "usage error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("argv", [
    ("check", "--space", "su3/t2", "--metric", "linear:1,2,3", "--samples", "30"),
    ("verify", "invariants", "--samples", "5"),
], ids=["check", "verify"])
def test_threads_is_an_unknown_option(capsys, argv):
    # --threads was a no-op and is gone; it fails like any unknown option
    code, out, err = run(capsys, *argv, "--threads", "3")
    assert (code, out, err) == (cli.EXIT_BAD_SPEC, "",
                                "usage error: unrecognized arguments: --threads 3\n")


def test_check_out_file_and_csv(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "check", "--space", "so5/u2",
                       "--metric", "linear:1,1", "--samples", "30",
                       "--format", "csv", "--out", str(path))
    assert code == cli.EXIT_OK
    assert str(path) in out
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["space", "metric", "go", "nr"]
    row = next(csv.reader([lines[1]]))
    assert row[0] == "so5/u2" and row[2] == "GO"


@pytest.mark.parametrize("argv", [
    ("list",),
    ("check", "--space", "so5/u2", "--metric", "linear:1,2", "--samples", "20"),
    ("verify", "type1-nr", "--samples", "20"),
])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == cli.EXIT_BAD_SPEC
    assert err == f"usage error: cannot write {path}: No such file or directory\n"
    assert out == "" and not path.parent.exists()


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", "--space", "so5/u2",
                       "--metric", "linear:1,1", "--samples", "30",
                       "--format", "text")
    assert code == cli.EXIT_OK
    assert "go      GO" in out and "nr      NR" in out


def test_tol_env_override(capsys, monkeypatch):
    # a tolerance loose enough to swallow the NOT_GO witness flips the verdict
    monkeypatch.setenv("GOSPACE_TOL", "1.0")
    code, out, _ = run(capsys, "check", "--space", "su3/t2",
                       "--metric", "linear:1,1,2", "--samples", "40")
    assert code == cli.EXIT_OK
    assert json.loads(out)["tol"] == 1.0
    monkeypatch.setenv("GOSPACE_TOL", "junk")
    code, _, _ = run(capsys, "check", "--space", "su3/t2",
                     "--metric", "linear:1,1,2", "--samples", "40")
    assert code == cli.EXIT_BAD_SPEC


@pytest.mark.parametrize("tol, message", [
    ("nan", "tolerance must be positive"),
    ("0", "tolerance must be positive"),
    ("-1", "tolerance must be positive"),
    ("-1e-8", "tolerance must be positive"),
    ("-1E-8", "tolerance must be positive"),
    ("-inf", "tolerance must be positive"),
    ("inf", "tolerance must be finite"),
])
@pytest.mark.parametrize("argv", [("check", "--space", "so5/u2", "--metric", "linear:1,2"),
                                  ("verify", "crossval")])
def test_tol_must_be_positive_and_finite(capsys, monkeypatch, tol, message, argv):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert (code, out, err) == (cli.EXIT_BAD_SPEC, "", f"usage error: {message}\n")
    monkeypatch.setenv("GOSPACE_TOL", tol)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (cli.EXIT_BAD_SPEC, "", f"usage error: {message}\n")


def test_tol_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("GOSPACE_TOL", "1.0")
    code, out, _ = run(capsys, "check", "--space", "su3/t2",
                       "--metric", "linear:1,1,2", "--samples", "40",
                       "--tol", "1e-8")
    assert code == cli.EXIT_OK  # NOT_GO with no --expect still exits 0
    assert json.loads(out)["verdicts"]["go"] == "NOT_GO"


# --------------------------------------------------------------------------
# verify


def test_verify_type1_nr(capsys):
    code, out, _ = run(capsys, "verify", "type1-nr", "--samples", "30")
    assert code == cli.EXIT_OK
    assert "PASS" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "cor-wallach-normal",
                       "--samples", "30", "--format", "json")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["suite"] == "cor-wallach-normal"
    assert rep["passed"] is True
    assert all(item["passed"] for item in rep["items"])


def test_verify_crossval_passes_at_tol_1e_11(capsys):
    # the Latifi oracle's 5-point stencil keeps it within about 2e-12 of the
    # operator residual, so every band still agrees two decades below 1e-8
    code, out, _ = run(capsys, "verify", "crossval", "--tol", "1e-11", "--format", "json")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True and len(rep["items"]) == 24


def test_verify_draws_each_plan_once(capsys, monkeypatch):
    # battery metrics that share a boundary pattern share their space's plan:
    # thm1-converse has four two-summand spaces with two patterns each, and
    # invariants draws one plan for the normal metric of each listed entry
    calls, sample_plan = [], gocheck.sample_plan

    def counted(*args):
        calls.append(args)
        return sample_plan(*args)
    monkeypatch.setattr(gocheck, "sample_plan", counted)
    counts = {}
    for name in suites.SUITE_NAMES:
        calls.clear()
        code, _, _ = run(capsys, "verify", name, "--format", "json")
        assert code == cli.EXIT_OK
        counts[name] = len(calls)
    assert counts == {"thm1-converse": 8, "thm2-wallach": 6, "cor-wallach-normal": 2,
                      "type1-nr": 1, "crossval": 8, "invariants": 12}


def test_verify_parses_each_battery_once(capsys, monkeypatch):
    # a suite call parses each battery once, however many spaces it covers,
    # so each convexity screen runs once; invariants parses the normal
    # metric of each listed entry and two metrics of its own
    calls, parse_metric = [], suites.parse_metric

    def counted(text, *args):
        calls.append(text)
        return parse_metric(text, *args)
    monkeypatch.setattr(suites, "parse_metric", counted)
    counts = {}
    for name in suites.SUITE_NAMES:
        calls.clear()
        code, _, _ = run(capsys, "verify", name, "--format", "json")
        assert code == cli.EXIT_OK
        counts[name] = len(calls)
    assert counts == {"thm1-converse": 5, "thm2-wallach": 4, "cor-wallach-normal": 4,
                      "type1-nr": 4, "crossval": 9, "invariants": 14}
