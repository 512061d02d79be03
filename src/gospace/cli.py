"""Command-line driver: catalog listing, single checks, named suites.

Exit codes: 0 success / expectation met; 1 expectation mismatch or suite
failure; 2 a GO or NR verdict inconclusive and no expectation given; 3
metric rejected (bad profile or not strongly convex); 4 bad space/metric/flag
syntax; 5 internal error.
Reports with identical configuration and seed are byte-identical apart
from the trailing wallclock field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import catalog, gocheck, suites
from .errors import (GoSpaceError, InvalidProfileError,
                     NonPositiveCoefficientError, NotStronglyConvexError,
                     SpecFormatError, UnknownSpecError, UnsupportedRankError)
from .finsler import parse_metric

SCHEMA_VERSION = "1"
DEFAULT_TOL = 1e-8

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_METRIC_REJECTED = 3
EXIT_BAD_SPEC = 4
EXIT_INTERNAL = 5

SAMPLED_NOTE = ("sampled certificate: NOT_GO and NOT_NR carry a concrete witness "
                "direction; GO and NR mean every sampled direction passed at the "
                "stated tolerance and are evidence, not a proof")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # INCONCLUSIVE exit code; route them to 4 instead
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(prog="gospace",
                description="decide geodesic-orbit and naturally-reductive "
                            "properties of block-norm metrics on the built-in "
                            "catalog of compact homogeneous spaces")
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("list", help="print the catalog")
    pl.add_argument("--tags", default=None,
                    help="only entries whose tag list contains this substring")
    pl.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pl.add_argument("--out", default=None, help="write the listing to a file")

    pc = sub.add_parser("check", help="run go/nr checks for one space and metric")
    pc.add_argument("--space", required=True, help="catalog id, e.g. so5/u2")
    pc.add_argument("--metric", required=True,
                    help="metric spec: linear:..., phi:..., or pert3:...")
    pc.add_argument("--samples", type=int, default=200)
    pc.add_argument("--seed", type=int, default=42)
    pc.add_argument("--tol", type=float, default=None,
                    help=f"residual tolerance (default {DEFAULT_TOL:g}, "
                         "or the GOSPACE_TOL environment variable)")
    pc.add_argument("--expect",
                    choices=("GO", "NOT_GO", "INCONCLUSIVE", "NR", "NOT_NR"),
                    default=None, help="exit 1 unless the verdict matches")
    pc.add_argument("--format", choices=("json", "csv", "text"), default="json")
    pc.add_argument("--out", default=None, help="write the report to a file")
    pc.add_argument("--threads", type=int, default=1,
                    help="accepted and echoed in the report; has no effect")

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=suites.SUITE_NAMES)
    pv.add_argument("--samples", type=int, default=None,
                    help="override the suite's default sample count")
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.add_argument("--out", default=None)
    pv.add_argument("--threads", type=int, default=1,
                    help="accepted and echoed in the report; has no effect")
    return p


def _resolve_tol(args):
    if getattr(args, "tol", None) is not None:
        tol = args.tol
    else:
        env = os.environ.get("GOSPACE_TOL", "")
        try:
            tol = float(env) if env else DEFAULT_TOL
        except ValueError:
            raise _UsageError(f"GOSPACE_TOL is not a number: {env!r}")
    if tol <= 0.0:
        raise _UsageError("tolerance must be positive")
    return tol


def _validate_numbers(args):
    if getattr(args, "samples", None) is not None and args.samples <= 0:
        raise _UsageError("--samples must be positive")
    if getattr(args, "seed", 0) < 0:
        raise _UsageError("--seed must be nonnegative")
    if getattr(args, "threads", 1) < 1:
        raise _UsageError("--threads must be at least 1")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {out_path}\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_list(args):
    rows = catalog.list_catalog()
    if args.tags:
        rows = [r for r in rows if any(args.tags in t for t in r[2])]
    if args.format == "json":
        body = json.dumps([{"id": rid, "description": desc, "tags": list(tags)}
                           for rid, desc, tags in rows], indent=2) + "\n"
    elif args.format == "csv":
        body = _csv_text(("id", "description", "tags"),
                         [(rid, desc, ";".join(tags)) for rid, desc, tags in rows])
    else:
        lines = [f"{rid:<20} {','.join(tags):<50} {desc}" for rid, desc, tags in rows]
        body = "\n".join(lines) + "\n"
    _emit(body, args.out)
    return EXIT_OK


def _check_report(args, tol, fn, go, nr, wallclock):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "space": args.space,
        "metric": fn.spec_string,
        "samples": args.samples,
        "seed": args.seed,
        "tol": tol,
        "threads": args.threads,
        "verdicts": {"go": go.verdict, "nr": nr.verdict},
        "max_residuals": {
            "go_operator": go.extras["max_residual_operator"],
            "go_spray": go.extras["max_residual_spray"],
            "nr": nr.max_residual,
        },
        "criteria_max_gap": go.extras["max_criteria_gap"],
        "witness": {"go": go.witness, "nr": nr.witness},
        "note": SAMPLED_NOTE,
        "wallclock": wallclock,
    }


def _format_check(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        r = report
        return _csv_text(
            ("space", "metric", "go", "nr", "go_operator_residual",
             "go_spray_residual", "nr_residual", "samples", "seed", "tol"),
            [(r["space"], r["metric"], r["verdicts"]["go"], r["verdicts"]["nr"],
              repr(r["max_residuals"]["go_operator"]),
              repr(r["max_residuals"]["go_spray"]),
              repr(r["max_residuals"]["nr"]), r["samples"], r["seed"],
              repr(r["tol"]))])
    r = report
    lines = [
        f"space   {r['space']}",
        f"metric  {r['metric']}",
        f"go      {r['verdicts']['go']}   (operator {r['max_residuals']['go_operator']:.3e},"
        f" spray {r['max_residuals']['go_spray']:.3e})",
        f"nr      {r['verdicts']['nr']}   (residual {r['max_residuals']['nr']:.3e})",
        f"config  samples={r['samples']} seed={r['seed']} tol={r['tol']:g}",
        f"note    {r['note']}",
    ]
    return "\n".join(lines) + "\n"


def cmd_check(args):
    tol = _resolve_tol(args)
    _validate_numbers(args)
    t0 = time.time()
    space, dec, _meta = catalog.make_space(args.space)
    fn = parse_metric(args.metric, arity=dec.arity)
    go, nr = gocheck.verdicts(space, dec, fn, samples=args.samples,
                              seed=args.seed, tol=tol)
    report = _check_report(args, tol, fn, go, nr, round(time.time() - t0, 6))
    _emit(_format_check(report, args.format), args.out)

    # an expectation decides the exit alone: NR/NOT_NR against the NR
    # verdict, the rest against GO, so INCONCLUSIVE can be expected too
    if args.expect is not None:
        got = nr.verdict if args.expect in ("NR", "NOT_NR") else go.verdict
        if got != args.expect:
            print(f"expected {args.expect}, got {got}", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK
    if gocheck.INCONCLUSIVE in (go.verdict, nr.verdict):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _format_verify(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(("suite", "item", "passed", "detail"),
                         [(report["suite"], it["name"], it["passed"], it["detail"])
                          for it in report["items"]])
    lines = [f"suite {report['suite']}: "
             f"{'PASS' if report['passed'] else 'FAIL'} "
             f"({sum(it['passed'] for it in report['items'])}/{len(report['items'])} items)"]
    for it in report["items"]:
        mark = "ok  " if it["passed"] else "FAIL"
        lines.append(f"  {mark} {it['name']}  [{it['detail']}]")
    return "\n".join(lines) + "\n"


def cmd_verify(args):
    tol = _resolve_tol(args)
    _validate_numbers(args)
    t0 = time.time()
    result = suites.run_suite(args.suite, samples=args.samples, seed=args.seed,
                              tol=tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "suite": result.suite,
        "samples": args.samples,
        "seed": args.seed,
        "tol": tol,
        "threads": args.threads,
        "passed": result.passed,
        "items": [it.to_dict() for it in result.items],
        "wallclock": round(time.time() - t0, 6),
    }
    _emit(_format_verify(report, args.format), args.out)
    return EXIT_OK if result.passed else EXIT_MISMATCH


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return cmd_list(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_verify(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_BAD_SPEC
    except (InvalidProfileError, NotStronglyConvexError,
            NonPositiveCoefficientError) as exc:
        sys.stderr.write(f"metric rejected: {exc}\n")
        return EXIT_METRIC_REJECTED
    except SpecFormatError as exc:
        sys.stderr.write(f"bad spec: {exc}\n")
        return EXIT_BAD_SPEC
    except (UnknownSpecError, UnsupportedRankError) as exc:
        sys.stderr.write(f"unknown spec: {exc}\n")
        return EXIT_BAD_SPEC
    except GoSpaceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


def entrypoint():
    sys.exit(main())
