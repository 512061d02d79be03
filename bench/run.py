"""Benchmark for gospace: cold space builds, sampled checks, verify suites.

Usage, from the root of a checkout:

    python3 bench/run.py --workload build|check|verify --seed N --seconds S --trace 0|1

One process, one caller, closed loop: each operation starts when the
previous one has returned.  The run repeats whole passes over the
workload's fixed operation list, at least one, and stops at the pass
boundary nearest to ``--seconds``.  It checks every output and prints one
JSON object as the last line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics derived from the spans plus the tracing overhead.
"""

import os
import sys
import time

T0 = time.perf_counter()

# BLAS threads must be fixed before numpy loads: on a small shared machine
# the default thread pool makes cold builds of small spaces jump by 10x
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GOSPACE_TOL", None)      # the workloads run at the default tol

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("build", "check", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import gospace from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gospace" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gospace sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("gospace")
    if Path(pkg.__file__).resolve().parent != (src / "gospace").resolve():
        raise SystemExit(f"bench: gospace imported from {pkg.__file__}, not {src}")
    for mod in ("cli", "catalog", "suites", "gocheck", "finsler", "homspace",
                "liealg", "_linalg"):
        importlib.import_module(f"gospace.{mod}")
    return pkg


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


class Tally:
    """Attempted and failed operations; each distinct failure printed once."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.seen = set()

    def record(self, op, reason):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        known = self.workload.known_fault(op)
        if known is None:
            self.unexpected += 1
        if (op, reason) not in self.seen:
            self.seen.add((op, reason))
            tag = "known fault" if known else "FAILED"
            print(f"# {tag}: {op}: {reason}" + (f" [{known}]" if known else ""))


def run_passes(workload, seconds, tally, tracer=None):
    """Whole passes, at least one, ending at the pass boundary nearest to
    ``seconds``; returns each pass's time.

    A pass's time is the wall time of its operations; output checks run
    between operations and are not timed (nor traced).
    """
    times = []
    start = time.perf_counter()
    quiet = contextlib.nullcontext
    while True:
        pass_s = 0.0
        for op in workload.ops:
            out, reason = None, None
            with tracer.span(f"bench.{workload.name}") if tracer else quiet():
                t = time.perf_counter()
                try:
                    out = workload.run(op)
                except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                    reason = traceback.format_exc().strip().splitlines()[-1]
                pass_s += time.perf_counter() - t
            if reason is None:
                with tracer.paused() if tracer else quiet():
                    try:
                        reason = workload.check(op, out)
                    except (KeyError, TypeError, ValueError, AttributeError) as exc:
                        reason = f"malformed output: {exc!r}"
            tally.record(op, reason)
        times.append(pass_s)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(times) >= seconds:
            return times


def main(argv=None):
    args = parse_args(argv)
    pkg = import_package()
    import tracing
    import workloads
    import_s = time.perf_counter() - T0

    workload = workloads.WORKLOADS[args.workload](pkg, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t)

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    tally = Tally(workload)
    if args.trace:
        untraced = run_passes(workload, args.seconds / 2, tally)
        tracer = tracing.Tracer()
        tracing.install(tracer, pkg)
        traced = run_passes(workload, args.seconds / 2, tally, tracer)
        metrics = tracing.layer_metrics(tracer.spans, len(traced), untraced, traced)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "passes": len(traced), "env": env})
        print(f"# passes untraced {untraced} traced {traced}; spans in {path.relative_to(ROOT)}")
    else:
        times = run_passes(workload, args.seconds, tally)
        ops = len(workload.ops) * len(times)
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": ops / sum(times), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
        }
        print(f"# passes {times}; import {import_s:.4f} s, setups {setups}")
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
