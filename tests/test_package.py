import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gospace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gospace"


def test_all_names_are_unique_and_resolve():
    names = gospace.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gospace, name)]
    assert missing == []


def test_engine_entry_points_are_exported():
    assert {"residuals", "verdicts"} <= set(gospace.__all__)
    assert gospace.residuals is gospace.gocheck.residuals
    assert gospace.verdicts is gospace.gocheck.verdicts


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gospace import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gospace.__all__)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted(p for p in SRC.glob("*.py")
                   if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


def _references(node):
    return Counter([n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
                   + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def _private_definitions(tree):
    """(name, node) of every top-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _trees(*dirs):
    return {p: ast.parse(p.read_text(), filename=str(p))
            for d in dirs for p in sorted(d.glob("*.py"))}


def test_no_orphaned_private_names():
    # a private helper that nothing in the package uses outside its own
    # definition is dead code, whatever the tests still call
    trees = _trees(SRC)
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
               for path, tree in trees.items()
               for name, node in _private_definitions(tree)
               if refs[name] == _references(node)[name]]
    assert orphans == []


def _public_methods(tree):
    """(class name, node) of every public method or property in a class body."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node


def test_no_unused_public_methods():
    # a public method or property that neither the package nor the benchmark
    # names outside its own definition is dead code; overrides of a base
    # class attribute (argparse's error hook) are called from the base
    trees = _trees(SRC, ROOT / "bench")
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"gospace.{path.stem}")
        for cls_name, node in _public_methods(trees[path]):
            bases = getattr(module, cls_name).__mro__[1:]
            if (refs[node.name] == _references(node)[node.name]
                    and not any(hasattr(base, node.name) for base in bases)):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                              f"{cls_name}.{node.name}")
    assert unused == []


def test_no_unused_public_definitions():
    # a public top-level function or class, exception classes included,
    # that no other code in the package, no benchmark file and not
    # gospace.__all__ names is dead code, whatever the tests still call
    trees = _trees(SRC, ROOT / "bench")
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path in sorted(SRC.glob("*.py")) for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in gospace.__all__
              and refs[node.name] == _references(node)[node.name]]
    assert unused == []


IMPORT_FOOTPRINT = """
import json, sys
sys.path.insert(0, {src!r})
import gospace, gospace.cli
gospace.parse_metric("phi:1,0.1,0.25")
gospace.parse_metric("pert3:1,2,3,0.5")
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "random"]))))
"""


def test_import_loads_neither_numpy_polynomial_nor_numpy_random():
    # gospace needs numpy core only: numpy.polynomial is never loaded, and
    # numpy.random (6 MiB of resident memory) waits for the first sampling,
    # which accepting a phi or pert3 metric does not do; a fresh interpreter
    # keeps this test process's imports out of the count
    script = IMPORT_FOOTPRINT.format(src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


TRACE_SMOKE = """
import collections, contextlib, importlib, io, json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import gospace
for mod in ("cli", "catalog", "suites", "gocheck", "finsler", "homspace", "liealg", "_linalg"):
    importlib.import_module("gospace." + mod)
from tracing import Tracer, install
tracer = Tracer()
install(tracer, gospace)
with contextlib.redirect_stdout(io.StringIO()):
    rc = gospace.cli.main(["verify", "thm1-converse", "--samples", "20"])
gospace.catalog._make_space_cached.cache_clear()
gospace.catalog.make_space("wallach-so/3,3,3")
print(json.dumps({{"rc": rc, "calls": collections.Counter(s[0] for s in tracer.spans)}}))
"""


def test_bench_tracer_sees_the_centralizer_layers():
    # the benchmark's tracer rebinds the package's functions by name, so a
    # rename breaks its per-layer metrics (the centralizer layers, the metric
    # parsing, convexity screen and sample plans of verify, the build layers
    # of a cold make_space); a subprocess keeps the rebinding out of this
    # test process
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    script = TRACE_SMOKE.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["rc"] == 0
    for name in ("homspace.centralizer_in_h", "homspace.tilde_centralizer",
                 "gocheck.centralizer_condition_check", "homspace.build",
                 "homspace.symmetric_commutant_dim", "finsler.parse_metric",
                 "finsler.strong_convexity_check", "gocheck.sample_plan"):
        assert out["calls"].get(name, 0) > 0, name
