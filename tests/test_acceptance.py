"""End-to-end acceptance battery.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL summary line (visible even under captured output).  Run order is
fixed by the numeric prefixes.
"""

import json

import numpy as np

from conftest import fd_hessian
from gospace import catalog, cli, finsler, gocheck, liealg, suites


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


ALL_IDS = [row[0] for row in catalog.list_catalog()]

TWO_SUMMAND_GO = [row[0] for row in catalog.list_catalog()
                  if "two-summand-go" in row[2]]

THREE_SUMMAND = [row[0] for row in catalog.list_catalog()
                 if "three-summand" in row[2]]

# (lambda, mu) coefficient pairs of the two-block Riemannian replay
LINEAR_PAIRS = ((1.0, 2.0), (2.0, 1.0), (3.0, 0.5), (1.0, 10.0),
                (0.1, 1.0), (5.0, 7.0))


def test_01_algebra_foundations(capsys):
    worst_jac = worst_inv = 0.0
    min_eig = np.inf
    for rid in ALL_IDS:
        space, _, _ = catalog.make_space(rid)
        g = space.g
        worst_jac = max(worst_jac, liealg.jacobi_residual(g, trials=100, seed=0))
        worst_inv = max(worst_inv, liealg.q_invariance_residual(g, trials=100, seed=0))
        q = np.asarray(g.q_form)
        assert np.max(np.abs(q + np.asarray(g.killing))) == 0.0
        min_eig = min(min_eig, float(np.linalg.eigvalsh(q)[0]))
    ok = worst_jac <= 1e-10 and worst_inv <= 1e-10 and min_eig > 0
    report(capsys, "algebra foundations", ok,
           f"jacobi<={worst_jac:.2e} invariance<={worst_inv:.2e} "
           f"min_eig(Q)={min_eig:.2f} over {len(ALL_IDS)} algebras")


def _block_brackets(space, dec, i, j):
    hs, ms = [], []
    for a in dec.summands[i]:
        for b in dec.summands[j]:
            bh, bm = space.bracket_mm(a, b)
            hs.append(bh)
            ms.append(bm)
    return np.array(hs), np.array(ms)


def test_02_bracket_structure_replay(capsys):
    diag_leak = 0.0
    cross_ok = True
    for rid in THREE_SUMMAND:
        space, dec, meta = catalog.make_space(rid)
        for i in range(3):
            _, bm = _block_brackets(space, dec, i, i)
            diag_leak = max(diag_leak, float(np.max(np.abs(bm))))
        type_i = "wallach-type-i" in meta["tags"]
        for i in range(3):
            for j in range(i + 1, 3):
                k = 3 - i - j
                _, bm = _block_brackets(space, dec, i, j)
                if type_i:
                    cross_ok &= float(np.max(np.abs(bm))) <= 1e-10
                else:
                    proj = bm @ dec.summands[k].T
                    rank = int(np.linalg.matrix_rank(proj, tol=1e-8))
                    outside = bm - proj @ dec.summands[k]
                    cross_ok &= rank == dec.dims[k]
                    cross_ok &= float(np.max(np.abs(outside))) <= 1e-10
    two_cross = np.inf
    for rid in [r for r, _, t in catalog.list_catalog() if "two-summand" in t]:
        space, dec, _ = catalog.make_space(rid)
        _, bm = _block_brackets(space, dec, 0, 1)
        two_cross = min(two_cross, float(np.max(np.abs(bm))))
    ok = diag_leak <= 1e-10 and cross_ok and two_cross > 1e-3
    report(capsys, "bracket structure replay", ok,
           f"diag_leak<={diag_leak:.2e} cross_blocks={'ok' if cross_ok else 'BAD'} "
           f"two_summand_cross>={two_cross:.2e}")


def test_03_metric_operator_correctness(capsys):
    combos = [
        ("so5/u2", ["linear:1,2", "phi:1,0,0.25", "phi:1,0.1"]),
        ("su3/t2", ["linear:1,2,3", "linear:1,1,2", "pert3:1,1,1,0.5"]),
        ("wallach-sp/1,1,1", ["linear:1,2,3", "linear:1,1,2", "pert3:1,1,1,0.5"]),
    ]
    worst_hess = worst_auu = worst_comm = 0.0
    rng = np.random.default_rng(2024)
    for rid, metrics in combos:
        space, dec, _ = catalog.make_space(rid)
        eye_h = np.eye(space.dim_h)
        for mtext in metrics:
            fn = finsler.parse_metric(mtext)
            for _ in range(50):
                u = rng.standard_normal(space.dim_m)
                u /= np.linalg.norm(u)
                a = finsler.metric_operator(fn, dec, u)
                h_fd = fd_hessian(
                    lambda v: 0.5 * finsler.f_squared(fn, dec, v), u)
                worst_hess = max(worst_hess,
                                 float(np.max(np.abs(h_fd - a))
                                       / np.max(np.abs(a))))
                _, comps, theta = finsler.block_data(fn, dec, u[None])
                auu = finsler.apply_grad(fn.grad(theta), comps)[0]
                worst_auu = max(worst_auu,
                                float(np.linalg.norm(auu - a @ u)
                                      / np.linalg.norm(auu)))
                # the operator commutes with every isotropy rotation of u
                for e in eye_h:
                    lhs = a @ space.bracket_hm_vec(e, u)
                    rhs = space.bracket_hm_vec(e, auu)
                    worst_comm = max(worst_comm,
                                     float(np.linalg.norm(lhs - rhs)
                                           / max(1.0, np.linalg.norm(rhs))))
    ok = worst_hess <= 1e-5 and worst_auu <= 1e-9 and worst_comm <= 1e-8
    report(capsys, "metric operator correctness", ok,
           f"fd_hessian<={worst_hess:.2e} A_u(u)<={worst_auu:.2e} "
           f"isotropy_commutation<={worst_comm:.2e} (450 vectors)")


def test_04_criterion_equivalence(capsys):
    res = suites.run_suite("crossval")
    triples = sum(int(item.detail.split("samples=")[1].split()[0])
                  for item in res.items if "samples=" in item.detail)
    gaps = [float(item.detail.split("max_gap=")[1].split()[0])
            for item in res.items if "max_gap=" in item.detail]
    ok = res.passed and triples >= 1000 and max(gaps) <= 1e-6
    report(capsys, "operator/spray criterion equivalence", ok,
           f"triples={triples} verdict_agreement=100% max_gap={max(gaps):.2e}")


def test_05_two_summand_go_replay(capsys):
    res = suites.run_suite("thm1-converse")
    bad = [item.name for item in res.items if not item.passed]
    report(capsys, "two-summand family: GO for every battery metric, "
           "NOT_NR for non-constant profiles, centralizer solvable", res.passed,
           f"{sum(i.passed for i in res.items)}/{len(res.items)} items"
           + (f" failing={bad[:3]}" if bad else ""))


def test_06_three_summand_go_boundary(capsys):
    spaces = ["wallach-so/2,2,2", "su3/t2", "wallach-sp/1,1,1",
              "ledger-obata/su2"]
    ok = True
    details = []
    for rid in spaces:
        space, dec, _ = catalog.make_space(rid)
        fn = finsler.parse_metric("linear:1,1,1")
        rep = gocheck.go_verdict(space, dec, fn, samples=80, seed=42)
        ok &= rep.verdict == gocheck.GO
        worst_witness = np.inf
        for mtext in ("linear:1,1,2", "linear:1,2,3", "pert3:1,1,1,0.5"):
            fn = finsler.parse_metric(mtext)
            rep = gocheck.go_verdict(space, dec, fn, samples=80, seed=42)
            ok &= rep.verdict == gocheck.NOT_GO
            if rep.verdict == gocheck.NOT_GO:
                w = min(rep.witness["operator_residual"],
                        rep.witness["spray_residual"])
                ok &= w > 1e-3
                worst_witness = min(worst_witness, w)
        details.append(f"{rid}:{worst_witness:.1e}")
    report(capsys, "three-summand family: GO only at equal coefficients", ok,
           "min witness per space " + " ".join(details))


def test_07_product_space_all_nr(capsys):
    res = suites.run_suite("type1-nr")
    report(capsys, "product of rank-one symmetric factors: every battery "
           "metric naturally reductive", res.passed,
           f"{sum(i.passed for i in res.items)}/{len(res.items)} metrics NR")


def test_08_two_parameter_riemannian_replay(capsys):
    ok = True
    for rid in TWO_SUMMAND_GO:
        space, dec, _ = catalog.make_space(rid)
        for lam, mu in LINEAR_PAIRS:
            rep = gocheck.go_verdict(space, dec, finsler.l_linear([lam, mu]),
                                     samples=40, seed=7)
            ok &= rep.verdict == gocheck.GO
    space, dec, _ = catalog.make_space("so6/so3irr")
    for lam, mu in LINEAR_PAIRS:
        rep = gocheck.go_verdict(space, dec, finsler.l_linear([lam, mu]),
                                 samples=40, seed=7)
        ok &= rep.verdict == (gocheck.GO if lam == mu else gocheck.NOT_GO)
    for lam in (1.0, 2.0, 0.5):
        rep = gocheck.go_verdict(space, dec, finsler.l_linear([lam, lam]),
                                 samples=40, seed=7)
        ok &= rep.verdict == gocheck.GO
    report(capsys, "two-parameter metrics: GO at all pairs on the special "
           "family, only at equal pairs on the control", ok,
           f"{len(TWO_SUMMAND_GO)} spaces x {len(LINEAR_PAIRS)} "
           "pairs + control")


def _strip_wallclock(text):
    return "\n".join(line for line in text.splitlines()
                     if '"wallclock"' not in line)


def test_09_report_determinism(capsys, tmp_path):
    pairs = []
    for tag, argv in [
        ("check", ["check", "--space", "sp2/sp1u1", "--metric", "phi:1,0,0.25",
                   "--samples", "60", "--seed", "11"]),
        ("verify", ["verify", "cor-wallach-normal", "--samples", "40",
                    "--format", "json"]),
    ]:
        texts = []
        for run in (1, 2):
            out = tmp_path / f"{tag}{run}.json"
            code = cli.main(argv + ["--out", str(out)])
            assert code == cli.EXIT_OK
            texts.append(out.read_bytes().decode())
        pairs.append(_strip_wallclock(texts[0]) == _strip_wallclock(texts[1]))
        json.loads(texts[0])  # still a valid report
    ok = all(pairs)
    report(capsys, "byte-identical reports at fixed seed (modulo wallclock)",
           ok, f"check={pairs[0]} verify={pairs[1]}")
