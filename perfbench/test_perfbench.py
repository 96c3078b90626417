"""The benchmark's own tests: its references against sympy, and its contract.

    python3 -m pytest perfbench

sympy is used here only, never by the benchmark runs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sp = pytest.importorskip("sympy")
h1, h3, a, b, m, n, x1, x2 = sp.symbols("h1 h3 a b m n x1 x2")


def truncate(expr):
    """Reduce modulo h1^2 and h3^4: the Chow ring of P1xP3."""
    poly = sp.Poly(sp.expand(expr), h1, h3)
    return sum(c * h1 ** i * h3 ** j for (i, j), c in poly.terms() if i < 2 and j < 4)


def series(expr, x, order):
    return sp.series(expr, x, 0, order).removeO()


def todd_p1xp3():
    t = lambda x: series(x / (1 - sp.exp(-x)), x, 5)  # noqa: E731
    return truncate(t(h1) ** 2 * t(h3) ** 4)


def chi_rank2(c1, c2):
    """HRR on P1xP3 with ch from the Chern roots x1, x2 of (c1, c2)."""
    ch = 0
    for k in range(5):
        power_sum = sp.polys.polyfuncs.symmetrize(x1 ** k + x2 ** k, [x1, x2], formal=True)
        expr, (subs1, subs2) = power_sum[0], power_sum[2]
        ch += expr.subs({subs1[0]: c1, subs2[0]: c2}) / sp.factorial(k)
    top = truncate(truncate(ch) * todd_p1xp3())
    return sp.Poly(top, h1, h3).coeff_monomial(h1 * h3 ** 3)


def chi_line(p, q):
    ch = truncate(series(sp.exp(x1), x1, 5).subs(x1, p * h1 + q * h3))
    return sp.Poly(truncate(ch * todd_p1xp3()), h1, h3).coeff_monomial(h1 * h3 ** 3)


def test_chi_closed_form_matches_sympy_hrr():
    line = a * h1 + b * h3
    c1 = 2 * h1 + 4 * h3
    c2 = 8 * h1 * h3 + 6 * h3 ** 2
    chi = sp.expand(chi_rank2(c1 + 2 * line, truncate(c2 + c1 * line + line ** 2)))
    rng = random.Random(5)
    for _ in range(40):
        p, q = rng.randint(-30, 30), rng.randint(-30, 30)
        assert refs.chi_e(p, q) == chi.subs({a: p, b: q})
    assert refs.chi_e(-2, -4) == 2 and refs.chi_e(0, 0) == -6


def test_cohom_table_matches_sympy():
    chi = sp.expand(chi_line(a, b))
    rng = random.Random(6)
    for _ in range(60):
        p, q = rng.randint(-30, 30), rng.randint(-30, 30)
        table = refs.cohom_table(p, q)
        assert sum((-1) ** i * d for i, d in enumerate(table)) == chi.subs({a: p, b: q})
        assert table[::-1] == refs.cohom_table(-2 - p, -4 - q)  # Serre duality
    u0, u1, v0, v1, v2, v3 = sp.symbols("u0 u1 v0 v1 v2 v3")
    for p in range(0, 4):
        for q in range(0, 4):
            count = (len(list(sp.itermonomials([u0, u1], p, p)))
                     * len(list(sp.itermonomials([v0, v1, v2, v3], q, q))))
            assert refs.cohom_table(p, q) == (count, 0, 0, 0, 0)
    assert refs.cohom_table(-3, 2)[1] == 2 * comb(5, 3)


def test_slope_matches_sympy():
    top = truncate((a * h1 + b * h3) * (m * h1 + n * h3) ** 3)
    form = sp.Poly(top, h1, h3).coeff_monomial(h1 * h3 ** 3)
    rng = random.Random(7)
    for _ in range(40):
        vals = {a: rng.randint(-30, 30), b: rng.randint(-30, 30), m: rng.randint(1, 60),
                n: rng.randint(1, 1000)}
        assert refs.slope(vals[a], vals[b], vals[m], vals[n]) == form.subs(vals)


def test_stability_region_matches_corner_slopes():
    top = truncate((a * h1 + b * h3) * (m * h1 + n * h3) ** 3)
    form = sp.Poly(top, h1, h3).coeff_monomial(h1 * h3 ** 3)
    corners = ((1, 1), (-1, 2), (2, -4))
    rng = random.Random(8)
    samples = [(k, 18 * k) for k in range(1, 6)]
    samples += [(rng.randint(1, 60), rng.randint(1, 1000)) for _ in range(60)]
    for mm, nn in samples:
        slope = lambda p, q: form.subs({a: p, b: q, m: mm, n: nn})  # noqa: E731
        best, threshold = max(slope(p, q) for p, q in corners), slope(1, 2)
        want = "stable" if best < threshold else ("semistable_not_stable" if best == threshold else "unstable")
        assert refs.stability(mm, nn) == want


def _sympy_pencil(lines):
    body = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
    degree = int(body[0].split()[1])
    entries = [sp.sympify(t.replace("^", "**"), locals={"l": x1, "m": x2}) for t in body[1:]]
    mat = sp.zeros(4, 4)
    for (i, j), e in zip(refs.ENTRY_ORDER, entries):
        mat[i, j] = mat[j, i] = e
    return degree, mat


def _minors(mat, k):
    return [sp.expand(mat.extract(list(r), list(c)).det())
            for r in combinations(range(4), k) for c in combinations(range(4), k)]


def test_pencils_match_sympy_rank_and_rank1_count():
    rng = random.Random(9)
    for _ in range(200):
        v = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        assert refs._det(v) == sp.Matrix(v).det()
    for rank in range(1, 5):
        for degree in range(1, 4):
            for _ in range(2):
                entries, expected = refs.valid_pencil(rng, rank, degree)
                deg, mat = _sympy_pencil(refs.pencil_lines(entries, degree, rng))
                got_rank = max(k for k in range(5) if k == 0 or any(_minors(mat, k)))
                want = "degree: %d\ngeneric rank: %d\n" % (deg, got_rank)
                if got_rank == 1:
                    want += "rank-1 parameters: whole line\n"
                elif got_rank == 2:
                    g = 0
                    for minor in _minors(mat, 2):
                        g = sp.gcd(g, minor)
                    linear = [f for f, _ in sp.factor_list(g, x1, x2)[1]
                              if sp.Poly(f, x1, x2).total_degree() == 1]
                    want += "rank-1 parameters: %d\n" % len(linear)
                assert expected == want


def test_every_pencil_file_is_answered_or_rejected(tmp_path):
    wl = workloads.PencilFiles()
    wl.setup(3, ROOT, tmp_path)
    kinds = {broken for _, broken, _ in wl.files}
    assert kinds == set(refs.MALFORMED) | {None}
    for item in wl.files:
        outcome = wl.run(item)
        assert not outcome.wrong, outcome.detail
        if item[1] is None:
            assert outcome.ok, outcome.detail


def test_only_the_known_crash_is_not_a_wrong_answer(tmp_path):
    wl = workloads.PencilFiles()
    wl.setup(3, ROOT, tmp_path)

    class Crashing:
        @staticmethod
        def main(argv):
            raise IndexError("list index out of range")

    wl.cli = Crashing
    by_kind = {broken: item for item in wl.files for broken in [item[1]]}
    for kind in refs.MALFORMED:
        outcome = wl.run(by_kind[kind])
        assert not outcome.ok
        assert outcome.wrong == (kind != workloads.KNOWN_CRASH), kind
    assert wl.run(by_kind[None]).wrong


def test_golden_snapshot_is_complete():
    golden = workloads.load_golden()
    assert len(golden) == 25
    for record in golden.values():
        assert record["status"] == "PASS" and record["computed"] == record["expected"]


def test_tracer_counts_repeat_and_uninstall_restores():
    modules = tracing.package_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    mul = modules["poly"].ParamPoly.__dict__["__mul__"]
    counts = []
    for _ in range(2):
        wl = workloads.CalcMix()
        wl.setup(4, ROOT, None)
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            for item in wl.trace_items()[:200]:
                assert wl.run(item).ok
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.calls), dict(tracer.counts)))
    assert counts[0] == counts[1]
    assert counts[0][0]["chern.euler_characteristic"] == 90  # 18 chi queries in each of 5 blocks
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before
    assert modules["poly"].ParamPoly.__dict__["__mul__"] is mul


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = _run(ROOT, "--workload", "calc-mix", "--seed", "2", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            d["name"]: d["unit"] for d in declared}


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "calc-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
