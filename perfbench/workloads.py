"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, hands out its
items one whole cycle at a time, and checks every answer in `run` against
a reference the code under test did not produce.  `run` returns an
Outcome; the runner in run.py does the timing.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import refs

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_claims.json"
ITEM_TIMEOUT_S = 60


@dataclass(frozen=True)
class Outcome:
    """ok: the item met its reference.  wrong: it returned a wrong answer,
    as opposed to rejecting a malformed input with the wrong exit code."""

    ok: bool
    wrong: bool = False
    detail: str = ""


OK = Outcome(True)

# The one malformed kind that the package is known to mishandle: `1/0*l`
# raises ZeroDivisionError (exit 1) instead of exiting 2.  Those files
# count in `failed` as the recorded baseline; any other malformed file
# rejected the wrong way is a wrong answer.
KNOWN_CRASH = "zero_denominator"


def source_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class VerifyCold:
    """One fresh `p1p3bundle verify --claim <id> --json` process per item."""

    name = "verify-cold"
    in_process = False

    def setup(self, seed, root, workdir):
        self.root = root
        self.env = source_env(root)
        self.golden = load_golden()
        self.rng = random.Random(seed)
        # warm-up: importing the CLI compiles the bytecode of every package
        # module and reads it into the page cache for the item processes
        import p1p3bundle.cli  # noqa: F401

    def cycle(self):
        ids = sorted(self.golden)
        self.rng.shuffle(ids)
        return ids

    def trace_items(self):
        return self.cycle()

    def run(self, claim_id, command=None):
        cmd = command or [sys.executable, "-m", "p1p3bundle.cli"]
        proc = subprocess.Popen(
            cmd + ["verify", "--claim", claim_id, "--json"], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=ITEM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Outcome(False, True, "%s: timed out" % claim_id)
        return self.check(claim_id, proc.returncode, out, err)

    def check(self, claim_id, code, out, err):
        want = self.golden[claim_id]
        try:
            report = json.loads(out)
            (record,) = report["claims"]
            got = {k: record[k] for k in ("status", "computed", "expected")}
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, True, "%s: unreadable report (%s) %s" % (claim_id, exc, err[-300:]))
        if record.get("id") != claim_id or got != want:
            return Outcome(False, True, "%s: %r != golden %r" % (claim_id, got, want))
        want_code = 0 if want["status"] == "PASS" else 1
        if code != want_code:
            return Outcome(False, True, "%s: exit %d, want %d" % (claim_id, code, want_code))
        return OK


class CalcMix:
    """A warm process answering a seeded stream of calculator queries."""

    name = "calc-mix"
    in_process = True
    BLOCKS = 500
    TRACE_BLOCKS = 50
    # per block of 40: 45% chi, 25% cohom, 10% slope, 20% stability.  The
    # kinds differ in cost by up to 100x and never overlap, so the median
    # latency is the 75th percentile of the stability queries.  That is
    # neither on the edge between two kinds nor low in one kind's range,
    # where it would follow the share of the run the machine spent fast.
    MIX = (("chi", 18), ("cohom", 10), ("slope", 4), ("stability", 8))

    def setup(self, seed, root, workdir):
        from p1p3bundle import chern, chow, cohom, stability
        from p1p3bundle.poly import ParamPoly

        self.chern, self.chow, self.cohom, self.stability = chern, chow, cohom, stability
        self.ParamPoly = ParamPoly
        rng = random.Random(seed)
        self.blocks = [self._block(rng) for _ in range(self.BLOCKS)]
        self.next = 0
        for kind, _ in self.MIX:  # warm-up: build rings and cached polynomials
            item = next(it for it in self.blocks[0] if it[0] == kind)
            self.run(item)

    def _block(self, rng):
        items = []
        for kind, count in self.MIX:
            for k in range(count):
                a, b = rng.randint(-30, 30), rng.randint(-30, 30)
                m, n = rng.randint(1, 60), rng.randint(1, 1000)
                if kind == "chi":
                    items.append((kind, (a, b), refs.chi_e(a, b)))
                elif kind == "cohom":
                    items.append((kind, (a, b), refs.cohom_table(a, b)))
                elif kind == "slope":
                    items.append((kind, (a, b, m, n), refs.slope(a, b, m, n)))
                else:
                    if k == 0:  # one boundary polarization per block
                        m = rng.randint(1, 55)
                        n = 18 * m
                    items.append((kind, (m, n), refs.stability(m, n)))
        rng.shuffle(items)
        return items

    def cycle(self):
        block = self.blocks[self.next % len(self.blocks)]
        self.next += 1
        return block

    def trace_items(self):
        return [it for block in self.blocks[: self.TRACE_BLOCKS] for it in block]

    def run(self, item):
        kind, args, want = item
        if kind == "chi":
            a, b = args
            ring = self.chow.p1xp3()
            line = self.ParamPoly.const(a) * ring.gen("h1") + self.ParamPoly.const(b) * ring.gen("h3")
            twisted = self.chern.twist(self.chern.abelian_surface_bundle(), line)
            got = self.chern.euler_characteristic(twisted).constant()
        elif kind == "cohom":
            got = tuple(self.cohom.cohom_p1xp3(*args))
        elif kind == "slope":
            a, b, m, n = args
            got = self.stability.slope_dot((a, b), self.stability.Polarization(m, n)).constant()
        else:
            got = self.stability.stability_decide(self.stability.Polarization(*args))
        if got != want:
            return Outcome(False, True, "%s%r: %r != %r" % (kind, args, got, want))
        return OK


class PencilFiles:
    """`calc pencil-rank FILE` through cli.main on seeded pencil files."""

    name = "pencil-files"
    in_process = True
    PER_STRATUM = 18  # valid files per (generic rank, degree)
    PER_MALFORMED = 3  # files per grammar violation, about 10% of the set

    def setup(self, seed, root, workdir):
        from p1p3bundle import cli

        self.cli = cli
        rng = random.Random(seed)
        self.files = []
        workdir.mkdir(parents=True, exist_ok=True)
        specs = [(r, d, None) for r in range(1, 5) for d in range(1, 4) for _ in range(self.PER_STRATUM)]
        specs += [(rng.randint(1, 4), rng.randint(1, 3), kind)
                  for kind in refs.MALFORMED for _ in range(self.PER_MALFORMED)]
        for n, (rank, degree, broken) in enumerate(specs):
            entries, expected = refs.valid_pencil(rng, rank, degree)
            lines = refs.pencil_lines(entries, degree, rng)
            if broken:
                lines = refs.break_pencil(lines, degree, broken, rng)
                expected = None
            path = workdir / ("pencil%03d.txt" % n)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.files.append((str(path), broken, expected))
        self.rng = rng
        self.run(self.files[0])

    def cycle(self):
        order = list(self.files)
        self.rng.shuffle(order)
        return order

    def trace_items(self):
        return self.files

    def run(self, item):
        path, broken, expected = item
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(["calc", "pencil-rank", path])
        except Exception as exc:  # an uncaught exception exits the CLI with 1
            code, err = 1, io.StringIO("Traceback: %s: %s" % (type(exc).__name__, exc))
        name = os.path.basename(path)
        if broken is None:
            if code != 0 or out.getvalue() != expected:
                return Outcome(False, True, "%s: exit %s, %r != %r" % (name, code, out.getvalue(), expected))
            return OK
        if code == 0:  # malformed input accepted silently
            return Outcome(False, True, "%s (%s): accepted" % (name, broken))
        if code != 2 or not err.getvalue().startswith("error: ") or out.getvalue():
            return Outcome(False, broken != KNOWN_CRASH,
                           "%s (%s): exit %s, %s" % (name, broken, code, err.getvalue()[:200]))
        return OK


WORKLOADS = {w.name: w for w in (VerifyCold, CalcMix, PencilFiles)}
