"""Benchmark of the p1p3bundle checker: seeded, closed-loop, one client.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's src/, never from an installed copy.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run over a fixed
item set.  See README.md next to this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITEMS = 100  # so that at least ten samples lie beyond the p90
SETUP_PROBES = 11
WINDOW_S = 1.0
IMPORT_PROBES = 3
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "p1p3bundle" / "cli.py").is_file():
        fail("no package source at %s; run from the root of a checkout" % src)
    sys.path.insert(0, str(src))
    import p1p3bundle

    if Path(p1p3bundle.__file__).resolve().parent != (src / "p1p3bundle").resolve():
        fail("imported p1p3bundle from %s, not from the checkout" % p1p3bundle.__file__)


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.details = []

    def add(self, outcome):
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.wrong += outcome.wrong
            if len(self.details) < 5:
                self.details.append(outcome.detail)


def cpu_now():
    """CPU seconds of this process and of every child it has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def measure(wl, seed, seconds, workdir, tally):
    """Run whole cycles until `seconds` have passed and MIN_ITEMS are done.

    Throughput and CPU per item are medians over windows of whole cycles
    lasting at least WINDOW_S each, so that a short stall caused by
    another process on the machine moves one window, not the result.

    The SETUP_PROBES set-up probes are spread evenly over the run, so
    that their median sees the same machine as the items.  A probe stops
    the clock: its wall and CPU time are kept out of the windows and out
    of the measured `seconds`.  Each probe sets the workload up again in
    the run's own `workdir`, from the same seed, so it rewrites the input
    files that the run's set-up created rather than creating new ones.
    """
    latencies = []
    windows = []  # (items, wall seconds, cpu seconds)
    setups = [probe_setup(wl.name, seed, workdir)]
    start = w_start = time.perf_counter()
    w_cpu, w_items = cpu_now(), 0
    while True:
        for item in wl.cycle():
            t0 = time.perf_counter()
            outcome = wl.run(item)
            latencies.append(time.perf_counter() - t0)
            tally.add(outcome)
            if len(setups) < SETUP_PROBES and t0 - start >= seconds * len(setups) / SETUP_PROBES:
                paused, paused_cpu = time.perf_counter(), cpu_now()
                setups.append(probe_setup(wl.name, seed, workdir))
                gap = time.perf_counter() - paused
                start += gap
                w_start += gap
                w_cpu += cpu_now() - paused_cpu
        now = time.perf_counter()
        done = now - start >= seconds and len(latencies) >= MIN_ITEMS
        if now - w_start >= WINDOW_S or (done and not windows):
            cpu = cpu_now()
            windows.append((len(latencies) - w_items, now - w_start, cpu - w_cpu))
            w_start, w_cpu, w_items = now, cpu, len(latencies)
        if done:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not wl.in_process:
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(wl.name, seed, workdir))
    return {
        "items_per_s": (statistics.median(n / wall for n, wall, _ in windows), "1/s"),
        "latency_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "latency_ms_p90": (1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "cpu_ms_per_item": (1000 * statistics.median(cpu / n for n, _, cpu in windows), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def probe_setup(name, seed, workdir):
    """Wall time from starting a fresh process to the workload being ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "setup", name, str(seed), str(workdir)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        fail("setup probe for %s failed" % name)
    return elapsed


def probe_import():
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "child.py"), "import"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def cold_claims(tally):
    """claims.<id>.cold_ms: each claim in-process after clearing every cache.

    Every traced run reports these, whatever its workload.  They are not
    items of the workload, so they stay out of `attempted` and `failed`,
    but a claim string that differs from the golden copy clears `correct`.
    """
    import tracing

    modules = tracing.package_modules()
    caches = tracing.lru_caches(modules)
    golden = workloads.load_golden()
    out = {}
    for claim_id in sorted(golden):
        for fn in caches.values():
            fn.cache_clear()
        claim = modules["claims"].get_claim(claim_id)
        start = time.perf_counter()
        result = claim.check()
        out["claims.%s.cold_ms" % claim_id] = (1000 * (time.perf_counter() - start), "ms")
        got = {"status": "PASS" if result.ok else "FAIL", "computed": result.computed,
               "expected": result.expected}
        if got != golden[claim_id]:
            tally.wrong += 1
            tally.details.append("%s in-process: %r" % (claim_id, got))
    for fn in caches.values():
        fn.cache_clear()
    return out


def traced(wl, seed, tally):
    """Per-layer metrics: the fixed trace item set, untraced then traced."""
    import tracing

    metrics = cold_claims(tally)
    metrics["cli.import_ms"] = (probe_import(), "ms")
    workdir = WORK_DIR / ("trace-%d" % os.getpid())
    try:
        wl.setup(seed, ROOT, workdir)
        items = wl.trace_items()
        start = time.perf_counter()
        for item in items:
            tally.add(wl.run(item))
        untraced_s = time.perf_counter() - start
        agg = {}
        if wl.in_process:
            modules = tracing.package_modules()
            caches = tracing.lru_caches(modules)
            before = tracing.cache_counts(caches)
            tracer = tracing.Tracer()
            tracer.install(modules)
            start = time.perf_counter()
            try:
                for n, item in enumerate(items):
                    tracer.item = n
                    tally.add(wl.run(item))
            finally:
                traced_s = time.perf_counter() - start
                tracer.uninstall()
            agg = tracer.dump()
            agg["counts"].update(tracing.cache_counts(caches) - before)
        else:
            workdir.mkdir(parents=True, exist_ok=True)
            dump_path = workdir / "trace.json"
            start = time.perf_counter()
            for n, item in enumerate(items):
                dump_path.unlink(missing_ok=True)
                command = [sys.executable, str(HERE / "child.py"), "traced", str(n), str(dump_path)]
                tally.add(wl.run(item, command=command))
                with open(dump_path, encoding="utf-8") as fh:
                    tracing.merge(agg, json.load(fh))
            traced_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics.update(tracing.layer_metrics(agg))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("spans-%s-%d.json" % (wl.name, seed)), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "item"],
                   "spans": agg.get("spans", [])}, fh)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    import_package()

    wl = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    if args.trace:
        metrics = traced(wl, args.seed, tally)
    else:
        workdir = WORK_DIR / ("run-%d" % os.getpid())
        try:
            wl.setup(args.seed, ROOT, workdir)
            metrics = measure(wl, args.seed, args.seconds, workdir, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for detail in tally.details:
        sys.stderr.write("failed: %s\n" % detail)
    sys.stderr.write("error_rate: %.6f (%d of %d items failed)\n"
                     % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
