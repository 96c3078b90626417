"""Entry points of the processes run.py starts.

    child.py setup <workload> <seed> <workdir>   set a workload up, print "ready";
                                                  the caller removes <workdir>
    child.py import                               print the import time of p1p3bundle.cli in ms
    child.py traced <item> <out.json> <cli args>  run the CLI under the tracer

Each prepends the checkout's src/ to sys.path, as run.py does.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    mode = argv[0]
    if mode == "import":
        start = time.perf_counter()
        import p1p3bundle.cli  # noqa: F401

        print("%.6f" % ((time.perf_counter() - start) * 1000))
        return 0
    if mode == "setup":
        import workloads

        name, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        workloads.WORKLOADS[name]().setup(seed, ROOT, workdir)
        print("ready", flush=True)
        return 0
    if mode == "traced":
        import json

        import tracing

        item, out_path, cli_args = argv[1], argv[2], argv[3:]
        modules = tracing.package_modules()
        caches = tracing.lru_caches(modules)
        tracer = tracing.Tracer()
        tracer.install(modules)
        tracer.item = item
        try:
            code = modules["cli"].main(cli_args)
        finally:
            tracer.uninstall()
            dump = tracer.dump()
            dump["counts"].update(tracing.cache_counts(caches))
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh)
        return code
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
