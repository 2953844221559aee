"""One `hblcert` command, as the console script runs it, with timings.

    python3 bench/cli_child.py <hblcert arguments...>

Behaves like `hblcert <arguments>`: same output, same exit status, and an
uncaught exception still ends the process with a traceback. It also writes
the import time of `hblcert.cli`, the time of `cli.main` and the peak
resident memory, as JSON, to the file named by HBLBENCH_STATS. With
HBLBENCH_TRACE=1 the layers are traced and the folded counters ride along.
"""

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

stats = {}
t0 = perf_counter()
from hblcert import cli  # noqa: E402

stats["import_s"] = perf_counter() - t0
tracer = None
if os.environ.get("HBLBENCH_TRACE") == "1":
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
status = 1
t1 = perf_counter()
try:
    status = cli.main(sys.argv[1:])
finally:
    stats["command_s"] = perf_counter() - t1
    if tracer is not None:
        tracer.enabled = False
        stats["raw"] = tracer.fold()
    stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.environ["HBLBENCH_STATS"], "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
sys.exit(status)
