"""One set-up of a workload in a fresh interpreter, for timing by run.py.

    python3 bench/probe.py <workload> <seed> <scratch directory>

Imports hblcert and the workload, makes the inputs of the first pass and
runs the workload's warm-up, then exits: what a user pays before the first
timed operation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
scratch.mkdir(parents=True, exist_ok=True)
workload = workloads.WORKLOADS[name](seed, scratch)
workload.prepare(0)
workload.warm_up()
