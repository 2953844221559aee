#!/usr/bin/env python3
"""hblcert benchmark: one run of one workload.

    python3 bench/run.py --workload {build,verify,oracle,cli} --seed N \
        --seconds S --trace {0,1}

Run from a source checkout; the package is imported from its `src/`, so
nothing needs installing. The run times the set-up in fresh interpreters,
warms up, then repeats passes over the workload's fixed list of operations,
each on fresh inputs made from the seed, for about S seconds. One process,
no worker threads; `cli` starts one `hblcert` process at a time.

Times are host-speed corrected: each operation and set-up is bracketed by
timings of a fixed reference computation (reference.py), and reported in
seconds at the speed at which the reference takes NOMINAL_S.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes (medians over passes), `trace.overhead_s` (traced minus
untraced pass time) and the host's speed with the raw times; the spans of
the last traced pass are written to .bench_out/<workload>.spans.jsonl.

Progress goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
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
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

# No worker threads: numpy's and scipy's OpenBLAS would each start one per
# core. Set before numpy is imported; probes and cli children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from reference import NOMINAL_S, reference_seconds  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "cert_constant_geomean": "ratio",
    "cert_vertices": "count",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_program() -> None:
    """Import hblcert from this checkout's sources, or stop."""
    src = ROOT / "src"
    if not (src / "hblcert" / "__init__.py").is_file():
        sys.exit(f"error: no hblcert sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import hblcert

    if Path(hblcert.__file__).resolve().parent != (src / "hblcert").resolve():
        sys.exit(f"error: imported hblcert from {hblcert.__file__}, not from {src}")


class PassResult:
    """One pass: per operation its corrected and raw seconds, the reference
    timings, failures, wrong outputs, certificates and trace counters."""

    def __init__(self, times, raw_times, references, failed, wrong, certs, counters):
        self.times, self.raw_times, self.references = times, raw_times, references
        self.failed, self.wrong, self.certs, self.counters = failed, wrong, certs, counters


def op_medians(passes, raw: bool = False) -> list[float]:
    """Each operation's median time over the passes (corrected, or raw)."""
    return [statistics.median((r.raw_times if raw else r.times)[label] for r in passes)
            for label in passes[0].times]


def corrected(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference host speed (see reference.py)."""
    return seconds * NOMINAL_S / ((before + after) / 2)


def run_pass(workload, p: int, tracer) -> PassResult:
    """Time each operation of pass p; checks run between operations, untimed."""
    from tracing import merge
    from workloads import KnownFault, Wrong

    workload.certs.clear()
    workload.child_raw.clear()
    workload.traced_children = tracer is not None
    ops = workload.prepare(p)
    times, raw_times, references, failed, wrong = {}, {}, [], 0, []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            before = reference_seconds()
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # the program could not do the operation
                result, error = None, exc
            raw_times[op.label] = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            after = reference_seconds()
            references += [before, after]
            times[op.label] = corrected(raw_times[op.label], before, after)
            if error is not None:
                failed += 1
                log(f"pass {p} {op.label}: failed: {error!r}")
                continue
            try:
                op.check(result)
            except KnownFault:
                failed += 1
            except Wrong as exc:
                wrong.append(f"pass {p} {op.label}: {exc}")
                log(f"pass {p} {op.label}: WRONG: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    counters = None
    if tracer is not None:
        counters = tracer.fold()
        for child in workload.child_raw:
            merge(counters, child)
    return PassResult(times, raw_times, references, failed, wrong, list(workload.certs),
                      counters)


def setup_samples(workload: str, seed: int, scratch: Path) -> list[float]:
    """Corrected wall time of complete set-ups, each in a fresh interpreter."""
    samples = []
    for k in range(SETUP_PROBES):
        before = reference_seconds()
        t0 = perf_counter()
        # Captured output makes the wait end at the child's EOF; with no
        # pipe, a timed wait polls with sleeps of up to 50 ms.
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed),
                        str(scratch / f"probe{k}")],
                       check=True, cwd=ROOT, capture_output=True, timeout=150)
        elapsed = perf_counter() - t0
        samples.append(corrected(elapsed, before, reference_seconds()))
    return samples


def end_to_end(passes, setup, workload) -> dict[str, float]:
    from workloads import geomean

    constants = [c for r in passes for c, _ in r.certs if c is not None]
    rss_kb = workload.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(op_medians(passes)),
        "op_p50_ms": 1000 * statistics.median(op_medians(passes)),
        "peak_rss_mb": rss_kb / 1024,
        "cert_constant_geomean": geomean(constants),
        "cert_vertices": statistics.median(sum(v for _, v in r.certs) for r in passes),
    }


def per_layer(untraced, traced) -> dict[str, float]:
    from tracing import PER_LAYER, metrics

    per_pass = [metrics(r.counters) for r in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name, _ in PER_LAYER}
    out["trace.overhead_s"] = sum(op_medians(traced)) - sum(op_medians(untraced))
    out["host.reference_ms"] = 1000 * statistics.median(t for r in untraced for t in r.references)
    out["host.raw_wall_s"] = sum(op_medians(untraced, raw=True))
    out["host.raw_op_p50_ms"] = 1000 * statistics.median(op_medians(untraced, raw=True))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["build", "verify", "oracle", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    load_program()
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        setup = setup_samples(args.workload, args.seed, scratch)
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = [], []
        start = perf_counter()
        p = 0
        while True:
            # Traced passes rerun the inputs of the untraced pass before them,
            # so the overhead is a paired difference.
            use_tracer = tracer if args.trace and p % 2 == 1 else None
            inputs = p // 2 if args.trace else p
            (traced if use_tracer else untraced).append(run_pass(workload, inputs, use_tracer))
            p += 1
            elapsed = perf_counter() - start
            if elapsed * (p + 1) / p > args.seconds and (not args.trace or p % 2 == 0):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = untraced + traced
    wrong = [w for r in passes for w in r.wrong]
    if args.trace:
        values = per_layer(untraced, traced)
        units = dict(tracing.PER_LAYER)
        units.update({"trace.overhead_s": "s", "host.reference_ms": "ms",
                      "host.raw_wall_s": "s", "host.raw_op_p50_ms": "ms"})
        if tracer.spans:  # cli's spans stay in its children; their counters came back
            tracer.write_spans(out_dir / f"{args.workload}.spans.jsonl")
    else:
        values = end_to_end(untraced, setup, workload)
        units = END_TO_END_UNITS
    log(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"passes of {len(passes[0].times)} operations")
    for name, value in values.items():
        log(f"  {name:44s} {value:14.6g} {units[name]}")
    medians = sorted(zip(op_medians(untraced), untraced[0].times), reverse=True)
    log("  operation medians, ms: "
        + ", ".join(f"{label} {1000 * t:.0f}" for t, label in medians))
    log("  raw samples, s: " + json.dumps({label: [r.raw_times[label] for r in untraced]
                                          for label in untraced[0].times}))
    for line in wrong[:20]:
        log(line)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(len(r.times) for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
