"""Closed-loop benchmark of the grc solver.

    python3 perfbench/run.py --workload dense-match --seed 1 --seconds 30 --trace 0

Run from the repository root.  One caller decides one instance at a time, in
this process, until the timed operations add up to ``--seconds`` (and at
least MIN_OPERATIONS have run); every answer is then checked by the
benchmark's own code.  ``--trace 0`` reports the end-to-end metrics;
``setup_s`` is the median of SETUP_REPEATS fresh imports of ``grc`` spread
over the run.  ``--trace 1`` runs a fixed number of rounds, each operation
once plain and once with every layer wrapped, and reports the per-layer
metrics read from the spans.
The last line of standard output is one JSON object; result and span files
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)
from tracing import Tracer  # noqa: E402

MIN_OPERATIONS = 100      # keeps ten samples beyond the 90th percentile
TAIL_PERCENTILE = 90
SETUP_REPEATS = 21        # imports per run; setup_s is their median
WALL_LIMIT_S = 120        # no new round starts after this, so a run ends in time
TRACE_ROUNDS_PER_S = {"dense-match": 1.0, "sparse-pairs": 1.2, "encodings": 1.2}


def import_grc():
    """Import grc afresh; return it and the seconds the import took."""
    for name in [m for m in sys.modules if m == "grc" or m.startswith("grc.")]:
        del sys.modules[name]
    start = time.perf_counter()
    grc = importlib.import_module("grc")
    elapsed = time.perf_counter() - start
    gc.collect()  # the previous copy's modules are garbage now; clear them untimed
    return grc, elapsed


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


class Tally:
    """Attempted and failed operations, and whether every answer checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, grc, item):
        """Run one operation; return its duration, or None when it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workloads.run(grc, item)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            elapsed = None
            found = [f"{item.shape}: {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            found = workloads.problems(item, result)
            if found and result.status in ("realizable", "infeasible"):
                self.correct = False
        if found:
            self.failed += 1
            print("FAILED", found[0][:300], file=sys.stderr)
            return None
        return elapsed


def timed_run(grc, stream, seconds, started, setup):
    """Operations until their time adds up to ``seconds``.  The import is
    repeated at even steps of that time, so the set-up samples see the same
    machine as the operations."""
    tally = Tally()
    latencies = []
    busy = 0.0
    while (busy < seconds or len(latencies) < MIN_OPERATIONS) \
            and time.perf_counter() - started < WALL_LIMIT_S:
        for item in stream.next_round():
            elapsed = tally.run(grc, item)
            if elapsed is not None:
                latencies.append(elapsed)
                busy += elapsed
        while len(setup) < SETUP_REPEATS and busy >= seconds * len(setup) / SETUP_REPEATS:
            setup.append(import_grc()[1])
    latencies.sort()
    metrics = {
        "throughput_ips": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "latency_tail_ms": (percentile(latencies, TAIL_PERCENTILE) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return tally, metrics, len(latencies)


def traced_run(grc, stream, rounds, started, spans_path):
    """Each operation plain, then traced, so the overhead is measured on the
    same instances; counters come from the traced pass only."""
    plain, traced = Tally(), Tally()
    tracer = Tracer(grc)
    plain_busy = traced_busy = 0.0
    done = 0
    for _ in range(rounds):
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
        for item in stream.next_round():
            elapsed = plain.run(grc, item)
            plain_busy += elapsed or 0.0
            tracer.operation = traced.attempted
            tracer.install()
            try:
                elapsed = traced.run(grc, item)
            finally:
                tracer.restore()
            traced_busy += elapsed or 0.0
            done += 1
    tracer.write(spans_path)
    metrics = {name: (m["value"], m["unit"]) for name, m in tracer.metrics(done).items()}
    ok = traced.attempted - traced.failed
    metrics["trace.overhead_ips"] = (
        ok / traced_busy - (plain.attempted - plain.failed) / plain_busy, "1/s")
    traced.failed = max(traced.failed, plain.failed)
    traced.correct = traced.correct and plain.correct
    return traced, metrics, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    try:
        grc, setup_s = import_grc()
    except ImportError as exc:
        print(f"cannot import grc from src/: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(grc.__file__).startswith(src + os.sep):
        print(f"grc was imported from {grc.__file__}, not from src/", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stream = workloads.Stream(args.workload, args.seed)

    if args.trace:
        rounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
        tally, metrics, samples = traced_run(
            grc, stream, rounds, started, os.path.join(out_dir, f"spans-{stem}.jsonl"))
    else:
        tally, metrics, samples = timed_run(grc, stream, args.seconds, started, [setup_s])

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:30s} {value:14.4f} {unit}")
    print(f"{args.workload:13s} attempted {tally.attempted}, failed {tally.failed}, "
          f"samples {samples}, wall {time.perf_counter() - started:.1f} s")
    line = json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
