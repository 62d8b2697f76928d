"""One benchmark process: set up a workload, run it, check it, report as JSON.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints `ready` once set-up is done (just before the first timed op), and,
unless --setup-only, a JSON object with the run's figures as its last line.
`run.py` starts this process and times set-up from the outside.

Timed metrics are given at a reference host speed.  The benchmark was
written on a shared host whose CPU speed drifts by 20-40 % over minutes,
with no steal time and with CPU time moving with wall time; ten runs of
the same code then spread by more than any useful bound.  So a fixed probe
loop runs between ops, and each wall time is divided by the run's mean
probe time over PROBE_NOMINAL_S.  A change to pin2k moves the scaled
figures as it moves the wall-clock ones, which are reported as well.  Work
that pin2k ran in background threads would slow the probe too and hide
part of its own cost.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, Crash

MIN_OPS = 100
# The host-speed probe: a fixed pure-Python loop that calls no pin2k code.
# It runs after every PROBE_EVERY_S of op time; PROBE_NOMINAL_S is its wall
# time at the reference speed the timed metrics are given at (a typical time
# on the 2-vCPU machine the benchmark was written on).
PROBE_LOOPS = 50_000
PROBE_EVERY_S = 0.25
PROBE_NOMINAL_S = 0.004


def probe():
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return perf_counter() - t0


def timed_run(workload, seconds):
    """Closed loop with one client, with host-speed probes between ops.

    Stops at the first round boundary at which the ops have taken `seconds`
    in all and at least MIN_OPS have run, so that op_ms.p90 has at least ten
    samples beyond it.  Probe time is not op time.
    """
    ops, outcomes, latencies, probes = [], [], [], [probe()]
    since_probe = 0.0
    for batch in workload.rounds():
        for op in batch:
            t0 = perf_counter()
            try:
                out = workload.run(op)
            except Exception as err:  # any crash is a failed op, not a benchmark abort
                out = Crash(err)
            latency = perf_counter() - t0
            latencies.append(latency)
            ops.append(op)
            outcomes.append(out)
            since_probe += latency
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
        if sum(latencies) >= seconds and len(ops) >= MIN_OPS:
            return ops, outcomes, latencies, probes


def timed_pass(fn, ops):
    total = 0.0
    for op in ops:
        t0 = perf_counter()
        try:
            fn(op)
        except Exception:  # outcomes were checked in the timed run
            pass
        total += perf_counter() - t0
    return total


def per_layer(workload, ops, outcomes, latencies):
    """Replay the run's first ops untraced, traced, and untraced again; reduce
    the spans.  The two untraced passes bracket the traced one, so that
    warm-up and drift do not bias the overhead ratio."""
    replay = getattr(workload, "replay", workload.run)
    sample = ops[: workload.replay_ops]
    before = timed_pass(replay, sample)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_pass(tracer.wrap("op", replay), sample)
    finally:
        tracer.uninstall()
    untraced = (before + timed_pass(replay, sample)) / 2
    # Every span name yields NAME.calls and NAME.self_ms; run.py keeps the
    # ones BENCHMARK.json lists.
    metrics = {"trace.overhead_ratio": traced / untraced}
    for name, (calls, self_s) in tracer.summary().items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = 1000 * self_s
    metrics["ideals.complete.calls_per_op"] = metrics.get("ideals.complete.calls", 0) / len(sample)
    if hasattr(workload, "replay"):
        metrics["cli.main_ms"] = 1000 * untraced / len(sample)
    if hasattr(workload, "layer_metrics"):
        metrics.update(workload.layer_metrics(ops, outcomes, latencies))
    if hasattr(workload, "probe"):
        metrics.update(workload.probe())
    return metrics


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name](seed)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    ops, outcomes, latencies, probes = timed_run(workload, seconds)
    who = resource.RUSAGE_CHILDREN if workload.uses_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    failed = workload.check(ops, outcomes)
    wall = {
        "ops_per_s": len(ops) / sum(latencies),
        "op_ms.p50": 1000 * statistics.median(latencies),
        "op_ms.p90": 1000 * statistics.quantiles(latencies, n=10)[8],
    }
    # Host slowness over the run: > 1 when the probe ran slower than nominal.
    slowness = statistics.mean(probes) / PROBE_NOMINAL_S
    result = {
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [repr(outcomes[i])[:300] for i in failed[:5]],
        "slowness": slowness,
        "end_to_end": {
            "ops_per_s": wall["ops_per_s"] * slowness,
            "op_ms.p50": wall["op_ms.p50"] / slowness,
            "op_ms.p90": wall["op_ms.p90"] / slowness,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (len(ops) - len(failed)) / len(ops),
        },
        "wall": {
            **{f"wall.{name}": value for name, value in wall.items()},
            "host.probe_ms": 1000 * statistics.mean(probes),
        },
    }
    if trace:
        result["per_layer"] = per_layer(workload, ops, outcomes, latencies)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
