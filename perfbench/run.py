"""pin2k benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json.  The run starts
perfbench/worker.py in fresh processes: one that sets up, runs the closed
loop for S seconds, checks the outputs and, with --trace 1, replays the
first ops under tracing; and, before and after it, a few that only set up,
to time set-up from process start.  Timed end-to-end metrics are given at
a reference host speed (see worker.py); the wall-clock figures are printed
beside them as `wall.*`.  Every metric is printed by name with its unit;
the last line is the JSON result.  Each run is also appended, with its seed,
to .perfbench/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_ONLY_RUNS = 14
DEADLINE_S = 170


class RunError(Exception):
    pass


def start_worker(args, deadline):
    """Start a worker; return it and the seconds from spawn to its `ready` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RunError("worker did not finish set-up")
    return proc, setup


def stop(proc):
    proc.kill()
    proc.communicate()


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    args = [workload, str(seed), str(seconds), str(trace)]

    def setup_only():
        proc, setup = start_worker(args + ["--setup-only"], deadline)
        finish(proc, deadline)
        return setup

    # Half the set-up-only runs come before the measured run and half after
    # it, so that their median spans the run rather than one moment of the
    # host.  Like the other timings, set-up is scaled to the reference host
    # speed by the slowness the worker's probes measured during its run.
    setups = [setup_only() for _ in range(SETUP_ONLY_RUNS // 2)]
    proc, setup = start_worker(args, deadline)
    setups.append(setup)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    setups += [setup_only() for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    result["wall"]["wall.setup_s"] = statistics.median(setups)
    result["end_to_end"]["setup_s"] = statistics.median(setups) / result["slowness"]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = ("BENCHMARK.json", "src/pin2k/__init__.py", "tests/oracles.py")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pin2k checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    # A per-layer metric of a layer the workload never reaches reads 0.
    values = {m["name"]: 0 for m in spec["per_layer"]}
    values.update(result.get("per_layer", {}), **result["end_to_end"], **result["wall"])
    host = [m for m in spec["per_layer"] if m["name"] in result["wall"]]
    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else host)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    for metric in shown:
        note = f"  (n={result['attempted']})" if metric["name"].startswith("op_ms.") else ""
        print(f"{metric['name']:<40} {values[metric['name']]:>14.6g} {metric['unit']}{note}")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }
    log = ROOT / ".perfbench" / "runs.jsonl"
    log.parent.mkdir(exist_ok=True)
    with log.open("a") as fh:
        record = {"time": time.strftime("%Y-%m-%dT%H:%M:%S"), **vars(args), **final, "all_metrics": values}
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
