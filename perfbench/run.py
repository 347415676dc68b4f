"""The eqindex benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; eqindex is imported from `src/`, as the
tests do.  Every interpreter that touches eqindex is a fresh child process,
so process-global caches never carry over between set-ups or runs.

--trace 0 prints the end-to-end metrics: set-up time (median of
SETUP_RUNS fresh interpreters), then, from one interpreter that runs whole
batches of operations for --seconds, throughput, batch time, operation
latency percentiles, peak RSS and the share of operations whose outputs
passed their checks.  Times cover only the calls into eqindex, not the
benchmark's own checks, and are scaled to the machine's speed of the moment
(see `speed.py`).

--trace 1 prints the per-layer metrics: one untraced and one traced
interpreter run the same batches; the traced one reports, per operation,
calls and self time of every boundary in `tracing.BOUNDARY`, cache hit
ratios and size counters.  The tracing overhead is the traced batch time
minus the untraced one; `speed.probe_s` is the untraced run's raw median
probe time.

The last line of stdout is the result; a failed run prints no result and
exits non-zero.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("duality-sweep", "ring-ops", "cli-cold")
SETUP_RUNS = 9
DEADLINE_S = 170


def worker(args, mode, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
           args.workload, str(args.seed), str(args.seconds), mode]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker overran the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(args, deadline):
    setups = [worker(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    r = worker(args, "plain", deadline)
    setups.append(r["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (r["batch_s"], "s"),
        "ops_per_s": (r["attempted"] / r["busy_s"], "1/s"),
        "op_p50_ms": (r["p50_s"] * 1e3, "ms"),
        "op_p90_ms": (r["p90_s"] * 1e3, "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "ops_ok_ratio": ((r["attempted"] - r["failed"]) / r["attempted"],
                         "ratio"),
    }
    return [r], metrics


def per_layer(args, deadline):
    from tracing import CACHED, span_names
    plain = worker(args, "plain", deadline)
    r = worker(args, "traced", deadline)
    t = r["trace"]
    ops = r["attempted"]
    metrics = {}
    for name in span_names():
        calls, self_s = t["stats"][name]
        if name != "groups.FiniteGroup":
            metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    for name in CACHED:
        calls = t["stats"][name][0]
        metrics[f"{name}.hit_ratio"] = (
            t["hits"][name] / calls if calls else 0.0, "ratio")
    metrics["groups.groups_built"] = (t["groups_built"] / ops, "groups/op")
    metrics["groups.subgroups_enumerated"] = (
        t["subgroups_enumerated"] / ops, "subgroups/op")
    metrics["groups.max_order"] = (t["max_order"], "elements")
    metrics["cli.import_s"] = (r.get("cli_import_s", 0.0), "s")
    metrics["cli.child_s"] = (r.get("cli_child_s", 0.0), "s")
    metrics["trace.overhead_s"] = (r["batch_s"] - plain["batch_s"], "s")
    metrics["speed.probe_s"] = (plain["probe_s"], "s")
    return [plain, r], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "eqindex", "__init__.py")):
        print("run.py: no eqindex source tree at src/eqindex; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
