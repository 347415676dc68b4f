"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py <root> <workload> <seed> <seconds> <mode>

`mode` is `setup` (build the workload and report the set-up time only),
`plain` (set up, then run whole batches until `seconds` have passed) or
`traced` (the same with spans recorded around eqindex's boundaries).
Set-up is timed from before eqindex is first imported.  Every time is
scaled to the machine's speed of the moment, as `speed` explains; the raw
median probe time is reported alongside.
"""

import gc
import json
import resource
import statistics
import sys
import traceback
from array import array
from time import perf_counter

T_START = perf_counter()


def main():
    root, name, seed, seconds, mode = sys.argv[1:6]
    seconds = float(seconds)
    sys.path.insert(0, f"{root}/src")
    from speed import REF_PROBE_S, SETUP_PROBES, probe_median
    from tracing import Tracer, merge
    from workloads import WORKLOADS

    cli = name == "cli-cold"
    kwargs = {"traced": True} if cli and mode == "traced" else {}
    workload = WORKLOADS[name](seed, root, **kwargs)
    setup_s = perf_counter() - T_START
    setup_s *= REF_PROBE_S / probe_median(SETUP_PROBES)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    if mode == "traced" and not cli:
        tracer.install()
    # compact arrays, so that the benchmark's own memory grows by only
    # 16 bytes per operation and barely moves peak_rss_mb
    latencies, started, batch_ops = array("d"), array("d"), []
    attempted = failed = 0
    speed = workload.speed()
    start = perf_counter()
    c = 0
    while perf_counter() - start < seconds:
        batch = workload.cycle(c)
        c += 1
        gc.collect()
        for run, check in batch:
            attempted += 1
            if workload.collect_between_ops:
                gc.collect()
            tracer.on = mode == "traced"
            t0 = perf_counter()
            try:
                out = run()
            except Exception as exc:
                out = exc
            dt = perf_counter() - t0
            tracer.on = False
            try:
                ok = not isinstance(out, Exception) and check(out)
            except Exception as exc:
                out, ok = exc, False
            if isinstance(out, Exception):
                traceback.print_exception(out)
            if not ok:
                failed += 1
                if failed <= 5:
                    print(f"{name}: operation failed its check", file=sys.stderr)
            latencies.append(dt)
            started.append(t0)
            speed.maybe_probe()
        batch_ops.append(len(batch))

    # before the percentiles below, which copy the latencies into a list
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    scale = speed.scaler()
    latencies = [scale(t0, dt) for t0, dt in zip(started, latencies)]
    batch_s, i = [], 0
    for n in batch_ops:
        batch_s.append(sum(latencies[i:i + n]))
        i += n
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "busy_s": sum(latencies),
        "batch_s": statistics.median(batch_s),
        "probe_s": speed.probe_s(),
        "p50_s": statistics.median(latencies),
        "p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8]
        if len(latencies) > 1 else latencies[0],
        "peak_rss_mb": peak_rss_mb,
    }
    if mode == "traced":
        if cli:
            result["trace"] = merge(workload.traces)
            result["cli_import_s"] = statistics.median(workload.import_s)
            result["cli_child_s"] = statistics.median(workload.child_s)
        else:
            result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
