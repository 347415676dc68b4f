"""Alternating parent/change runs of the benchmark, written as one BENCH file.

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_12.json \\
        --seconds 20 --pairs duality-sweep:101-106 --pairs ring-ops:101-103 \\
        --trace duality-sweep:101

The parent side is the committed tree of --parent, exported with
`git archive` (into --tree, or a temporary directory); the change side is
the working tree this script sits in, which must hold no `__pycache__`
under src/, tests/ or perfbench/.  Each seed of a --pairs spec is one
pair: `perfbench/run.py` runs once per side, back to back, each from the
root of its own tree, and the side that goes first alternates from pair to
pair.  Each seed of a --trace spec adds one `--trace 1` pair.  No run
writes bytecode (PYTHONDONTWRITEBYTECODE=1), so neither side gains a cache.

The output is {"description", "parent", "runs"}, one run per
{side, workload, seed, trace, exit, result}, where result is the run's
parsed last stdout line (null when it printed none).  A summary of each
end-to-end metric (medians, the parent's quartiles, pairs won) goes to
stderr.  Standard library only.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    """'101-103,9301' -> [101, 102, 103, 9301]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spec(text):
    workload, sep, seed_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return workload, seeds(seed_text)


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev, dest) -> str:
    """Extract the committed tree of `rev` under `dest`; its short id."""
    archive = git("archive", rev + "^{commit}")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def bytecode_caches(tree) -> list:
    """The `__pycache__` directories under the tree's src/, tests/ and
    perfbench/: a cache on one side only would bias its runs."""
    return [os.path.join(top, "__pycache__")
            for sub in ("src", "tests", "perfbench")
            for top, dirs, _ in os.walk(os.path.join(tree, sub))
            if "__pycache__" in dirs]


def run(tree, workload, seed, seconds, trace):
    """(exit code, parsed last stdout line or None) of one benchmark run,
    with no bytecode written."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def summary(runs):
    """Per workload and end-to-end metric at --trace 0: each side's median,
    the parent's quartiles and the pairs the change wins (ties count for
    neither), which way is better read from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        higher = {m["name"]: m["better"] == "higher"
                  for m in json.load(fh)["end_to_end"]}
    pairs = {}
    for r in runs:
        if r["trace"] == 0 and r["result"] is not None:
            pairs.setdefault((r["workload"], r["seed"]), {})[r["side"]] = \
                r["result"]["metrics"]
    values = {}
    for (workload, _), sides in pairs.items():
        if len(sides) == 2:
            for name, m in sides["parent"].items():
                values.setdefault((workload, name), []).append(
                    (m["value"], sides["change"][name]["value"]))
    for (workload, name), vs in values.items():
        parent, change = zip(*vs)
        sign = 1 if higher.get(name) else -1
        wins = sum(sign * (c - p) > 0 for p, c in vs)
        q = statistics.quantiles(parent, n=4) if len(vs) > 1 else parent * 3
        print(f"{workload:14} {name:12} parent {statistics.median(parent):.4g}"
              f" (quartiles {q[0]:.4g}-{q[2]:.4g}), change "
              f"{statistics.median(change):.4g}, change wins {wins}/{len(vs)}",
              file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--tree", help="empty directory for the parent tree")
    parser.add_argument("--pairs", type=spec, action="append", default=[])
    parser.add_argument("--trace", type=spec, action="append", default=[])
    args = parser.parse_args()
    if args.tree and os.path.isdir(args.tree) and os.listdir(args.tree):
        parser.error("--tree must be an empty directory")
    caches = bytecode_caches(ROOT)
    if caches:
        parser.error(f"remove the bytecode cache {caches[0]} (and every "
                     f"other __pycache__ under src/, tests/ and perfbench/)")
    plan = [(w, s, 0) for w, ss in args.pairs for s in ss] + \
        [(w, s, 1) for w, ss in args.trace for s in ss]
    with tempfile.TemporaryDirectory() as tmp:
        tree = args.tree or tmp
        parent = export(args.parent, tree)
        runs = []
        for k, (workload, seed, trace) in enumerate(plan):
            sides = [("parent", tree), ("change", ROOT)]
            for side, root in sides[::-1] if k % 2 else sides:
                code, result = run(root, workload, seed, args.seconds, trace)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "trace": trace, "exit": code, "result": result})
                print(f"[{len(runs)}/{2 * len(plan)}] {side} {workload} "
                      f"seed {seed} trace {trace}: exit {code}", file=sys.stderr)
    specs = "; ".join(f"{w} seeds {','.join(map(str, ss))}"
                      for w, ss in args.pairs)
    traced = "; ".join(f"{w} seeds {','.join(map(str, ss))}"
                       for w, ss in args.trace) or "none"
    description = (
        f"Raw perfbench/run.py result lines (the last stdout line of each "
        f"run, parsed) for the parent commit {parent} and this change, run "
        f"alternately, back to back, on the same machine (Python "
        f"{platform.python_version()}, {os.cpu_count()} CPUs, "
        f"{platform.system()}), each side from its own copy of the source "
        f"tree. Command per run: python3 perfbench/run.py --workload <w> "
        f"--seed <s> --seconds {args.seconds} --trace <t>, from the root of "
        f"each source tree. Pairs at --trace 0: {specs}. Pairs at --trace "
        f"1: {traced}. The side that runs first alternates from pair to "
        f"pair, parent first in the first.")
    with open(args.out, "w") as fh:
        json.dump({"description": description, "parent": parent,
                   "runs": runs}, fh, indent=1)
        fh.write("\n")
    summary(runs)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
