#!/usr/bin/env python3
"""Run the e2e benchmark over many seeds and summarize the spread.

    python3 e2ebench/sweep.py run --out DIR [--workloads a,b] [--seeds 1-10]
                                  [--seconds 10] [--tags A,B | --tags U:0,T:1]
                                  [--repeat N]
    python3 e2ebench/sweep.py summarize DIR [DIR ...]

`run` executes the command of BENCHMARK.json from the repository root,
once per (seed, workload, tag), cycling through the workloads for each
seed and alternating the tags run by run, and stores each run's full
output as DIR/<workload>.<tag>.<seed>.txt. A tag `NAME:1` runs traced,
`NAME` or `NAME:0` untraced. `--repeat N` runs all of that N times over,
tagging the rounds R1 to RN: with a single seed, that measures how far
runs of the same inputs spread.

`summarize` prints, per workload and metric, the median and the spread
(third minus first quartile over the median, quartiles as
statistics.quantiles(values, n=4) gives them) next to the metric's
bound; with several tags, each tag's median and their largest relative
drift (the rounds of --repeat count as one tag); and the traced-vs-
untraced qps overhead when both kinds of run are present.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    bench = benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    rounds = [f"R{r}" for r in range(1, args.repeat + 1)] if args.repeat else [""]
    # Several tags alternate run by run (A B A B ...), so drift on the host
    # lands on every set alike.
    plan = [(p + t, s, w) for p in rounds for s in seeds(args.seeds) for w in workloads
            for t in args.tags.split(",")]
    for spec, seed, w in plan:
        tag, _, trace = spec.partition(":")
        trace = trace or "0"
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", trace]
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        with open(os.path.join(args.out, f"{w}.{tag}.{seed}.txt"), "w") as f:
            f.write(proc.stdout)
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-300:]}"
        print(f"{w} {tag} seed {seed} trace {trace}: {time.time() - start:.1f}s {status}", flush=True)


def result(path):
    """The run's JSON object, with every numeric text line added to its
    metrics (the JSON's own values win)."""
    with open(path) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        return None
    r = json.loads(lines[-1])
    for line in lines[:-1]:
        parts = line.split()
        try:
            r["metrics"].setdefault(parts[0], {"value": float(parts[1])})
        except (IndexError, ValueError):
            pass
    return r


def collect(results, names=None):
    metrics = {}
    for r in results:
        for k, v in r["metrics"].items():
            if names is None or k in names:
                metrics.setdefault(k, []).append(v["value"])
    return metrics


def spread(values):
    """Third minus first quartile over the median, or "-"."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / abs(med):.4f}"


def summarize(args):
    bench = benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = {}
    for d in args.dirs:
        for name in sorted(os.listdir(d)):
            parts = name.split(".")
            if len(parts) != 4 or parts[3] != "txt":
                continue
            r = result(os.path.join(d, name))
            # The rounds of --repeat (R1, R2, ...) form one set.
            tag = re.sub(r"^R\d+", "", parts[1])
            if r is not None:
                runs.setdefault(parts[0], {}).setdefault(tag, []).append(r)
    for workload, tags in runs.items():
        rs = [r for t in tags.values() for r in t]
        print(f"## {workload}: {len(rs)} runs, correct {sum(r['correct'] for r in rs)}, "
              f"failed {sum(r['failed'] for r in rs)}")
        names = None if args.all else set(bounds)
        metrics = collect(rs, names)
        per_tag = {tag: collect(t, names) for tag, t in sorted(tags.items())}
        for k, values in metrics.items():
            med = statistics.median(values)
            line = f"  {k:32s} n={len(values):3d} median={med:<12.6g} spread={spread(values)} bound={bounds.get(k)}"
            if len(per_tag) > 1:
                meds = {tag: statistics.median(m[k]) for tag, m in per_tag.items() if k in m}
                line += "  " + " ".join(f"{t}: median={statistics.median(m[k]):.6g} spread={spread(m[k])}"
                                        for t, m in per_tag.items() if k in m)
                first = next(iter(meds.values()))
                if first:
                    line += f"  drift={max(abs(v - first) / abs(first) for v in meds.values()):.4f}"
            print(line)
        qps = {True: [], False: []}
        for r in rs:
            qps["trace.op_coverage" in r["metrics"]].append(r["metrics"]["qps"]["value"])
        traced, untraced = qps[True], qps[False]
        if traced and untraced:
            overhead = 1 - statistics.median(traced) / statistics.median(untraced)
            print(f"  tracing overhead (1 - traced/untraced median qps): {overhead:.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", default=str(benchmark()["run_seconds"]))
    r.add_argument("--tags", default="A",
                   help="comma-separated set names, alternated run by run; NAME:1 runs traced")
    r.add_argument("--repeat", type=int, default=0,
                   help="run the whole plan this many times over, tagged R1 to RN")
    s = sub.add_parser("summarize")
    s.add_argument("dirs", nargs="+")
    s.add_argument("--all", action="store_true", help="also summarize the text-only lines")
    args = p.parse_args()
    run(args) if args.cmd == "run" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())
