#!/usr/bin/env python3
"""Steadiness self-check for the simbridge benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--trace] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs the command in BENCHMARK.json once per seed on each workload and
prints, for each metric, the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to
the metric's bound.  It fails when a run is not correct, when a
workload's fingerprint differs between runs, when a spread exceeds its
bound (setup_s excepted), or, with --trace, when a deterministic
per-layer count differs between runs.  For serve-hol it also reports
how late the load generator ran.  --out keeps the runs; --compare checks
that a second set's medians are no worse than the first's by more than
each bound.  Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer counts that are reported but not asserted: batch sizes depend
# on thread timing, and major collections on the seed-permuted cell order.
NOT_ASSERTED = {"serve.requests_per_batch", "gc.major_collections"}


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=1000)
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr.decode(errors="replace"))
        return {"correct": False, "failed": -1, "metrics": {}, "info": {}, "fingerprint": None}
    res = json.loads(lines[-1])
    res["info"], res["fingerprint"] = {}, None
    for line in lines[:-1]:
        if line.startswith("info "):
            res["info"] = dict(kv.split("=", 1) for kv in line[5:].split())
        elif line.startswith("fingerprint "):
            res["fingerprint"] = line.split()[-1]
        elif line.startswith("FAILED "):
            print("   ", line)
    return res


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def check(spec, workload, runs, trace):
    ok = True
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
    bad = [r for r in runs if not r["correct"] or r["failed"] != 0]
    if bad:
        print(f"  FAIL {len(bad)} of {len(runs)} runs not correct")
        ok = False
    fps = {r["fingerprint"] for r in runs}
    if len(fps) > 1:
        print(f"  FAIL fingerprints differ between runs: {sorted(map(str, fps))}")
        ok = False
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if len(values) < 2:
            continue
        unit = runs[0]["metrics"][name]["unit"]
        if trace:
            if unit == "count" and name not in NOT_ASSERTED and len(set(values)) > 1:
                print(f"  FAIL {name}: count differs between runs: {sorted(set(values))}")
                ok = False
            print(f"  {name:32s} median {statistics.median(values):14.6g} {unit}")
            continue
        med, q1, q3, s = spread(values)
        bound = bounds[name]
        verdict = "ok"
        if name != "setup_s" and s > bound:
            verdict, ok = "FAIL", False
        elif s > bound / 3:
            verdict = "wide"
        print(f"  {name:14s} median {med:12.5g} {unit:8s} q1 {q1:12.5g} q3 {q3:12.5g} "
              f"spread {s:7.4f} = {s / bound:5.2f} x bound {bound}  {verdict}")
    late = [float(r["info"]["late_p95_ms"]) for r in runs if "late_p95_ms" in r["info"]]
    if late:
        print(f"  generator late (p95 per run, ms): median {statistics.median(late):.3f} max {max(late):.3f}")
    return ok


def compare(spec, first, second):
    ok = True
    for m in spec["end_to_end"]:
        for workload in first:
            a = [r["metrics"][m["name"]]["value"] for r in first[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in second.get(workload, [])]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{workload:12s} {m['name']:14s} {ma:12.5g} -> {mb:12.5g} worse by {worse:+.4f} "
                  f"(bound {m['bound']})  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(spec, *sets) else 1)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    all_runs, ok = {}, True
    for w in workloads:
        runs = [run_once(spec, w, args.first_seed + i, int(args.trace)) for i in range(args.runs)]
        all_runs[w] = runs
        print(f"{w}: {len(runs)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        ok = check(spec, w, runs, args.trace) and ok
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(all_runs, f)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
