#!/usr/bin/env python3
"""Run one simbridge benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script builds the simulator, the
harness (perfbench/bench.ml) and its host-speed gauge (perfbench/calib.ml)
under .bench_build/ with the perfbench profile (perfbench/dune builds
the harness only under it, so the repository's own build leaves it
out), then:

  --trace 0  times set-up in SETUPS fresh processes (the median is
             setup_s), one of which goes on to measure warm passes for
             S seconds; prints the end-to-end metrics.
  --trace 1  runs the traced layer breakdown; prints the per-layer
             metrics.

Every simulated result is checked (see perfbench/README.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it are for people: the
workload fingerprint and the first failures, if any.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "simbridge_cli.exe")
WORKLOADS = ("micro-trace", "apps-mpi", "serve-hol")
SETUPS = 5  # set-up samples per run; setup_s is their median
END_TO_END = ("mips", "target_mhz", "p50_ms", "tail_ms", "peak_rss_mib")


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "perfbench",
           "--build-dir", BUILD_DIR, "perfbench/bench.exe", "perfbench/calib.exe", "bin/simbridge_cli.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        sys.exit("build failed")


def bench(mode, workload, seed, seconds, trace, deadline):
    """Run one harness process and return its JSON record."""
    spawned = time.time()
    cmd = [BENCH, mode, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spawned-at", repr(spawned), "--cli", CLI]
    # Its own process group, so a timeout also stops the serve daemon it starts.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = p.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.exit(f"{workload}: {mode} did not finish in time")
    if p.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        sys.exit(f"{workload}: {mode} exited with {p.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.time()
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build()
    # Every harness process, the serve daemon included, runs on one CPU.
    # With the daemon and its load generator on two CPUs of a shared VM,
    # hypervisor steal time rose and cold throughput fell by up to a
    # third in some runs; on one CPU it held.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Whatever the build took, the runs themselves get 170 s.
    deadline = time.time() + 170.0

    if args.trace:
        records = [bench("run", args.workload, args.seed, args.seconds, 1, deadline)]
        metrics = records[0]["metrics"]
    else:
        records = [bench("setup", args.workload, args.seed, 0, 0, deadline) for _ in range(1, SETUPS)]
        main_rec = bench("run", args.workload, args.seed, args.seconds, 0, deadline)
        records.append(main_rec)
        metrics = {k: main_rec["metrics"][k] for k in END_TO_END}
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in records), "unit": "s"}
        if "fingerprint" in main_rec:
            print(f"fingerprint {args.workload} {main_rec['fingerprint']}")
        info = [f"{k}={v}" for k, v in main_rec.items() if isinstance(v, (int, float)) and k not in ("attempted", "failed")]
        print("info " + " ".join(info))

    attempted = sum(int(r["attempted"]) for r in records)
    failed = sum(int(r["failed"]) for r in records)
    for r in records:
        for note in r.get("notes", []):
            print(f"FAILED {note}")
    values_ok = all(isinstance(m["value"], (int, float)) and m["value"] == m["value"] for m in metrics.values())
    print(f"{args.workload}: {attempted} checks, {failed} failed, {time.time() - start:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and values_ok,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
