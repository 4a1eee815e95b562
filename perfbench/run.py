#!/usr/bin/env python3
"""Runtime benchmark of the threaded node runtime (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library tree under src/) into $CARGO_TARGET_DIR (default .bench_build), then
measures one workload as fresh processes of about SUBRUN_S seconds each,
as many as fit in --seconds, and reports the median of every metric across
them. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. A
traced run also measures the same seeds untraced and adds the tracing
overhead to the per-layer metrics. Exits non-zero, printing no result, when
the build or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inproc-steady", "ingress-tcp", "durable-restart")
# The window of one sub-run: blocks/s decays with run length (GC is off), so
# the window stays fixed and a longer --seconds buys more sub-runs instead.
SUBRUN_S = 6.0
BUILD_TIMEOUT_S = 840
SETUP_ATTEMPTS = 3
RUN_BUDGET_S = 170  # all sub-runs of one invocation, build excluded


def work_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(wd):
    bdir = os.path.join(wd, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return os.path.join(bdir, "perfbench")


def subrun_count(seconds):
    return max(1, round(seconds / SUBRUN_S))


def series(binary, args, trace, wd, deadline):
    """Runs the sub-runs; returns their result records, or None on failure."""
    records = []
    subruns = subrun_count(args.seconds)
    for k in range(subruns):
        seed = args.seed * 1000 + k
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(args.seconds / subruns), "--trace", str(trace),
               "--work-dir", wd]
        for _ in range(SETUP_ATTEMPTS):
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True,
                                  timeout=max(1.0, deadline - time.monotonic()),
                                  check=False)
            # The sub-run's own output is diagnostics here; stdout gets the medians.
            print(done.stdout, file=sys.stderr, end="")
            # A crash before the cluster was up measured nothing: it is the
            # free-port race of the cluster fixture's ingress listeners, so
            # run it again.
            if done.returncode >= 0 or "set-up done" in done.stdout:
                break
        try:
            ok = done.returncode == 0 and json.loads(done.stdout.splitlines()[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            ok = False
        if not ok:
            return None
        name = f"{args.workload}-seed{seed}-trace{trace}.json"
        with open(os.path.join(wd, "results", name)) as f:
            records.append(json.load(f))
    return records


def medians(records, key):
    out = {}
    for name, m in records[0][key].items():
        out[name] = {"value": statistics.median(r[key][name]["value"] for r in records),
                     "unit": m["unit"]}
    return out


def show(title, metrics, records, key):
    print(title)
    for name, m in metrics.items():
        runs = " ".join(f"{r[key][name]['value']:.4g}" for r in records)
        print(f"  {name:<30} {m['value']:14.4f} {m['unit']:<6} (sub-runs: {runs})")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    wd = work_dir()
    # Compiler and library temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(wd, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(wd)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = series(binary, args, 0, wd, deadline)
    if untraced is None:
        return 1
    e2e = medians(untraced, "end_to_end")
    records = untraced
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} sub-runs={len(untraced)} trace={args.trace}")
    print(f"fingerprint: {untraced[0]['fingerprint']}")
    show("end-to-end (median of sub-runs):", e2e, untraced, "end_to_end")
    print("throughput over time (tenths of each sub-run window, median):")
    for k in range(len(untraced[0]["tenths"])):
        bps = statistics.median(r["tenths"][k]["blocks_per_s"] for r in untraced)
        lat = statistics.median(r["tenths"][k]["commit_p50_ms"] for r in untraced)
        print(f"  {k + 1:5d} {bps:14.1f} blocks/s {lat:10.3f} commit_p50_ms")
    reported = e2e

    if args.trace == 1:
        traced = series(binary, args, 1, wd, deadline)
        if traced is None:
            return 1
        records = traced
        reported = medians(traced, "per_layer")
        on = medians(traced, "end_to_end")
        lat = "ack_p50_ms" if args.workload == "ingress-tcp" else "commit_p50_ms"
        reported["trace.overhead_blocks_per_s"] = {
            "value": 1.0 - on["blocks_per_s"]["value"] / e2e["blocks_per_s"]["value"],
            "unit": "share"}
        reported["trace.overhead_latency_p50"] = {
            "value": on[lat]["value"] / e2e[lat]["value"] - 1.0, "unit": "share"}
        show("per-layer (median of traced sub-runs):",
             {k: v for k, v in reported.items() if not k.startswith("trace.")},
             traced, "per_layer")
        print(f"  not exercised by this workload (reported as 0): "
              f"{', '.join(traced[0]['not_exercised']) or 'none'}")
        print("tracing overhead (median traced vs untraced, same seeds):")
        for name in ("trace.overhead_blocks_per_s", "trace.overhead_latency_p50"):
            print(f"  {name:<30} {reported[name]['value']:+.4f} share")
        print("counters with their bases (first traced sub-run):")
        for line in traced[0]["counters"]:
            print(f"  {line}")
        print("self time per stage (first traced sub-run):")
        for line in traced[0]["self_time"]:
            print(f"  {line}")

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "subruns": records, "metrics": reported}
    with open(os.path.join(wd, "results", f"{args.workload}-run{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(summary, f)
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {e.cmd[0]}", file=sys.stderr)
        sys.exit(1)
