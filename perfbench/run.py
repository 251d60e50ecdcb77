#!/usr/bin/env python3
"""Figure-2 benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
repository's src/ libraries) under .bench_build/, runs one workload, and
prints as its last stdout line one JSON object:

  {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Run from the repository root:

  python3 perfbench/run.py --workload paced_fleet --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Stream stages whose Pipeline::ReportJson rows feed stream.<stage>.* and
# the row fields each metric reads (ns fields are rendered in ms).
STREAM_FIELDS = {
    "mean_batch_in": ("mean_batch_in", 1.0),
    "producer_blocked_ms": ("producer_blocked_ns", 1e-6),
    "consumer_blocked_ms": ("consumer_blocked_ns", 1e-6),
    "queue_hwm": ("queue_high_watermark", 1.0),
    "skew_ratio": ("skew_ratio", 1.0),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, base))
    if not path.startswith(ROOT + os.sep):
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt under %s: run from the repository root" % ROOT)
    out = os.path.join(bdir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def stream_metrics(report):
    metrics = {}
    for row in report.get("stages", []):
        for name, (field, scale) in STREAM_FIELDS.items():
            if field in row:
                metrics["stream.%s.%s" % (row["stage"], name)] = row[field] * scale
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)

    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(bdir, "perfbench-run")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        fail("benchmark program failed (exit %d)" % r.returncode)
    raw = json.loads(lines[-1])
    for note in raw.get("notes", []):
        print("perfbench: " + note, file=sys.stderr)

    values = dict(raw["metrics"])
    values.update(stream_metrics(raw.get("stream", {})))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = bool(raw["correct"])
    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if v is None:
            if not args.trace:
                correct = False
                print("perfbench: missing metric " + m["name"], file=sys.stderr)
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
