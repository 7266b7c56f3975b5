#!/usr/bin/env python3
"""Two-clock benchmark of the NEVE simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator and the benchmark driver in Release under
.bench_build/perfbench (incrementally after the first run), runs one workload
for the given host-time budget, checks its outputs, and prints as the last
line one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, derived from the benchmark's own spans, which are written
to perfbench/out/spans.<workload>.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("nested_exits", "observed_exits", "snapshot_migrate")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        try:
            r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("command failed (%s):\n%s" % (" ".join(cmd), tail))


def build(root, bench_dir):
    """Configures (first time only) and builds; returns the driver's path."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail("no simulator sources next to the benchmark (CMakeLists.txt, src/)")
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    open(log, "w").close()
    jobs = str(min(4, os.cpu_count() or 1))

    calib_src = os.path.join(bench_dir, "calib")
    calib_bin = os.path.join(out, "calib")
    if not os.path.isfile(os.path.join(calib_bin, "CMakeCache.txt")):
        run_logged(["cmake", "-S", calib_src, "-B", calib_bin,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", calib_bin, "-j", jobs], log,
               BUILD_TIMEOUT_S)
    calib_lib = os.path.join(calib_bin, "libperfbench_calib.a")

    sim_bin = os.path.join(out, "neve")
    if not os.path.isfile(os.path.join(sim_bin, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", sim_bin,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(bench_dir, "hook.cmake"),
                    "-DPERFBENCH_CALIB_LIB=" + calib_lib], log,
                   BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", sim_bin, "--target", "neve_perfbench",
                "-j", jobs], log, BUILD_TIMEOUT_S)
    exe = os.path.join(sim_bin, "neve_perfbench")
    if not os.access(exe, os.X_OK):
        fail("driver not built: " + exe)
    return exe


def steal_seconds():
    """Host CPU time stolen from this machine's CPUs so far (from /proc/stat),
    or None where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_traces(res):
    """Parses every exported Chrome trace with Python's json module (not the
    simulator's writer) and checks events + dropped == recorded."""
    problems = []
    for entry in res.get("obs_traces", []):
        path, recorded = entry.rsplit("=", 1)
        try:
            with open(path) as f:
                doc = json.load(f)
            events = len(doc["traceEvents"])
            dropped = int(doc["otherData"]["dropped_events"])
            if events + dropped != int(recorded):
                problems.append("%s: %d events + %d dropped != %s recorded"
                                % (path, events, dropped, recorded))
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append("%s: %s" % (path, e))
    spans = res.get("spans_file")
    if spans:
        try:
            with open(spans) as f:
                doc = json.load(f)
            if len(doc["traceEvents"]) != res["spans"]:
                problems.append("span trace holds %d spans, driver recorded %d"
                                % (len(doc["traceEvents"]), res["spans"]))
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: %s" % (spans, e))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    exe = build(root, bench_dir)
    out_dir = os.path.join(bench_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    steal0 = steal_seconds()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if r.returncode != 0:
        fail("driver exited with %d" % r.returncode)
    lines = [l for l in r.stdout.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        fail("driver printed no result")
    res = json.loads(lines[-1][len("PERFBENCH_RESULT "):])

    problems = check_traces(res)
    e2e = res["end_to_end"]
    # Untraced results are kept with the digest of the driver that made them;
    # a traced run compares its simulated counts only against a result of
    # the same driver.
    build_id = file_digest(exe)
    last = os.path.join(out_dir, "last_e2e.%s.json" % args.workload)
    base = None
    if args.trace:
        try:
            with open(last) as f:
                base = json.load(f)
            if base.get("build") != build_id:
                base = None
        except (OSError, ValueError, AttributeError):
            base = None
        if base is not None and base.get("sim") != res["sim"]:
            problems.append("traced simulated counts differ from the untraced "
                            "run's of the same build")
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    correct = bool(res["correct"]) and not problems

    info = {k: v for k, v in res.items()
            if k not in ("end_to_end", "per_layer", "obs_traces", "sim")}
    steal1 = steal_seconds()
    if steal0 is not None and steal1 is not None:
        info["host_steal_s"] = round(steal1 - steal0, 2)
    info["correct"] = correct
    info["check_failures"] = res["check_failures"] + problems
    print("info " + json.dumps(info, sort_keys=True))
    if args.trace:
        print("traced end_to_end " + json.dumps(e2e, sort_keys=True))
        if base is None:
            print("traced/untraced: no untraced result of this workload from "
                  "this build; simulated counts not compared")
        else:
            over = {k: e2e[k]["value"] / base["end_to_end"][k]["value"]
                    for k in e2e if base["end_to_end"].get(k, {}).get("value")}
            print("traced/untraced " + json.dumps(over, sort_keys=True))
            print("traced sim counts identical to untraced: %s"
                  % (base["sim"] == res["sim"]))
        metrics = res["per_layer"]
    else:
        with open(last, "w") as f:
            json.dump({"build": build_id, "end_to_end": e2e, "sim": res["sim"]},
                      f, sort_keys=True)
        metrics = e2e
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
