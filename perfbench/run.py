#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload engine_bulk --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py ... --out results.jsonl      # also append a record
  python3 perfbench/run.py --compare before.jsonl after.jsonl
  python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_bulk", "serve_stream", "serve_small")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def load_spec():
    with open(os.path.join(SOURCE_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    root = build_dir()
    bdir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    log_path = os.path.join(root, "perfbench-build.log")
    with open(os.path.join(root, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", *extra]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%s.jsonl" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The final JSON object and the fingerprint printed before it."""
    result = json.loads(lines[-1])
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    return result, fingerprint


def check_contract(result, spec, trace):
    """Metric names and units must be exactly those BENCHMARK.json lists."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("unlisted metric " + name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("unit of %s: %s != %s" % (name, got[name], want[name]))
    return problems


# --- compare mode -----------------------------------------------------------

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """better / worse / unchanged / unresolved for B against A."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (bm - am) / am if am else 0.0
    spread_a = (a3 - a1) / abs(am) if am else 0.0
    spread_b = (b3 - b1) / abs(bm) if bm else 0.0
    all_better = min(sign * x for x in b) > max(sign * x for x in a)
    all_worse = max(sign * x for x in b) < min(sign * x for x in a)
    if bound is None:
        return "-"
    if spread_a > bound or spread_b > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread_a and gain > 0 and all_better:
        return "better"
    return "unchanged"


def compare(path_a, path_b):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ra, rb = load_records(path_a), load_records(path_b)
    status = 0
    for workload in sorted({r["workload"] for r in ra} | {r["workload"] for r in rb}):
        for trace in (False, True):
            sa = [r for r in ra if r["workload"] == workload and r["trace"] == trace]
            sb = [r for r in rb if r["workload"] == workload and r["trace"] == trace]
            if not sa or not sb:
                continue
            fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in sa + sb}
            if len(fps) != 1:
                print("%s: refusing to compare, host fingerprints differ:" % workload)
                for fp in sorted(fps):
                    print("  " + fp)
                status = 1
                continue
            print("== %s (%s, %d vs %d runs)" % (
                workload, "per-layer" if trace else "end-to-end", len(sa), len(sb)))
            print("%-38s %12s %12s %12s %12s %12s %12s %6s %s" % (
                "metric", "A q1", "A median", "A q3", "B q1", "B median",
                "B q3", "wins", "verdict"))
            by_seed_b = {r["seed"]: r for r in sb}
            for name in sorted(sa[0]["result"]["metrics"]):
                if name not in metrics:
                    continue
                a = [r["result"]["metrics"][name]["value"] for r in sa]
                b = [r["result"]["metrics"][name]["value"] for r in sb]
                sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
                pairs = [(r["result"]["metrics"][name]["value"],
                          by_seed_b[r["seed"]]["result"]["metrics"][name]["value"])
                         for r in sa if r["seed"] in by_seed_b]
                wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
                qa, qb = quartiles(a), quartiles(b)
                print("%-38s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %3d/%-2d %s" % (
                    name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], wins,
                    len(pairs), verdict(a, b, metrics[name]["better"],
                                        metrics[name].get("bound"))))
    return status


# --- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a result record (JSON line) here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    if args.selftest:
        sys.path.insert(0, HERE)
        import selftest
        return selftest.main(binary)
    if not args.workload:
        ap.error("--workload is required")

    try:
        code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                                 args.trace == 1)
        result, fingerprint = parse_result(lines)
    except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print("perfbench: no result: %s" % e, file=sys.stderr)
        return 1
    problems = check_contract(result, load_spec(), args.trace == 1)
    print("\n".join(lines[:-1]))
    if problems:
        print("perfbench: output breaks the BENCHMARK.json contract:\n  " +
              "\n  ".join(problems), file=sys.stderr)
        return 1
    print(lines[-1])
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace == 1, "seconds": args.seconds,
                                "fingerprint": fingerprint, "result": result}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
