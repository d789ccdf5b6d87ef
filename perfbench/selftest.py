"""The benchmark's own test, at tiny size (python3 perfbench/run.py --selftest).

Checks that
  * every workload's output follows the BENCHMARK.json contract in both modes;
  * one deliberately corrupted response byte gives ok_ratio < 1 (error_ratio
    > 0), a failed count, and a non-zero exit;
  * the exact counts repeat exactly for the same seed, and the seed-dependent
    ones change with the seed;
  * every row reports the lane width its PartitionSpec executes: 32-lane
    shards for the lane-slice families, the full 512 for counter families.
"""

import run

EXACT_PREFIXES = ("ciphers.gates_per_bit.", "stream_engine.tasks.",
                  "stream_engine.executed_width.", "session.seek_bytes",
                  "protocol.frame_overhead", "stream.resumes")
SEED_DEPENDENT = ("session.seek_bytes", "protocol.frame_overhead")
LANE_SLICE = ("mickey", "grain", "trivium", "a51")
COUNTER = ("aes-ctr", "chacha20")


def tiny(binary, workload, seed, trace, extra=()):
    code, lines = run.run_binary(binary, workload, seed, 0.4, trace,
                                 ["--tiny", *extra])
    result, _ = run.parse_result(lines)
    return code, result, lines


def exact(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith(EXACT_PREFIXES)}


def main(binary):
    spec = run.load_spec()
    failures = []

    def check(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in run.WORKLOADS:
        code, result, _ = tiny(binary, w, 1, False)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              "%s: clean untraced run" % w)
        check(not run.check_contract(result, spec, False),
              "%s: end-to-end metrics match BENCHMARK.json" % w)

        code, result, _ = tiny(binary, w, 1, False, ["--corrupt-one"])
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        check(code != 0 and result["failed"] > 0 and not result["correct"]
              and ok_ratio < 1.0,
              "%s: one corrupted byte -> error_ratio %.3g > 0, exit %d"
              % (w, 1.0 - ok_ratio, code))

        code, first, lines = tiny(binary, w, 1, True)
        check(code == 0 and not run.check_contract(first, spec, True),
              "%s: traced run emits every per-layer metric" % w)
        _, again, _ = tiny(binary, w, 1, True)
        _, other, _ = tiny(binary, w, 2, True)
        check(exact(first) == exact(again),
              "%s: exact counts repeat for the same seed" % w)
        changed = [k for k in SEED_DEPENDENT
                   if exact(first)[k] != exact(other)[k]]
        check(changed == list(SEED_DEPENDENT),
              "%s: seed-dependent counts change with the seed (%s)"
              % (w, ", ".join(changed) or "none"))

        m = first["metrics"]
        widths_ok = all(m["stream_engine.executed_width." + f]["value"] == 32
                        for f in LANE_SLICE) and all(
            m["stream_engine.executed_width." + f]["value"] == 512
            for f in COUNTER)
        rows = [l for l in lines if l.startswith("width ")]
        rows_ok = len(rows) == 6 and all(
            l.endswith("executed %d" % int(
                m["stream_engine.executed_width." + l.split()[1][:-len("-bs512:")]]
                ["value"])) for l in rows)
        check(widths_ok and rows_ok,
              "%s: rows report the executed lane width" % w)

    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0
