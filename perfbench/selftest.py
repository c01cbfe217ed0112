#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a minute or two after the build).

    python3 perfbench/selftest.py

Checks, for every workload:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    every operation passes, and the untraced and traced runs emit exactly
    the end_to_end and per_layer metrics BENCHMARK.json names, each with
    its unit;
  * with a deliberately wrong reference (--corrupt-reference) every
    operation is counted as failed and the run as incorrect, not passed.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch)

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def result(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    binary = run.build()
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = result(binary, w, trace)
            where = f"{w} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, unexpected "
                                f"{extra}, wrong unit {units}")
        bad = result(binary, w, 0, "--corrupt-reference")
        if bad["correct"] or bad["failed"] != bad["attempted"]:
            problems.append(f"{w}: a wrong reference gave correct="
                            f"{bad['correct']}, {bad['failed']} of "
                            f"{bad['attempted']} failed")
        print(f"selftest: {w} checked", file=sys.stderr)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
