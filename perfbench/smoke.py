#!/usr/bin/env python3
"""Smoke test of the benchmark on its tiny grid.

    python3 perfbench/smoke.py

For every workload and both modes it runs `run.py --smoke` twice on one
seed and checks that the last output line is the result object, that every
metric named in BENCHMARK.json is printed with its unit, and that every
count repeats exactly.  It also checks that the benchmark refuses to run,
with a nonzero exit code and no result line, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  It does not gate on time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def check_result(spec, workload, trace):
    expected = spec["per_layer" if trace else "end_to_end"]
    results = []
    for _ in range(2):
        proc = run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        for m in expected:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (m, got)
            line = [ln for ln in proc.stdout.splitlines()
                    if ln.split()[:1] == [m["name"]]]
            assert line and line[0].split()[2] == m["unit"], m["name"]
        assert len(result["metrics"]) == len(expected)
        results.append(result)
    first, second = results
    for key in ("attempted", "failed"):
        assert first[key] == second[key], (workload, key)
    for m in expected:
        if m["unit"] == "count":
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            assert a == b, (workload, m["name"], a, b)
    return first


def check_refuses_without_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(bare, "lcp-dense", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = check_result(spec, w["name"], trace)
            print(f"ok {w['name']} trace={trace} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
    check_refuses_without_program()
    print("ok refuses to run without the program source")


if __name__ == "__main__":
    main()
