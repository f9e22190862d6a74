#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/smoke_test.py

For every workload run.py knows (those in BENCHMARK.json and city_gossip),
at `--size smoke` and the reference seed, runs perfbench/run.py untraced and
traced and checks that every metric BENCHMARK.json names is emitted with its
unit and that the output check passes (reference values included). Then runs
a second seed and checks that it generates different inputs. Exits non-zero
on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--size", "smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def check_result(spec, result, trace, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, \
        f"{where}: output check failed: {result}"
    assert result["attempted"] >= 1, where
    expected = spec["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in expected]
    assert sorted(result["metrics"]) == sorted(names), \
        f"{where}: metrics {sorted(result['metrics'])} != {sorted(names)}"
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], f"{where}: {entry['name']}"
        assert isinstance(metric["value"], (int, float)), \
            f"{where}: {entry['name']} = {metric['value']!r}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = json.loads((BENCH_DIR / "reference.json").read_text())["seed"]
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            prov, result = run(workload, seed, trace)
            check_result(spec, result, trace, f"{workload} trace={trace}")
            digests.add(prov["inputs_digest"])
        assert len(digests) == 1, f"{workload}: seed {seed} inputs differ"
        prov, result = run(workload, seed + 1, 0)
        check_result(spec, result, 0, f"{workload} seed={seed + 1}")
        assert prov["inputs_digest"] not in digests, \
            f"{workload}: seeds {seed} and {seed + 1} generate the same inputs"
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
