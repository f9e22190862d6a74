#!/usr/bin/env python3
"""Unit tests for tools/perf_compare.py error handling and the regression
gate, run as the `perf_compare_test` ctest target.

The contract under test: a missing or unparseable baseline must produce a
clear actionable message and exit 0 — never a stack trace — while a broken
*current* file is a usage error (exit 2), and real regressions still fail
(exit 1). Repeated --baseline/--current files compare per-metric medians.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TOOL = ROOT / "tools" / "perf_compare.py"

failures = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok   {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}  {detail}")


def run(baseline, current, *extra):
    """Runs the tool; baseline and current are a path or a list of paths
    (one --baseline/--current flag each)."""
    argv = [sys.executable, str(TOOL)]
    for flag, paths in (("--baseline", baseline), ("--current", current)):
        for path in paths if isinstance(paths, list) else [paths]:
            argv += [flag, str(path)]
    return subprocess.run(argv + list(extra), capture_output=True, text=True)


def bench_json(path, label, value):
    path.write_text(json.dumps(
        {"bench": "micro_ml", "runs": [{"label": label, "ops_per_s": value}]}))


with tempfile.TemporaryDirectory() as td:
    tmp = Path(td)
    current = tmp / "BENCH_current.json"
    bench_json(current, "conv", 100.0)

    # --- missing baseline: warn + exit 0, no stack trace ------------------
    r = run(tmp / "no_such_baseline.json", current)
    check("missing baseline exits 0", r.returncode == 0, f"rc={r.returncode}")
    check("missing baseline prints an actionable skip message",
          "skipping comparison" in r.stdout and "artifact" in r.stdout,
          r.stdout + r.stderr)
    check("missing baseline emits no traceback",
          "Traceback" not in r.stderr, r.stderr)

    # --- unparseable baseline (invalid JSON): warn + exit 0 ---------------
    bad = tmp / "BENCH_bad.json"
    bad.write_text("{not json at all")
    r = run(bad, current)
    check("unparseable baseline exits 0", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    check("unparseable baseline emits no traceback",
          "Traceback" not in r.stderr, r.stderr)
    check("unparseable baseline names the file",
          "BENCH_bad.json" in r.stdout, r.stdout)

    # --- valid JSON, wrong shape (a list): still no stack trace -----------
    shape = tmp / "BENCH_shape.json"
    shape.write_text("[1, 2, 3]")
    r = run(shape, current)
    check("non-object baseline exits 0", r.returncode == 0,
          f"rc={r.returncode} err={r.stderr}")
    check("non-object baseline emits no traceback",
          "Traceback" not in r.stderr, r.stderr)

    # --- broken current file is a usage error (exit 2) --------------------
    r = run(current, shape)
    check("non-object current exits 2", r.returncode == 2,
          f"rc={r.returncode}")
    check("broken current emits no traceback",
          "Traceback" not in r.stderr, r.stderr)

    r = run(current, tmp / "missing_current.json")
    check("missing current exits 2", r.returncode == 2, f"rc={r.returncode}")

    # --- the gate itself still works over real files ----------------------
    baseline = tmp / "BENCH_base.json"
    bench_json(baseline, "conv", 100.0)
    r = run(baseline, current)
    check("identical bench passes", r.returncode == 0,
          f"rc={r.returncode} out={r.stdout}")

    slow = tmp / "BENCH_slow.json"
    bench_json(slow, "conv", 50.0)
    r = run(baseline, slow)
    check("50% regression fails", r.returncode == 1,
          f"rc={r.returncode} out={r.stdout}")

    r = run(baseline, slow, "--tolerance", "0.6")
    check("regression within tolerance passes", r.returncode == 0,
          f"rc={r.returncode} out={r.stdout}")

    dropped = tmp / "BENCH_dropped.json"
    dropped.write_text(json.dumps({"bench": "micro_ml", "runs": []}))
    r = run(baseline, dropped)
    check("dropped baseline run fails", r.returncode == 1,
          f"rc={r.returncode} out={r.stdout}")

    # --- repetitions: each side compares per-metric medians ---------------
    reps = {}
    for name, value in (("a", 100.0), ("b", 40.0), ("c", 104.0),
                        ("d", 45.0), ("e", 300.0)):
        reps[name] = tmp / f"BENCH_rep_{name}.json"
        bench_json(reps[name], "conv", value)

    r = run(baseline, [reps["a"], reps["b"], reps["c"]])
    check("one slow repetition of three passes", r.returncode == 0,
          f"rc={r.returncode} out={r.stdout}")
    check("the report names the repetition counts",
          "median of 3 current vs 1 baseline" in r.stdout, r.stdout)

    r = run(baseline, [reps["a"], reps["b"], reps["d"]])
    check("two slow repetitions of three fail", r.returncode == 1,
          f"rc={r.returncode} out={r.stdout}")

    r = run([reps["b"], reps["a"], reps["e"]], current)
    check("baseline median ignores one outlier", r.returncode == 0,
          f"rc={r.returncode} out={r.stdout}")

    r = run([baseline, reps["e"]], reps["c"])
    check("even count takes the mean of the middle two",
          r.returncode == 1 and "200 -> 104" in r.stdout,
          f"rc={r.returncode} out={r.stdout}")

    r = run([tmp / "no_such_baseline.json", baseline], slow)
    check("an unusable baseline repetition is left out", r.returncode == 1,
          f"rc={r.returncode} out={r.stdout}")

    r = run([tmp / "no_such_baseline.json", bad], current)
    check("no usable baseline repetition skips with exit 0",
          r.returncode == 0 and "skipping comparison" in r.stdout,
          f"rc={r.returncode} out={r.stdout}")

    r = run(baseline, [current, shape])
    check("one broken current repetition is a usage error",
          r.returncode == 2, f"rc={r.returncode}")

if failures:
    print(f"\n{len(failures)} check(s) failed")
    sys.exit(1)
print("\nall perf_compare checks passed")
