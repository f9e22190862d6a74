#!/usr/bin/env python3
"""perf_compare: regression gate over the BENCH_*.json files.

Compares a current bench JSON (written by bench/sim_speed or bench/micro_ml
through bench::BenchJson) against a baseline produced by the same bench on
the main branch, and fails (exit 1) when any throughput metric regressed by
more than --tolerance (default 15%).

Both flags repeat: given several files per side (repetitions of the same
bench), each side's value of a metric is the median over the files that
report it, so one noisy run on a shared host neither fails nor passes the
gate by itself.

Only higher-is-better metrics are compared: keys ending in ``_per_s``,
``gflops``, and ``merges_per_s``-style rates. Wall-clock and count fields
(``wall_s``, ``events``, ``sim_s``) are informational and ignored — they
change legitimately when workloads change.

Runs are matched by label. Labels new in the current files are reported and
pass (benches gain runs across PRs) — but a label present in the baseline
and *missing* from the current files is a hard failure, as is a throughput
metric that vanished from a matched run: a dropped benchmark must never
read as "no regression". A missing or unparseable baseline file is a
warning and is left out of the median; with no usable baseline file at all
the comparison is skipped with exit 0 — the first PR that adds a bench has
nothing on main to compare against.

Usage:
  perf_compare.py --baseline main1/BENCH_ml.json --baseline main2/BENCH_ml.json \
                  --current run1/BENCH_ml.json --current run2/BENCH_ml.json \
                  [--tolerance 0.15]

Exit status: 0 = no regression (or no baseline), 1 = regression, 2 = usage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def is_throughput_key(key: str) -> bool:
    return key.endswith("_per_s") or key == "gflops"


def load_runs(path: Path):
    """Returns {label: {metric: value}} plus {total key: value}.

    Raises ValueError (not an uncaught AttributeError) when the file parses
    as JSON but is not the BenchJson object shape — e.g. a truncated
    artifact download that saved an HTML error page as valid-JSON string,
    or a list where an object was expected."""
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"expected a BenchJson object, got {type(data).__name__} — "
            "was the artifact download truncated or substituted?")
    run_list = data.get("runs", [])
    if not isinstance(run_list, list) or any(
            not isinstance(r, dict) for r in run_list):
        raise ValueError("'runs' must be a list of objects")
    runs = {}
    for run in run_list:
        label = run.get("label", "?")
        runs[label] = {
            k: v for k, v in run.items()
            if k != "label" and isinstance(v, (int, float))
        }
    totals = {
        k: v for k, v in data.items()
        if isinstance(v, (int, float)) and is_throughput_key(k)
    }
    if totals:
        runs["<totals>"] = totals
    return data.get("bench", path.stem), runs


def median_runs(samples):
    """Merges load_runs() results into {label: {metric: median value}}."""
    values = {}
    for runs in samples:
        for label, metrics in runs.items():
            for key, value in metrics.items():
                values.setdefault(label, {}).setdefault(key, []).append(value)
    return {
        label: {key: statistics.median(vals) for key, vals in metrics.items()}
        for label, metrics in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        action="append",
                        help="bench JSON from the main branch (repeatable)")
    parser.add_argument("--current", required=True, type=Path,
                        action="append",
                        help="bench JSON from this checkout (repeatable)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="maximum allowed fractional regression "
                             "(0.15 = 15%%)")
    args = parser.parse_args(argv)

    current_samples = []
    for path in args.current:
        if not path.is_file():
            print(f"perf_compare: no current file {path}", file=sys.stderr)
            return 2
        try:
            bench, runs = load_runs(path)
        except (json.JSONDecodeError, ValueError, OSError) as e:
            print(f"perf_compare: cannot read {path}: {e}", file=sys.stderr)
            print("perf_compare: re-run the bench to regenerate the current "
                  "BENCH_*.json; this is a usage error, not a regression",
                  file=sys.stderr)
            return 2
        current_samples.append(runs)
    current = median_runs(current_samples)

    baseline_samples = []
    for path in args.baseline:
        try:
            baseline_samples.append(load_runs(path)[1])
        except (json.JSONDecodeError, ValueError, OSError) as e:
            print(f"perf_compare: no usable baseline at {path} ({e})")
    if not baseline_samples:
        print("perf_compare: skipping comparison — expected when main has "
              "not published this bench yet; otherwise re-download the "
              "BENCH_*.json artifact from the main-branch perf lane")
        return 0
    baseline = median_runs(baseline_samples)

    regressions = []
    dropped = []
    print(f"perf_compare: {bench}, median of {len(current_samples)} "
          f"current vs {len(baseline_samples)} baseline run(s) "
          f"(tolerance {args.tolerance:.0%})")
    for label, metrics in current.items():
        base_metrics = baseline.get(label)
        if base_metrics is None:
            print(f"  NEW   {label} (not in baseline)")
            continue
        for key, value in sorted(metrics.items()):
            if not is_throughput_key(key):
                continue
            base = base_metrics.get(key)
            if base is None or base <= 0:
                continue
            ratio = value / base
            tag = "ok"
            if ratio < 1.0 - args.tolerance:
                tag = "REGRESSION"
                regressions.append((label, key, base, value))
            elif ratio > 1.0 + args.tolerance:
                tag = "improved"
            print(f"  {tag:<10} {label} :: {key}: "
                  f"{base:.4g} -> {value:.4g} ({ratio - 1.0:+.1%})")
        # A throughput metric the baseline tracked but the current run no
        # longer emits would otherwise silently fall out of the gate.
        for key, base in sorted(base_metrics.items()):
            if is_throughput_key(key) and base > 0 and key not in metrics:
                print(f"  DROPPED    {label} :: {key} (baseline only)")
                dropped.append(f"{label} :: {key}")
    for label in baseline:
        if label not in current:
            print(f"  DROPPED    {label} (baseline only)")
            dropped.append(label)

    failed = False
    if dropped:
        print(f"perf_compare: {len(dropped)} baseline metric(s) missing from "
              f"the current bench — a dropped benchmark cannot pass the "
              f"perf gate", file=sys.stderr)
        failed = True
    if regressions:
        print(f"perf_compare: {len(regressions)} metric(s) regressed more "
              f"than {args.tolerance:.0%}", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("perf_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
