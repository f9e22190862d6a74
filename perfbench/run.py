#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fig4_cnn --seed 7 --seconds 20 --trace 0

Builds the `rr_perfbench` program from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or `.bench_build` when unset, runs the workload for the
given seed and measuring time, checks its outputs, and prints:

  * a provenance line (git sha, dirty flag, compiler, flags, CPU, nproc,
    seed, workload parameters, digest of the generated inputs);
  * as the last line, one JSON object with the keys `correct`, `attempted`,
    `failed` and `metrics`. With --trace 0 the metrics are the `end_to_end`
    metrics of BENCHMARK.json, with --trace 1 its `per_layer` metrics, each
    with its unit.

The full record (provenance, every sample, every check failure) is also
written to <build dir>/results/. `--size smoke` runs the smallest workload
shapes (for smoke_test.py).

Output check: every operation of every sample (a simulator run or a campaign
job) must reproduce the outputs of the first sample on the same input set,
and must meet the workload's invariants. For the reference seed its outputs
must also equal reference.json's for that input set. An operation that fails
any of these counts in `failed`. `--write-reference` rewrites reference.json's
entry for this workload and size from the run (every input set the run
reached); use it only for a deliberate change of the program's outputs.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("fig4_cnn", "city_gossip", "sweep_ckpt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configures (once) and builds rr_perfbench; returns the binary path."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "rr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return bdir / "rr_perfbench"


# ----- provenance ------------------------------------------------------------


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    """sha256 over the library and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_value(bdir, key):
    cache = bdir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def _compile_flags(bdir):
    flags = bdir / "CMakeFiles" / "rr_perfbench.dir" / "flags.make"
    if not flags.exists():
        return None
    for line in flags.read_text().splitlines():
        if line.startswith("CXX_FLAGS"):
            return line.split("=", 1)[1].strip()
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(bdir, doc):
    compiler = _cache_value(bdir, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        done = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, check=False)
        version = done.stdout.splitlines()[0] if done.stdout else None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": _cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "cxx_flags": _compile_flags(bdir),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": doc["workload"],
        "size": doc["size"],
        "seed": doc["seed"],
        "params": doc["params"],
        "inputs_digest": doc["inputs_digest"],
    }


# ----- output check ----------------------------------------------------------


def _same(a, b):
    if a == b:
        return True
    return (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))


def _compare(values, expected, what):
    problems = []
    for key in sorted(set(values) | set(expected)):
        if key not in values or key not in expected:
            where = "run" if key not in values else what
            problems.append(f"{key}: missing from {where}")
        elif not _same(values[key], expected[key]):
            problems.append(
                f"{key}: {values[key]!r} != {what} {expected[key]!r}")
    return problems


def _invariants(op):
    """Properties every seed must meet."""
    v = op["values"]
    problems = []
    done, configured = v.get("rounds_completed"), v.get("rounds_configured")
    if op["kind"] == "rounds" and done != configured:
        problems.append(
            f"rounds_completed {done!r} != rounds_configured {configured!r}")
    for key in ("final_accuracy", "probe_accuracy", "purity"):
        if key in v and not 0.0 < v[key] <= 1.0:
            problems.append(f"{key} {v[key]!r} outside (0, 1]")
    # The paper's Fig. 4 range; only fig4_cnn runs the paper's fleet shape
    # (sweep_ckpt's denser city legitimately sees more exchanges).
    for key in ("v2x_exchanges_min", "v2x_exchanges_max"):
        if key in v and not 0.0 <= v[key] <= 20.0:
            problems.append(f"{key} {v[key]!r} outside [0, 20]")
    return problems


def check(doc, reference):
    """Returns (attempted, failed, problems) over every op of every sample."""
    ref_sets = {}
    ref = reference.get("workloads", {}).get(f"{doc['workload']}/{doc['size']}")
    if ref is not None and doc["seed"] == reference.get("seed"):
        ref_sets = ref["sets"]
    first = {}  # input set -> ops of the first sample on it
    attempted = failed = 0
    problems = []
    for s, sample in enumerate(doc["samples"]):
        key = str(sample["set"])
        expected = first.setdefault(key, sample["ops"])
        if len(sample["ops"]) != len(expected):
            raise RuntimeError("samples ran different numbers of operations")
        ref_ops = ref_sets.get(key)
        for i, op in enumerate(sample["ops"]):
            attempted += 1
            found = _invariants(op)
            found += _compare(op["values"], expected[i]["values"],
                              "first sample")
            if ref_ops is not None:
                if i >= len(ref_ops) or ref_ops[i]["name"] != op["name"]:
                    found.append("no matching reference operation")
                else:
                    found += _compare(op["values"], ref_ops[i]["values"],
                                      "reference")
            if found:
                failed += 1
                problems.append({"sample": s, "set": sample["set"],
                                 "op": op["name"], "problems": found})
    return attempted, failed, problems


def write_reference(doc):
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "seed": doc["seed"], "workloads": {}}
    if reference["seed"] != doc["seed"]:
        raise RuntimeError(f"reference seed is {reference['seed']}")
    sets = {}
    for sample in doc["samples"]:
        sets.setdefault(str(sample["set"]), [
            {"name": op["name"], "values": op["values"]}
            for op in sample["ops"]])
    reference["workloads"][f"{doc['workload']}/{doc['size']}"] = {
        "sets": sets}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# ----- metrics ---------------------------------------------------------------


def select_metrics(doc, trace, attempted, failed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = dict(doc["metrics"])
    measured["ok_ratio"] = {"value": (attempted - failed) / attempted,
                            "unit": "ratio"}
    measured["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(entry["name"])
        if got is None:
            raise RuntimeError(f"metric {entry['name']} was not measured")
        if got["unit"] != entry["unit"]:
            raise RuntimeError(
                f"metric {entry['name']} measured in {got['unit']}, "
                f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {err}")
        return 2
    work = bdir / "work"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--size={args.size}", f"--work-dir={work}"]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"perfbench: rr_perfbench exited with {done.returncode}")
        return 3
    doc = json.loads(done.stdout)

    if args.write_reference:
        write_reference(doc)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    attempted, failed, problems = check(doc, reference)
    try:
        metrics = select_metrics(doc, args.trace, attempted, failed)
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 4
    prov = provenance(bdir, doc)

    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "elapsed_s": time.monotonic() - started,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "check_failures": problems, "metrics": metrics,
              "all_metrics": doc["metrics"], "setup_s": doc["setup_s"],
              "samples": doc["samples"]}
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:10]:
        log(f"check failed: {json.dumps(problem)}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
