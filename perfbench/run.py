#!/usr/bin/env python3
"""The repository benchmark: build agperf from source, run one workload,
check its record against BENCHMARK.json and print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--inject-fault]

Run it from anywhere inside a checkout; it builds into .bench_build/ at the
root of the checkout and reads and writes nothing outside it.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  The line before it is the full record
(provenance and details), which is also appended to
.bench_build/results.jsonl; the traced run's spans go to
.bench_build/traces/.  Exit status: 0 when every output checked correct,
1 when one did not, 2 when the benchmark could not be built or run.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then build only the agperf target (incremental)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not in this checkout")
    tree = BUILD / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "agperf", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return tree / "agperf"


def source_digest():
    """sha256 over the sources the benchmark builds: the commit stand-in when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "BENCHMARK.json"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_agperf(binary, args, trace_out):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault:
        cmd.append("--inject-fault")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"agperf did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or not lines:
        fail(f"agperf exited with status {proc.returncode}")
    try:
        return proc.returncode, json.loads(lines[-1])
    except ValueError:
        fail("agperf's last line is not JSON")


def check_metrics(record, spec, trace):
    """The record must carry exactly the metrics BENCHMARK.json names for
    this mode, with the declared units; end-to-end values are never 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = record.get("metrics", {})
    problems = []
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"metrics not in BENCHMARK.json {extra}")
    for name, m in got.items():
        if name not in want:
            continue
        value = m.get("value")
        if m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{name}: an end-to-end metric read 0")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="test-sized inputs")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one observed output before its check")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    binary = build()

    trace_out = None
    if args.trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    started = time.time()
    status, record = run_agperf(binary, args, trace_out)

    problems = check_metrics(record, spec, args.trace)
    if problems:
        fail("record does not match BENCHMARK.json: " + "; ".join(problems))
    prov = record.setdefault("provenance", {})
    prov["git_commit"] = git_commit()
    prov["source_sha256"] = source_digest()
    prov["started_unix"] = started
    if trace_out:
        prov["trace_file"] = str(trace_out.relative_to(ROOT))
    with open(BUILD / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    if status != 0 and result["correct"]:
        fail("agperf reported a wrong output but its record says correct")
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
