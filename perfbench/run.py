#!/usr/bin/env python3
"""Job-level benchmark for PARALLOL.

Builds the perfbench binary (perfbench/CMakeLists.txt, Release) from the
source tree this file sits in, runs one workload through
lol::service::Service and prints one JSON result as the last line of
standard output.

    python3 perfbench/run.py --workload classroom --seed 7 --seconds 25 --trace 0

--trace 0  end-to-end metrics: job latency p50/p99, jobs/s, set-up time
           (median of nine cold set-ups, each in a fresh process) and
           peak RSS of the timed process.
--trace 1  per-layer metrics: half the time untraced, half traced on the
           same seed and job list; the traced run's spans are written to
           .bench_build/perfbench/trace-<workload>-<seed>.jsonl and the
           difference of the two job_ms.p50 is reported as
           trace.overhead_ms.

The exit status is 0 only when every job returned the interpreter's
output and the workload's shape checks held. See perfbench/README.md for
the workloads and the layer -> metric -> workload map.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
EXAMPLES = ROOT / "examples" / "lol"

WORKLOADS = ("classroom", "fresh_compile", "spmd_kernels")
SETUP_ONLY_RUNS = 8  # plus the timed run's own set-up: nine samples
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 60
RUN_SLACK_S = 60  # references, set-up and shutdown on top of --seconds

END_TO_END = {
    "job_ms.p50": "ms",
    "job_ms.p99": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.queue_ms.p50": "ms",
    "service.dispatch_ms.p50": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.compile_claim_share": "ratio",
    "lex.ms": "ms",
    "lex.tokens": "count",
    "parse.ms": "ms",
    "sema.ms": "ms",
    "sema.reanalyze_ms": "ms",
    "opt.ms": "ms",
    "opt.rewrites": "count",
    "vm.lower_ms": "ms",
    "vm.chunk_instrs": "count",
    "jit.emit_ms": "ms",
    "jit.code_bytes": "bytes",
    "jit.compiles_per_job": "count",
    "jit.spec_ops": "count",
    "jit.deopts": "count",
    "shmem.runtime_ctor_ms.p50": "ms",
    "engine.claim_ms.p50": "ms",
    "engine.exec_ms.p50": "ms",
    "shmem.barrier_wait_ms": "ms",
    "shmem.barrier_crossings": "count",
    "shmem.lock_wait_ms": "ms",
    "shmem.lock_contended": "count",
    "executor.threads_created": "count",
    "executor.fiber_switches": "count",
    "trace.overhead_ms": "ms",
}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no PARALLOL source tree around %s (CMakeLists.txt and src/ "
            "missing); nothing to build" % HERE)
    if not EXAMPLES.is_dir():
        die("examples/lol is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "examples/lol", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def drive(args, extra, timeout):
    """Runs the perfbench binary once; echoes its log lines and returns its report."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--examples", str(EXAMPLES), "--commit", args.commit] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        die("perfbench timed out after %d s: %s" % (timeout, " ".join(cmd)))
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        die("perfbench exited %d without a report" % done.returncode)
    return report


def metric(report, name, unit):
    return {"value": report["metrics"][name], "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    args.commit = source_identity()
    run_timeout = args.seconds + RUN_SLACK_S

    if args.trace == 0:
        setups = [drive(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        timed = drive(args, ["--seconds", str(args.seconds)], run_timeout)
        setups.append(timed["metrics"]["setup_s"])
        metrics = {name: metric(timed, name, unit)
                   for name, unit in END_TO_END.items()}
        metrics["setup_s"]["value"] = statistics.median(setups)
        print("# setup_s samples: " + " ".join("%.4f" % s for s in setups))
        reports = [timed]
    else:
        half = str(args.seconds / 2.0)
        plain = drive(args, ["--seconds", half], run_timeout)
        trace_file = BUILD / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
        traced = drive(args, ["--seconds", half, "--traced",
                              "--trace-out", str(trace_file)], run_timeout)
        metrics = {name: metric(traced, name, unit)
                   for name, unit in PER_LAYER.items()
                   if name != "trace.overhead_ms"}
        metrics["trace.overhead_ms"] = {
            "value": traced["metrics"]["job_ms.p50"]
            - plain["metrics"]["job_ms.p50"],
            "unit": "ms"}
        reports = [plain, traced]

    correct = all(r["correct"] for r in reports)
    attempted = int(sum(r["attempted"] for r in reports))
    failed = int(sum(r["failed"] for r in reports))
    print("# fail_ratio: %.6f (%d of %d jobs)"
          % (failed / max(1, attempted), failed, attempted))
    print("# context: " + json.dumps(reports[-1]["context"], sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
