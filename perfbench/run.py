#!/usr/bin/env python3
"""GMorph benchmark: builds the benchmark program from this checkout and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md says what
each one measures. The program (perfbench/src) is compiled together with the
repository's libraries into .bench_build/perfbench on the first run; later runs
only rebuild what changed.

Standard output ends with two JSON lines: the run's config record (workload
identity, seeds, rates, threads, machine and source identity), then the result
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, measured with the tracer off; with --trace 1 they are
the per-layer ones, from a run with the src/obs tracer recording, whose Chrome
trace is written to .bench_build/traces/<workload>.json. Per-layer metrics of a
module the workload does not exercise read 0 and are named in the config record
under "not_exercised".
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "gmorph_perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "gmorph_perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the library sources, the top-level build file and perfbench."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_trace(path):
    """The traced run's Chrome trace must parse and hold the benchmark's own spans."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return sum(1 for e in events if e.get("cat") == "bench" and e.get("ph") == "X")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no GMorph sources under {ROOT}: run from a full checkout")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build()

    os.makedirs(BUILD_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMORPH_")}
    env["GMORPH_CACHE_DIR"] = scratch  # nothing cached survives the run
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--scratch", scratch]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(BUILD_ROOT, "traces", f"{args.workload}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        command += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    config = dict(run["config"])
    config.update(trace=args.trace, nproc=os.cpu_count(), cpu_model=cpu_model(),
                  build_type=BUILD_TYPE, commit=git_commit(), source_digest=source_digest())
    correct = run["correct"]
    if run["errors"]:
        config["errors"] = run["errors"]
    if trace_path:
        config["trace_file"] = os.path.relpath(trace_path, ROOT)
        config["trace_bench_spans"] = check_trace(trace_path)
        correct = correct and config["trace_bench_spans"] > 0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    not_exercised = []
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {m['name']}")
            not_exercised.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or got["value"] is None:
            fail(f"{m['name']} reported as {got}, expected a number in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not_exercised:
        config["not_exercised"] = not_exercised

    print(json.dumps({"config": config}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
