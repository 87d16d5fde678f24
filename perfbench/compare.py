#!/usr/bin/env python3
"""Compares two sets of benchmark results, refusing results measured under different configs.

Usage:

    python3 perfbench/compare.py <base.jsonl> <new.jsonl>

Each file holds the standard output of one or more `perfbench/run.py` runs: a
config record line ({"config": ...}) followed by a result line. Runs are grouped
by workload and trace mode. Two groups are compared only when every run in both
carries the same identity: every config field except the per-run ones below
(seed, source identity, sample counts, search results). Otherwise the comparison
is refused and the differing fields are printed.

For each metric the table gives each side's median and quartiles over its runs
and the change of the new median against the base median, as a share of the base
(positive = worse). An end-to-end metric worse by more than its bound in
BENCHMARK.json is flagged.

Exit codes: 0 no end-to-end metric worse beyond its bound, 1 at least one is,
2 refused (config mismatch or unreadable input).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Config fields that vary from run to run of one benchmark config.
PER_RUN = {
    "seed", "commit", "source_digest", "errors", "not_exercised", "trace_file",
    "trace_bench_spans", "trace_events", "trace_dropped", "latency_samples",
    "throughput_samples", "latency_p50_wall_ms", "latency_p99_wall_ms", "throughput_wall_qps",
    "search_wall_s", "speed_samples", "speed_probe_p10_ms", "speed_probe_p50_ms",
    "speed_probe_p90_ms", "server_latency_samples", "server_service_b1_ms",
    "server_service_b8_ms", "kernel_problems", "best_fingerprint", "best_flops",
}


def load(path):
    """{(workload, trace): [(identity, metrics), ...]} from one results file."""
    groups = {}
    config = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "config" in record:
                config = record["config"]
            elif "metrics" in record and config is not None:
                identity = {k: v for k, v in config.items() if k not in PER_RUN}
                key = (config["workload"], config["trace"])
                groups.setdefault(key, []).append((identity, record["metrics"]))
                config = None
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        base, new = load(sys.argv[1]), load(sys.argv[2])
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot read results: {e}", file=sys.stderr)
        return 2

    refused = False
    regressed = False
    for key in sorted(set(base) & set(new)):
        identities = [ident for ident, _ in base[key] + new[key]]
        mismatched = sorted({k for ident in identities for k in set(ident) | set(identities[0])
                             if ident.get(k) != identities[0].get(k)})
        if mismatched:
            refused = True
            print(f"{key[0]} trace={key[1]}: refused, config differs in {', '.join(mismatched)}")
            continue
        print(f"{key[0]} trace={key[1]}: {len(base[key])} base run(s), {len(new[key])} new run(s)")
        for name in sorted({n for _, m in base[key] + new[key] for n in m}):
            b = [m[name]["value"] for _, m in base[key] if name in m]
            n = [m[name]["value"] for _, m in new[key] if name in m]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            meta = declared.get(name, {})
            sign = -1.0 if meta.get("better") == "higher" else 1.0
            change = sign * (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = ""
            if "bound" in meta and change > meta["bound"]:
                verdict = f"  WORSE than bound {meta['bound']:.0%}"
                regressed = True
            print(f"  {name:34s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  change {change:+.1%}{verdict}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} trace={key[1]}: only in {'base' if key in base else 'new'}")
    if refused:
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
