// gmorph_perfbench: runs one benchmark workload and prints its result as one
// JSON line. perfbench/run.py builds this binary and wraps it in the
// benchmark's command-line contract.
//
// Usage:
//   gmorph_perfbench --workload <name> --seed <n> --seconds <s> --scratch <dir>
//                    [--trace-out <trace.json>]
//
// With --trace-out the src/obs tracer records the whole run (the benchmark's
// own bench/* spans around every library call plus the library's spans) and
// the Chrome-trace JSON is written there at the end; the run also adds the
// traced-only probes (kernel rates, tracing overhead).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/obs/proc_stats.h"
#include "src/obs/trace.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
      args.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.scratch_dir.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --scratch <dir> "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  perfbench::StartSpeedSampler();
  if (args.trace) {
    gmorph::obs::StartTracing();
  }
  perfbench::Result result;
  try {
    if (!perfbench::RunWorkload(args, result)) {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  perfbench::RecordSpeed(result);
  perfbench::StopSpeedSampler();
  gmorph::obs::ProcessMemory mem;
  if (gmorph::obs::ReadProcessMemory(&mem)) {
    result.Metric("peak_rss_mb", static_cast<double>(mem.peak_rss_bytes) / (1024.0 * 1024.0),
                  "MiB");
  }
  if (args.trace) {
    gmorph::obs::StopTracing();
    result.ConfigNumber("trace_events", static_cast<double>(gmorph::obs::TraceEventCount()));
    result.ConfigNumber("trace_dropped", static_cast<double>(gmorph::obs::TraceDroppedCount()));
    if (!gmorph::obs::WriteTraceJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
