// Shared pieces of the benchmark program: the result record every workload
// fills, sample statistics, the engine timing loops and the output checks.
//
// Timing loops call only public APIs (FusedEngine::Run / Profile /
// KernelProblems, the solver registry). When the tracer is on, each call into
// a module is wrapped in a "bench/..." span recorded from these files, so a
// traced run shows exactly where the benchmark entered the library.
#ifndef GMORPH_PERFBENCH_SRC_HARNESS_H_
#define GMORPH_PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/abs_graph.h"
#include "src/core/multitask_model.h"
#include "src/runtime/fused_engine.h"
#include "src/tensor/tensor.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for this run's own files (fresh eval cache, saved graphs).
  std::string scratch_dir;
  // Chrome-trace JSON written by a traced run.
  std::string trace_out;
};

// What one run reports: named metrics with units, counts of operations
// attempted and failed (with a reason per failure kind), and the workload's
// identity (tree fingerprints, seeds, rates, threads).
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Config(const std::string& key, const std::string& value);
  void ConfigNumber(const std::string& key, double value);
  // Counts `attempted` operations of which `failed` failed; `what` names the
  // failure kind in the error list when failed > 0.
  void Count(int64_t attempted, int64_t failed, const std::string& what);
  // One attempted operation that fails when `ok` is false.
  void Check(bool ok, const std::string& what) { Count(1, ok ? 0 : 1, what); }
  bool correct() const { return failed_ == 0; }
  // One JSON object: correct, attempted, failed, metrics, config, errors.
  std::string ToJson() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> config_;  // key -> JSON literal
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Seconds on the steady clock since the process started running main().
double NowS();

// CPU time used by the calling thread, in milliseconds. Timed work runs on one
// thread, so its CPU time is its latency minus the time the scheduler gave to
// other processes.
double ThreadCpuMs();

// Host speed reference. On a shared virtual machine the same code runs up to
// ~1.6x slower for stretches of a fraction of a second to minutes, on one vCPU
// at a time (another guest on its core), and CPU time slows with it. The
// sampler pins the calling thread and its own thread to one vCPU; every
// kSpeedPeriodMs it times a fixed probe (GEMMs written in this benchmark, not
// the library's, so no change to the program moves it). SpeedFactor(t0, t1) is
// kProbeRefMs over the mean probe time in [t0, t1] (widened to the nearest
// samples), and a CPU time multiplied by it reads as at the reference speed.
constexpr double kSpeedPeriodMs = 10.0;
constexpr double kProbeRefMs = 0.65;
void StartSpeedSampler();
void StopSpeedSampler();
double SpeedFactor(double t0_s, double t1_s);
// Figures of the samples taken so far, for the config record.
void RecordSpeed(Result& result);

// While alive, the calling thread may run on every vCPU the process may use
// (threads it starts inherit that), instead of the sampler's.
class Unpinned {
 public:
  Unpinned();
  ~Unpinned();
  Unpinned(const Unpinned&) = delete;
  Unpinned& operator=(const Unpinned&) = delete;
};

// Times `fn` on the calling thread: CPU milliseconds at the reference speed.
double TimedMs(const std::function<void()>& fn);

double Median(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

// A tree lowered for inference: the graph, the model materialized from it and
// the fused engine planned over that model.
struct Deployed {
  gmorph::AbsGraph graph;
  std::unique_ptr<gmorph::MultiTaskModel> model;
  std::unique_ptr<gmorph::FusedEngine> engine;
  double plan_build_ms = 0.0;
};

// Materializes `graph` (weights stored on its nodes, fresh init from `seed`
// elsewhere), builds its FusedEngine (timed as plan_build_ms) and warms it at
// batch 1 and 8 so bindings and scratch arenas exist before any timing.
Deployed Deploy(const gmorph::AbsGraph& graph, uint64_t seed);

// Seeded non-zero input of `batch` rows for `graph`'s input shape.
gmorph::Tensor SeededInput(const gmorph::AbsGraph& graph, int64_t batch, uint64_t seed);

// Compares FusedEngine against EagerEngine on `input` and returns the fused
// output digest, the reference the timed runs are checked against. The
// tolerance is the planner parity tests' 1e-4, scaled by the largest eager
// output when that exceeds 1 (BN folding reassociates float sums, so the
// rounding error grows with the output magnitude).
uint64_t CheckParity(Deployed& d, const gmorph::Tensor& input, const std::string& what,
                     Result& result);

// Batch-1 runs of two engines in alternating blocks of 16 (which one goes
// first flips every block) for `budget_s`, so slow phases of the machine hit
// both alike. Returns median(a) / median(b).
double InterleavedRatio(gmorph::FusedEngine& a, gmorph::FusedEngine& b,
                        const gmorph::Tensor& input, double budget_s, Result& result);

// The workload's headline engine measurements on `tree` against `original`:
// parity checks, batch-1 latency (p50/p99), fused_speedup, batch-8 throughput
// and the runtime.* per-step metrics from Profile(). `budget_s` is split over
// the three timed phases, which take turns in rounds; `after_round`, when set,
// runs after each round, outside the timed phases. Timings are the CPU times
// of single-threaded runs, as medians (and the p99) over all runs.
void MeasureEngines(Deployed& original, Deployed& tree, uint64_t seed, double budget_s,
                    Result& result, const std::function<void()>& after_round = {});

// Traced-run probes shared by every workload.
// kernels.gemm_gflops / kernels.thread_speedup over the distinct GEMM
// problems `engine` executes at batch 8, each timed on its resolved solver;
// the speedup is of kWideThreads kernel threads over one.
constexpr int kWideThreads = 2;
void MeasureKernels(const gmorph::FusedEngine& engine, Result& result);
// obs.trace_overhead_frac: batch-1 latency with the tracer recording against
// the same runs with it stopped, in alternating blocks.
void MeasureTraceOverhead(gmorph::FusedEngine& engine, const gmorph::Tensor& input,
                          double budget_s, Result& result);

// Records the trees' fingerprints and FLOPs in the config, under
// "<tree_key>_..." for the deployed tree ("tree" for a fixed tree, part of the
// workload's identity; "best" for a search result), and the flops_speedup
// metric.
void RecordTrees(const gmorph::AbsGraph& original, const gmorph::AbsGraph& tree,
                 const std::string& tree_key, Result& result);

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_SRC_HARNESS_H_
