#include "perfbench/src/harness.h"

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include <sched.h>
#include <time.h>

#include "src/analysis/plan_ir.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/kernels/registry.h"
#include "src/obs/timing.h"
#include "src/obs/trace.h"
#include "src/runtime/engine.h"

namespace perfbench {

using gmorph::FusedEngine;
using gmorph::Tensor;
namespace obs = gmorph::obs;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

// Hex of a 64-bit FNV-1a hash: AbsGraph fingerprints are long strings, the
// config record keeps their hash.
std::string HashHex(const std::string& s) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(s.data(), s.size(), kFnvOffset)));
  return buf;
}

// FNV-1a over the bytes of every output tensor: two runs agree bitwise iff
// their digests agree (up to hash collisions).
uint64_t Digest(const std::vector<Tensor>& outputs) {
  uint64_t h = kFnvOffset;
  for (const Tensor& t : outputs) {
    h = Fnv1a(t.data(), static_cast<size_t>(t.size()) * sizeof(float), h);
  }
  return h;
}

// Max |a - b| over every element of every task output, and max |a|.
double MaxAbsDiff(const std::vector<Tensor>& a, const std::vector<Tensor>& b,
                  double* max_abs_a) {
  *max_abs_a = 0.0;
  if (a.size() != b.size()) {
    return INFINITY;
  }
  double worst = 0.0;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].shape() != b[t].shape()) {
      return INFINITY;
    }
    for (int64_t i = 0; i < a[t].size(); ++i) {
      const double d = std::fabs(static_cast<double>(a[t].at(i)) - b[t].at(i));
      worst = std::max(worst, std::isnan(d) ? INFINITY : d);
      *max_abs_a = std::max(*max_abs_a, std::fabs(static_cast<double>(a[t].at(i))));
    }
  }
  return worst;
}

// Step kind of each Profile() entry: Profile() and ExportPlan().steps both
// list the plan's steps in execution order.
std::vector<gmorph::PlanOp> StepKinds(const FusedEngine& engine) {
  std::vector<gmorph::PlanOp> kinds;
  for (const auto& step : engine.ExportPlan().steps) {
    kinds.push_back(step.kind);
  }
  return kinds;
}

}  // namespace

void Result::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::Config(const std::string& key, const std::string& value) {
  config_[key] = JsonString(value);
}

void Result::ConfigNumber(const std::string& key, double value) {
  config_[key] = JsonNumber(value);
}

void Result::Count(int64_t attempted, int64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    errors_.push_back(what + ": " + std::to_string(failed) + " of " +
                      std::to_string(attempted) + " failed");
  }
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
      << ",\"failed\":" << failed_ << ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, v] : metrics_) {
    out << sep << JsonString(name) << ":{\"value\":" << JsonNumber(v.value)
        << ",\"unit\":" << JsonString(v.unit) << "}";
    sep = ",";
  }
  out << "},\"config\":{";
  sep = "";
  for (const auto& [key, v] : config_) {
    out << sep << JsonString(key) << ":" << v;
    sep = ",";
  }
  out << "},\"errors\":[";
  sep = "";
  for (const auto& e : errors_) {
    out << sep << JsonString(e);
    sep = ",";
  }
  out << "]}";
  return out.str();
}

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart).count();
}

double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

namespace {

// The speed probe: two single-precision GEMMs in the i-k-j order the compiler
// vectorizes, C(64x64) += A(64x128) * B(128x64) three times and then
// C(128x128) += A(128x128) * B(128x128) once. Of the sizes tried, this pair
// slowed most nearly as much as the engine's batch-1 and batch-8 runs when
// the host did (per-window log-log slope 0.9 to 1.2).
class Probe {
 public:
  Probe() : a_(128 * 128), b_(128 * 128), c_(128 * 128, 0.0f) {
    gmorph::Rng rng(0x5eed);
    for (float& x : a_) x = (rng.NextFloat() - 0.5f) * 1e-3f;
    for (float& x : b_) x = rng.NextFloat() - 0.5f;
  }

  // CPU milliseconds of one probe on the calling thread.
  double RunMs() {
    const double t0 = ThreadCpuMs();
    for (int rep = 0; rep < 3; ++rep) {
      Gemm(64, 128, 64);
    }
    Gemm(128, 128, 128);
    const double ms = ThreadCpuMs() - t0;
    sink_ += c_.back();
    return ms;
  }

 private:
  void Gemm(int m, int k, int n) {
    for (int i = 0; i < m; ++i) {
      float* c = &c_[static_cast<size_t>(i * n)];
      for (int p = 0; p < k; ++p) {
        const float a = a_[static_cast<size_t>(i * k + p)];
        const float* b = &b_[static_cast<size_t>(p * n)];
        for (int j = 0; j < n; ++j) {
          c[j] += a * b[j];
        }
      }
    }
  }

  std::vector<float> a_;
  std::vector<float> b_;
  std::vector<float> c_;
  float sink_ = 0.0f;
};

cpu_set_t OneCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

class SpeedSampler {
 public:
  SpeedSampler() : cpu_(std::max(0, sched_getcpu())) {
    sched_getaffinity(0, sizeof(original_), &original_);
    Pin();
    Sample();
    thread_ = std::thread([this] {
      const cpu_set_t one = OneCpu(cpu_);
      sched_setaffinity(0, sizeof(one), &one);
      const auto period = std::chrono::microseconds(static_cast<int64_t>(kSpeedPeriodMs * 1e3));
      while (!stop_.load()) {
        std::this_thread::sleep_for(period);
        Sample();
      }
    });
  }

  ~SpeedSampler() {
    stop_.store(true);
    thread_.join();
    sched_setaffinity(0, sizeof(original_), &original_);
  }

  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  void Pin() const {
    const cpu_set_t one = OneCpu(cpu_);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Unpin() const { sched_setaffinity(0, sizeof(original_), &original_); }

  double Factor(double t0_s, double t1_s) {
    const double pad_s = kSpeedPeriodMs * 1e-3;
    std::lock_guard<std::mutex> lock(mu_);
    auto first = std::lower_bound(times_s_.begin(), times_s_.end(), t0_s - pad_s);
    auto last = std::upper_bound(times_s_.begin(), times_s_.end(), t1_s + pad_s);
    if (first == last) {  // no sample in the window: the nearest one before it
      first = first == times_s_.begin() ? first : first - 1;
      last = first + 1;
    }
    double sum = 0.0;
    for (auto it = first; it != last; ++it) {
      sum += probe_ms_[static_cast<size_t>(it - times_s_.begin())];
    }
    return kProbeRefMs * static_cast<double>(last - first) / sum;
  }

  std::vector<double> ProbeMs() {
    std::lock_guard<std::mutex> lock(mu_);
    return probe_ms_;
  }

 private:
  void Sample() {
    const double ms = probe_.RunMs();
    const double t = NowS();
    std::lock_guard<std::mutex> lock(mu_);
    times_s_.push_back(t);
    probe_ms_.push_back(ms);
  }

  const int cpu_;
  cpu_set_t original_;
  Probe probe_;  // used by the sampler thread only, after the first Sample()
  std::mutex mu_;
  std::vector<double> times_s_;   // guarded by mu_, ascending
  std::vector<double> probe_ms_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::unique_ptr<SpeedSampler> g_sampler;

}  // namespace

void StartSpeedSampler() { g_sampler = std::make_unique<SpeedSampler>(); }

void StopSpeedSampler() { g_sampler.reset(); }

double SpeedFactor(double t0_s, double t1_s) {
  return g_sampler != nullptr ? g_sampler->Factor(t0_s, t1_s) : 1.0;
}

void RecordSpeed(Result& result) {
  if (g_sampler == nullptr) {
    return;
  }
  const std::vector<double> ms = g_sampler->ProbeMs();
  result.ConfigNumber("speed_samples", static_cast<double>(ms.size()));
  result.ConfigNumber("speed_probe_p10_ms", Percentile(ms, 10));
  result.ConfigNumber("speed_probe_p50_ms", Median(ms));
  result.ConfigNumber("speed_probe_p90_ms", Percentile(ms, 90));
}

Unpinned::Unpinned() {
  if (g_sampler != nullptr) {
    g_sampler->Unpin();
  }
}

Unpinned::~Unpinned() {
  if (g_sampler != nullptr) {
    g_sampler->Pin();
  }
}

double TimedMs(const std::function<void()>& fn) {
  const double t0 = NowS();
  const double cpu0 = ThreadCpuMs();
  fn();
  const double cpu_ms = ThreadCpuMs() - cpu0;
  return cpu_ms * SpeedFactor(t0, NowS());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return NAN;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return NAN;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

Deployed Deploy(const gmorph::AbsGraph& graph, uint64_t seed) {
  Deployed d;
  d.graph = graph;
  gmorph::Rng rng(seed);
  d.model = std::make_unique<gmorph::MultiTaskModel>(graph, rng);
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::TraceSpan span("bench/plan_build", obs::TraceCat::kBench);
    d.engine = std::make_unique<FusedEngine>(d.model.get());
  }
  d.plan_build_ms = MsSince(t0);
  const gmorph::Shape row = graph.node(graph.root()).output_shape;
  for (int64_t batch : {1, 8}) {
    const Tensor warm = Tensor::Zeros(row.WithBatch(batch));
    for (int i = 0; i < 3; ++i) {
      d.engine->Run(warm);
    }
  }
  return d;
}

Tensor SeededInput(const gmorph::AbsGraph& graph, int64_t batch, uint64_t seed) {
  gmorph::Rng rng(gmorph::Rng::MixSeed(seed, static_cast<uint64_t>(batch), 0x1d));
  return Tensor::RandomGaussian(graph.node(graph.root()).output_shape.WithBatch(batch), rng,
                                1.0f);
}

uint64_t CheckParity(Deployed& d, const Tensor& input, const std::string& what,
                     Result& result) {
  gmorph::EagerEngine eager(d.model.get());
  const std::vector<Tensor> reference = eager.Run(input);
  const std::vector<Tensor> fused = d.engine->Run(input);
  double scale = 0.0;
  const double diff = MaxAbsDiff(reference, fused, &scale);
  result.Check(diff <= 1e-4 * std::max(1.0, scale),
               what + " fused vs eager max abs diff " + std::to_string(diff) + " at max |out| " +
                   std::to_string(scale));
  return Digest(fused);
}

namespace {

// Per-run times of timed blocks, and the sampled output checks.
struct Samples {
  std::vector<double> ms;  // TimedMs: CPU time at the reference speed
  std::vector<double> wall_ms;
  int64_t checked = 0;
  int64_t mismatched = 0;
};

// Appends the TimedMs and wall time of each `engine.Run(input)` to `out` until
// NowS() reaches `until_s` and at least `min_runs` ran. Every 16th output is
// digested and compared with `digest`.
void RunBlock(FusedEngine& engine, const Tensor& input, uint64_t digest, double until_s,
              size_t min_runs, const char* span, Samples* out) {
  const size_t first = out->ms.size();
  while (out->ms.size() - first < min_runs || NowS() < until_s) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Tensor> outputs;
    out->ms.push_back(TimedMs([&] {
      obs::TraceSpan s(span, obs::TraceCat::kBench);
      outputs = engine.Run(input);
    }));
    out->wall_ms.push_back(MsSince(t0));
    if (out->ms.size() % 16 == 1) {
      ++out->checked;
      out->mismatched += Digest(outputs) != digest ? 1 : 0;
    }
  }
}

// Batch-1 runs of `a` and `b` in alternating blocks of 16 until `until_s`;
// appends each run's TimedMs.
void RunInterleavedBlock(FusedEngine& a, FusedEngine& b, const Tensor& input, double until_s,
                         std::vector<double>* a_ms, std::vector<double>* b_ms) {
  constexpr int kBlock = 16;
  for (int block = 0; block < 2 || NowS() < until_s; ++block) {
    for (int half = 0; half < 2; ++half) {
      const bool run_a = (block + half) % 2 == 0;
      FusedEngine& engine = run_a ? a : b;
      for (int i = 0; i < kBlock; ++i) {
        (run_a ? a_ms : b_ms)->push_back(TimedMs([&] {
          obs::TraceSpan s("bench/run_interleaved", obs::TraceCat::kBench);
          engine.Run(input);
        }));
      }
    }
  }
}

void CountSamples(const Samples& s, const std::string& what, Result& result) {
  result.Count(static_cast<int64_t>(s.ms.size()), 0, what);
  result.Count(0, s.mismatched,
               what + " output digest mismatch (" + std::to_string(s.checked) + " sampled)");
}

// Cumulative profiled milliseconds of each plan step.
std::vector<double> StepTotalsMs(const FusedEngine& engine) {
  std::vector<double> ms;
  for (const auto& step : engine.Profile()) {
    ms.push_back(step.total_ms);
  }
  return ms;
}

}  // namespace

double InterleavedRatio(FusedEngine& a, FusedEngine& b, const Tensor& input, double budget_s,
                        Result& result) {
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  RunInterleavedBlock(a, b, input, NowS() + budget_s, &a_ms, &b_ms);
  result.Count(static_cast<int64_t>(a_ms.size() + b_ms.size()), 0, "interleaved runs");
  return Median(a_ms) / Median(b_ms);
}

void MeasureEngines(Deployed& original, Deployed& tree, uint64_t seed, double budget_s,
                    Result& result, const std::function<void()>& after_round) {
  const Tensor b1 = SeededInput(tree.graph, 1, seed);
  const Tensor b8 = SeededInput(tree.graph, 8, seed);
  CheckParity(original, b1, "original b1", result);
  CheckParity(original, b8, "original b8", result);
  const uint64_t digest_b1 = CheckParity(tree, b1, "tree b1", result);
  const uint64_t digest_b8 = CheckParity(tree, b8, "tree b8", result);
  FusedEngine& engine = *tree.engine;
  const std::vector<gmorph::PlanOp> kinds = StepKinds(engine);

  // The three phases take turns in rounds of about a second (5 to 15 of
  // them), so `after_round` work is spread over the run.
  const int rounds = std::clamp(static_cast<int>(std::lround(budget_s)), 5, 15);
  const double round_s = budget_s / rounds;
  Samples b1_runs;
  Samples b8_runs;
  std::vector<double> original_ms;
  std::vector<double> tree_ms;
  double b1_step_ms = 0.0;
  std::vector<double> b8_step_ms(kinds.size(), 0.0);
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> before = StepTotalsMs(engine);
    RunBlock(engine, b1, digest_b1, NowS() + 0.4 * round_s, 1000 / rounds, "bench/run_b1",
             &b1_runs);
    std::vector<double> after = StepTotalsMs(engine);
    for (size_t i = 0; i < after.size(); ++i) {
      b1_step_ms += after[i] - before[i];
    }
    RunInterleavedBlock(*original.engine, engine, b1, NowS() + 0.2 * round_s, &original_ms,
                        &tree_ms);
    before = StepTotalsMs(engine);
    RunBlock(engine, b8, digest_b8, NowS() + 0.4 * round_s, 100 / rounds, "bench/run_b8",
             &b8_runs);
    after = StepTotalsMs(engine);
    for (size_t i = 0; i < after.size() && i < b8_step_ms.size(); ++i) {
      b8_step_ms[i] += after[i] - before[i];
    }
    if (after_round) {
      after_round();
    }
  }
  CountSamples(b1_runs, "batch-1 runs", result);
  CountSamples(b8_runs, "batch-8 runs", result);
  result.Count(static_cast<int64_t>(original_ms.size() + tree_ms.size()), 0, "interleaved runs");

  double b1_wall_ms = 0.0;
  for (double ms : b1_runs.wall_ms) {
    b1_wall_ms += ms;
  }
  result.Metric("latency_p50_ms", Median(b1_runs.ms), "ms");
  result.Metric("latency_p99_ms", Percentile(b1_runs.ms, 99), "ms");
  result.Metric("throughput_qps", 8.0 * 1e3 / Median(b8_runs.ms), "1/s");
  // Wall-clock figures, for reference: they include the time other processes
  // took and the host's speed at the time.
  result.ConfigNumber("latency_p50_wall_ms", Median(b1_runs.wall_ms));
  result.ConfigNumber("latency_p99_wall_ms", Percentile(b1_runs.wall_ms, 99));
  result.ConfigNumber("throughput_wall_qps", 8.0 * 1e3 / Median(b8_runs.wall_ms));
  result.ConfigNumber("latency_samples", static_cast<double>(b1_runs.ms.size()));
  result.ConfigNumber("throughput_samples", static_cast<double>(b8_runs.ms.size()));
  result.ConfigNumber("rounds", rounds);
  // Both engines ran in the same interleaved blocks, so what slows one slows
  // the other alike.
  result.Metric("fused_speedup", Median(original_ms) / Median(tree_ms), "ratio");
  // Step times are wall-clock (Profile()), so the ratio is over wall time.
  result.Metric("runtime.step_sum_ratio", b1_step_ms / b1_wall_ms, "ratio");

  // Per batch-8 run, by step kind.
  const std::vector<FusedEngine::StepProfile> profile = engine.Profile();
  double conv_ms = 0.0, pool_ms = 0.0, linear_ms = 0.0, module_ms = 0.0, conv_flops = 0.0;
  for (size_t i = 0; i < b8_step_ms.size(); ++i) {
    switch (kinds[i]) {
      case gmorph::PlanOp::kConv:
        conv_ms += b8_step_ms[i];
        conv_flops += profile[i].flops * 8.0 * static_cast<double>(b8_runs.ms.size());
        break;
      case gmorph::PlanOp::kMaxPool:
      case gmorph::PlanOp::kGlobalAvgPool:
      case gmorph::PlanOp::kMeanPoolTokens:
        pool_ms += b8_step_ms[i];
        break;
      case gmorph::PlanOp::kLinear:
        linear_ms += b8_step_ms[i];
        break;
      case gmorph::PlanOp::kModule:
        module_ms += b8_step_ms[i];
        break;
      default:
        break;
    }
  }
  const double runs = static_cast<double>(b8_runs.ms.size());
  result.Metric("runtime.conv_ms", conv_ms / runs, "ms");
  result.Metric("runtime.pool_ms", pool_ms / runs, "ms");
  result.Metric("runtime.linear_ms", linear_ms / runs, "ms");
  result.Metric("runtime.module_ms", module_ms / runs, "ms");
  result.Metric("runtime.conv_gflops", conv_ms > 0.0 ? conv_flops / (conv_ms * 1e6) : 0.0,
                "GFLOP/s");
}

void MeasureKernels(const FusedEngine& engine, Result& result) {
  namespace kn = gmorph::kernels;
  const kn::SolverRegistry& registry = kn::SolverRegistry::Global();
  std::set<kn::ProblemDesc> problems;
  for (const kn::ProblemDesc& desc : engine.KernelProblems(8)) {
    if (desc.op != kn::OpFamily::kMaxPool && desc.dtype == kn::DType::kF32) {
      problems.insert(desc);
    }
  }
  // Median time of one call of the solver `desc` resolves to, on seeded
  // operands; serial descriptors run in a forced-serial region, as in a plan.
  auto time_ms = [&](const kn::ProblemDesc& desc) {
    std::vector<float> a(static_cast<size_t>(desc.m * desc.k));
    std::vector<float> b(static_cast<size_t>(desc.k * desc.n));
    std::vector<float> c(static_cast<size_t>(desc.m * desc.n));
    gmorph::Rng rng(static_cast<uint64_t>(desc.m * 131 + desc.k * 17 + desc.n));
    for (float& x : a) x = rng.NextFloat() - 0.5f;
    for (float& x : b) x = rng.NextFloat() - 0.5f;
    const kn::GemmSolver* solver = registry.ResolveGemm(desc);
    const kn::GemmCall call = kn::MakeGemmCall(desc, a.data(), b.data(), c.data(), false);
    auto run = [&] {
      obs::TraceSpan span("bench/solver", obs::TraceCat::kBench);
      solver->Run(desc, call);
    };
    std::optional<gmorph::ParallelRegionGuard> serial;
    if (desc.threads == 1) {
      serial.emplace();
    }
    return gmorph::MedianTimedMs(run, 2, 15);
  };
  double flops = 0.0, plan_ms = 0.0, wide_ms = 0.0, serial_ms = 0.0;
  const int plan_threads = gmorph::KernelThreads();
  for (kn::ProblemDesc desc : problems) {
    flops += static_cast<double>(kn::ProblemFlops(desc));
    plan_ms += time_ms(desc);
    gmorph::SetKernelThreads(kWideThreads);
    desc.threads = kWideThreads;
    wide_ms += time_ms(desc);
    gmorph::SetKernelThreads(plan_threads);
    desc.threads = 1;
    serial_ms += time_ms(desc);
  }
  result.Count(static_cast<int64_t>(3 * problems.size()), 0, "solver timings");
  result.ConfigNumber("kernel_problems", static_cast<double>(problems.size()));
  result.Metric("kernels.gemm_gflops", plan_ms > 0.0 ? flops / (plan_ms * 1e6) : 0.0,
                "GFLOP/s");
  result.Metric("kernels.thread_speedup", wide_ms > 0.0 ? serial_ms / wide_ms : 0.0, "ratio");
}

void MeasureTraceOverhead(FusedEngine& engine, const Tensor& input, double budget_s,
                          Result& result) {
  constexpr int kBlock = 16;
  std::vector<double> on_ms;
  std::vector<double> off_ms;
  const double end_s = NowS() + budget_s;
  for (int block = 0; NowS() < end_s || block < 8; ++block) {
    const bool on = block % 2 == 0;
    if (on) {
      obs::StartTracing();
    } else {
      obs::StopTracing();
    }
    for (int i = 0; i < kBlock; ++i) {
      (on ? on_ms : off_ms).push_back(TimedMs([&] {
        obs::TraceSpan span("bench/run_b1", obs::TraceCat::kBench);
        engine.Run(input);
      }));
    }
  }
  obs::StartTracing();
  result.Count(static_cast<int64_t>(on_ms.size() + off_ms.size()), 0, "trace overhead runs");
  result.Metric("obs.trace_overhead_frac", Median(on_ms) / Median(off_ms) - 1.0, "fraction");
}

void RecordTrees(const gmorph::AbsGraph& original, const gmorph::AbsGraph& tree,
                 const std::string& tree_key, Result& result) {
  result.Config("original_fingerprint", HashHex(original.Fingerprint()));
  result.ConfigNumber("original_flops", static_cast<double>(original.TotalFlops()));
  result.Config(tree_key + "_fingerprint", HashHex(tree.Fingerprint()));
  result.ConfigNumber(tree_key + "_flops", static_cast<double>(tree.TotalFlops()));
  result.Metric("flops_speedup",
                static_cast<double>(original.TotalFlops()) /
                    static_cast<double>(tree.TotalFlops()),
                "ratio");
}

}  // namespace perfbench
