#include "perfbench/src/workloads.h"

#include <chrono>
#include <functional>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "src/analysis/graph_verifier.h"
#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/core/gmorph.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"
#include "src/data/benchmarks.h"
#include "src/data/teacher.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/flight_recorder.h"
#include "src/serving/replica_pool.h"
#include "src/serving/scheduler.h"
#include "src/serving/server.h"
#include "src/serving/serving_sim.h"

namespace perfbench {

using gmorph::AbsGraph;
namespace obs = gmorph::obs;

namespace {

// Every workload runs its kernels on one thread, so the CPU time of timed work
// is its latency without the time other processes took (see TimedMs). The
// serve workload's replicas run concurrently on their own threads.
constexpr int kKernelThreads = 1;

// Set-ups per run (setup_s is their median, see SetupS). Search set-up trains
// three teachers, so it is repeated fewer times.
constexpr int kSetups = 5;
constexpr int kSearchSetups = 2;

// Serve rates are absolute constants: deriving them from a calibration taken
// at run time would hand a faster engine a harder load. The moderate rate
// keeps the two replicas about 40% busy; the overload rate is about twice the
// capacity measured when the benchmark was introduced, so completions per
// second measure capacity, with headroom for a faster engine. The
// virtual-time replay runs one replica's share of each rate.
constexpr double kModerateQps = 1000.0;
constexpr double kOverloadQps = 4800.0;
// Admission limit of the overload phase: generous enough that nothing was
// shed when the benchmark was introduced; a shed request counts as failed.
constexpr double kOverloadSlaMs = 1000.0;
constexpr int kReplicas = 2;
constexpr int kMaxBatch = 8;
// Requests of each virtual-time replay (see RunServe).
constexpr int kReplayRequests = 20000;

constexpr double kSearchDropThreshold = 0.01;
constexpr uint64_t kSearchSeed = 42;
// Weights of the deployed models are part of the workload, not of its inputs:
// --seed draws the inputs and arrival schedules only.
constexpr uint64_t kWeightSeed = 7;

// A fixed-budget search: benchmark, data scale, teacher training and budget.
// Every search uses the FLOPs objective, which keeps the search trajectory
// independent of timing noise, the CLI's other defaults (1% drop, SA policy,
// rule filtering, predictive termination, 1 search thread) and no eval cache.
struct SearchPlan {
  int bench;
  int64_t train_size;
  int64_t test_size;
  int teacher_epochs;  // 0: untrained teachers
  int iterations;
  int finetune_epochs;
  int eval_interval;
};

// The search workload: the CLI's default B1 configuration with 6 iterations.
constexpr SearchPlan kFullSearch = {1, 128, 64, 6, 6, 6, 2};

// The other workloads' search_s: a small search over their own benchmark's
// models, with untrained teachers (the work does not depend on the weights).
constexpr SearchPlan SmallSearch(int bench) { return {bench, 32, 16, 0, 3, 1, 1}; }

// One step of a fixed mutation list: block `guest_op` of task `guest_task`
// re-reads the input of block `host_op` of task `host_task` (a SharePair).
struct Share {
  int host_task;
  int host_op;
  int guest_task;
  int guest_op;
};

AbsGraph OriginalGraph(int bench) {
  gmorph::BenchmarkScale scale;
  scale.train_size = 1;  // only the model specs are used
  scale.test_size = 1;
  const gmorph::BenchmarkDef def = gmorph::MakeBenchmark(bench, scale, kSearchSeed);
  std::vector<gmorph::ModelSpec> specs;
  for (const auto& task : def.tasks) {
    specs.push_back(task.model);
  }
  return gmorph::ParseModelSpecs(specs);
}

int NodeOf(const AbsGraph& g, int task, int op) {
  for (const auto& node : g.nodes()) {
    if (node.task_id == task && node.op_id == op) {
      return node.id;
    }
  }
  return -1;
}

// The mutation engine applied to a fixed list of pairs (ids are looked up
// again after every mutation, since garbage collection renumbers nodes), then
// the GraphVerifier gate a search candidate passes.
std::optional<AbsGraph> DeriveTree(const AbsGraph& original, const std::vector<Share>& shares) {
  AbsGraph g = original;
  for (const Share& s : shares) {
    const gmorph::SharePair pair{NodeOf(g, s.host_task, s.host_op),
                                 NodeOf(g, s.guest_task, s.guest_op)};
    if (pair.host < 0 || pair.guest < 0 || !gmorph::ApplyMutation(g, pair)) {
      return std::nullopt;
    }
  }
  if (!gmorph::VerifyGraph(g).ok()) {
    return std::nullopt;
  }
  return g;
}

// Setup of the fixed-tree workloads: the original and the derived tree, both
// deployed. Timed kSetups times; the last one is kept.
struct Trees {
  Deployed original;
  Deployed tree;
};

Trees SetUpTrees(int bench, const std::vector<Share>& shares) {
  const AbsGraph original = OriginalGraph(bench);
  const std::optional<AbsGraph> tree = DeriveTree(original, shares);
  GMORPH_CHECK(tree.has_value());
  return Trees{Deploy(original, kWeightSeed), Deploy(*tree, kWeightSeed)};
}

// Seconds of one set-up `fn` as TimedMs gives them; the first set-up of a run
// counts from process start.
double SetupS(int index, const std::function<void()>& fn) {
  if (index > 0) {
    return 1e-3 * TimedMs(fn);
  }
  fn();
  return 1e-3 * ThreadCpuMs() * SpeedFactor(0.0, NowS());
}

void RecordSetup(const std::vector<double>& setup_s, const std::vector<double>& plan_ms,
                 Result& result) {
  result.Metric("setup_s", Median(setup_s), "s");
  result.ConfigNumber("setups", static_cast<double>(setup_s.size()));
  result.Metric("runtime.plan_build_ms", Median(plan_ms), "ms");
}

void TracedProbes(const Args& args, Deployed& tree, Result& result) {
  if (!args.trace) {
    return;
  }
  MeasureKernels(*tree.engine, result);
  MeasureTraceOverhead(*tree.engine, SeededInput(tree.graph, 1, args.seed), 0.1 * args.seconds,
                       result);
}

// ---- search ----

struct SearchSetup {
  gmorph::BenchmarkDef def;
  std::vector<std::unique_ptr<gmorph::TaskModel>> teachers;
};

std::unique_ptr<SearchSetup> SetUpSearch(const SearchPlan& plan) {
  gmorph::BenchmarkScale scale;  // the CLI's default data scale
  scale.train_size = plan.train_size;
  scale.test_size = plan.test_size;
  scale.cnn_width = 8;
  scale.noise_stddev = 1.6f;
  auto s = std::make_unique<SearchSetup>(
      SearchSetup{gmorph::MakeBenchmark(plan.bench, scale, kSearchSeed), {}});
  gmorph::Rng rng(kSearchSeed);
  for (size_t t = 0; t < s->def.tasks.size(); ++t) {
    s->teachers.push_back(std::make_unique<gmorph::TaskModel>(s->def.tasks[t].model, rng));
    if (plan.teacher_epochs > 0) {
      gmorph::TeacherTrainOptions topts;
      topts.epochs = plan.teacher_epochs;
      gmorph::TrainTeacher(*s->teachers.back(), s->def.train, s->def.test, t, topts);
    }
  }
  return s;
}

struct TimedSearch {
  gmorph::GMorphResult found;
  AbsGraph original;
  double seconds = 0.0;  // GMorph::Run, TimedMs in seconds
};

// Runs one GMorph::Run of `plan` over `setup` and records the search.* stage
// metrics.
TimedSearch RunTimedSearch(const SearchPlan& plan, SearchSetup& setup, const Args& args,
                           Result& result) {
  gmorph::GMorphOptions options;
  options.accuracy_drop_threshold = kSearchDropThreshold;
  options.iterations = plan.iterations;
  options.max_mutations_per_pass = 2;
  options.policy = gmorph::PolicyKind::kSimulatedAnnealing;
  options.predictive_termination = true;
  options.rule_based_filtering = true;
  options.metric = gmorph::OptimizeMetric::kFlops;
  options.finetune.max_epochs = plan.finetune_epochs;
  options.finetune.eval_interval = plan.eval_interval;
  options.finetune.batch_size = 32;
  options.finetune.lr = 1e-3f;
  options.parallel_candidates = 1;
  options.num_threads = 1;
  options.seed = kSearchSeed;
  options.use_eval_cache = false;
  options.cache_dir = args.scratch_dir + "/evalcache";
  std::vector<gmorph::TaskModel*> teachers;
  for (auto& t : setup.teachers) {
    teachers.push_back(t.get());
  }
  gmorph::GMorph search(teachers, &setup.def.train, &setup.def.test, options);
  TimedSearch out;
  const double t0 = NowS();
  out.seconds = 1e-3 * TimedMs([&] {
    obs::TraceSpan span("bench/gmorph_run", obs::TraceCat::kBench);
    out.found = search.Run();
  });
  result.ConfigNumber("search_wall_s", NowS() - t0);
  out.original = search.original_graph();
  const gmorph::GMorphResult& found = out.found;
  result.Count(1, 0, "searches");
  result.ConfigNumber("search_bench", plan.bench);
  result.ConfigNumber("search_iterations", plan.iterations);
  result.ConfigNumber("search_train_size", static_cast<double>(plan.train_size));
  result.ConfigNumber("search_teacher_epochs", plan.teacher_epochs);
  result.ConfigNumber("search_finetune_epochs", plan.finetune_epochs);
  result.ConfigNumber("search_seed", static_cast<double>(kSearchSeed));
  result.Config("search_metric", "flops");

  int met = 0;
  int early = 0;
  for (const auto& it : found.trace) {
    met += it.met_target ? 1 : 0;
    early += it.terminated_early ? 1 : 0;
  }
  const gmorph::StageSeconds& st = found.stage_seconds;
  const int finetuned = found.candidates_finetuned;
  result.Metric("search.sample_s", st.sample, "s");
  result.Metric("search.verify_s", st.verify, "s");
  result.Metric("search.profile_s", st.profile, "s");
  result.Metric("search.finetune_s", st.finetune, "s");
  result.Metric("search.finetuned", finetuned, "count");
  result.Metric("search.filtered", found.candidates_filtered, "count");
  result.Metric("search.terminated_early", early, "count");
  result.Metric("search.finetune_s_per_candidate", finetuned > 0 ? st.finetune / finetuned : 0.0,
                "s");
  result.Metric("search.accept_ratio", finetuned > 0 ? static_cast<double>(met) / finetuned : 0.0,
                "ratio");
  return out;
}

// search_s of the fixed-tree workloads: the small search runs twice after
// every round of the workload's timed phases, so its repeats sample the whole
// run; search_s is their median. One repeat reads within ~12% of the median.
class SmallSearches {
 public:
  SmallSearches(int bench, const Args& args, Result& result)
      : plan_(SmallSearch(bench)), setup_(SetUpSearch(plan_)), args_(args), result_(result) {}

  void EveryRound() {
    for (int i = 0; i < 2; ++i) {
      seconds_.push_back(RunTimedSearch(plan_, *setup_, args_, result_).seconds);
    }
  }

  void Record() {
    result_.Metric("search_s", Median(seconds_), "s");
    result_.ConfigNumber("search_repeats", static_cast<double>(seconds_.size()));
  }

 private:
  SearchPlan plan_;
  std::unique_ptr<SearchSetup> setup_;
  const Args& args_;
  Result& result_;
  std::vector<double> seconds_;
};

void RunSearch(const Args& args, Result& result) {
  gmorph::SetKernelThreads(kKernelThreads);
  std::vector<double> setup_s;
  std::unique_ptr<SearchSetup> setup;
  for (int i = 0; i < kSearchSetups; ++i) {
    setup.reset();
    setup_s.push_back(SetupS(i, [&] { setup = SetUpSearch(kFullSearch); }));
  }
  result.Metric("setup_s", Median(setup_s), "s");
  result.ConfigNumber("setups", static_cast<double>(setup_s.size()));

  const TimedSearch search = RunTimedSearch(kFullSearch, *setup, args, result);
  result.Metric("search_s", search.seconds, "s");
  const gmorph::GMorphResult& found = search.found;
  const AbsGraph& original_graph = search.original;

  // The best graph must lint clean, survive a save/load round trip and meet
  // the accuracy target on every task.
  const AbsGraph& best = found.best_graph;
  result.Check(gmorph::VerifyGraph(best).ok(), "best graph VerifyGraph");
  std::stringstream saved;
  const bool wrote = gmorph::SaveGraph(saved, best);
  const gmorph::GraphLoadResult loaded = gmorph::TryLoadGraph(saved);
  result.Check(wrote && loaded.ok() && loaded.graph->Fingerprint() == best.Fingerprint(),
               "best graph save/load round trip");
  for (size_t t = 0; t < found.teacher_scores.size(); ++t) {
    const double drop = found.teacher_scores[t] - found.best_task_scores[t];
    result.Check(drop <= kSearchDropThreshold + 1e-9,
                 "task " + std::to_string(t) + " accuracy drop " + std::to_string(drop));
  }

  RecordTrees(original_graph, best, "best", result);
  Deployed original = Deploy(original_graph, kWeightSeed);
  Deployed tree = Deploy(best, kWeightSeed);
  result.Metric("runtime.plan_build_ms", tree.plan_build_ms, "ms");
  // The search itself outlasts the run length; the engine phases get 80% of it.
  MeasureEngines(original, tree, args.seed, 0.8 * args.seconds, result);
  TracedProbes(args, tree, result);
}

void RunInfer(const Args& args, int bench, const std::vector<Share>& shares, Result& result) {
  gmorph::SetKernelThreads(kKernelThreads);
  std::vector<double> setup_s;
  std::vector<double> plan_ms;
  std::unique_ptr<Trees> trees;
  for (int i = 0; i < kSetups; ++i) {
    trees.reset();
    setup_s.push_back(SetupS(
        i, [&] { trees = std::make_unique<Trees>(SetUpTrees(bench, shares)); }));
    plan_ms.push_back(trees->tree.plan_build_ms);
  }
  RecordSetup(setup_s, plan_ms, result);
  RecordTrees(trees->original.graph, trees->tree.graph, "tree", result);
  SmallSearches searches(bench, args, result);
  MeasureEngines(trees->original, trees->tree, args.seed, args.seconds, result,
                 [&] { searches.EveryRound(); });
  searches.Record();
  TracedProbes(args, trees->tree, result);
}

// ---- serve ----

struct PhaseOutcome {
  gmorph::ServingStats stats;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  std::vector<double> late_ms;     // generator lateness against each due time
  std::vector<double> latency_ms;  // per completed request, from Submit()
};

// One open-loop phase: a Poisson schedule of `n` requests at `qps`, replayed
// against the wall clock by this thread. Request latency is the server's own,
// timed from Submit() (its stats and the flight recorder's admit/done events,
// both on the server clock); the generator's lateness against each due time is
// reported next to it.
PhaseOutcome RunPhase(gmorph::ReplicaPool& pool, const gmorph::ServiceTimeTable& table,
                      double qps, int n, double sla_ms, uint64_t seed,
                      const std::vector<gmorph::Tensor>& rows) {
  gmorph::ServerOptions options;
  options.max_batch = kMaxBatch;
  options.sla_ms = sla_ms;
  gmorph::ClearFlightRecorder();
  const Unpinned unpinned;  // the server's threads may use every vCPU
  gmorph::ThreadedServer server(&pool, table, options);
  const std::vector<double> arrivals = gmorph::GenerateArrivalsMs(qps, n, seed);
  PhaseOutcome out;
  out.late_ms.reserve(arrivals.size());
  const double t0 = server.NowMs();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const double due = t0 + arrivals[i];
    const double wait_ms = due - server.NowMs();
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(wait_ms * 1000.0)));
    }
    out.late_ms.push_back(std::max(0.0, server.NowMs() - due));
    obs::TraceSpan span("bench/submit", obs::TraceCat::kBench);
    server.Submit(&rows[i % rows.size()]);
  }
  {
    obs::TraceSpan span("bench/drain", obs::TraceCat::kBench);
    server.Drain();
  }
  server.Stop();
  out.stats = server.Stats();
  out.submitted = server.submitted();
  out.completed = server.completed();
  out.shed = server.shed();
  std::vector<double> admit_ms(arrivals.size(), -1.0);
  for (const gmorph::FlightEvent& e : gmorph::FlightRecorderSnapshot()) {
    if (e.request < 0 || e.request >= n) {
      continue;
    }
    double& admit = admit_ms[static_cast<size_t>(e.request)];
    if (e.kind == gmorph::FlightEventKind::kAdmit) {
      admit = e.t_ms;
    } else if (e.kind == gmorph::FlightEventKind::kDone && admit >= 0.0) {
      out.latency_ms.push_back(e.t_ms - admit);
    }
  }
  return out;
}

// Service times of `engine` for batch sizes 1..kMaxBatch: the median TimedMs
// of runs on one seeded input per size, the sizes taking turns in blocks of 4
// runs for `budget_s`.
gmorph::ServiceTimeTable ServiceTimes(gmorph::InferenceEngine& engine, const AbsGraph& graph,
                                      uint64_t seed, double budget_s, Result& result) {
  std::vector<gmorph::Tensor> inputs;
  for (int b = 1; b <= kMaxBatch; ++b) {
    inputs.push_back(SeededInput(graph, b, seed));
    engine.Run(inputs.back());
  }
  std::vector<std::vector<double>> run_ms(kMaxBatch);
  const double end_s = NowS() + budget_s;
  int64_t runs = 0;
  for (int block = 0; block < 3 || NowS() < end_s; ++block) {
    for (int b = 0; b < kMaxBatch; ++b) {
      for (int i = 0; i < 4; ++i, ++runs) {
        run_ms[static_cast<size_t>(b)].push_back(TimedMs([&] {
          obs::TraceSpan span("bench/replica_run", obs::TraceCat::kBench);
          engine.Run(inputs[static_cast<size_t>(b)]);
        }));
      }
    }
  }
  result.Count(runs, 0, "service-time runs");
  std::vector<double> ms;
  for (const auto& v : run_ms) {
    ms.push_back(Median(v));
  }
  return gmorph::ServiceTimeTable(std::move(ms));
}

struct ServeSetup {
  Trees trees;
  std::unique_ptr<gmorph::ReplicaPool> pool;
  gmorph::ServiceTimeTable table;
};

void RunServe(const Args& args, Result& result) {
  gmorph::SetKernelThreads(kKernelThreads);
  // B5: the ResNet-34s branch re-reads VGG-16s features twice, so only its
  // last residual block and head remain (2 mutations).
  const std::vector<Share> shares = {{1, 7, 0, 14}, {1, 12, 0, 16}};
  std::vector<double> setup_s;
  std::vector<double> plan_ms;
  std::unique_ptr<ServeSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    setup_s.push_back(SetupS(i, [&] {
      setup = std::make_unique<ServeSetup>(ServeSetup{SetUpTrees(5, shares), nullptr, {}});
      std::vector<gmorph::EngineReplica> replicas;
      for (int r = 0; r < kReplicas; ++r) {
        replicas.push_back(gmorph::MakeEngineReplica(gmorph::EngineKind::kFused,
                                                     setup->trees.tree.graph,
                                                     kWeightSeed + static_cast<uint64_t>(r)));
      }
      const gmorph::Shape row = setup->trees.tree.graph.node(0).output_shape;
      setup->pool = std::make_unique<gmorph::ReplicaPool>(std::move(replicas), row, kMaxBatch);
      obs::TraceSpan span("bench/calibrate", obs::TraceCat::kBench);
      setup->table = gmorph::CalibrateServiceTimes(*setup->pool->engine(0), row, kMaxBatch, 5);
    }));
    plan_ms.push_back(setup->trees.tree.plan_build_ms);
  }
  RecordSetup(setup_s, plan_ms, result);
  Trees& trees = setup->trees;
  RecordTrees(trees.original.graph, trees.tree.graph, "tree", result);

  if (args.trace) {
    // runtime.* of the served tree, on the standalone engine while the
    // replicas are idle.
    MeasureEngines(trees.original, trees.tree, args.seed, 0.3 * args.seconds, result);
    TracedProbes(args, trees.tree, result);
  } else {
    const gmorph::Tensor b1 = SeededInput(trees.tree.graph, 1, args.seed);
    CheckParity(trees.original, b1, "original b1", result);
    CheckParity(trees.tree, b1, "tree b1", result);
    CheckParity(trees.tree, SeededInput(trees.tree.graph, 8, args.seed), "tree b8", result);
    result.Metric("fused_speedup",
                  InterleavedRatio(*trees.original.engine, *trees.tree.engine, b1,
                                   0.3 * args.seconds, result),
                  "ratio");
  }

  // The served tree's latency and capacity: the moderate and overload
  // schedules of one replica's share, replayed in virtual time through the
  // scheduler core the threaded server runs, priced by a replica's service
  // times (TimedMs). Wall-clock serving on a shared host mostly measures the
  // other processes on it; the threaded server's own figures follow.
  const gmorph::ServiceTimeTable replay_table = ServiceTimes(
      *setup->pool->engine(0), trees.tree.graph, args.seed, 0.4 * args.seconds, result);
  gmorph::ServingOptions replay;
  replay.max_batch = kMaxBatch;
  replay.num_requests = kReplayRequests;
  replay.arrival_qps = kModerateQps / kReplicas;
  replay.seed = gmorph::Rng::MixSeed(args.seed, 3, 0);
  const gmorph::ServingStats replay_moderate =
      gmorph::SimulateServingWithTable(replay_table, replay);
  replay.arrival_qps = kOverloadQps / kReplicas;
  replay.seed = gmorph::Rng::MixSeed(args.seed, 4, 0);
  const gmorph::ServingStats replay_overload =
      gmorph::SimulateServingWithTable(replay_table, replay);
  result.Check(replay_moderate.num_completed == kReplayRequests &&
                   replay_overload.num_completed == kReplayRequests,
               "virtual-time replay completions");
  result.Metric("latency_p50_ms", replay_moderate.p50_latency_ms, "ms");
  result.Metric("latency_p99_ms", replay_moderate.p99_latency_ms, "ms");
  result.Metric("throughput_qps", replay_overload.throughput_qps, "1/s");
  result.Metric("serving.service_b1_ms", replay_table.BatchMs(1), "ms");
  result.Metric("serving.service_b8_ms", replay_table.BatchMs(kMaxBatch), "ms");
  result.ConfigNumber("replay_requests", kReplayRequests);
  result.ConfigNumber("replay_moderate_qps", kModerateQps / kReplicas);
  result.ConfigNumber("replay_overload_qps", kOverloadQps / kReplicas);

  // Request payloads: seeded rows, cycled.
  std::vector<gmorph::Tensor> rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back(SeededInput(trees.tree.graph, 1,
                                   gmorph::Rng::MixSeed(args.seed, 7, static_cast<uint64_t>(i)))
                       .Reshape(trees.tree.graph.node(0).output_shape));
  }
  // The threaded server: the two rates take turns in kRounds rounds, each a
  // fresh server on the same replicas, timed on the wall clock.
  constexpr int kRounds = 10;
  auto& queue_wait = gmorph::ServingMetrics::Get().queue_wait_ms;
  const int n_moderate =
      static_cast<int>(std::lround(kModerateQps * 0.15 * args.seconds / kRounds));
  const int n_overload =
      static_cast<int>(std::lround(kOverloadQps * 0.1 * args.seconds / kRounds));
  std::vector<PhaseOutcome> moderate;
  std::vector<PhaseOutcome> overload;
  std::vector<double> moderate_latency_ms;
  std::vector<double> round_qps;
  std::vector<double> round_queue_wait;
  SmallSearches searches(5, args, result);
  gmorph::StartFlightRecorder();  // per-request latencies, see RunPhase
  for (int round = 0; round < kRounds; ++round) {
    const auto r = static_cast<uint64_t>(round);
    queue_wait.Reset();
    moderate.push_back(RunPhase(*setup->pool, setup->table, kModerateQps, n_moderate, 0.0,
                                gmorph::Rng::MixSeed(args.seed, 1, r), rows));
    round_queue_wait.push_back(queue_wait.Quantile(0.5));
    moderate_latency_ms.insert(moderate_latency_ms.end(), moderate.back().latency_ms.begin(),
                               moderate.back().latency_ms.end());
    overload.push_back(RunPhase(*setup->pool, setup->table, kOverloadQps, n_overload,
                                kOverloadSlaMs, gmorph::Rng::MixSeed(args.seed, 2, r), rows));
    round_qps.push_back(overload.back().stats.throughput_qps);
    searches.EveryRound();
  }

  int64_t submitted = 0;
  int64_t shed = 0;
  int64_t lost = 0;
  std::vector<double> moderate_late;
  std::vector<double> overload_late;
  double moderate_batches = 0.0;
  double moderate_batched = 0.0;
  double overload_batches = 0.0;
  double overload_batched = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (const PhaseOutcome* p : {&moderate[round], &overload[round]}) {
      submitted += p->submitted;
      shed += p->shed;
      lost += p->submitted - p->completed - p->shed;
    }
    const gmorph::ServingStats& m = moderate[round].stats;
    const gmorph::ServingStats& o = overload[round].stats;
    moderate_batches += m.num_batches;
    moderate_batched += m.mean_batch_size * m.num_batches;
    overload_batches += o.num_batches;
    overload_batched += o.mean_batch_size * o.num_batches;
    moderate_late.insert(moderate_late.end(), moderate[round].late_ms.begin(),
                         moderate[round].late_ms.end());
    overload_late.insert(overload_late.end(), overload[round].late_ms.begin(),
                         overload[round].late_ms.end());
  }
  result.Count(submitted, shed, "requests shed by admission");
  result.Count(0, lost, "requests lost");
  int64_t unrecorded = 0;
  for (const PhaseOutcome& p : moderate) {
    unrecorded += p.completed - static_cast<int64_t>(p.latency_ms.size());
  }
  result.Count(0, unrecorded, "completed requests missing from the flight recorder");
  std::vector<double> late = moderate_late;
  late.insert(late.end(), overload_late.begin(), overload_late.end());

  result.Metric("serving.server_p50_ms", Median(moderate_latency_ms), "ms");
  result.Metric("serving.server_p99_ms", Percentile(moderate_latency_ms, 99), "ms");
  result.Metric("serving.server_capacity_qps", Median(round_qps), "1/s");
  result.ConfigNumber("server_latency_samples", static_cast<double>(moderate_latency_ms.size()));
  result.ConfigNumber("server_rounds", kRounds);
  result.ConfigNumber("moderate_qps", kModerateQps);
  result.ConfigNumber("overload_qps", kOverloadQps);
  result.ConfigNumber("overload_sla_ms", kOverloadSlaMs);
  result.ConfigNumber("replicas", kReplicas);
  result.ConfigNumber("max_batch", kMaxBatch);
  result.ConfigNumber("server_service_b1_ms", setup->table.BatchMs(1));
  result.ConfigNumber("server_service_b8_ms", setup->table.BatchMs(kMaxBatch));

  result.Metric("serving.mean_batch_moderate", moderate_batched / moderate_batches, "requests");
  result.Metric("serving.mean_batch_overload", overload_batched / overload_batches, "requests");
  result.Metric("serving.queue_wait_p50_ms", Median(round_queue_wait), "ms");
  result.Metric("serving.shed", static_cast<double>(shed), "count");
  result.Metric("serving.lost", static_cast<double>(lost), "count");
  result.Metric("serving.gen_late_p99_ms", Percentile(late, 99), "ms");
  result.Metric("serving.gen_late_max_moderate_ms", Percentile(moderate_late, 100), "ms");
  result.Metric("serving.gen_late_max_overload_ms", Percentile(overload_late, 100), "ms");
  searches.Record();
}

}  // namespace

bool RunWorkload(const Args& args, Result& result) {
  result.Config("workload", args.workload);
  result.ConfigNumber("seed", static_cast<double>(args.seed));
  result.ConfigNumber("seconds", args.seconds);
  if (args.workload == "infer-cnn") {
    // B1: the three VGG-13s share their first conv, then fork into three
    // sibling `conv 8->8` steps reading one value.
    RunInfer(args, 1, {{0, 1, 1, 1}, {0, 1, 2, 1}}, result);
  } else if (args.workload == "infer-xfmr") {
    RunInfer(args, 6, {}, result);  // B6's original tree
  } else if (args.workload == "serve") {
    RunServe(args, result);
  } else if (args.workload == "search") {
    RunSearch(args, result);
  } else {
    return false;
  }
  result.ConfigNumber("kernel_threads", gmorph::KernelThreads());
  return true;
}

}  // namespace perfbench
