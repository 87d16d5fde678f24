// Table 4: accuracy drop and speedup of the MTL baselines (All-shared,
// TreeMTL) vs GMorph at accuracy drop < 1%. For B5-B7 the architectures share
// no identical layers, so MTL is not applicable ("-"), exactly as in the
// paper.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/baselines/mtl_baselines.h"

int main() {
  using namespace gmorph;
  using namespace gmorph::bench;
  PrintHeader("Table 4: MTL baselines vs GMorph (accuracy drop < 1%)", "paper Table 4");
  PrintRow({"Benchmark", "AllShared", "speedup", "TreeMTL", "speedup", "GMorph", "speedup"});

  for (int b = 1; b <= kNumBenchmarks; ++b) {
    PreparedBenchmark& p = GetBenchmark(b);
    MtlBaselineOptions opts;
    opts.finetune.max_epochs = 24;
    opts.finetune.eval_interval = 4;
    opts.finetune.batch_size = 16;
    opts.finetune.lr = 3e-3f;
    opts.probe_epochs = 4;
    opts.target_drop = 0.01;
    opts.latency.measured_runs = 3;

    std::vector<TaskModel*> teachers = p.teacher_ptrs;
    MtlBaselineResult all_shared = RunAllShared(teachers, p.def.train, p.def.test, opts);
    MtlBaselineResult tree_mtl = RunTreeMtl(teachers, p.def.train, p.def.test, opts);
    SearchSummary gm = RunSearchCached(b, 0.01, Variant::kBase);
    double gm_drop = 0.0;
    for (size_t t = 0; t < gm.teacher_scores.size(); ++t) {
      gm_drop = std::max(gm_drop, gm.teacher_scores[t] - gm.best_task_scores[t]);
    }

    auto cell_drop = [](const MtlBaselineResult& r) {
      return r.feasible ? Fmt(r.accuracy_drop * 100, 2) + "%" : std::string("-");
    };
    auto cell_speed = [](const MtlBaselineResult& r) {
      return r.feasible ? Fmt(r.flops_speedup) + "x" : std::string("-");
    };
    PrintRow({"B" + std::to_string(b), cell_drop(all_shared), cell_speed(all_shared),
              cell_drop(tree_mtl), cell_speed(tree_mtl), Fmt(gm_drop * 100, 2) + "%",
              Fmt(gm.speedup) + "x"});
  }
  std::printf("\nDrop = worst task's score drop after training to convergence (baselines)\n"
              "or at the point GMorph's fine-tuning met the 1%% target (GMorph column).\n"
              "Speedups are compute (FLOPs) ratios vs the original multi-DNNs.\n");
  return 0;
}
