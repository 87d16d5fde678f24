// Figure 2: fine-tuning time vs speedup for candidates mutated from the
// original multi-DNNs ("From original") vs candidates mutated from an elite
// that already meets the target ("From another"). Elite-derived mutations
// inherit trained weights, so they fine-tune faster and reach higher
// speedups — the insight behind the simulated-annealing policy.
#include <cstdio>
#include <optional>

#include "bench/bench_common.h"
#include "src/core/finetune.h"
#include "src/core/latency.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"

namespace {

using namespace gmorph;
using namespace gmorph::bench;

struct Sample {
  double speedup = 0.0;
  double finetune_s = 0.0;
  bool met = false;
};

Sample EvaluateCandidate(const AbsGraph& graph, PreparedBenchmark& p,
                         const std::vector<Tensor>& teacher_logits, double original_flops,
                         double threshold, Rng& rng, AbsGraph* trained_out) {
  MultiTaskModel candidate(graph, rng);
  FinetuneOptions ft;
  ft.max_epochs = 24;
  ft.eval_interval = 2;
  ft.batch_size = 16;
  ft.lr = 3e-3f;
  ft.target_drop = threshold;
  FinetuneResult r = DistillFinetune(candidate, teacher_logits, p.def.train, p.def.test,
                                     p.teacher_scores, ft);
  if (r.met_target && trained_out != nullptr) {
    *trained_out = candidate.ExportTrainedGraph();
  }
  return {original_flops / static_cast<double>(graph.TotalFlops()), r.seconds, r.met_target};
}

}  // namespace

int main() {
  PrintHeader("Figure 2: fine-tune time vs speedup, mutating original vs elite",
              "paper Fig. 2");
  PreparedBenchmark& p = GetBenchmark(1);  // 3x VGG-13 face tasks (B1)
  AbsGraph original = ParseTaskModels(
      std::vector<const TaskModel*>(p.teacher_ptrs.begin(), p.teacher_ptrs.end()));
  Rng rng(404);
  const double original_flops = static_cast<double>(original.TotalFlops());
  std::vector<Tensor> teacher_logits;
  for (TaskModel* teacher : p.teacher_ptrs) {
    teacher_logits.push_back(PredictAll(*teacher, p.def.train));
  }

  for (double threshold : {0.01, 0.02}) {
    std::printf("--- accuracy drop = %.0f%% ---\n", threshold * 100);
    PrintRow({"source", "speedup", "finetune(s)", "met"});

    // Phase 1: mutate the original; collect elites.
    std::vector<AbsGraph> elites;
    const int samples = Scaled(5);
    for (int i = 0; i < samples; ++i) {
      std::optional<AbsGraph> mutated =
          SampleMutatePass(original, 1, ShapeSimilarity::kSimilar, rng);
      if (!mutated) {
        continue;
      }
      AbsGraph trained;
      Sample s = EvaluateCandidate(*mutated, p, teacher_logits, original_flops, threshold, rng,
                                   &trained);
      PrintRow({"original", Fmt(s.speedup), Fmt(s.finetune_s, 1), s.met ? "yes" : "no"});
      if (s.met) {
        elites.push_back(std::move(trained));
      }
    }
    // Phase 2: mutate the elites further (weight inheritance).
    if (elites.empty()) {
      std::printf("(no elites found at this threshold; increase GMORPH_BENCH_SCALE)\n\n");
      continue;
    }
    for (int i = 0; i < samples; ++i) {
      const AbsGraph& base = elites[static_cast<size_t>(rng.NextInt(
          static_cast<int>(elites.size())))];
      std::optional<AbsGraph> mutated = SampleMutatePass(base, 1, ShapeSimilarity::kSimilar, rng);
      if (!mutated) {
        continue;
      }
      Sample s =
          EvaluateCandidate(*mutated, p, teacher_logits, original_flops, threshold, rng, nullptr);
      PrintRow({"elite", Fmt(s.speedup), Fmt(s.finetune_s, 1), s.met ? "yes" : "no"});
    }
    std::printf("\n");
  }
  std::printf("Expected shape: 'elite' rows cluster at higher speedups with shorter\n"
              "fine-tune times than 'original' rows (paper Fig. 2).\n");
  return 0;
}
