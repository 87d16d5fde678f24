// Figure 1: accuracy drop vs inference speedup for randomly sampled
// feature-sharing configurations, split by whether the shared pair has
// similar input shapes (red points in the paper) or completely different
// shapes (blue points). Demonstrates the similar-shape insight that motivates
// Definition 2: similar-shape sharing dominates the Pareto frontier.
//
// (a) three VGG-16s (B2 teachers); (b) ResNet-34 + ResNet-18 (B4 teachers).
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

void RunGroup(const char* label, int bench_index, int num_mutations) {
  PreparedBenchmark& p = GetBenchmark(bench_index);
  AbsGraph original = ParseTaskModels(
      std::vector<const TaskModel*>(p.teacher_ptrs.begin(), p.teacher_ptrs.end()));
  Rng rng(500 + static_cast<uint64_t>(bench_index));
  const double original_mflop = static_cast<double>(original.TotalFlops()) / 1e6;

  std::vector<Tensor> teacher_logits;
  for (TaskModel* teacher : p.teacher_ptrs) {
    teacher_logits.push_back(PredictAll(*teacher, p.def.train));
  }

  std::printf("--- %s (original cost %.1f MFLOP) ---\n", label, original_mflop);
  PrintRow({"shapes", "speedup", "maxDrop(%)"});
  const int samples = Scaled(6);
  for (ShapeSimilarity mode : {ShapeSimilarity::kSimilar, ShapeSimilarity::kDissimilar}) {
    const char* tag = mode == ShapeSimilarity::kSimilar ? "similar" : "different";
    for (int i = 0; i < samples; ++i) {
      std::optional<AbsGraph> mutated = SampleMutatePass(original, num_mutations, mode, rng);
      if (!mutated.has_value()) {
        continue;
      }
      MultiTaskModel candidate(*mutated, rng);
      const double cand_mflop = static_cast<double>(mutated->TotalFlops()) / 1e6;
      FinetuneOptions ft;
      ft.max_epochs = 12;
      ft.eval_interval = 12;
      ft.batch_size = 16;
      ft.lr = 3e-3f;
      ft.early_stop_on_target = false;
      FinetuneResult r = DistillFinetune(candidate, teacher_logits, p.def.train, p.def.test,
                                         p.teacher_scores, ft);
      PrintRow({tag, Fmt(original_mflop / cand_mflop), Fmt(std::max(0.0, r.max_drop) * 100, 1)});
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintHeader("Figure 1: accuracy drop vs speedup, similar vs different input shapes",
              "paper Fig. 1");
  RunGroup("(a) three VGG-16s", /*bench_index=*/2, /*num_mutations=*/2);
  RunGroup("(b) ResNet-34 + ResNet-18", /*bench_index=*/4, /*num_mutations=*/1);
  std::printf("Expected shape: 'similar' rows reach a given speedup with smaller drops\n"
              "('different' rows populate the high-drop region).\n");
  return 0;
}
