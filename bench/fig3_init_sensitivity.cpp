// Figure 3: for a fixed mutated architecture, different weight
// initializations lead to different final accuracy drops — which is why
// architecture alone cannot predict accuracy and fine-tuning is unavoidable
// (motivates predictive filtering instead of static prediction).
//
// Two fixed architectures are derived from two VGG-13 teachers (age/gender);
// each is re-trained from several perturbed initializations and the drop
// distribution is printed.
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench/bench_common.h"
#include "src/core/finetune.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"

namespace {

using namespace gmorph;
using namespace gmorph::bench;

// Gaussian-perturbs every node weight (fresh "initialization configuration").
AbsGraph PerturbWeights(const AbsGraph& graph, float relative_sigma, Rng& rng) {
  AbsGraph g = graph;
  for (const AbsNode& n : graph.nodes()) {
    if (n.IsRoot() || n.weights.empty()) {
      continue;
    }
    std::vector<Tensor> perturbed;
    for (const Tensor& w : n.weights) {
      Tensor copy = w.Clone();
      double sq = 0.0;
      for (int64_t i = 0; i < copy.size(); ++i) {
        sq += static_cast<double>(copy.at(i)) * copy.at(i);
      }
      const float rms = copy.size() > 0
                            ? static_cast<float>(std::sqrt(sq / static_cast<double>(copy.size())))
                            : 0.0f;
      for (int64_t i = 0; i < copy.size(); ++i) {
        copy.at(i) += relative_sigma * rms * rng.NextGaussian();
      }
      perturbed.push_back(std::move(copy));
    }
    g.mutable_node(n.id).weights = std::move(perturbed);
  }
  return g;
}

}  // namespace

int main() {
  PrintHeader("Figure 3: accuracy-drop spread across weight initializations",
              "paper Fig. 3");
  PreparedBenchmark& p = GetBenchmark(1);
  // Two VGG-13 teachers: age (task 0) and gender (task 1).
  std::vector<const TaskModel*> two = {p.teacher_ptrs[0], p.teacher_ptrs[1]};
  AbsGraph original = ParseTaskModels(two);
  Rng rng(606);
  std::vector<Tensor> teacher_logits = {PredictAll(*p.teacher_ptrs[0], p.def.train),
                                        PredictAll(*p.teacher_ptrs[1], p.def.train)};
  std::vector<double> teacher_scores = {p.teacher_scores[0], p.teacher_scores[1]};

  for (int arch = 1; arch <= 2; ++arch) {
    // A fixed mutated architecture per panel (deterministic pair choice).
    Rng arch_rng(static_cast<uint64_t>(arch) * 71);
    std::optional<AbsGraph> mutated =
        SampleMutatePass(original, arch, ShapeSimilarity::kSimilar, arch_rng);
    if (!mutated) {
      std::printf("architecture %d: no mutation available\n", arch);
      continue;
    }
    std::printf("--- architecture %d (%d nodes) ---\n", arch, mutated->size());
    PrintRow({"init", "finalDrop(%)"});
    const int inits = Scaled(6);
    for (int run = 0; run < inits; ++run) {
      Rng run_rng(static_cast<uint64_t>(arch) * 1000 + static_cast<uint64_t>(run));
      AbsGraph init = PerturbWeights(*mutated, /*relative_sigma=*/0.25f, run_rng);
      MultiTaskModel candidate(init, run_rng);
      FinetuneOptions ft;
      ft.max_epochs = 4;
      ft.eval_interval = 4;
      ft.early_stop_on_target = false;
      FinetuneResult r = DistillFinetune(candidate, teacher_logits, p.def.train, p.def.test,
                                         teacher_scores, ft);
      PrintRow({std::to_string(run), Fmt(r.max_drop * 100, 2)});
    }
    std::printf("\n");
  }
  std::printf("Expected shape: drops vary across runs for the *same* architecture —\n"
              "accuracy is not predictable from structure alone (paper Fig. 3).\n");
  return 0;
}
