// Benchmark registry: B1-B7 from the paper's Table 2, with scaled models and
// synthetic datasets (substitutions documented in DESIGN.md §1).
//
//   B1  Age/Gender/Ethnicity           3 x VGG-13s        (UTKFace stand-in)
//   B2  Emotion/Age/Gender             3 x VGG-16s        (FER2013 + Adience)
//   B3  Emotion/Age/Gender             VGG-13s/16s/11s    (heterogeneous VGG)
//   B4  Object/Salient                 ResNet-34s + ResNet-18s
//   B5  Object/Salient                 ResNet-34s + VGG-16s (cross-family)
//   B6  Object/Salient                 ViT-Large-s + ViT-Base-s
//   B7  CoLA/SST-2                     BERT-Large-s + BERT-Base-s
#ifndef GMORPH_SRC_DATA_BENCHMARKS_H_
#define GMORPH_SRC_DATA_BENCHMARKS_H_

#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/models/zoo.h"

namespace gmorph {

// Knobs shared by all benchmarks so experiments can be shrunk uniformly.
struct BenchmarkScale {
  int64_t train_size = 384;
  int64_t test_size = 192;
  int64_t cnn_width = 8;
  int64_t image_size = 32;
  float noise_stddev = 0.6f;
};

struct BenchmarkTask {
  std::string name;
  ModelSpec model;
  MetricKind metric = MetricKind::kAccuracy;
  int num_classes = 0;
};

struct BenchmarkDef {
  std::string id;
  std::string description;
  std::vector<BenchmarkTask> tasks;
  MultiTaskDataset train;
  MultiTaskDataset test;
};

// Builds benchmark `index` in 1..7. Deterministic given (index, scale, seed).
BenchmarkDef MakeBenchmark(int index, const BenchmarkScale& scale, uint64_t seed);

// The scale a search config names: `train_size`, `test_size`, `cnn_width`
// and `noise_stddev`, defaulting to 128, 64, 8 and 1.6.
BenchmarkScale BenchmarkScaleFromConfig(const Config& config);

inline constexpr int kNumBenchmarks = 7;

}  // namespace gmorph

#endif  // GMORPH_SRC_DATA_BENCHMARKS_H_
