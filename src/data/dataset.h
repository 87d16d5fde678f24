// Multi-task datasets: one shared input stream, one label set per task.
//
// GMorph itself never reads task labels during fusion (fine-tuning distills
// from the teachers); labels exist to *pre-train* teachers and to *measure*
// task accuracy, exactly as in the paper's setup.
#ifndef GMORPH_SRC_DATA_DATASET_H_
#define GMORPH_SRC_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace gmorph {

enum class MetricKind {
  kAccuracy,              // classification accuracy (B1-B3, SST-2)
  kMeanAveragePrecision,  // multi-label mAP (ObjectNet in B4-B6)
  kMatthews,              // Matthews correlation (CoLA in B7)
};

std::string MetricKindName(MetricKind metric);

// Labels for one task over the whole dataset.
struct TaskLabels {
  MetricKind metric = MetricKind::kAccuracy;
  int num_classes = 0;
  // Class index per example (kAccuracy / kMatthews).
  std::vector<int> class_labels;
  // (N, num_classes) 0/1 targets (kMeanAveragePrecision).
  Tensor multi_hot;
};

struct MultiTaskDataset {
  Tensor inputs;  // (N, C, H, W) images or (N, T) token ids
  std::vector<TaskLabels> tasks;

  int64_t size() const { return inputs.shape()[0]; }

  // Copies rows [start, start+count) of the inputs into a new batch tensor.
  Tensor InputBatch(int64_t start, int64_t count) const;
  // Up to `num_batches` consecutive batches of `batch_size` rows from the
  // start of the inputs (the last may be short): int8 calibration's
  // representative inputs.
  std::vector<Tensor> LeadingInputBatches(int num_batches, int64_t batch_size) const;
  // Class labels of task `t` for the same rows.
  std::vector<int> LabelBatch(size_t t, int64_t start, int64_t count) const;
  // Multi-hot targets of task `t` for the same rows.
  Tensor MultiHotBatch(size_t t, int64_t start, int64_t count) const;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_DATA_DATASET_H_
