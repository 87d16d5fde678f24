#include "src/data/dataset.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace gmorph {

std::string MetricKindName(MetricKind metric) {
  switch (metric) {
    case MetricKind::kAccuracy:
      return "accuracy";
    case MetricKind::kMeanAveragePrecision:
      return "mAP";
    case MetricKind::kMatthews:
      return "matthews";
  }
  return "unknown";
}

Tensor MultiTaskDataset::InputBatch(int64_t start, int64_t count) const {
  GMORPH_CHECK(start >= 0 && start + count <= size());
  const int64_t row = inputs.size() / size();
  std::vector<int64_t> dims = inputs.shape().dims();
  dims[0] = count;
  Tensor out(Shape(std::move(dims)));
  std::memcpy(out.data(), inputs.data() + start * row,
              static_cast<size_t>(count * row) * sizeof(float));
  return out;
}

std::vector<Tensor> MultiTaskDataset::LeadingInputBatches(int num_batches,
                                                          int64_t batch_size) const {
  std::vector<Tensor> batches;
  for (int64_t start = 0; static_cast<int>(batches.size()) < num_batches && start < size();
       start += batch_size) {
    batches.push_back(InputBatch(start, std::min(batch_size, size() - start)));
  }
  return batches;
}

std::vector<int> MultiTaskDataset::LabelBatch(size_t t, int64_t start, int64_t count) const {
  GMORPH_CHECK(t < tasks.size());
  const auto& labels = tasks[t].class_labels;
  GMORPH_CHECK(start >= 0 && start + count <= static_cast<int64_t>(labels.size()));
  return std::vector<int>(labels.begin() + start, labels.begin() + start + count);
}

Tensor MultiTaskDataset::MultiHotBatch(size_t t, int64_t start, int64_t count) const {
  GMORPH_CHECK(t < tasks.size());
  const Tensor& mh = tasks[t].multi_hot;
  GMORPH_CHECK(!mh.empty() && start + count <= mh.shape()[0]);
  const int64_t k = mh.shape()[1];
  Tensor out(Shape{count, k});
  std::memcpy(out.data(), mh.data() + start * k, static_cast<size_t>(count * k) * sizeof(float));
  return out;
}

}  // namespace gmorph
