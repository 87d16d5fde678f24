#include "src/data/benchmarks.h"

#include "src/common/check.h"

namespace gmorph {
namespace {

VisionModelOptions VisionOpts(const BenchmarkScale& scale, int classes) {
  VisionModelOptions o;
  o.base_width = scale.cnn_width;
  o.image_size = scale.image_size;
  o.classes = classes;
  return o;
}

// Face-attribute benchmarks (B1-B3): three classification tasks on one image
// stream.
BenchmarkDef MakeFaceBenchmark(const std::string& id, const std::string& description,
                               const std::vector<std::string>& names,
                               const std::vector<int>& classes,
                               const std::vector<ModelSpec>& models,
                               const BenchmarkScale& scale, Rng& rng) {
  BenchmarkDef def;
  def.id = id;
  def.description = description;
  std::vector<VisionTaskSpec> specs;
  for (size_t i = 0; i < names.size(); ++i) {
    BenchmarkTask task;
    task.name = names[i];
    task.model = models[i];
    task.metric = MetricKind::kAccuracy;
    task.num_classes = classes[i];
    def.tasks.push_back(std::move(task));
    VisionTaskSpec vt;
    vt.num_classes = classes[i];
    vt.metric = MetricKind::kAccuracy;
    specs.push_back(vt);
  }
  VisionDataOptions opts;
  opts.image_size = scale.image_size;
  opts.noise_stddev = scale.noise_stddev;
  VisionDatasetPair pair =
      GenerateVisionData(scale.train_size, scale.test_size, specs, opts, rng);
  def.train = std::move(pair.train);
  def.test = std::move(pair.test);
  return def;
}

// Lifelogging benchmarks (B4-B6): multi-label object detection stand-in (mAP)
// plus salient-object-count classification, on one image stream.
BenchmarkDef MakeSceneBenchmark(const std::string& id, const std::string& description,
                                ModelSpec object_model, ModelSpec salient_model,
                                const BenchmarkScale& scale, Rng& rng) {
  constexpr int kObjectClasses = 8;  // paper: 20 VOC classes
  constexpr int kSalientClasses = 5;

  BenchmarkDef def;
  def.id = id;
  def.description = description;
  BenchmarkTask object_task;
  object_task.name = "ObjectNet";
  object_task.model = std::move(object_model);
  object_task.metric = MetricKind::kMeanAveragePrecision;
  object_task.num_classes = kObjectClasses;
  def.tasks.push_back(std::move(object_task));
  BenchmarkTask salient_task;
  salient_task.name = "SalientNet";
  salient_task.model = std::move(salient_model);
  salient_task.metric = MetricKind::kAccuracy;
  salient_task.num_classes = kSalientClasses;
  def.tasks.push_back(std::move(salient_task));

  std::vector<VisionTaskSpec> specs(2);
  specs[0].num_classes = kObjectClasses;
  specs[0].metric = MetricKind::kMeanAveragePrecision;
  specs[1].num_classes = kSalientClasses;
  specs[1].metric = MetricKind::kAccuracy;
  VisionDataOptions opts;
  opts.image_size = scale.image_size;
  opts.noise_stddev = scale.noise_stddev;
  VisionDatasetPair pair =
      GenerateVisionData(scale.train_size, scale.test_size, specs, opts, rng);
  def.train = std::move(pair.train);
  def.test = std::move(pair.test);
  return def;
}

}  // namespace

BenchmarkDef MakeBenchmark(int index, const BenchmarkScale& scale, uint64_t seed) {
  Rng rng(seed + static_cast<uint64_t>(index) * 0x51ed2701u);
  switch (index) {
    case 1: {
      const std::vector<int> classes = {5, 2, 4};
      return MakeFaceBenchmark(
          "B1", "Age/Gender/Ethnicity, 3x VGG-13s (UTKFace stand-in)",
          {"AgeNet", "GenderNet", "EthnicityNet"}, classes,
          {MakeVgg13(VisionOpts(scale, classes[0])), MakeVgg13(VisionOpts(scale, classes[1])),
           MakeVgg13(VisionOpts(scale, classes[2]))},
          scale, rng);
    }
    case 2: {
      const std::vector<int> classes = {7, 5, 2};
      return MakeFaceBenchmark(
          "B2", "Emotion/Age/Gender, 3x VGG-16s (FER2013+Adience stand-in)",
          {"EmotionNet", "AgeNet", "GenderNet"}, classes,
          {MakeVgg16(VisionOpts(scale, classes[0])), MakeVgg16(VisionOpts(scale, classes[1])),
           MakeVgg16(VisionOpts(scale, classes[2]))},
          scale, rng);
    }
    case 3: {
      const std::vector<int> classes = {7, 5, 2};
      return MakeFaceBenchmark(
          "B3", "Emotion/Age/Gender, heterogeneous VGG-13s/16s/11s",
          {"EmotionNet", "AgeNet", "GenderNet"}, classes,
          {MakeVgg13(VisionOpts(scale, classes[0])), MakeVgg16(VisionOpts(scale, classes[1])),
           MakeVgg11(VisionOpts(scale, classes[2]))},
          scale, rng);
    }
    case 4:
      return MakeSceneBenchmark("B4", "Object/Salient, ResNet-34s + ResNet-18s",
                                MakeResNet34(VisionOpts(scale, 8)),
                                MakeResNet18(VisionOpts(scale, 5)), scale, rng);
    case 5:
      return MakeSceneBenchmark("B5", "Object/Salient, ResNet-34s + VGG-16s (cross-family)",
                                MakeResNet34(VisionOpts(scale, 8)),
                                MakeVgg16(VisionOpts(scale, 5)), scale, rng);
    case 6: {
      TransformerModelOptions large = ViTLargeOptions();
      large.image_size = scale.image_size;
      large.classes = 8;
      TransformerModelOptions base = ViTBaseOptions();
      base.image_size = scale.image_size;
      base.classes = 5;
      return MakeSceneBenchmark("B6", "Object/Salient, ViT-Large-s + ViT-Base-s",
                                MakeViT("ViT-Large-s", large), MakeViT("ViT-Base-s", base),
                                scale, rng);
    }
    case 7: {
      TransformerModelOptions large = BertLargeOptions();
      large.classes = 2;
      TransformerModelOptions base = BertBaseOptions();
      base.classes = 2;

      BenchmarkDef def;
      def.id = "B7";
      def.description = "CoLA/SST-2, BERT-Large-s + BERT-Base-s (GLUE stand-in)";
      BenchmarkTask cola;
      cola.name = "CoLANet";
      cola.model = MakeBert("BERT-Large-s", large);
      cola.metric = MetricKind::kMatthews;
      cola.num_classes = 2;
      def.tasks.push_back(std::move(cola));
      BenchmarkTask sst;
      sst.name = "SSTNet";
      sst.model = MakeBert("BERT-Base-s", base);
      sst.metric = MetricKind::kAccuracy;
      sst.num_classes = 2;
      def.tasks.push_back(std::move(sst));

      std::vector<TextTaskSpec> specs(2);
      specs[0].metric = MetricKind::kMatthews;
      specs[1].metric = MetricKind::kAccuracy;
      TextDataOptions opts;
      opts.vocab = large.vocab;
      opts.seq_len = large.seq_len;
      TextDatasetPair pair =
          GenerateTextData(scale.train_size, scale.test_size, specs, opts, rng);
      def.train = std::move(pair.train);
      def.test = std::move(pair.test);
      return def;
    }
    default:
      GMORPH_CHECK(false, "benchmark index " << index << " out of range 1..7");
  }
  return {};
}

BenchmarkScale BenchmarkScaleFromConfig(const Config& config) {
  BenchmarkScale scale;
  scale.train_size = config.GetInt("train_size", 128);
  scale.test_size = config.GetInt("test_size", 64);
  scale.cnn_width = config.GetInt("cnn_width", 8);
  scale.noise_stddev = static_cast<float>(config.GetDouble("noise_stddev", 1.6));
  return scale;
}

}  // namespace gmorph
