// The quantization recipe: the on-disk artifact calibration produces and the
// engine consumes. Text, one step per line ("gmorph-quant v1"):
//
//   gmorph-quant v1
//   step seq=0 kind=conv label=conv1 in_scale=0.0123 in_zp=14 w_scales=0.1,0.2
//   step seq=3 kind=linear label=head0 in_scale=0.2 in_zp=0 w_scales=0.05
//
// `seq` is the step's index in the engine's lowered plan, `kind` names the op
// family, `in_scale`/`in_zp` are the u8 asymmetric activation parameters and
// `w_scales` the per-output-channel symmetric s8 weight scales. The format
// mirrors the tunedb's key=value line discipline.
//
// The loader is the linter: one scan (src/common/line_artifact.h) both reads
// the steps and reports every quant.* finding — grammar (quant.entry), a
// scale that is not positive finite (quant.scale), a zero point outside
// [0, 255] (quant.zp), two lines for one plan seq (quant.duplicate). A recipe
// drives numerics, so the loader's policy is to refuse the whole file on any
// error; nothing is dropped silently. VerifyQuantRecipeFile is the same scan
// with the steps thrown away.
#ifndef GMORPH_SRC_QUANT_RECIPE_H_
#define GMORPH_SRC_QUANT_RECIPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/diagnostics.h"
#include "src/quant/qparams.h"

namespace gmorph::quant {

struct StepQuantSpec {
  int64_t seq = -1;
  std::string kind;   // "conv" | "linear"
  std::string label;  // step label, informational (spaces are sanitized)
  ActQuant in_q;
  std::vector<float> w_scales;  // one per output channel
};

struct QuantRecipe {
  std::vector<StepQuantSpec> steps;

  // Spec for a plan step, or nullptr when the step is not quantized.
  const StepQuantSpec* FindSeq(int64_t seq) const;
};

// Whole-file IO. Save is atomic (tmp + rename). Load fails (returns false,
// `error` naming the first error) on a missing file, a bad header, or any
// error the linter reports.
bool SaveQuantRecipe(const QuantRecipe& recipe, const std::string& path, std::string* error);
bool LoadQuantRecipe(const std::string& path, QuantRecipe* recipe, std::string* error);

// Lints a recipe file (`gmorph_cli --verify`): every quant.* finding of the
// scan LoadQuantRecipe runs.
DiagnosticList VerifyQuantRecipeFile(const std::string& path);

}  // namespace gmorph::quant

#endif  // GMORPH_SRC_QUANT_RECIPE_H_
