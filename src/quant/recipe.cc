#include "src/quant/recipe.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "src/common/line_artifact.h"

namespace gmorph::quant {
namespace {

const LineArtifactFormat kRecipeFormat{kQuantRecipeArtifact, "quant", "quantization recipe"};

// %.9g round-trips any float32 exactly through text.
std::string FormatFloat(float v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

std::string SanitizeLabel(const std::string& label) {
  std::string out = label.empty() ? std::string("-") : label;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '=') {
      c = '_';
    }
  }
  return out;
}

// Parses one step line. A zero point outside u8 is reported as quant.zp, any
// other grammar defect as quant.entry, both at `where`.
bool ParseStepLine(const std::string& line, const std::string& where, StepQuantSpec* spec,
                   DiagnosticList& diags) {
  std::istringstream is(line);
  std::string tok;
  is >> tok;
  if (tok != "step") {
    diags.Error("quant.entry", where) << "expected 'step'";
    return false;
  }
  StepQuantSpec s;
  bool have_seq = false, have_kind = false, have_scale = false, have_zp = false,
       have_w = false;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      diags.Error("quant.entry", where) << "bad token '" << tok << "'";
      return false;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    int64_t iv = 0;
    if (key == "seq" && ParseStrictInt64(val, &s.seq) && s.seq >= 0) {
      have_seq = true;
    } else if (key == "kind" && !val.empty()) {
      s.kind = val;
      have_kind = true;
    } else if (key == "label" && !val.empty()) {
      s.label = val;
    } else if (key == "in_scale" && ParseStrictFloat(val, &s.in_q.scale)) {
      have_scale = true;
    } else if (key == "in_zp" && ParseStrictInt64(val, &iv)) {
      if (iv < 0 || iv > 255) {
        diags.Error("quant.zp", where)
            << "activation zero point " << iv << " outside u8 range [0, 255]";
        return false;
      }
      s.in_q.zero_point = static_cast<int32_t>(iv);
      have_zp = true;
    } else if (key == "w_scales" && !val.empty()) {
      size_t pos = 0;
      while (pos <= val.size()) {
        const size_t comma = val.find(',', pos);
        const std::string item =
            val.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        float f = 0.0f;
        if (!ParseStrictFloat(item, &f)) {
          diags.Error("quant.entry", where) << "bad w_scales item '" << item << "'";
          return false;
        }
        s.w_scales.push_back(f);
        if (comma == std::string::npos) {
          break;
        }
        pos = comma + 1;
      }
      have_w = true;
    } else {
      diags.Error("quant.entry", where) << "bad step field '" << tok << "'";
      return false;
    }
  }
  if (!have_seq || !have_kind || !have_scale || !have_zp || !have_w) {
    diags.Error("quant.entry", where)
        << "missing required field (need seq, kind, in_scale, in_zp, w_scales)";
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::string FormatStepLine(const StepQuantSpec& spec) {
  std::ostringstream os;
  os << "step seq=" << spec.seq << " kind=" << spec.kind
     << " label=" << SanitizeLabel(spec.label) << " in_scale=" << FormatFloat(spec.in_q.scale)
     << " in_zp=" << spec.in_q.zero_point << " w_scales=";
  for (size_t i = 0; i < spec.w_scales.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << FormatFloat(spec.w_scales[i]);
  }
  return os.str();
}

bool PositiveFinite(float v) { return v > 0.0f && std::isfinite(v); }

// Everything one pass over a recipe file finds.
struct RecipeScan : LineScan {
  QuantRecipe recipe;  // every well-formed step line, in file order
};

RecipeScan ScanRecipeFile(const std::string& path) {
  RecipeScan scan;
  std::map<int64_t, int> first_line;  // seq -> line that introduced it
  ScanLineArtifact(path, kRecipeFormat, scan, [&](int lineno, const std::string& line) {
    const std::string where = LineLocation(lineno);
    StepQuantSpec spec;
    if (!ParseStepLine(line, where, &spec, scan.diags)) {
      return;
    }
    if (!PositiveFinite(spec.in_q.scale)) {
      scan.diags.Error("quant.scale", where)
          << "activation scale " << spec.in_q.scale
          << " is not positive finite; dequant would produce zeros or NaN";
    }
    for (size_t c = 0; c < spec.w_scales.size(); ++c) {
      if (!PositiveFinite(spec.w_scales[c])) {
        scan.diags.Error("quant.scale", where)
            << "weight scale for output channel " << c << " is " << spec.w_scales[c]
            << "; per-channel scales must be positive finite";
      }
    }
    const auto [it, inserted] = first_line.emplace(spec.seq, lineno);
    if (!inserted) {
      scan.diags.Error("quant.duplicate", where)
          << "duplicate spec for plan step seq=" << spec.seq << " (first at line "
          << it->second << "; FindSeq resolves to the first)";
    }
    scan.recipe.steps.push_back(std::move(spec));
  });
  if (scan.readable && first_line.empty() && scan.diags.empty()) {
    scan.diags.Warning("quant.entry", path) << "recipe has a valid header but no step lines";
  }
  return scan;
}

}  // namespace

const StepQuantSpec* QuantRecipe::FindSeq(int64_t seq) const {
  for (const StepQuantSpec& s : steps) {
    if (s.seq == seq) {
      return &s;
    }
  }
  return nullptr;
}

bool SaveQuantRecipe(const QuantRecipe& recipe, const std::string& path, std::string* error) {
  std::ostringstream os;
  os << ArtifactHeaderLine(kQuantRecipeArtifact) << "\n";
  for (const StepQuantSpec& s : recipe.steps) {
    os << FormatStepLine(s) << "\n";
  }
  return WriteFileAtomically(path, os.str(), error);
}

bool LoadQuantRecipe(const std::string& path, QuantRecipe* recipe, std::string* error) {
  RecipeScan scan = ScanRecipeFile(path);
  for (const Diagnostic& d : scan.diags.items()) {
    if (d.severity == Severity::kError) {
      *error = d.ToString();
      return false;
    }
  }
  *recipe = std::move(scan.recipe);
  return true;
}

DiagnosticList VerifyQuantRecipeFile(const std::string& path) {
  return ScanRecipeFile(path).diags;
}

}  // namespace gmorph::quant
