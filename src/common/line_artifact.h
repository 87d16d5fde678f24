// One reader for the line-based "gmorph-<kind> v1" text artifacts: tuning DBs,
// machine ceilings, quantization recipes and evaluation-cache indexes.
//
// Each format has exactly one scan, in its owning module, built on
// ScanLineArtifact. The scan emits every <kind>.* diagnostic the format
// defines and collects what parsed. The loader is "scan, then apply this
// format's policy"; the linter (`gmorph_cli --verify`) is "scan, keep the
// diagnostics". The loader is the linter, so the two cannot disagree about a
// line.
//
// The reader owns what the formats share:
//   - opening the file and checking its header (<prefix>.open,
//     <prefix>.header, <prefix>.version);
//   - skipping blank and '#' comment lines, and handing every other line to
//     the format with its 1-based line number;
//   - the "fingerprint <16-hex>" line of build-bound formats (tunedb and
//     machine), reported as <prefix>.fingerprint: malformed or repeated is an
//     error, a foreign build or a missing line is a warning;
//   - strict number fields, the atomic tmp+rename write, the cache directory
//     and the FNV-1a hash that fingerprints and cache keys use.
#ifndef GMORPH_SRC_COMMON_LINE_ARTIFACT_H_
#define GMORPH_SRC_COMMON_LINE_ARTIFACT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/artifact_header.h"
#include "src/common/diagnostics.h"

namespace gmorph {

// How one format names its rules and reads in messages.
struct LineArtifactFormat {
  ArtifactHeaderSpec header;
  const char* rule_prefix;  // "tune": rules tune.open, tune.header, ...
  const char* noun;         // "tuning DB", as in "cannot open tuning DB file"
  // Build-bound formats: the fingerprint a "fingerprint" line must carry, and
  // what a foreign one means to the loader. Null for formats without one.
  const std::string& (*build_fingerprint)() = nullptr;
  const char* foreign_effect = nullptr;  // "this binary will re-probe"
};

// What one scan found. Each format's scan result extends it with what parsed.
struct LineScan {
  DiagnosticList diags;   // every <prefix>.* finding, in file order
  bool readable = false;  // opened with a valid header; lines were delivered
  bool foreign = false;   // some fingerprint line is not this build's
};

// Scans `path`, reporting header and fingerprint findings into `scan` and
// calling `on_line(lineno, line)` for every other non-blank, non-comment line.
void ScanLineArtifact(const std::string& path, const LineArtifactFormat& format, LineScan& scan,
                      const std::function<void(int lineno, const std::string& line)>& on_line);

// "line 7": the location every per-line finding of tunedb, machine and quant
// files anchors to.
inline std::string LineLocation(int lineno) { return "line " + std::to_string(lineno); }

// Strict fields: the whole token must parse; empty, partial, and (for
// integers) out-of-range tokens are rejected.
bool ParseStrictInt64(const std::string& text, int64_t* out);
bool ParseStrictDouble(const std::string& text, double* out);
bool ParseStrictFloat(const std::string& text, float* out);

// Writes `contents` to "<path>.tmp" and renames it over `path`, creating the
// parent directory first, so readers never see a half-written artifact. On
// failure returns false and, when `error` is non-null, says why.
bool WriteFileAtomically(const std::string& path, const std::string& contents,
                         std::string* error = nullptr);

// The artifact cache directory: `override_dir` if non-empty, else
// $GMORPH_CACHE_DIR, else "gmorph_bench_cache".
std::string ResolveCacheDir(const std::string& override_dir = "");

// 64-bit FNV-1a over bytes: build fingerprints, cache keys and option hashes.
uint64_t Fnv1aHash(std::string_view bytes);

}  // namespace gmorph

#endif  // GMORPH_SRC_COMMON_LINE_ARTIFACT_H_
