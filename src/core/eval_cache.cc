#include "src/core/eval_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/line_artifact.h"
#include "src/core/graph_io.h"

namespace gmorph {
namespace {

const std::string kHeader = ArtifactHeaderLine(kEvalCacheArtifact);

std::string FormatDouble(double v) {
  char buf[64];
  // %.17g round-trips IEEE doubles exactly, keeping cached drops/latencies
  // bit-identical to the run that produced them.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatHex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string EntryLine(const std::string& fingerprint, const EvaluationCache::Entry& e) {
  std::ostringstream os;
  os << "entry met=" << (e.met_target ? 1 : 0) << " early=" << (e.terminated_early ? 1 : 0)
     << " epochs=" << e.epochs_run << " flops=" << e.flops
     << " drop=" << FormatDouble(e.accuracy_drop) << " lat=" << FormatDouble(e.latency_ms)
     << " ftsec=" << FormatDouble(e.finetune_seconds) << " scores=";
  for (size_t i = 0; i < e.task_scores.size(); ++i) {
    os << (i > 0 ? "," : "") << FormatDouble(e.task_scores[i]);
  }
  if (e.task_scores.empty()) {
    os << "-";
  }
  os << " graph=" << (e.graph_file.empty() ? "-" : e.graph_file) << " fp=" << fingerprint;
  return os.str();
}

// Parses "key=value" where value ends at the next space. Returns false (and
// does not advance) on key mismatch or malformed token.
bool TakeField(std::istringstream& in, const char* key, std::string& value) {
  std::string token;
  if (!(in >> token)) {
    return false;
  }
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) {
    return false;
  }
  value = token.substr(prefix.size());
  return !value.empty();
}

bool ParseBoolField(std::istringstream& in, const char* key, bool& out) {
  std::string v;
  if (!TakeField(in, key, v) || (v != "0" && v != "1")) {
    return false;
  }
  out = v == "1";
  return true;
}

template <typename T>
bool ParseNumField(std::istringstream& in, const char* key, T& out) {
  std::string v;
  if (!TakeField(in, key, v)) {
    return false;
  }
  std::istringstream vs(v);
  vs >> out;
  return static_cast<bool>(vs) && vs.eof();
}

// Parses one "entry ..." line (after the leading token). Returns false on any
// syntax problem; `fingerprint` receives everything after "fp=".
bool ParseEntryLine(const std::string& line, std::string& fingerprint,
                    EvaluationCache::Entry& e) {
  // The fingerprint contains spaces, so split it off first at " fp=".
  const size_t fp_pos = line.find(" fp=");
  if (fp_pos == std::string::npos) {
    return false;
  }
  fingerprint = line.substr(fp_pos + 4);
  if (fingerprint.empty()) {
    return false;
  }
  std::istringstream in(line.substr(0, fp_pos));
  std::string head;
  in >> head;
  if (head != "entry") {
    return false;
  }
  std::string scores;
  std::string graph;
  if (!ParseBoolField(in, "met", e.met_target) || !ParseBoolField(in, "early", e.terminated_early) ||
      !ParseNumField(in, "epochs", e.epochs_run) || !ParseNumField(in, "flops", e.flops) ||
      !ParseNumField(in, "drop", e.accuracy_drop) || !ParseNumField(in, "lat", e.latency_ms) ||
      !ParseNumField(in, "ftsec", e.finetune_seconds) || !TakeField(in, "scores", scores) ||
      !TakeField(in, "graph", graph)) {
    return false;
  }
  e.graph_file = graph == "-" ? "" : graph;
  e.task_scores.clear();
  if (scores != "-") {
    std::istringstream ss(scores);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      double v = 0.0;
      if (!ParseStrictDouble(cell, &v)) {
        return false;
      }
      e.task_scores.push_back(v);
    }
    if (e.task_scores.empty()) {
      return false;
    }
  }
  return true;
}

const LineArtifactFormat kEvalCacheFormat{kEvalCacheArtifact, "cache", "evaluation cache"};

struct IndexScan : LineScan {
  std::map<std::string, EvaluationCache::Entry> entries;  // by fingerprint; the last line wins
};

// The one scan over an index file, for the loader and the linter alike.
// `expected_options` null = accept any options hash (the lint path).
IndexScan ScanIndexFile(const std::string& path, const uint64_t* expected_options) {
  IndexScan scan;
  bool saw_options = false;
  ScanLineArtifact(path, kEvalCacheFormat, scan, [&](int lineno, const std::string& line) {
    const std::string where = path + ":" + std::to_string(lineno);
    if (line.rfind("options ", 0) == 0) {
      uint64_t hash = 0;
      std::istringstream os(line.substr(8));
      os >> std::hex >> hash;
      if (!os) {
        scan.diags.Error("cache.options", where) << "malformed options hash";
        return;
      }
      saw_options = true;
      if (expected_options != nullptr && hash != *expected_options) {
        scan.diags.Error("cache.options", where)
            << "options hash " << FormatHex(hash) << " does not match expected "
            << FormatHex(*expected_options);
      }
      return;
    }
    if (line.rfind("entry", 0) == 0) {
      std::string fingerprint;
      EvaluationCache::Entry e;
      if (!ParseEntryLine(line, fingerprint, e)) {
        scan.diags.Error("cache.entry", where) << "malformed cache entry";
        return;
      }
      if (e.met_target && e.graph_file.empty()) {
        scan.diags.Error("cache.entry", where) << "met-target entry without a trained graph file";
        return;
      }
      scan.entries[fingerprint] = std::move(e);
      return;
    }
    scan.diags.Error("cache.entry", where) << "unrecognized line";
  });
  if (scan.readable && !saw_options) {
    scan.diags.Error("cache.options", path) << "missing options line";
  }
  return scan;
}

}  // namespace

EvaluationCache::EvaluationCache(std::string dir, uint64_t options_hash)
    : dir_(std::move(dir)), options_hash_(options_hash) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  index_path_ = dir_ + "/evalcache_" + FormatHex(options_hash_) + ".txt";
  if (std::filesystem::exists(index_path_, ec)) {
    IndexScan scan = ScanIndexFile(index_path_, &options_hash_);
    entries_ = std::move(scan.entries);
    load_diagnostics_ = std::move(scan.diags);
    header_written_ = load_diagnostics_.ok() || !entries_.empty();
  }
}

std::optional<EvaluationCache::CachedEval> EvaluationCache::Lookup(
    const std::string& fingerprint) {
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  CachedEval hit;
  hit.entry = it->second;
  if (hit.entry.met_target) {
    // The trained weights are required to (re)build the elite. Reloading runs
    // the GraphVerifier; a stale, corrupt, or mismatching graph is a miss.
    GraphLoadResult loaded = TryLoadGraph(dir_ + "/" + hit.entry.graph_file);
    if (!loaded.ok() || loaded.graph->Fingerprint() != fingerprint) {
      return std::nullopt;
    }
    hit.trained_graph = std::move(loaded.graph);
  }
  return hit;
}

void EvaluationCache::Store(const std::string& fingerprint, const Entry& entry,
                            const AbsGraph* trained_graph) {
  Entry stored = entry;
  stored.graph_file.clear();
  if (trained_graph != nullptr) {
    stored.graph_file = "evalgraph_" + FormatHex(options_hash_) + "_" +
                        FormatHex(Fnv1aHash(fingerprint)) + ".gmorph";
    if (!SaveGraph(dir_ + "/" + stored.graph_file, *trained_graph)) {
      stored.graph_file.clear();
      if (stored.met_target) {
        return;  // an elite entry without weights would be unusable; skip
      }
    }
  }
  std::ofstream out(index_path_, std::ios::app);
  if (!out) {
    return;
  }
  if (!header_written_) {
    out << kHeader << "\n" << "options " << FormatHex(options_hash_) << "\n";
    header_written_ = true;
  }
  out << EntryLine(fingerprint, stored) << "\n";
  out.flush();
  entries_[fingerprint] = std::move(stored);
}

DiagnosticList VerifyEvalCacheFile(const std::string& path) {
  IndexScan scan = ScanIndexFile(path, /*expected_options=*/nullptr);
  DiagnosticList& diags = scan.diags;
  const std::string dir = std::filesystem::path(path).parent_path().string();
  for (const auto& [fingerprint, e] : scan.entries) {
    if (e.graph_file.empty()) {
      continue;
    }
    const std::string graph_path = (dir.empty() ? "." : dir) + "/" + e.graph_file;
    GraphLoadResult loaded = TryLoadGraph(graph_path);
    if (!loaded.ok()) {
      diags.Error("cache.graph", graph_path) << "trained graph for cached entry fails to load";
      diags.Merge(loaded.diagnostics);
      continue;
    }
    if (loaded.graph->Fingerprint() != fingerprint) {
      diags.Error("cache.fingerprint", graph_path)
          << "trained graph fingerprint does not match its cache entry";
    }
  }
  if (diags.ok()) {
    diags.Note("cache.summary", path) << scan.entries.size() << " cache entries verified";
  }
  return diags;
}

}  // namespace gmorph
