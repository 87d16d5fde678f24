#include "src/kernels/tune_db.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/line_artifact.h"
#include "src/kernels/registry.h"

namespace gmorph::kernels {
namespace {

const LineArtifactFormat kTuneDbFormat{kTuneDbArtifact, "tune", "tuning DB", &BuildFingerprint,
                                       "this binary will ignore all entries"};

std::string ComputeFingerprint() {
  std::ostringstream os;
#if defined(__VERSION__)
  os << "compiler=" << __VERSION__ << ";";
#endif
#if defined(__OPTIMIZE__)
  os << "opt=1;";
#else
  os << "opt=0;";
#endif
#if defined(NDEBUG)
  os << "ndebug=1;";
#else
  os << "ndebug=0;";
#endif
#if defined(__AVX512F__)
  os << "isa=avx512;";
#elif defined(__AVX2__)
  os << "isa=avx2;";
#elif defined(__AVX__)
  os << "isa=avx;";
#elif defined(__SSE2__)
  os << "isa=sse2;";
#elif defined(__ARM_NEON)
  os << "isa=neon;";
#else
  os << "isa=scalar;";
#endif
  os << "ptr=" << sizeof(void*) * 8;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1aHash(os.str()));
  return buf;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Parses one entry line; a grammar defect is reported as tune.entry at `where`.
bool ParseEntryLine(const std::string& line, const std::string& where, ProblemDesc* desc,
                    TuneDb::Entry* entry, DiagnosticList& diags) {
  std::istringstream is(line);
  std::string tok;
  is >> tok;
  if (tok != "entry") {
    diags.Error("tune.entry", where) << "expected 'entry'";
    return false;
  }
  ProblemDesc d;
  TuneDb::Entry e;
  bool have_op = false, have_m = false, have_k = false, have_n = false, have_threads = false;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      diags.Error("tune.entry", where) << "bad token '" << tok << "'";
      return false;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    int64_t iv = 0;
    if (key == "op") {
      if (!OpFamilyFromName(val, &d.op)) {
        diags.Error("tune.entry", where) << "unknown op '" << val << "'";
        return false;
      }
      have_op = true;
    } else if (key == "dtype") {
      // Optional: v1 DBs written before the dtype dimension carry no token
      // and load as f32 (the ProblemDesc default), so old files stay valid.
      if (!DTypeFromName(val, &d.dtype)) {
        diags.Error("tune.entry", where) << "unknown dtype '" << val << "'";
        return false;
      }
    } else if (key == "m" && ParseStrictInt64(val, &d.m)) {
      have_m = true;
    } else if (key == "k" && ParseStrictInt64(val, &d.k)) {
      have_k = true;
    } else if (key == "n" && ParseStrictInt64(val, &d.n)) {
      have_n = true;
    } else if (key == "aux0" && ParseStrictInt64(val, &d.aux0)) {
    } else if (key == "aux1" && ParseStrictInt64(val, &d.aux1)) {
    } else if (key == "threads" && ParseStrictInt64(val, &iv) && iv >= 1 &&
               iv <= std::numeric_limits<int>::max()) {
      d.threads = static_cast<int>(iv);
      have_threads = true;
    } else if (key == "solver" && !val.empty()) {
      e.solver = val;
    } else if (key == "gflops" && ParseStrictDouble(val, &e.gflops)) {
    } else if (key == "ms" && ParseStrictDouble(val, &e.ms)) {
    } else {
      diags.Error("tune.entry", where) << "bad entry field '" << tok << "'";
      return false;
    }
  }
  if (!have_op || !have_m || !have_k || !have_n || !have_threads || e.solver.empty()) {
    diags.Error("tune.entry", where) << "missing required field (op/m/k/n/threads/solver)";
    return false;
  }
  if (d.m < 1 || d.k < 1 || d.n < 1) {
    diags.Error("tune.entry", where) << "non-positive dimension";
    return false;
  }
  *desc = d;
  *entry = std::move(e);
  return true;
}

std::string FormatEntryLine(const ProblemDesc& desc, const TuneDb::Entry& entry) {
  std::ostringstream os;
  os << "entry op=" << OpFamilyName(desc.op);
  if (desc.dtype != DType::kF32) {
    // f32 entries keep the historical spelling so pre-dtype DB files and a
    // resave of one stay byte-identical.
    os << " dtype=" << DTypeName(desc.dtype);
  }
  os << " m=" << desc.m << " k=" << desc.k
     << " n=" << desc.n << " aux0=" << desc.aux0 << " aux1=" << desc.aux1
     << " threads=" << desc.threads << " solver=" << entry.solver
     << " gflops=" << FormatDouble(entry.gflops) << " ms=" << FormatDouble(entry.ms);
  return os.str();
}

// Everything one pass over a tuning-DB file finds.
struct TuneDbScan : LineScan {
  int flagged = 0;  // entry lines with an error
  std::vector<std::pair<ProblemDesc, TuneDb::Entry>> entries;  // the rest, in file order
};

TuneDbScan ScanTuneDbFile(const std::string& path) {
  TuneDbScan scan;
  std::map<ProblemDesc, int> first_line;  // desc -> line that introduced it
  ScanLineArtifact(path, kTuneDbFormat, scan, [&](int lineno, const std::string& line) {
    const std::string where = LineLocation(lineno);
    ProblemDesc desc;
    TuneDb::Entry entry;
    if (!ParseEntryLine(line, where, &desc, &entry, scan.diags)) {
      ++scan.flagged;
      return;
    }
    // Registry family is keyed by (op, dtype): int8 entries must name a
    // qgemm.* solver, f32 entries a gemm.* one.
    entry.resolved = SolverRegistry::Global().FindForDesc(desc, entry.solver);
    const bool usable = entry.resolved != nullptr && entry.resolved->IsApplicable(desc);
    if (entry.resolved == nullptr) {
      scan.diags.Error("tune.solver", where)
          << "solver '" << entry.solver << "' is not registered for " << OpFamilyName(desc.op)
          << " " << DTypeName(desc.dtype);
    } else if (!usable) {
      scan.diags.Error("tune.applicable", where)
          << "solver '" << entry.solver << "' rejects " << ProblemKey(desc);
    }
    const auto [it, inserted] = first_line.emplace(desc, lineno);
    if (!inserted) {
      scan.diags.Error("tune.duplicate", where)
          << "duplicate entry for " << ProblemKey(desc) << " (first at line " << it->second
          << "; the loader keeps the last)";
    }
    if (usable) {
      scan.entries.emplace_back(desc, std::move(entry));
    } else {
      ++scan.flagged;
    }
  });
  return scan;
}

}  // namespace

const std::string& BuildFingerprint() {
  static const std::string fp = ComputeFingerprint();
  return fp;
}

TuneDb::LoadStats TuneDb::Load(const std::string& path) {
  TuneDbScan scan = ScanTuneDbFile(path);
  LoadStats stats;
  stats.ok = scan.readable;
  stats.skipped = scan.flagged;
  stats.fingerprint_mismatch = scan.foreign;
  if (scan.foreign) {
    return stats;  // a foreign build's winners are not trusted
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (auto& [desc, entry] : scan.entries) {
    entries_[desc] = std::move(entry);
    ++stats.entries;
  }
  return stats;
}

bool TuneDb::Save(const std::string& path) const {
  std::ostringstream out;
  out << ArtifactHeaderLine(kTuneDbArtifact) << "\n";
  out << "fingerprint " << BuildFingerprint() << "\n";
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (const auto& [desc, entry] : entries_) {
      out << FormatEntryLine(desc, entry) << "\n";
    }
  }
  return WriteFileAtomically(path, out.str());
}

DiagnosticList VerifyTuneDbFile(const std::string& path) { return ScanTuneDbFile(path).diags; }

const TuneDb::Entry* TuneDb::Lookup(const ProblemDesc& desc) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = entries_.find(desc);
  return it == entries_.end() ? nullptr : &it->second;
}

void TuneDb::Record(const ProblemDesc& desc, Entry entry) {
  entry.resolved = SolverRegistry::Global().FindForDesc(desc, entry.solver);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  entries_[desc] = std::move(entry);
}

int64_t TuneDb::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return static_cast<int64_t>(entries_.size());
}

std::string ResolveTuneDbPath(const std::string& override_path) {
  if (!override_path.empty()) {
    return override_path;
  }
  if (const char* env = std::getenv("GMORPH_TUNE_DB"); env != nullptr && *env != '\0') {
    return env;
  }
  return ResolveCacheDir() + "/gmorph.tunedb";
}

namespace {

std::mutex g_global_db_mutex;
std::shared_ptr<TuneDb> g_global_db_owner;
std::atomic<TuneDb*> g_global_db{nullptr};
// Guarded by g_global_db_mutex. Set by the first explicit install or the
// first lazy env probe, whichever comes first: an early SetGlobalTuneDb must
// not be clobbered later by a stale on-disk copy of $GMORPH_TUNE_DB.
bool g_global_db_resolved = false;
// Release-published once resolution happened, so the per-dispatch fast path
// is one atomic load even when no DB is installed (g_global_db stays null).
std::atomic<bool> g_global_db_probed{false};

void InstallGlobalTuneDbLocked(std::shared_ptr<TuneDb> db) {
  g_global_db_resolved = true;
  g_global_db.store(db.get(), std::memory_order_release);
  g_global_db_owner = std::move(db);  // keeps the previous DB alive until here
  g_global_db_probed.store(true, std::memory_order_release);
}

}  // namespace

void SetGlobalTuneDb(std::shared_ptr<TuneDb> db) {
  std::lock_guard<std::mutex> lock(g_global_db_mutex);
  InstallGlobalTuneDbLocked(std::move(db));
}

TuneDb* GlobalTuneDb() {
  if (g_global_db_probed.load(std::memory_order_acquire)) {
    return g_global_db.load(std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lock(g_global_db_mutex);
  if (!g_global_db_resolved) {
    g_global_db_resolved = true;
    if (const char* env = std::getenv("GMORPH_TUNE_DB"); env != nullptr && *env != '\0') {
      auto db = std::make_shared<TuneDb>();
      db->Load(env);
      InstallGlobalTuneDbLocked(std::move(db));
    }
    g_global_db_probed.store(true, std::memory_order_release);
  }
  return g_global_db.load(std::memory_order_acquire);
}

}  // namespace gmorph::kernels
