#include "src/common/line_artifact.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace gmorph {
namespace {

constexpr std::string_view kFingerprintWord = "fingerprint";
constexpr size_t kFingerprintHexDigits = 16;

// Parses the whole of a non-empty `text` with `convert` (a strto* wrapper).
template <typename T, typename Convert>
bool ParseWhole(const std::string& text, T* out, Convert convert) {
  char* end = nullptr;
  errno = 0;
  const T value = convert(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

void ScanLineArtifact(const std::string& path, const LineArtifactFormat& format, LineScan& scan,
                      const std::function<void(int lineno, const std::string& line)>& on_line) {
  const std::string prefix = std::string(format.rule_prefix) + ".";
  std::ifstream in(path);
  if (!in) {
    scan.diags.Error(prefix + "open", path) << "cannot open " << format.noun << " file";
    return;
  }
  std::string line;
  if (!std::getline(in, line)) {
    scan.diags.Error(prefix + "header", path) << "empty " << format.noun << " file";
    return;
  }
  switch (CheckArtifactHeaderLine(line, format.header)) {
    case HeaderCheck::kMissing:
      scan.diags.Error(prefix + "header", path) << "missing " << format.header.kind << " header";
      return;
    case HeaderCheck::kWrongVersion:
      scan.diags.Error(prefix + "version", path)
          << "unsupported " << format.noun << " version '" << line << "'";
      return;
    case HeaderCheck::kOk:
      break;
  }
  scan.readable = true;

  bool saw_fingerprint = false;
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (format.build_fingerprint == nullptr || line.rfind(kFingerprintWord, 0) != 0) {
      on_line(lineno, line);
      continue;
    }
    // A file whose fingerprint lines do not all name this build is foreign,
    // wherever those lines sit; the loaders decide after the scan.
    const std::string& expected = format.build_fingerprint();
    const std::string value = line.substr(kFingerprintWord.size());
    const bool ours = value == " " + expected;
    scan.foreign |= !ours;
    if (saw_fingerprint) {
      scan.diags.Error(prefix + "fingerprint", LineLocation(lineno)) << "repeated fingerprint line";
      continue;
    }
    saw_fingerprint = true;
    if (value.size() != 1 + kFingerprintHexDigits || value[0] != ' ') {
      scan.diags.Error(prefix + "fingerprint", LineLocation(lineno))
          << "malformed fingerprint line (want 'fingerprint <16-hex>')";
    } else if (!ours) {
      scan.diags.Warning(prefix + "fingerprint", LineLocation(lineno))
          << "fingerprint " << value.substr(1) << " differs from this build (" << expected
          << "); " << format.foreign_effect;
    }
  }
  if (format.build_fingerprint != nullptr && !saw_fingerprint) {
    scan.diags.Warning(prefix + "fingerprint", path)
        << "no fingerprint line; the " << format.noun << " cannot be matched to a build";
  }
}

bool ParseStrictInt64(const std::string& text, int64_t* out) {
  int64_t value = 0;
  if (!ParseWhole(text, &value, [](const char* s, char** end) {
        return static_cast<int64_t>(std::strtoll(s, end, 10));
      }) ||
      errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseStrictDouble(const std::string& text, double* out) {
  return ParseWhole(text, out, [](const char* s, char** end) { return std::strtod(s, end); });
}

bool ParseStrictFloat(const std::string& text, float* out) {
  return ParseWhole(text, out, [](const char* s, char** end) { return std::strtof(s, end); });
}

bool WriteFileAtomically(const std::string& path, const std::string& contents,
                         std::string* error) {
  namespace fs = std::filesystem;
  const auto fail = [error](std::string why) {
    if (error != nullptr) {
      *error = std::move(why);
    }
    return false;
  };
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return fail("cannot open '" + tmp + "' for writing");
    }
    out << contents;
    out.flush();
    if (!out) {
      return fail("write to '" + tmp + "' failed");
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    return fail("rename to '" + path + "' failed: " + ec.message());
  }
  return true;
}

std::string ResolveCacheDir(const std::string& override_dir) {
  if (!override_dir.empty()) {
    return override_dir;
  }
  const char* env = std::getenv("GMORPH_CACHE_DIR");
  return env != nullptr && env[0] != '\0' ? env : "gmorph_bench_cache";
}

uint64_t Fnv1aHash(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace gmorph
