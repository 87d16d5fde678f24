#include "src/kernels/machine.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "src/common/line_artifact.h"
#include "src/common/parallel_for.h"
#include "src/kernels/registry.h"
#include "src/kernels/tune_db.h"
#include "src/obs/timing.h"

namespace gmorph::kernels {
namespace {

// Probe sizes: the GEMM is large enough to reach the blocked/packed solvers'
// steady state but still runs in ~10ms per rep; the triad arrays total ~96MB
// so every pass streams from DRAM, not the LLC.
constexpr int64_t kGemmDim = 512;
constexpr int64_t kTriadElems = int64_t{1} << 23;  // 8M floats per array

double ProbePeakGemmGflops() {
  const int64_t n = kGemmDim;
  std::vector<float> a(static_cast<size_t>(n * n), 1.0f);
  std::vector<float> b(static_cast<size_t>(n * n), 0.5f);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  const ProblemDesc desc = GemmProblem(OpFamily::kGemmNN, n, n, n);
  const GemmSolver* solver = SolverRegistry::Global().ResolveGemm(desc);
  const GemmCall call = MakeGemmCall(desc, a.data(), b.data(), c.data(), /*accumulate=*/false);
  const double ms = MedianTimedMs([&] { solver->Run(desc, call); }, /*warmup=*/2,
                                  /*repeats=*/5);
  return ms > 0.0 ? static_cast<double>(2 * n * n * n) / (ms * 1e6) : 0.0;
}

double ProbeTriadGbps() {
  std::vector<float> a(static_cast<size_t>(kTriadElems), 0.0f);
  std::vector<float> b(static_cast<size_t>(kTriadElems), 1.0f);
  std::vector<float> c(static_cast<size_t>(kTriadElems), 2.0f);
  const float scale = 3.0f;
  const auto triad = [&] {
    ParallelFor(0, kTriadElems, /*grain=*/int64_t{1} << 16, [&](int64_t lo, int64_t hi) {
      float* pa = a.data();
      const float* pb = b.data();
      const float* pc = c.data();
      for (int64_t i = lo; i < hi; ++i) {
        pa[i] = pb[i] + scale * pc[i];
      }
    });
  };
  const double ms = MedianTimedMs(triad, /*warmup=*/1, /*repeats=*/5);
  // STREAM accounting: two reads + one write per element, no RFO term.
  const double bytes = static_cast<double>(kTriadElems) * 3.0 * sizeof(float);
  return ms > 0.0 ? bytes / (ms * 1e6) : 0.0;
}

}  // namespace

double MachineCeilings::RidgeIntensity() const {
  return triad_gbps > 0.0 ? peak_gflops / triad_gbps : 0.0;
}

MachineCeilings ProbeMachineCeilings() {
  MachineCeilings out;
  out.threads = KernelThreads();
  out.peak_gflops = ProbePeakGemmGflops();
  out.triad_gbps = ProbeTriadGbps();
  return out;
}

namespace {

const LineArtifactFormat kMachineFormat{kMachineArtifact, "machine", "machine ceiling",
                                        &BuildFingerprint, "this binary will re-probe"};

// Everything one pass over a machine-ceiling file finds.
struct MachineScan : LineScan {
  MachineCeilings ceilings;  // flagged values read as 0
};

MachineScan ScanMachineFile(const std::string& path) {
  MachineScan scan;
  std::map<std::string, int> first_line;  // key -> line that introduced it
  ScanLineArtifact(path, kMachineFormat, scan, [&](int lineno, const std::string& line) {
    const std::string where = LineLocation(lineno);
    std::istringstream in(line);
    std::string key, text, trailing;
    double value = 0.0;
    if (!(in >> key >> text) || !ParseStrictDouble(text, &value)) {
      scan.diags.Error("machine.entry", where)
          << "malformed machine entry (want '<key> <value>'): '" << line << "'";
      return;
    }
    if (in >> trailing) {
      scan.diags.Error("machine.entry", where)
          << "trailing content after machine entry value: '" << trailing << "'";
      return;
    }
    const bool threads = key == "threads";
    if (!threads && key != "peak_gflops" && key != "triad_gbps") {
      scan.diags.Error("machine.entry", where) << "unknown machine entry key '" << key << "'";
      return;
    }
    if (!(value > 0.0 && std::isfinite(value)) ||
        (threads && (value != std::floor(value) || value > std::numeric_limits<int>::max()))) {
      scan.diags.Error("machine.value", where)
          << key
          << (threads ? " must be a positive integer that fits in int" : " must be positive finite")
          << ", got " << text;
      value = 0.0;
    }
    MachineCeilings& c = scan.ceilings;
    if (threads) {
      c.threads = static_cast<int>(value);
    } else {
      (key == "peak_gflops" ? c.peak_gflops : c.triad_gbps) = value;
    }
    const auto [it, inserted] = first_line.emplace(key, lineno);
    if (!inserted) {
      scan.diags.Error("machine.entry", where)
          << "repeated " << key << " entry (first at line " << it->second << ")";
    }
  });
  if (scan.readable) {
    for (const char* required : {"threads", "peak_gflops", "triad_gbps"}) {
      if (first_line.find(required) == first_line.end()) {
        scan.diags.Error("machine.missing", path) << "required entry '" << required << "' absent";
      }
    }
  }
  return scan;
}

}  // namespace

MachineLoadResult LoadMachineCeilings(const std::string& path) {
  const MachineScan scan = ScanMachineFile(path);
  MachineLoadResult result;
  result.ceilings = scan.ceilings;
  result.ok = scan.ceilings.valid();
  result.fingerprint_mismatch = scan.foreign;
  return result;
}

DiagnosticList VerifyMachineFile(const std::string& path) { return ScanMachineFile(path).diags; }

bool SaveMachineCeilings(const std::string& path, const MachineCeilings& ceilings) {
  std::ostringstream out;
  out << ArtifactHeaderLine(kMachineArtifact) << "\n";
  out << "fingerprint " << BuildFingerprint() << "\n";
  out << "threads " << ceilings.threads << "\n";
  out << "peak_gflops " << ceilings.peak_gflops << "\n";
  out << "triad_gbps " << ceilings.triad_gbps << "\n";
  return WriteFileAtomically(path, out.str());
}

MachineCeilings LoadOrProbeMachineCeilings(const std::string& path, bool* probed) {
  const MachineLoadResult loaded = LoadMachineCeilings(path);
  if (loaded.ok && !loaded.fingerprint_mismatch &&
      loaded.ceilings.threads == KernelThreads()) {
    if (probed != nullptr) {
      *probed = false;
    }
    return loaded.ceilings;
  }
  const MachineCeilings fresh = ProbeMachineCeilings();
  SaveMachineCeilings(path, fresh);
  if (probed != nullptr) {
    *probed = true;
  }
  return fresh;
}

std::string ResolveMachinePath(const std::string& override_path) {
  if (!override_path.empty()) {
    return override_path;
  }
  if (const char* env = std::getenv("GMORPH_MACHINE_DB"); env != nullptr && *env != '\0') {
    return env;
  }
  return ResolveCacheDir() + "/gmorph.machine";
}

}  // namespace gmorph::kernels
