// perfbench_driver: one benchmark measurement per process, so peak RSS is
// never inherited from an earlier run. perfbench/run.py launches it and
// aggregates; each mode prints one JSON object on stdout. A run is
// bracketed by passes of the reference kernel (reference.h), whose mean
// time it reports as ref_s.
//
//   perfbench_driver run --workload W --seed N [--traced] [--tiny]
//                        [--trace-out PATH]
//   perfbench_driver provenance
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/phases.h"
#include "perfbench/reference.h"
#include "perfbench/workloads.h"

namespace {

using perfbench::RunReport;

/// Reference passes timed before and after the run. Host speed on a shared
/// machine changes within seconds, so both ends of the run are sampled.
constexpr int kReferencePasses = 3;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Restarts the peak-RSS count from the current resident set, so the peak
/// read after the run is the run's own. Returns false where the kernel does
/// not allow it.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  return static_cast<bool>(clear.flush());
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Mean host seconds of `kReferencePasses` reference passes.
double TimeReference() {
  double total = 0;
  for (int i = 0; i < kReferencePasses; ++i) {
    total += perfbench::ReferenceSeconds();
  }
  return total / kReferencePasses;
}

std::string ReportJson(const RunReport& r, double peak_rss_mib,
                       double ref_s) {
  std::ostringstream out;
  out << "{\"workload\": " << Quote(r.workload) << ", \"seed\": " << r.seed
      << ", \"traced\": " << (r.traced ? "true" : "false")
      << ", \"run_s\": " << Num(r.run_s) << ", \"setup_s\": " << Num(r.setup_s)
      << ", \"ref_s\": " << Num(ref_s)
      << ", \"sim_response_s\": " << Num(r.sim_response_s)
      << ", \"peak_rss_mib\": " << Num(peak_rss_mib)
      << ", \"digest\": " << Quote(r.digest) << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? ", " : "") << Quote(r.failures[i]);
  }
  out << "], \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : r.layer) {
    out << (first ? "" : ", ") << Quote(name) << ": " << Num(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

/// Spans and slices of a traced run, for reading by hand or by run.py.
bool WriteTrace(const RunReport& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::string run_id = r.workload + "/" + std::to_string(r.seed);
  out << "{\"run\": " << Quote(run_id) << ",\n \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const perfbench::Span& s = r.spans[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
        << ", \"name\": " << Quote(s.name) << ", \"start\": " << Num(s.start)
        << ", \"end\": " << Num(s.end) << ", \"parent\": " << s.parent
        << ", \"run\": " << Quote(run_id) << "}";
  }
  out << "],\n \"slices\": [";
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    const perfbench::Slice& s = r.slices[i];
    out << (i ? ",\n  " : "\n  ") << "{\"phase\": " << Quote(s.phase)
        << ", \"sim_start_s\": " << Num(s.sim_start_s)
        << ", \"sim_end_s\": " << Num(s.sim_end_s)
        << ", \"host_s\": " << Num(s.host_s) << ", \"fired\": " << s.fired
        << ", \"cancelled\": " << s.cancelled
        << ", \"heartbeats\": " << s.heartbeats
        << ", \"shuffle_fetched\": " << s.shuffle_fetched
        << ", \"repairs\": " << s.repairs
        << ", \"active_flows\": " << s.active_flows << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string ProvenanceJson() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream out;
  out << "{\"optimized\": " << (optimized ? "true" : "false")
      << ", \"ndebug\": " << (ndebug ? "true" : "false")
      << ", \"compiler\": " << Quote(kCompiler)
      << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << Quote(PERFBENCH_CXX_FLAGS) << "}";
  return out.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver run --workload W --seed N [--traced] "
               "[--tiny] [--trace-out PATH]\n"
               "       perfbench_driver provenance\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  bool traced = false;
  bool tiny = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--tiny") {
      tiny = true;
    } else {
      return Usage();
    }
  }

  try {
    if (mode == "provenance") {
      std::printf("%s\n", ProvenanceJson().c_str());
      return 0;
    }
    if (mode != "run" || workload.empty()) return Usage();
    const perfbench::Workload w =
        perfbench::MakeWorkload(workload, seed, tiny);
    perfbench::ReferenceSeconds();  // warm-up: loads the kernel's code
    const double ref_before = TimeReference();
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "perfbench_driver: cannot reset peak RSS\n");
      return 1;
    }
    const RunReport report = perfbench::RunOnce(w, seed, traced);
    const double peak_rss_mib = PeakRssMib();
    const double ref_s = (ref_before + TimeReference()) / 2;
    if (!trace_out.empty() && !WriteTrace(report, trace_out)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("%s\n", ReportJson(report, peak_rss_mib, ref_s).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
