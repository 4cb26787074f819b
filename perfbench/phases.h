// One benchmark run: builds a HOG cluster for a workload and drives it
// phase by phase through the simulator's public API, timing each call
// from the outside with std::chrono::steady_clock.
//
// Phases: construct -> spin-up -> placement -> workload -> drain -> final
// audit -> teardown. An untraced run calls the library's own loops
// (HogCluster::WaitForNodes, WorkloadRunner::Run, HogCluster::RunUntil).
// A traced run replaces each of those three with the same loop written
// here: Simulation::RunUntil in the library's step, stopping on the same
// predicate and deadline, and sampling host time and counter deltas once
// per simulated-time slice. Both must produce the same digest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {

/// A timed call. Times are host seconds since the run started.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index into RunReport::spans; -1 for the root
};

/// Host time and counter deltas over one simulated-time slice of a phase.
struct Slice {
  std::string phase;
  double sim_start_s = 0;
  double sim_end_s = 0;
  double host_s = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t shuffle_fetched = 0;
  std::uint64_t repairs = 0;
  std::uint64_t active_flows = 0;  ///< sampled at the slice's end
};

struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;

  // End-to-end (host seconds unless named otherwise).
  double run_s = 0;
  double setup_s = 0;
  double sim_response_s = 0;  ///< simulated workload response time

  /// Simulated outcome that a host-speed-only change must leave intact.
  std::string digest;
  /// Run-contract breaches; empty when the run is good.
  std::vector<std::string> failures;

  /// Per-layer numbers, by the names BENCHMARK.json lists.
  std::map<std::string, double> layer;

  std::vector<Span> spans;
  std::vector<Slice> slices;  ///< traced runs only
};

/// Runs `workload` once with run seed `seed`, through the sliced loops
/// when `traced`. Contract breaches are reported in RunReport::failures,
/// not thrown.
RunReport RunOnce(const Workload& workload, std::uint64_t seed, bool traced);

}  // namespace perfbench
