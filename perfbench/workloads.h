// The benchmark's workloads: each is one HOG configuration plus the inputs
// (schedule, fault scenario) the benchmark generates from the run seed.
// Nothing here runs the simulation; see phases.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/scenario.h"
#include "src/hog/hog_cluster.h"
#include "src/workload/facebook.h"

namespace perfbench {

struct Workload {
  std::string name;
  hogsim::hog::HogConfig config;
  /// Glideins requested; the spin-up falls back to 95% of this, as the
  /// paper-run harness does under churn.
  int nodes = 0;
  /// 0 = the paper's 88-job Facebook schedule; otherwise the length of
  /// bench_scale's synthesized four-class schedule.
  int synthetic_jobs = 0;
  /// Sample the Fig. 5 availability series during the workload, as the
  /// paper-run harness (exp::RunHogWorkload) does; bench_scale does not.
  bool availability_trace = true;
  /// Periodic auditor tick; 0 = only the final AuditNow() pass.
  hogsim::SimDuration audit_period = 0;
  /// Gray-palette RandomScenario seed armed at workload start; 0 = none.
  std::uint64_t scenario_seed = 0;
  /// After the workload: run until the under-replication queue is empty
  /// or this much simulated time passes; 0 = no drain phase.
  hogsim::SimDuration drain_deadline = 0;
};

/// Builds workload `name` for run seed `seed`. `tiny` shrinks the grid for
/// the self-test (same phases, seconds instead of minutes of host time).
/// Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed, bool tiny);

/// The job schedule the workload replays; draws only from its own Rng
/// seeded with `seed`, never from the cluster's.
std::vector<hogsim::workload::ScheduledJob> MakeSchedule(
    const Workload& workload, std::uint64_t seed,
    const hogsim::workload::WorkloadConfig& wl);

/// The fault scenario armed at workload start (empty when none).
hogsim::fault::Scenario MakeScenario(const Workload& workload);

}  // namespace perfbench
