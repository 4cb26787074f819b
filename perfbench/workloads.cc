#include "perfbench/workloads.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/fault/random_scenario.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace hogsim;

namespace {

// Soak scenarios RandomScenario(kScenarioBase + k), k < kScenarioCount,
// gray palette: the run seed picks one, so every seed replays a scenario
// bench_chaos_soak also runs.
constexpr std::uint64_t kScenarioBase = 1000;
constexpr std::uint64_t kScenarioCount = 4;

/// `count` churn-free sites of `pool` glideins each, as bench_scale builds
/// them: no preemption, no bursts, short queue delays.
std::vector<grid::SiteConfig> StableSites(int count, int pool) {
  std::vector<grid::SiteConfig> sites;
  sites.reserve(count);
  for (int i = 0; i < count; ++i) {
    grid::SiteConfig site;
    site.resource_name = "SCALE_" + std::to_string(i);
    site.domain = "site" + std::to_string(i) + ".scale.edu";
    site.pool_size = pool;
    site.queue_delay_mean_s = 60.0;
    site.node_mtbf_s = 1e12;
    site.burst_interval_s = 1e12;
    site.burst_fraction = 0.0;
    sites.push_back(std::move(site));
  }
  return sites;
}

/// bench_scale's schedule: `jobs` jobs cycling the 5/10/20/50-map loadgen
/// classes with Poisson arrivals.
std::vector<workload::ScheduledJob> SynthesizeSchedule(
    int jobs, Rng& rng, const workload::WorkloadConfig& wl) {
  static constexpr int kMapClasses[] = {5, 10, 20, 50};
  std::vector<workload::ScheduledJob> schedule;
  schedule.reserve(jobs);
  SimTime at = 0;
  for (int i = 0; i < jobs; ++i) {
    const int cls = i % 4;
    workload::ScheduledJob job;
    job.bin = cls + 1;
    job.maps = kMapClasses[cls];
    job.reduces = std::max(1, kMapClasses[cls] / 5);
    job.submit_time = at;
    job.name = "scale-" + std::to_string(i);
    schedule.push_back(std::move(job));
    at += FromSeconds(rng.Exponential(wl.interarrival_mean_s));
  }
  return schedule;
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      bool tiny) {
  Workload w;
  w.name = name;
  if (name == "wide-stable") {
    // 40 sites x 50 glideins: the wrapper-staging burst through the
    // master uplink and placement over 2,000 datanodes. Sized so that a
    // run takes a few seconds: the reference passes timed around a run
    // gauge the host's speed only that close to it.
    const int sites = tiny ? 4 : 40;
    const int pool = tiny ? 10 : 50;
    w.config.sites = StableSites(sites, pool);
    w.nodes = sites * pool;
    w.synthetic_jobs = tiny ? 8 : 30;
    w.availability_trace = false;
  } else if (name == "chaos-audit") {
    // The soak configuration: the five Listing-1 OSG sites with their
    // default preemption and burst volatility, gray-palette chaos, auditor
    // every 30 s, post-workload drain to full replication. Quarantine is on
    // so the health layer acts on the gray faults instead of only counting
    // them.
    w.nodes = tiny ? 55 : 150;
    w.config.quarantine.enabled = true;
    w.audit_period = 30 * kSecond;
    w.scenario_seed = kScenarioBase + seed % kScenarioCount;
    w.drain_deadline = 2 * kHour;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<workload::ScheduledJob> MakeSchedule(
    const Workload& workload, std::uint64_t seed,
    const workload::WorkloadConfig& wl) {
  Rng rng(seed);
  if (workload.synthetic_jobs > 0) {
    return SynthesizeSchedule(workload.synthetic_jobs, rng, wl);
  }
  return workload::GenerateFacebookSchedule(rng, wl);
}

fault::Scenario MakeScenario(const Workload& workload) {
  if (workload.scenario_seed == 0) return {};
  fault::RandomScenarioOptions options;
  options.gray = true;
  return fault::RandomScenario(workload.scenario_seed, options);
}

}  // namespace perfbench
