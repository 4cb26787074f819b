#include "perfbench/phases.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "src/check/auditor.h"
#include "src/exp/paper_runs.h"
#include "src/fault/injector.h"
#include "src/workload/runner.h"

namespace perfbench {

using namespace hogsim;

namespace {

using Clock = std::chrono::steady_clock;

/// Simulated length of one trace slice.
constexpr SimDuration kSlice = 60 * kSecond;

/// Nested host-time spans, appended to a RunReport in open order.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<Span>& spans)
      : spans_(spans), origin_(Clock::now()) {}

  void Open(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), Now(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span; returns its duration.
  double Close() {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end = Now();
    return span.end - span.start;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::vector<Span>& spans_;
  std::vector<int> open_;
  Clock::time_point origin_;
};

/// Counter and probe values by name, from the public registry snapshot.
using Counters = std::map<std::string, double>;

Counters ReadCounters(const sim::Simulation& sim) {
  Counters out;
  for (const obs::MetricSample& sample : sim.obs().metrics().Snapshot()) {
    if (sample.kind != obs::MetricSample::Kind::kHistogram) {
      out[sample.name] = sample.value;
    }
  }
  return out;
}

double Get(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The library's stepping loop (workload::RunSimUntil,
/// HogCluster::RunUntil) re-written to emit one Slice per `slice` of
/// simulated time: same predicate, same step, same deadline handling.
class SlicedLoop {
 public:
  SlicedLoop(hog::HogCluster& cluster, std::vector<Slice>& out)
      : cluster_(cluster), out_(out) {}

  bool Run(const char* phase, const std::function<bool()>& done,
           SimTime deadline, SimDuration step) {
    sim::Simulation& sim = cluster_.sim();
    Begin(phase);
    bool ok = true;
    while (!done()) {
      if (sim.now() >= deadline) {
        ok = false;
        break;
      }
      sim.RunUntil(std::min<SimTime>(sim.now() + step, deadline));
      if (sim.now() - open_.sim_start >= kSlice) {
        End();
        Begin(phase);
      }
    }
    if (sim.now() > open_.sim_start) End();
    return ok;
  }

 private:
  struct Mark {
    std::string phase;
    SimTime sim_start = 0;
    Clock::time_point host_start;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    double heartbeats = 0;
    double shuffle_fetched = 0;
    double repairs = 0;
  };

  void Begin(const char* phase) {
    const sim::Simulation& sim = cluster_.sim();
    const Counters c = ReadCounters(sim);
    open_ = {phase,
             sim.now(),
             Clock::now(),
             sim.executed(),
             sim.cancelled(),
             Get(c, "hdfs.heartbeat.received"),
             Get(c, "mr.shuffle.fetched"),
             Get(c, "hdfs.replication.completed")};
  }

  void End() {
    const auto host_end = Clock::now();
    const sim::Simulation& sim = cluster_.sim();
    const Counters c = ReadCounters(sim);
    Slice s;
    s.phase = open_.phase;
    s.sim_start_s = ToSeconds(open_.sim_start);
    s.sim_end_s = ToSeconds(sim.now());
    s.host_s =
        std::chrono::duration<double>(host_end - open_.host_start).count();
    s.fired = sim.executed() - open_.fired;
    s.cancelled = sim.cancelled() - open_.cancelled;
    s.heartbeats = static_cast<std::uint64_t>(
        Get(c, "hdfs.heartbeat.received") - open_.heartbeats);
    s.shuffle_fetched = static_cast<std::uint64_t>(
        Get(c, "mr.shuffle.fetched") - open_.shuffle_fetched);
    s.repairs = static_cast<std::uint64_t>(
        Get(c, "hdfs.replication.completed") - open_.repairs);
    s.active_flows = cluster_.network().active_flows();
    out_.push_back(std::move(s));
  }

  hog::HogCluster& cluster_;
  std::vector<Slice>& out_;
  Mark open_;
};

/// Everything a run builds before the clock first advances.
struct Setup {
  double construct_s = 0;  ///< HogCluster constructor, host seconds
  std::unique_ptr<hog::HogCluster> cluster;
  std::unique_ptr<check::Auditor> auditor;
  std::vector<workload::ScheduledJob> schedule;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<workload::WorkloadRunner> runner;

  /// Destroys in dependency order: nothing may outlive the cluster.
  void Teardown() {
    runner.reset();
    injector.reset();
    auditor.reset();
    cluster.reset();
  }
};

Setup BuildSetup(const Workload& w, std::uint64_t seed, SpanRecorder& rec) {
  Setup s;
  rec.Open("hog.construct");
  s.cluster = std::make_unique<hog::HogCluster>(seed, w.config);
  s.construct_s = rec.Close();
  hog::HogCluster& c = *s.cluster;

  rec.Open("check.create");
  check::Auditor::Options aopts;
  aopts.period = w.audit_period;  // 0: Start() arms nothing
  s.auditor = std::make_unique<check::Auditor>(
      c.sim(), &c.namenode(), &c.jobtracker(), &c.grid(), aopts);
  s.auditor->set_repl_controller(c.repl_controller());
  s.auditor->Start();
  rec.Close();

  rec.Open("workload.generate");
  workload::WorkloadConfig wl;
  s.schedule = MakeSchedule(w, seed, wl);
  fault::Scenario scenario = MakeScenario(w);
  if (!scenario.empty()) {
    s.injector = std::make_unique<fault::FaultInjector>(
        c.sim(),
        fault::InjectorTargets{&c.grid(), &c.network(), &c.namenode(),
                               &c.jobtracker()},
        std::move(scenario));
  }
  s.runner = std::make_unique<workload::WorkloadRunner>(
      c.sim(), c.jobtracker(), c.namenode(), wl);
  rec.Close();
  return s;
}

/// Committed output blocks of succeeded jobs left with no believed-alive
/// replica (exp::RunHogWorkload's outputs_lost).
std::uint64_t OutputsLost(hog::HogCluster& c) {
  const mr::JobTracker& jt = c.jobtracker();
  const hdfs::Namenode& nn = c.namenode();
  std::uint64_t lost = 0;
  for (std::size_t j = 0; j < jt.job_count(); ++j) {
    const mr::JobInfo& job = jt.job(static_cast<mr::JobId>(j));
    if (job.state != mr::JobState::kSucceeded ||
        job.output_file == hdfs::kInvalidFile) {
      continue;
    }
    for (const hdfs::BlockLocation& loc : nn.GetFileBlocks(job.output_file)) {
      if (loc.datanodes.empty() && nn.BlockCommitted(loc.block)) ++lost;
    }
  }
  return lost;
}

struct PhaseEvents {
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  double host_s = 0;
};

}  // namespace

RunReport RunOnce(const Workload& w, std::uint64_t seed, bool traced) {
  RunReport r;
  r.workload = w.name;
  r.seed = seed;
  r.traced = traced;
  SpanRecorder rec(r.spans);
  auto fail = [&r](std::string why) { r.failures.push_back(std::move(why)); };

  rec.Open("run");
  rec.Open("setup");
  Setup s = BuildSetup(w, seed, rec);
  r.setup_s = rec.Close();
  hog::HogCluster& c = *s.cluster;
  sim::Simulation& sim = c.sim();
  hdfs::Namenode& nn = c.namenode();
  SlicedLoop sliced(c, r.slices);

  // Events and host time of each clock-advancing phase.
  std::map<std::string, PhaseEvents> phase;
  auto phase_begin = [&](const std::string& name) {
    rec.Open(name);
    phase[name] = {sim.executed(), sim.cancelled(), 0};
  };
  auto phase_end = [&](const std::string& name) {
    PhaseEvents& p = phase[name];
    p.host_s = rec.Close();
    p.fired = sim.executed() - p.fired;
    p.cancelled = sim.cancelled() - p.cancelled;
    return p.host_s;
  };

  // Spin-up: wait for the target, then fall back to 95% of it.
  phase_begin("grid.spinup");
  c.RequestNodes(w.nodes);
  auto wait_for = [&](int count, SimTime deadline) {
    if (!traced) return c.WaitForNodes(count, deadline);
    return sliced.Run(
        "spinup", [&c, count] { return c.grid().running_nodes() >= count; },
        deadline, kSecond);
  };
  const bool reached =
      wait_for(w.nodes, exp::kSpinUpDeadline) ||
      wait_for(w.nodes * 95 / 100, sim.now() + exp::kSpinUpDeadline);
  const double spinup_s = phase_end("grid.spinup");
  if (!reached) fail("missed the node target and the 95% fallback");

  workload::WorkloadResult result;
  double place_s = 0;
  double placed_blocks = 0;
  double drain_s = 0;
  if (reached) {
    const double placed_before = Get(ReadCounters(sim), "hdfs.block.placed");
    rec.Open("hdfs.place");
    s.runner->PrepareInputs(s.schedule);
    place_s = rec.Close();
    placed_blocks =
        Get(ReadCounters(sim), "hdfs.block.placed") - placed_before;

    if (w.availability_trace) c.StartAvailabilityTrace();
    if (s.injector != nullptr) s.injector->Arm();

    phase_begin("mr.workload");
    s.runner->SubmitAll(s.schedule);
    const SimTime run_deadline = sim.now() + exp::kRunDeadline;
    if (traced) {
      workload::WorkloadRunner& runner = *s.runner;
      const bool finished = sliced.Run(
          "workload", [&runner] { return runner.Done(); }, run_deadline,
          kSecond);
      result = runner.Collect();
      result.completed = finished;
    } else {
      result = s.runner->Run(run_deadline);
    }
    phase_end("mr.workload");
    const int terminal = result.succeeded + result.failed;
    if (!result.completed ||
        terminal != static_cast<int>(s.schedule.size())) {
      fail("only " + std::to_string(terminal) + " of " +
           std::to_string(s.schedule.size()) +
           " jobs reached a terminal state");
    }

    if (w.drain_deadline > 0) {
      phase_begin("hdfs.drain");
      auto drained = [&nn] { return nn.under_replicated() == 0; };
      const SimTime drain_deadline = sim.now() + w.drain_deadline;
      if (traced) {
        sliced.Run("drain", drained, drain_deadline, 5 * kSecond);
      } else {
        c.RunUntil(drained, drain_deadline, 5 * kSecond);
      }
      drain_s = phase_end("hdfs.drain");
      rec.Open("check.outputs");
      const std::uint64_t lost = OutputsLost(c);
      rec.Close();
      if (lost > 0) {
        fail(std::to_string(lost) + " committed output blocks lost");
      }
    }
  }

  rec.Open("check.final_audit");
  s.auditor->AuditNow();
  const double audit_pass_s = rec.Close();
  if (s.auditor->violations() > 0) {
    fail(std::to_string(s.auditor->violations()) + " audit violations");
  }

  // Read everything the report needs before the cluster goes away; this
  // bookkeeping is excluded from run_s.
  rec.Open("collect");
  const Counters k = ReadCounters(sim);
  const std::uint64_t fired = sim.executed();
  const std::uint64_t cancelled = sim.cancelled();
  const std::uint64_t compactions = sim.compactions();
  const double delivered = static_cast<double>(c.network().delivered_bytes());
  const double audits = static_cast<double>(s.auditor->audits_run());
  const double injected =
      s.injector ? static_cast<double>(s.injector->injected()) : 0.0;
  const double skipped =
      s.injector ? static_cast<double>(s.injector->skipped()) : 0.0;
  const double collect_s = rec.Close();

  rec.Open("hog.teardown");
  s.Teardown();
  const double teardown_s = rec.Close();
  r.run_s = rec.Close() - collect_s;

  r.sim_response_s = result.response_time_s;
  char digest[256];
  std::snprintf(digest, sizeof digest,
                "response_s=%.17g succeeded=%d failed=%d fired=%llu "
                "cancelled=%llu placed=%.0f repairs=%.0f",
                result.response_time_s, result.succeeded, result.failed,
                static_cast<unsigned long long>(fired),
                static_cast<unsigned long long>(cancelled),
                Get(k, "hdfs.block.placed"),
                Get(k, "hdfs.replication.completed"));
  r.digest = digest;

  std::map<std::string, double>& m = r.layer;
  m["hog.construct_s"] = s.construct_s;
  m["hog.teardown_s"] = teardown_s;

  m["grid.spinup_s"] = spinup_s;
  m["grid.glideins_started"] = Get(k, "grid.glidein.started");
  m["grid.nodes_preempted"] = Get(k, "grid.node.preempted");

  m["sim.events_fired"] = static_cast<double>(fired);
  m["sim.events_cancelled"] = static_cast<double>(cancelled);
  m["sim.cancel_per_fired"] = Ratio(cancelled, fired);
  m["sim.queue_compactions"] = static_cast<double>(compactions);
  m["sim.events_per_host_s"] = Ratio(fired, r.run_s);
  for (const auto& [label, name] : {std::pair{"spinup", "grid.spinup"},
                                     std::pair{"workload", "mr.workload"},
                                     std::pair{"drain", "hdfs.drain"}}) {
    const PhaseEvents p = phase.count(name) ? phase[name] : PhaseEvents{};
    const std::string prefix = std::string("sim.") + label + ".";
    m[prefix + "fired"] = static_cast<double>(p.fired);
    m[prefix + "cancelled"] = static_cast<double>(p.cancelled);
    m[prefix + "host_s"] = p.host_s;
    m[prefix + "events_per_host_s"] = Ratio(p.fired, p.host_s);
  }

  m["net.delivered_gib"] = delivered / (1024.0 * 1024.0 * 1024.0);
  std::uint64_t flows_peak = 0;
  for (const Slice& slice : r.slices) {
    flows_peak = std::max(flows_peak, slice.active_flows);
  }
  m["net.active_flows_peak"] = static_cast<double>(flows_peak);

  m["hdfs.place_s"] = place_s;
  m["hdfs.place_us_per_block"] = Ratio(place_s * 1e6, placed_blocks);
  m["hdfs.blocks_placed"] = Get(k, "hdfs.block.placed");
  m["hdfs.heartbeats"] = Get(k, "hdfs.heartbeat.received");
  m["hdfs.drain_s"] = drain_s;
  const double repl_ok = Get(k, "hdfs.replication.completed");
  m["hdfs.repl_completed"] = repl_ok;
  m["hdfs.repl_ok_ratio"] =
      Ratio(repl_ok, repl_ok + Get(k, "hdfs.replication.failed"));
  m["hdfs.pipeline_recovered"] = Get(k, "hdfs.pipeline.recovered");

  m["mr.workload_s"] = phase.count("mr.workload") ? phase["mr.workload"].host_s
                                                  : 0.0;
  const double launched = Get(k, "mr.attempt.launched");
  m["mr.attempts_launched"] = launched;
  m["mr.attempt_ok_ratio"] = Ratio(Get(k, "mr.attempt.succeeded"), launched);
  const double local = Get(k, "mr.map.local");
  m["mr.map_local_ratio"] =
      Ratio(local, local + Get(k, "mr.map.rack") + Get(k, "mr.map.remote"));
  m["mr.maps_reexecuted"] = Get(k, "mr.map.reexecuted");
  m["mr.shuffle_fetched"] = Get(k, "mr.shuffle.fetched");
  m["mr.jobs_failed"] = result.failed;

  m["health.flaps"] = Get(k, "health.flaps");
  m["health.degraded_detected"] = Get(k, "health.degraded.detected");
  m["fault.injected"] = injected;
  m["fault.skipped"] = skipped;
  m["fault.applied_ratio"] = Ratio(injected, injected + skipped);

  m["check.audits"] = audits;
  m["check.audit_pass_ms"] = audit_pass_s * 1e3;
  m["check.est_share"] = Ratio(audits * audit_pass_s, r.run_s);
  return r;
}

}  // namespace perfbench
