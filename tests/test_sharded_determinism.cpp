// K-invariance property tests for the sharded simulation core
// (sim/sharded.h, DESIGN.md §11).
//
// The contract under test: run_sharded_simulation's output is a pure
// function of its inputs and *independent of the shard count* — the same
// configuration at K ∈ {1, 2, 4, 7} must produce bit-identical SimResult
// checksums, byte-identical time-series CSVs and byte-identical audit
// JSONL, and a traced run byte-identical Chrome trace JSON.  Two sharded
// goldens (K = 1 and K = 4 on the fig5-style diurnal configuration) are
// pinned so cross-K agreement cannot drift silently as a group, and the
// sequential engine's lossy-channel golden is re-asserted to prove the
// sharded work left run_simulation untouched.
//
// Both engines drive one control loop (sim/control_loop.h), so the last
// section also pins its observable output byte for byte — SimResult plus
// FNV-1a hashes of the audit JSONL and time-series CSV — for the sharded
// degraded run and two sequential runs (lossy channel; scripted outages
// with safe mode and warm restart).  The scalar goldens alone would let a
// change that shifts every K the same way, or only the records, pass.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/policies.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace gc {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

// FNV-1a, 64 bit, over raw bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Same shape as the sequential golden checksum (tests/
// test_determinism_golden.cpp): every scalar plus the timeline, not the
// counters snapshot.
std::uint64_t checksum(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, r.completed_jobs);
  h = mix(h, r.dropped_jobs);
  h = mix(h, r.shed_jobs);
  h = mix(h, r.failures);
  h = mix(h, r.repairs);
  h = mix(h, r.boot_timeouts);
  h = mix(h, r.jobs_redispatched);
  h = mix(h, r.jobs_lost);
  h = mix(h, r.sim_time_s);
  h = mix(h, r.mean_response_s);
  h = mix(h, r.p95_response_s);
  h = mix(h, r.p99_response_s);
  h = mix(h, r.max_response_s);
  h = mix(h, r.job_violation_ratio);
  h = mix(h, r.window_violation_ratio);
  h = mix(h, r.energy.busy_j);
  h = mix(h, r.energy.idle_j);
  h = mix(h, r.energy.transition_j);
  h = mix(h, r.energy.off_j);
  h = mix(h, r.mean_power_w);
  h = mix(h, r.boots);
  h = mix(h, r.shutdowns);
  h = mix(h, r.mean_serving);
  h = mix(h, r.mean_speed);
  h = mix(h, r.mean_jobs_in_system);
  h = mix(h, r.mean_available);
  h = mix(h, r.unavailability);
  h = mix(h, r.shed_ratio);
  h = mix(h, r.infeasible_ticks);
  h = mix(h, r.infeasible_ratio);
  for (const TimelinePoint& p : r.timeline) {
    h = mix(h, p.time);
    h = mix(h, p.arrival_rate);
    h = mix(h, static_cast<std::uint64_t>(p.serving));
    h = mix(h, static_cast<std::uint64_t>(p.powered));
    h = mix(h, static_cast<std::uint64_t>(p.available));
    h = mix(h, p.speed);
    h = mix(h, p.power_watts);
    h = mix(h, p.jobs_in_system);
    h = mix(h, p.window_mean_response_s);
    h = mix(h, p.admit_probability);
  }
  return h;
}

constexpr unsigned kShardCounts[] = {1, 2, 4, 7};

// Fixed-seed sharded configuration: the bench cluster driven by the
// combined DCP policy over a concrete arrival trace sampled once from a
// scenario profile (every K replays the *same* arrivals).
struct ShardedRun {
  ClusterConfig config = bench_cluster_config();
  PolicyOptions popts;
  Scenario scenario;
  SimulationOptions extra;
  std::uint64_t workload_seed = 97;

  ShardedRun() {
    popts.dcp = bench_dcp_params();
    scenario = make_scenario(ScenarioKind::kDiurnal, config, /*level=*/0.7,
                             /*seed=*/1234, /*day_s=*/2400.0);
  }

  [[nodiscard]] SimResult run(unsigned num_shards, DecisionAuditLog* audit,
                              TimeSeriesRecorder* timeseries,
                              TraceCollector* trace_sink = nullptr) const {
    const Trace trace =
        Trace::from_profile(*scenario.profile, scenario.horizon_s, workload_seed);
    const Distribution job_size = Distribution::exponential(config.mu_max);
    const Provisioner solver(config);
    const auto controller = make_policy(PolicyKind::kCombinedDcp, &solver, popts);
    ClusterOptions cluster;
    cluster.num_servers = config.max_servers;
    cluster.power = config.power;
    cluster.transition = config.transition;
    cluster.initial_active = config.max_servers;
    cluster.dispatch_seed = 4242;
    SimulationOptions sim = extra;
    sim.t_ref_s = config.t_ref_s;
    sim.warmup_s = popts.dcp.long_period_s;
    sim.record_interval_s = 120.0;
    sim.audit = audit;
    sim.timeseries = timeseries;
    sim.trace = trace_sink;
    ShardedOptions sharded;
    sharded.num_shards = num_shards;
    return run_sharded_simulation(trace, job_size, workload_seed, cluster,
                                  *controller, sim, sharded);
  }
};

// The fig8-style degraded configuration: scripted + background faults,
// boot hangs, admission control and a lossy, latent control channel with
// the ack/retry actuator.
ShardedRun make_degraded_run() {
  ShardedRun r;
  r.extra.faults.script = {{600.0, 0, 900.0},
                           {600.0, 1, 900.0},
                           {601.0, 2, 1200.0},
                           {1200.0, 3, std::numeric_limits<double>::infinity()}};
  r.extra.faults.mtbf_s = 20000.0;
  r.extra.faults.mttr_s = 300.0;
  r.extra.faults.boot_hang_prob = 0.05;
  r.extra.faults.seed = 99;
  r.extra.admission.enabled = true;
  r.extra.admission.mu_max = r.config.mu_max;
  r.extra.channel.enabled = true;
  r.extra.channel.telemetry = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                               /*latency_jitter_s=*/0.1};
  r.extra.channel.command = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                             /*latency_jitter_s=*/0.1};
  r.extra.channel.ack = {/*drop_prob=*/0.05, /*latency_base_s=*/0.05,
                         /*latency_jitter_s=*/0.1};
  r.extra.actuator.enabled = true;
  r.extra.actuator.ack_timeout_s = 2.0;
  r.popts.staleness.horizon_s = 60.0;
  return r;
}

// The degraded configuration plus two scripted controller outages long
// enough to trip the watchdog into safe mode, with a warm restart at each
// recovery.
ShardedRun make_outage_run() {
  ShardedRun r = make_degraded_run();
  r.extra.controller_faults.script = {{900.0, 120.0}, {1500.0, 200.0}};
  r.extra.controller_faults.recovery = ControllerRecoveryMode::kWarmRestart;
  return r;
}

[[nodiscard]] std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[nodiscard]] std::string csv_bytes(const TimeSeriesRecorder& ts,
                                    const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("gc_sharded_determinism_" + tag + ".csv");
  ts.write_csv(path);
  std::string bytes = file_bytes(path);
  std::filesystem::remove(path);
  return bytes;
}

struct RunArtifacts {
  std::uint64_t sum = 0;
  std::string audit_jsonl;
  std::string ts_csv;
  SimResult result;
};

[[nodiscard]] RunArtifacts run_with_sinks(const ShardedRun& spec, unsigned k,
                                          const std::string& tag) {
  DecisionAuditLog audit;
  TimeSeriesRecorder timeseries;
  RunArtifacts out;
  out.result = spec.run(k, &audit, &timeseries);
  out.sum = checksum(out.result);
  out.audit_jsonl = audit.to_jsonl();
  out.ts_csv = csv_bytes(timeseries, tag + "_k" + std::to_string(k));
  return out;
}

// -- cross-K invariance ------------------------------------------------------

TEST(ShardedDeterminism, DiurnalRunIsShardCountInvariant) {
  const ShardedRun spec;
  const RunArtifacts base = run_with_sinks(spec, 1, "diurnal");
  EXPECT_GT(base.result.completed_jobs, 0u);
  for (const unsigned k : kShardCounts) {
    if (k == 1) continue;
    const RunArtifacts other = run_with_sinks(spec, k, "diurnal");
    EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
    EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
    EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
  }
}

TEST(ShardedDeterminism, DegradedRunIsShardCountInvariant) {
  const ShardedRun spec = make_degraded_run();
  const RunArtifacts base = run_with_sinks(spec, 1, "degraded");
  // The degraded path actually exercised what it pins.
  EXPECT_GT(base.result.failures, 0u);
  EXPECT_GT(base.result.repairs, 0u);
  EXPECT_GT(base.result.telemetry_dropped, 0u);
  EXPECT_GT(base.result.command_retries, 0u);
  for (const unsigned k : kShardCounts) {
    if (k == 1) continue;
    const RunArtifacts other = run_with_sinks(spec, k, "degraded");
    EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
    EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
    EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
  }
}

TEST(ShardedDeterminism, OutageRunIsShardCountInvariant) {
  const ShardedRun spec = make_outage_run();
  const RunArtifacts base = run_with_sinks(spec, 1, "outage");
  // The orchestrator really ran the outage machinery.
  EXPECT_GT(base.result.ticks_missed, 0u);
  EXPECT_GT(base.result.safe_mode_entries, 0u);
  EXPECT_GT(base.result.safe_mode_time_s, 0.0);
  EXPECT_GT(base.result.counters.counter_or("control.ticks_missed", 0), 0u);
  for (const unsigned k : kShardCounts) {
    if (k == 1) continue;
    const RunArtifacts other = run_with_sinks(spec, k, "outage");
    EXPECT_EQ(base.sum, other.sum) << "checksum diverged at K=" << k;
    EXPECT_EQ(base.audit_jsonl, other.audit_jsonl) << "audit diverged at K=" << k;
    EXPECT_EQ(base.ts_csv, other.ts_csv) << "timeseries diverged at K=" << k;
    EXPECT_EQ(base.result.ticks_missed, other.result.ticks_missed);
    EXPECT_EQ(base.result.safe_mode_entries, other.result.safe_mode_entries);
    EXPECT_EQ(base.result.safe_mode_time_s, other.result.safe_mode_time_s);
  }
}

// The orchestrator emits the control loop's trace records (period spans,
// solver instants, counter tracks), and the Chrome trace is byte-identical
// across K.
TEST(ShardedDeterminism, TracedRunEmitsControlSpansAndIsShardCountInvariant) {
  if constexpr (!kTracingCompiledIn) GTEST_SKIP() << "built with GC_TRACING=OFF";
  const ShardedRun spec = make_degraded_run();
  std::string json[2];
  const unsigned ks[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    TraceCollector trace;
    const SimResult r = spec.run(ks[i], nullptr, nullptr, &trace);
    std::size_t short_spans = 0, long_spans = 0, solver = 0, counters = 0;
    for (const TraceRecord& rec : trace.records()) {
      const std::string name = rec.name;
      if (rec.phase == TracePhase::kComplete && name == "short-period") ++short_spans;
      if (rec.phase == TracePhase::kComplete && name == "long-period") ++long_spans;
      if (std::string(rec.cat) == "solver") ++solver;
      if (rec.phase == TracePhase::kCounter) ++counters;
    }
    EXPECT_GT(short_spans, 0u) << "K=" << ks[i];
    EXPECT_GT(long_spans, 0u) << "K=" << ks[i];
    EXPECT_GT(solver, 0u) << "K=" << ks[i];
    EXPECT_GT(counters, 0u) << "K=" << ks[i];
    EXPECT_GT(r.counters.counter_or("obs.trace.emitted", 0), 0u);
    const auto path = std::filesystem::temp_directory_path() /
                      ("gc_sharded_determinism_trace_k" + std::to_string(ks[i]) +
                       ".json");
    trace.write_chrome_json(path);
    json[i] = file_bytes(path);
    std::filesystem::remove(path);
  }
  EXPECT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);
}

// Run-to-run determinism at a fixed K (thread scheduling must not leak).
TEST(ShardedDeterminism, RepeatedRunsAreBitIdentical) {
  const ShardedRun spec;
  const SimResult a = spec.run(4, nullptr, nullptr);
  const SimResult b = spec.run(4, nullptr, nullptr);
  EXPECT_EQ(checksum(a), checksum(b));
  EXPECT_EQ(a.counters, b.counters);
}

// -- pinned sharded goldens --------------------------------------------------
//
// The sharded engine is a distinct simulation model (round-robin trace
// dispatch, per-server fault streams — see DESIGN.md §11.1), so it pins its
// *own* goldens, separate from the sequential ones.  K = 1 and K = 4 pin
// the same value by construction; both are asserted so a K-dependent
// regression and a model regression are distinguishable in the failure.
constexpr std::uint64_t kShardedDiurnalGolden = 11986199079868584697ULL;

TEST(ShardedDeterminism, DiurnalGoldenIsPinnedAtK1) {
  const ShardedRun spec;
  EXPECT_EQ(checksum(spec.run(1, nullptr, nullptr)), kShardedDiurnalGolden);
}

TEST(ShardedDeterminism, DiurnalGoldenIsPinnedAtK4) {
  const ShardedRun spec;
  EXPECT_EQ(checksum(spec.run(4, nullptr, nullptr)), kShardedDiurnalGolden);
}

// -- model sanity ------------------------------------------------------------

// K above the fleet size clamps instead of creating empty shards.
TEST(ShardedDeterminism, ShardCountAboveFleetSizeClamps) {
  ShardedRun spec;
  const SimResult wide = spec.run(1000, nullptr, nullptr);
  const SimResult one_per_server = spec.run(spec.config.max_servers, nullptr, nullptr);
  EXPECT_EQ(checksum(wide), checksum(one_per_server));
}

// Unsupported sequential-only features are rejected loudly, not silently
// approximated.
TEST(ShardedDeterminism, RejectsHeterogeneousGroups) {
  const ShardedRun spec;
  const Trace trace = Trace::from_profile(*spec.scenario.profile, 60.0, 1);
  const Distribution job_size = Distribution::exponential(spec.config.mu_max);
  const Provisioner solver(spec.config);
  const auto controller =
      make_policy(PolicyKind::kCombinedDcp, &solver, spec.popts);
  ClusterOptions cluster;
  cluster.num_servers = 8;
  cluster.groups.push_back({.count = 8});
  SimulationOptions sim;
  EXPECT_DEATH((void)run_sharded_simulation(trace, job_size, 1, cluster,
                                            *controller, sim, {}),
               "sequential-only");
}

// The event accounting closes: every trace arrival is counted exactly once
// (admitted + shed across the whole run equals the trace length, including
// arrivals orphaned by an empty serving set).
TEST(ShardedDeterminism, ArrivalAccountingCloses) {
  const ShardedRun spec = make_degraded_run();
  const Trace trace = Trace::from_profile(*spec.scenario.profile,
                                          spec.scenario.horizon_s,
                                          spec.workload_seed);
  const SimResult r = spec.run(4, nullptr, nullptr);
  EXPECT_EQ(r.counters.counter_or("sim.jobs.admitted", 0) +
                r.counters.counter_or("sim.jobs.shed", 0),
            trace.size());
  EXPECT_EQ(r.counters.counter_or("sim.events.arrival", 0), trace.size());
}

// -- sequential engine stays untouched ---------------------------------------

// The sequential lossy-channel golden configuration from
// tests/test_obs_determinism.cpp (faults, admission, lossy channel,
// ack/retry actuator, one controller outage).
SimResult run_sequential_lossy(DecisionAuditLog* audit, TimeSeriesRecorder* ts) {
  ClusterConfig config = bench_cluster_config();
  PolicyOptions popts;
  popts.dcp = bench_dcp_params();
  popts.staleness.horizon_s = 60.0;
  const Scenario scenario = make_scenario(ScenarioKind::kDiurnal, config,
                                          /*level=*/0.7, /*seed=*/1234,
                                          /*day_s=*/2400.0);
  Workload workload = scenario.make_workload(config, /*seed=*/97);
  const Provisioner solver(config);
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &solver, popts);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 4242;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = popts.dcp.long_period_s;
  sim.record_interval_s = 120.0;
  sim.faults.script = {{600.0, 0, 900.0},
                       {600.0, 1, 900.0},
                       {601.0, 2, 1200.0},
                       {1200.0, 3, std::numeric_limits<double>::infinity()}};
  sim.faults.seed = 99;
  sim.admission.enabled = true;
  sim.admission.mu_max = config.mu_max;
  sim.channel.enabled = true;
  sim.channel.telemetry = {0.05, 0.05, 0.1};
  sim.channel.command = {0.05, 0.05, 0.1};
  sim.channel.ack = {0.05, 0.05, 0.1};
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 2.0;
  sim.controller_faults.script = {{900.0, 120.0}};
  sim.audit = audit;
  sim.timeseries = ts;
  return run_simulation(workload, cluster, *controller, sim);
}

// tests/test_recovery.cpp's configuration: two scripted outages long
// enough to trip the watchdog into safe mode, warm restart at each
// recovery, plus a timeline.
SimResult run_sequential_outage(DecisionAuditLog* audit, TimeSeriesRecorder* ts) {
  ClusterConfig config;
  config.max_servers = 8;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  const Provisioner provisioner(config);
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &provisioner, {});
  Workload workload =
      Workload::poisson_exponential(20.0, config.mu_max, 3000.0, /*seed=*/3);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 11;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.record_interval_s = 60.0;
  sim.channel.enabled = true;
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 5.0;
  sim.controller_faults.script = {{600.0, 120.0}, {1800.0, 200.0}};
  sim.controller_faults.recovery = ControllerRecoveryMode::kWarmRestart;
  sim.audit = audit;
  sim.timeseries = ts;
  return run_simulation(workload, cluster, *controller, sim);
}

// Re-asserted here so a sharded-core regression that leaks into shared
// code (event queue, channel, actuator, server) fails in this suite too.
TEST(ShardedDeterminism, SequentialLossyGoldenStillPinned) {
  EXPECT_EQ(checksum(run_sequential_lossy(nullptr, nullptr)), 13159024489807549190ULL);
}

// -- control-loop byte pins --------------------------------------------------

struct BytePins {
  std::uint64_t result = 0;
  std::uint64_t audit = 0;
  std::uint64_t timeseries = 0;
};

template <typename RunFn>
BytePins pins_of(const std::string& tag, RunFn&& run) {
  DecisionAuditLog audit;
  TimeSeriesRecorder timeseries;
  const SimResult result = run(&audit, &timeseries);
  EXPECT_GT(audit.size(), 0u);
  EXPECT_GT(timeseries.size(), 0u);
  return {checksum(result), fnv1a(audit.to_jsonl()), fnv1a(csv_bytes(timeseries, tag))};
}

TEST(ShardedDeterminism, SequentialLossyBytesArePinned) {
  const BytePins p = pins_of("seq_lossy", run_sequential_lossy);
  EXPECT_EQ(p.result, 13159024489807549190ULL);
  EXPECT_EQ(p.audit, 13031552830012359260ULL);
  EXPECT_EQ(p.timeseries, 5827889155092280114ULL);
}

TEST(ShardedDeterminism, SequentialOutageBytesArePinned) {
  const BytePins p = pins_of("seq_outage", [](DecisionAuditLog* audit,
                                              TimeSeriesRecorder* ts) {
    const SimResult r = run_sequential_outage(audit, ts);
    EXPECT_GT(r.safe_mode_entries, 0u);
    return r;
  });
  EXPECT_EQ(p.result, 9934956496571362188ULL);
  EXPECT_EQ(p.audit, 11857591511439460936ULL);
  EXPECT_EQ(p.timeseries, 4175024864952191884ULL);
}

TEST(ShardedDeterminism, DegradedRunBytesArePinnedAtK1) {
  const RunArtifacts a = run_with_sinks(make_degraded_run(), 1, "degraded_pin");
  EXPECT_EQ(a.sum, 12698049592747017007ULL);
  EXPECT_EQ(fnv1a(a.audit_jsonl), 5939445336178309742ULL);
  EXPECT_EQ(fnv1a(a.ts_csv), 4693085445886695564ULL);
}

}  // namespace
}  // namespace gc
