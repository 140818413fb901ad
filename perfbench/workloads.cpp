// The three workloads and the metrics computed from them.  README.md maps
// every metric to its layer and to the end-to-end number it should move.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "bench.h"
#include "control/policies.h"
#include "core/provisioner.h"
#include "cp/control_plane.h"
#include "cp/replay.h"
#include "exp/scenario.h"
#include "obs/audit.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "stats/rng.h"
#include "util/thread_pool.h"
#include "workload/rate_profile.h"
#include "workload/trace.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},      {"sim_jobs_per_s", "1/s"},     {"tick_ms_p99", "ms"},
      {"peak_rss_mb", "MiB"}, {"energy_kwh", "kWh"},         {"mean_response_ms", "ms"},
      {"job_violation_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.trace_build_s", "s"},
      {"workload.arrivals", "count"},
      {"sim.self_s", "s"},
      {"sim.events_popped", "count"},
      {"sim.ns_per_event", "ns"},
      {"event_queue.ns_per_op", "ns"},
      {"sharded.advance_s", "s"},
      {"sharded.busy_fraction", "frac"},
      {"sharded.imbalance", "frac"},
      {"sharded.barriers", "count"},
      {"sharded.serial_s", "s"},
      {"sharded.events_scheduled", "count"},
      {"sim.event_useful_frac", "frac"},
      {"sharded.queue_reallocations", "count"},
      {"control.ticks", "count"},
      {"control.tick_us_p50", "us"},
      {"control.tick_us_p99", "us"},
      {"control.share", "frac"},
      {"solver.cache.hits", "count"},
      {"solver.cache.misses", "count"},
      {"solver.cache.hit_rate", "frac"},
      {"tick_ms_p50", "ms"},
      {"cp.facade_us_p50", "us"},
      {"cp.commands.issued", "count"},
      {"cp.drift.mismatches", "count"},
      {"cp.tick_samples", "count"},
      {"obs.overhead_frac", "frac"},
      {"obs.audit.records", "count"},
      {"obs.timeseries.rows", "count"},
      {"obs.trace.emitted", "count"},
      {"obs.trace.dropped", "count"},
      {"trace.span_coverage", "frac"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig8_seq", "dc_sharded", "cp_replay"};
  return names;
}

namespace {

// The diurnal shape is pinned (bench/fig8's seed): arrival times and job
// sizes come from --seed, so model outputs move only by sampling noise.
constexpr std::uint64_t kProfileSeed = 13;
constexpr gc::PolicyKind kPolicy = gc::PolicyKind::kCombinedDcp;
// A traced replay keeps per-call spans, so it stops after this many passes.
constexpr std::size_t kMaxTracedPasses = 16;

enum class Kind { kFig8Seq, kDcSharded, kCpReplay };

struct Scenario {
  Kind kind = Kind::kFig8Seq;
  unsigned servers = 0;  // 0 = bench_cluster_config()'s fleet
  unsigned shards = 0;   // 0 = sequential run_simulation
  double load = 0.0;     // WC98 peak as a fraction of feasible capacity
  double days = 0.0;
  double day_s = 0.0;
  int setups = 0;        // set-up repetitions; setup_s is their median
  bool obs_sinks = false;  // trace + time-series sinks (audit is always on)
};

Scenario scenario_for(const RunOptions& o) {
  Scenario sc;
  if (o.workload == "fig8_seq") {
    sc.kind = Kind::kFig8Seq;
    sc.load = 0.7;
    sc.days = o.tiny ? 0.25 : 3.0;
    sc.day_s = 2400.0;
    sc.setups = o.tiny ? 2 : 15;
    sc.obs_sinks = true;
    return sc;
  }
  if (o.workload == "dc_sharded" || o.workload == "cp_replay") {
    sc.kind = o.workload == "dc_sharded" ? Kind::kDcSharded : Kind::kCpReplay;
    sc.servers = o.tiny ? 1024 : 131072;
    sc.shards = 2;
    sc.load = 0.005;
    sc.days = 1.0;
    sc.day_s = 600.0;
    sc.setups = o.tiny ? 2 : (sc.kind == Kind::kDcSharded ? 5 : 3);
    return sc;
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

std::uint64_t job_seed(std::uint64_t seed) { return seed + 8; }

gc::ClusterConfig config_for(const Scenario& sc) {
  gc::ClusterConfig config = gc::bench_cluster_config();
  if (sc.servers != 0) config.max_servers = sc.servers;
  return config;
}

gc::PolicyOptions policy_options() {
  gc::PolicyOptions popts;
  popts.dcp = gc::bench_dcp_params();
  return popts;
}

gc::Trace build_trace(const Scenario& sc, const gc::ClusterConfig& config,
                      std::uint64_t seed) {
  const auto profile = gc::make_wc98_like_profile(
      sc.load * config.max_feasible_arrival_rate(), sc.days, kProfileSeed, sc.day_s);
  return gc::Trace::from_profile(*profile, sc.days * sc.day_s, seed);
}

// One timed simulation call and what the sinks and the profile saw.
struct SimOutcome {
  gc::SimResult result;
  double run_s = 0.0;
  std::size_t run_span = 0;
  gc::ShardProfile profile;
  gc::SolverCacheStats cache;
  gc::DecisionAuditLog audit;
  std::size_t timeseries_rows = 0;
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
};

SimOutcome simulate(const Scenario& sc, const gc::Trace& trace,
                    gc::Provisioner& solver, std::uint64_t seed, gc::ThreadPool& pool,
                    bool sinks, SpanRecorder* spans) {
  const gc::ClusterConfig& config = solver.config();
  const gc::PolicyOptions popts = policy_options();
  // Cold solver for every repeat, as for a fresh process.
  solver.invalidate_cache();
  solver.reset_cache_stats();
  std::unique_ptr<gc::Controller> controller = gc::make_policy(kPolicy, &solver, popts);
  if (spans) controller = std::make_unique<TimedController>(std::move(controller), *spans);

  gc::ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.power = config.power;
  cluster.transition = config.transition;
  cluster.initial_active = config.max_servers;
  gc::SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.warmup_s = 2.0 * popts.dcp.long_period_s;

  SimOutcome out;
  gc::TraceCollector trace_sink;
  gc::TimeSeriesRecorder ts_sink;
  if (sinks) {
    sim.audit = &out.audit;
    if (sc.obs_sinks) {
      sim.trace = &trace_sink;
      sim.timeseries = &ts_sink;
    }
  }
  const gc::Distribution job_size = gc::Distribution::exponential(config.mu_max);
  if (sc.shards == 0) {
    gc::Workload workload = gc::Workload::trace_replay(trace, job_size, job_seed(seed));
    const ScopedSpan span(spans, "sim.run");
    out.run_span = span.id();
    const auto t0 = Clock::now();
    out.result = gc::run_simulation(workload, cluster, *controller, sim);
    out.run_s = seconds_between(t0, Clock::now());
  } else {
    gc::ShardedOptions sharded;
    sharded.num_shards = sc.shards;
    sharded.pool = &pool;
    if (spans) sharded.profile = &out.profile;
    const ScopedSpan span(spans, "sim.run");
    out.run_span = span.id();
    const auto t0 = Clock::now();
    out.result = gc::run_sharded_simulation(trace, job_size, job_seed(seed), cluster,
                                            *controller, sim, sharded);
    out.run_s = seconds_between(t0, Clock::now());
  }
  out.cache = solver.cache_stats();
  out.timeseries_rows = ts_sink.size();
  out.trace_emitted = trace_sink.emitted();
  out.trace_dropped = trace_sink.dropped();
  return out;
}

// One cold replay of a recording through a fresh ControlPlane + Provisioner.
struct PassOutcome {
  std::vector<double> feed_s;    // per record
  std::vector<double> decide_s;  // per record; traced runs only
  double total_s = 0.0;
  std::uint64_t mismatches = 0;
  std::uint64_t commands_issued = 0;
  gc::SolverCacheStats cache;
};

PassOutcome replay_pass(gc::Provisioner& solver, const gc::DecisionAuditLog& log,
                        SpanRecorder* spans) {
  const ScopedSpan pass_span(spans, "replay.pass");
  solver.invalidate_cache();
  solver.reset_cache_stats();
  std::unique_ptr<gc::Controller> policy =
      gc::make_policy(kPolicy, &solver, policy_options());
  if (spans) policy = std::make_unique<TimedController>(std::move(policy), *spans);
  // gcreplay's stack: actuator off, so the RNG is never drawn.
  gc::ControlPlane cp(std::move(policy), gc::ControlPlaneOptions{}, gc::Rng(1, 14));
  gc::ReplayEngine engine(cp, gc::ReplayOptions{});

  PassOutcome out;
  out.feed_s.reserve(log.size());
  std::vector<std::size_t> feed_spans;
  const auto start = Clock::now();
  for (const gc::AuditRecord& rec : log.records()) {
    const ScopedSpan span(spans, "cp.feed");
    if (spans) feed_spans.push_back(span.id());
    const auto t0 = Clock::now();
    (void)engine.feed(rec);
    out.feed_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.total_s = seconds_between(start, Clock::now());
  out.mismatches = engine.stats().mismatches;
  out.commands_issued = cp.commands_issued();
  out.cache = solver.cache_stats();
  if (spans) {
    const auto& all = spans->spans();
    for (const std::size_t id : feed_spans) {
      double decide = 0.0;
      for (const std::size_t child : spans->children(id)) decide += all[child].duration();
      out.decide_s.push_back(decide);
    }
  }
  return out;
}

// Public-API EventQueue churn with `pending` live events: cancel one,
// schedule its replacement, pop the head, schedule the popped subject's
// successor (four operations per iteration).  Returns ns per op of the
// fastest repeat within `budget_s`, scaled by the fastest kernel unit.
double event_queue_ns_per_op(std::size_t pending, std::uint64_t seed, double budget_s,
                             Calibration& calib, SpanRecorder* spans) {
  constexpr long kIters = 100000;
  std::vector<double> times;
  const auto start = Clock::now();
  do {
    (void)calib.block(1, spans);
    const ScopedSpan span(spans, "event_queue.churn");
    gc::EventQueue queue;
    gc::Rng rng(seed, 3);
    std::vector<gc::EventId> ids(pending);
    const auto m = static_cast<std::uint32_t>(pending);
    for (std::uint32_t i = 0; i < m; ++i) {
      ids[i] = queue.schedule(rng.uniform01() * 10.0, gc::EventType::kDeparture, i);
    }
    const auto t0 = Clock::now();
    for (long it = 0; it < kIters; ++it) {
      const auto pick = static_cast<std::uint32_t>(rng.uniform_below(m));
      queue.cancel(ids[pick]);
      ids[pick] = queue.schedule(queue.now() + rng.uniform01() * 10.0,
                                 gc::EventType::kDeparture, pick);
      const auto event = queue.pop();
      ids[event->subject] = queue.schedule(queue.now() + rng.uniform01() * 10.0,
                                           gc::EventType::kDeparture, event->subject);
    }
    times.push_back(seconds_between(t0, Clock::now()));
  } while (times.size() < 3 || seconds_between(start, Clock::now()) < budget_s);
  return calib.reference(fastest(times)) * 1e9 / (4.0 * static_cast<double>(kIters));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const gc::SimResult& r, std::string_view name) {
  return r.counters.counter_or(name, 0);
}

std::uint64_t events_popped(const gc::SimResult& r) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : r.counters.counters) {
    if (name.rfind("sim.events.", 0) == 0) total += value;
  }
  return total;
}

// Jobs that arrived but neither completed nor were refused by design.
std::uint64_t failed_jobs(const gc::SimResult& r) {
  return counter(r, "sim.jobs.dropped") + counter(r, "sim.jobs.lost") +
         counter(r, "sim.jobs.shed");
}

class Run {
 public:
  explicit Run(const RunOptions& o)
      : opt_(o),
        sc_(scenario_for(o)),
        pool_(2),
        spans_(o.trace ? &recorder_ : nullptr),
        setups_(calib_, spans_),
        sim_runs_(calib_, spans_) {}

  Outcome execute();

 private:
  void setup();
  void measure_simulation(double until_s);
  // Replays the recording for about `budget_s` (at least one pass).
  void replay_for(double budget_s);
  void check(bool ok, const std::string& what);
  void emit(const char* name, double value);
  void emit_end_to_end();
  void emit_per_layer();
  [[nodiscard]] double elapsed_s() const { return seconds_between(start_, Clock::now()); }

  RunOptions opt_;
  Scenario sc_;
  gc::ThreadPool pool_;
  SpanRecorder recorder_;
  SpanRecorder* spans_;
  Calibration calib_;
  PairedRepeats setups_;
  PairedRepeats sim_runs_;  // every simulation repeat
  Outcome out_;
  Clock::time_point start_{};

  // Set-up products.
  gc::ClusterConfig config_;
  gc::Trace trace_;
  std::unique_ptr<gc::Provisioner> solver_;
  std::vector<double> trace_build_s_;
  std::vector<std::uint64_t> reference_bits_;
  // The first run: its model outputs are reported and its decisions are
  // what the replay phase feeds.  Every other run must equal it bit for bit.
  gc::SimResult model_;
  gc::DecisionAuditLog recording_;

  // Simulation phase, repeats with sinks on (the end-to-end configuration).
  struct Repeat {
    std::size_t pair = 0;  // index in sim_runs_
    double run_s = 0.0;
    std::size_t run_span = 0;
    double advance_s = 0.0;
  };
  std::vector<Repeat> repeats_;
  std::vector<double> bare_run_s_;  // traced runs only: sinks off, reference s
  SimOutcome fastest_;              // the fastest repeat, for its profile
  // Replay phase.
  std::unique_ptr<FastestPerCall> feed_;
  std::unique_ptr<FastestPerCall> decide_;  // traced runs only
  std::unique_ptr<FastestPerCall> facade_;  // traced runs only
  // Counts of the first replay pass (identical in every pass).
  std::uint64_t replay_commands_issued_ = 0;
  gc::SolverCacheStats replay_cache_;
  std::uint64_t drift_mismatches_ = 0;
  double fastest_pass_s_ = 0.0;
  double fastest_pass_control_share_ = 0.0;
};

void Run::check(bool ok, const std::string& what) {
  if (ok) return;
  out_.correct = false;
  out_.errors.push_back(what);
}

void Run::emit(const char* name, double value) {
  const auto& specs = opt_.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    if (std::string_view(spec.name) == name) {
      out_.metrics.push_back({spec.name, spec.unit, value});
      return;
    }
  }
  throw std::logic_error(std::string("undeclared metric ") + name);
}

void Run::setup() {
  for (int i = 0; i < sc_.setups; ++i) {
    setups_.lead();
    const ScopedSpan span(spans_, "setup");
    const auto t0 = Clock::now();
    config_ = config_for(sc_);
    {
      const ScopedSpan build(spans_, "workload.trace_build");
      const auto b0 = Clock::now();
      trace_ = build_trace(sc_, config_, opt_.seed);
      trace_build_s_.push_back(seconds_between(b0, Clock::now()));
    }
    solver_ = std::make_unique<gc::Provisioner>(config_);
    if (sc_.kind == Kind::kCpReplay) {
      // The recording: dc_sharded's run with its audit sink.
      SimOutcome rec = simulate(sc_, trace_, *solver_, opt_.seed, pool_, true, nullptr);
      const std::vector<std::uint64_t> bits = result_bits(rec.result);
      if (reference_bits_.empty()) reference_bits_ = bits;
      check(bits == reference_bits_, "recording run differs between set-ups");
      model_ = std::move(rec.result);
      recording_ = std::move(rec.audit);
    }
    setups_.record(seconds_between(t0, Clock::now()));
  }
  if (sc_.kind == Kind::kCpReplay) {
    const std::uint64_t lost = failed_jobs(model_);
    out_.attempted += trace_.size();
    out_.failed += lost;
    check(lost == 0, "recording run dropped or lost jobs");
  }
}

void Run::measure_simulation(double until_s) {
  const std::uint64_t arrivals = trace_.size();
  std::size_t repeat = 0;
  while (repeats_.size() < 3 || elapsed_s() < until_s) {
    // The traced run alternates repeats without sinks: obs.overhead_frac.
    const bool sinks = !(opt_.trace && repeat % 2 == 1);
    ++repeat;
    sim_runs_.lead();
    SimOutcome run = [&] {
      const ScopedSpan span(spans_, "sim.repeat");
      return simulate(sc_, trace_, *solver_, opt_.seed, pool_, sinks, spans_);
    }();
    sim_runs_.record(run.run_s);
    const gc::SimResult& r = run.result;
    const std::uint64_t lost = failed_jobs(r);
    const bool accounted = counter(r, "sim.events.arrival") == arrivals &&
                           counter(r, "sim.events.departure") + lost == arrivals;
    const std::vector<std::uint64_t> bits = result_bits(r);
    if (reference_bits_.empty()) reference_bits_ = bits;
    const bool same = bits == reference_bits_;
    const std::string which = "repeat " + std::to_string(repeat);
    check(same, which + " differs from the first bit for bit");
    check(accounted, which + " does not account for every arrival");
    check(lost == 0, which + " dropped or lost jobs");
    out_.attempted += arrivals;
    out_.failed += same && accounted ? lost : arrivals;
    const std::size_t pair = sim_runs_.host_s().size() - 1;
    if (!sinks) {
      bare_run_s_.push_back(run.run_s * sim_runs_.scale(pair));
      continue;
    }
    repeats_.push_back({pair, run.run_s, run.run_span, run.profile.barrier_wall_s});
    if (repeats_.size() == 1) {
      model_ = run.result;
      recording_ = run.audit;
      check(!recording_.empty(), "no control decisions were recorded");
    }
    const double run_s = run.run_s;
    if (repeats_.size() == 1 || run.run_s < fastest_.run_s) fastest_ = std::move(run);
    // Decision latencies: replay passes spread over the whole phase, so
    // every call's fastest time can come from any quiet moment of the run.
    replay_for(0.25 * run_s);
  }
}

void Run::replay_for(double budget_s) {
  if (recording_.empty()) return;
  const std::size_t ticks = recording_.size();
  if (!feed_) {
    feed_ = std::make_unique<FastestPerCall>(ticks);
    decide_ = std::make_unique<FastestPerCall>(ticks);
    facade_ = std::make_unique<FastestPerCall>(ticks);
  }
  const auto start = Clock::now();
  do {
    if (spans_ && feed_->passes() >= kMaxTracedPasses) return;
    PassOutcome pass = replay_pass(*solver_, recording_, spans_);
    out_.attempted += ticks;
    out_.failed += pass.mismatches;
    drift_mismatches_ += pass.mismatches;
    check(pass.mismatches == 0, "replay drifted from the recording");
    feed_->add(pass.feed_s);
    if (spans_) {
      std::vector<double> facade(ticks);
      for (std::size_t i = 0; i < ticks; ++i) facade[i] = pass.feed_s[i] - pass.decide_s[i];
      decide_->add(pass.decide_s);
      facade_->add(facade);
      if (feed_->passes() == 1 || pass.total_s < fastest_pass_s_) {
        fastest_pass_s_ = pass.total_s;
        fastest_pass_control_share_ =
            std::accumulate(pass.decide_s.begin(), pass.decide_s.end(), 0.0) / pass.total_s;
      }
    }
    if (feed_->passes() == 1) {
      replay_commands_issued_ = pass.commands_issued;
      replay_cache_ = pass.cache;
    }
  } while (seconds_between(start, Clock::now()) < budget_s);
}

void Run::emit_end_to_end() {
  emit("setup_s", setups_.estimate_s(0.5));
  const double jobs = static_cast<double>(trace_.size());
  if (sc_.kind == Kind::kCpReplay) {
    // Jobs of the recorded day whose control decisions one replay covers.
    emit("sim_jobs_per_s", feed_ ? jobs / calib_.reference(feed_->total()) : 0.0);
  } else {
    emit("sim_jobs_per_s", jobs / sim_runs_.estimate_s(0.25));
  }
  const std::vector<double> ticks = feed_ ? feed_->fastest() : std::vector<double>{};
  emit("tick_ms_p99", calib_.reference(supported_percentile(ticks, 0.99)) * 1e3);
  emit("peak_rss_mb", peak_rss_mib());
  emit("energy_kwh", model_.energy.total_j() / 3.6e6);
  emit("mean_response_ms", model_.mean_response_s * 1e3);
  emit("job_violation_pct", model_.job_violation_ratio * 100.0);
}

void Run::emit_per_layer() {
  const auto& all = recorder_.spans();
  const std::vector<double> self = recorder_.self_times();
  const bool simulated = !repeats_.empty();

  std::vector<double> build_s;
  for (std::size_t i = 0; i < trace_build_s_.size(); ++i) {
    build_s.push_back(trace_build_s_[i] * setups_.scale(i));
  }
  emit("workload.trace_build_s", median(build_s));
  emit("workload.arrivals", static_cast<double>(trace_.size()));

  // Simulation layers, from the sinks-on repeats: a run span's children
  // are its control ticks, so its self time is the simulator's own.
  // Host times are scaled by each repeat's calibration blocks; the layer's
  // estimate is the median over repeats, as for the end-to-end numbers.
  std::vector<double> self_s, serial_s, advance_s, with_s;
  FastestPerCall sim_ticks(
      simulated ? recorder_.children(repeats_.front().run_span).size() : 0);
  for (const Repeat& r : repeats_) {
    const double scale = sim_runs_.scale(r.pair);
    self_s.push_back(self[r.run_span] * scale);
    advance_s.push_back(r.advance_s * scale);
    serial_s.push_back((self[r.run_span] - r.advance_s) * scale);
    with_s.push_back(r.run_s * scale);
    std::vector<double> ticks;
    for (const std::size_t child : recorder_.children(r.run_span)) {
      ticks.push_back(all[child].duration() * scale);
    }
    sim_ticks.add(ticks);
  }
  const gc::SimResult& r = simulated ? fastest_.result : model_;
  const std::uint64_t popped = simulated ? events_popped(r) : 0;
  const std::uint64_t scheduled = simulated ? counter(r, "sharded.shard_events_scheduled") : 0;
  // Events popped from the shard queues (arrivals and control timers live
  // on the orchestrator).
  std::uint64_t server_events = 0;
  for (const char* type : {"departure", "boot_complete", "shutdown_complete", "server_fail",
                           "server_repair", "boot_timeout"}) {
    server_events += counter(r, std::string("sim.events.") + type);
  }
  const double sim_self = median(self_s);
  const bool sharded = simulated && sc_.shards != 0;
  emit("sim.self_s", sim_self);
  emit("sim.events_popped", static_cast<double>(popped));
  emit("sim.ns_per_event", popped ? sim_self * 1e9 / static_cast<double>(popped) : 0.0);
  // Pending events: jobs in flight per shard plus the arrival and tick timers.
  const double pending =
      std::max(1.0, r.mean_jobs_in_system / std::max(1u, sc_.shards)) + 3.0;
  emit("event_queue.ns_per_op",
       simulated ? event_queue_ns_per_op(static_cast<std::size_t>(pending), opt_.seed,
                                         std::max(0.2, 0.05 * opt_.seconds), calib_, spans_)
                 : 0.0);
  const gc::ShardProfile& prof = fastest_.profile;
  emit("sharded.advance_s", sharded ? median(advance_s) : 0.0);
  emit("sharded.busy_fraction", prof.busy_fraction());
  emit("sharded.imbalance", prof.imbalance());
  emit("sharded.barriers", static_cast<double>(prof.barriers));
  emit("sharded.serial_s", sharded ? median(serial_s) : 0.0);
  emit("sharded.events_scheduled", static_cast<double>(scheduled));
  emit("sim.event_useful_frac",
       scheduled ? static_cast<double>(server_events) / static_cast<double>(scheduled) : 0.0);
  emit("sharded.queue_reallocations",
       sharded ? static_cast<double>(counter(r, "sharded.queue_reallocations")) : 0.0);

  // Control layer: the in-simulation ticks, or the replayed decisions for
  // cp_replay, whose simulator is bypassed.
  std::vector<double> ticks = sim_ticks.fastest();
  double control_share = 0.0;
  double control_ticks = static_cast<double>(counter(r, "control.ticks"));
  gc::SolverCacheStats cache = fastest_.cache;
  if (simulated) {
    const double run = all[fastest_.run_span].duration();
    control_share = (run - self[fastest_.run_span]) / run;
  } else if (decide_) {
    ticks = decide_->fastest();
    for (double& t : ticks) t = calib_.reference(t);
    control_ticks = static_cast<double>(recording_.size());
    control_share = fastest_pass_control_share_;
    cache = replay_cache_;
  }
  emit("control.ticks", control_ticks);
  emit("control.tick_us_p50", percentile(ticks, 0.50) * 1e6);
  emit("control.tick_us_p99", supported_percentile(ticks, 0.99) * 1e6);
  emit("control.share", control_share);
  emit("solver.cache.hits", static_cast<double>(cache.hits));
  emit("solver.cache.misses", static_cast<double>(cache.misses));
  emit("solver.cache.hit_rate", cache.hit_rate());

  // Control-plane facade, from the replay phase of every workload.  The
  // median decision is a sub-microsecond short tick, so its latency is a
  // layer number here, not an end-to-end one.
  const std::vector<double> feed = feed_ ? feed_->fastest() : std::vector<double>{};
  emit("tick_ms_p50", calib_.reference(percentile(feed, 0.50)) * 1e3);
  const std::vector<double> facade = facade_ ? facade_->fastest() : std::vector<double>{};
  emit("cp.facade_us_p50", calib_.reference(percentile(facade, 0.50)) * 1e6);
  emit("cp.commands.issued", static_cast<double>(replay_commands_issued_));
  emit("cp.drift.mismatches", static_cast<double>(drift_mismatches_));
  emit("cp.tick_samples", feed_ ? static_cast<double>(feed_->fastest().size()) : 0.0);

  // Observability sinks.
  emit("obs.overhead_frac", bare_run_s_.empty() || with_s.empty()
                                ? 0.0
                                : median(with_s) / median(bare_run_s_) - 1.0);
  emit("obs.audit.records", static_cast<double>(recording_.size()));
  emit("obs.timeseries.rows", static_cast<double>(fastest_.timeseries_rows));
  emit("obs.trace.emitted", static_cast<double>(fastest_.trace_emitted));
  emit("obs.trace.dropped", static_cast<double>(fastest_.trace_dropped));

  // Share of the run's wall time inside a top-level span.
  double covered = 0.0;
  double last_end = 0.0;
  for (const Span& s : all) {
    if (s.parent < 0) {
      covered += s.duration();
      last_end = std::max(last_end, s.end_s);
    }
  }
  const double window = all.empty() ? 0.0 : last_end - all.front().start_s;
  emit("trace.span_coverage", window > 0.0 ? covered / window : 0.0);
}

Outcome Run::execute() {
  setup();
  start_ = Clock::now();
  if (sc_.kind == Kind::kCpReplay) {
    check(!recording_.empty(), "no control decisions were recorded");
    while (elapsed_s() < opt_.seconds &&
           !(spans_ && feed_ && feed_->passes() >= kMaxTracedPasses)) {
      // The per-call minima are scaled by the fastest kernel unit; keep
      // sampling it through the phase.
      (void)calib_.block(1, spans_);
      replay_for(0.1);
    }
  } else {
    measure_simulation(opt_.seconds);
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu set-ups, %zu simulation repeats, %zu replay "
               "passes, %zu calibration units (fastest %.6f s)\n",
               opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
               setups_.host_s().size(), sim_runs_.host_s().size(),
               feed_ ? feed_->passes() : std::size_t{0},
               calib_.samples(), calib_.fastest_s());
  if (opt_.trace) {
    emit_per_layer();
    if (!opt_.spans_out.empty()) recorder_.write_jsonl(opt_.spans_out);
  } else {
    emit_end_to_end();
  }
  return out_;
}

}  // namespace

Outcome run_workload(const RunOptions& options) { return Run(options).execute(); }

gc::SimResult run_datacenter_day(unsigned servers, unsigned shards, std::uint64_t seed) {
  Scenario sc;
  sc.kind = Kind::kDcSharded;
  sc.servers = servers;
  sc.shards = shards;
  sc.load = 0.005;
  sc.days = 1.0;
  sc.day_s = 600.0;
  gc::ThreadPool pool(2);
  const gc::ClusterConfig config = config_for(sc);
  gc::Provisioner solver(config);
  const gc::Trace trace = build_trace(sc, config, seed);
  return simulate(sc, trace, solver, seed, pool, true, nullptr).result;
}

}  // namespace perfbench
