#include "sim/simulation.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "sim/control_loop.h"
#include "stats/accumulators.h"
#include "util/assert.h"

namespace gc {
namespace {

// The sequential engine's side of the control loop: the one Cluster, read
// and driven at control ticks.
class ClusterFleet final : public ControlLoop::Fleet {
 public:
  ClusterFleet(Cluster& cluster, EventQueue& queue, MetricsCollector& metrics,
               const AdmissionController& admission, const std::uint64_t& admitted,
               const WearModel& wear)
      : cluster_(cluster),
        queue_(queue),
        metrics_(metrics),
        admission_(admission),
        admitted_(admitted),
        wear_(wear) {}

  unsigned size() const override { return cluster_.num_servers(); }
  State state() const override {
    return {cluster_.serving_count(), cluster_.committed_count(),
            cluster_.powered_count(), cluster_.available_count(),
            cluster_.jobs_in_system()};
  }
  Totals totals() const override {
    return {admitted_ + admission_.shed(), admitted_, admission_.shed(),
            cluster_.boots_started(), cluster_.shutdowns_started()};
  }
  double power_w() const override { return cluster_.instantaneous_power(); }
  double speed() const override { return cluster_.current_speed(); }
  // Fleet-mean wear fraction from whole-run totals (uniform budget; the
  // per-server/per-class split is finalized into SimResult at the end).
  double wear_mean() const override {
    const unsigned n = cluster_.num_servers();
    if (n == 0) return 0.0;
    return wear_.wear_fraction(cluster_.boots_started(), cluster_.shutdowns_started()) /
           static_cast<double>(n);
  }
  PeriodWindowStats take_period_window() override {
    return metrics_.take_period_window();
  }
  void apply_target(double now, unsigned target) override {
    cluster_.set_active_target(now, target);
  }
  void apply_speed(double now, double speed) override {
    cluster_.set_all_speeds(now, speed);
  }
  void schedule(double at, EventType type, std::uint32_t subject) override {
    queue_.schedule(at, type, subject);
  }

 private:
  Cluster& cluster_;
  EventQueue& queue_;
  MetricsCollector& metrics_;
  const AdmissionController& admission_;
  const std::uint64_t& admitted_;
  const WearModel& wear_;
};

constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kControllerRecover) + 1;

}  // namespace

SimResult run_simulation(Workload& workload, const ClusterOptions& cluster_options,
                         Controller& controller, const SimulationOptions& options) {
  GC_CHECK(options.t_ref_s > 0.0, "SimulationOptions: t_ref must be positive");
  GC_CHECK(options.warmup_s >= 0.0, "SimulationOptions: warmup must be >= 0");
  const double t_short = controller.short_period_s();
  const double t_long = controller.long_period_s();
  GC_CHECK(t_short > 0.0 && t_long > 0.0, "controller periods must be positive");

  EventQueue queue;
  if (options.expected_events_hint > 0) queue.reserve(options.expected_events_hint);
  Cluster cluster(cluster_options, &queue);
  MetricsCollector metrics(options.t_ref_s);

  // Observability: the registry is owned by the run (single-writer, so the
  // hot-path increments below are plain adds); the trace/audit sinks are
  // caller-owned and may be null.  Everything here is observational — no
  // RNG draw or event ordering depends on it.
  MetricRegistry registry;
  std::array<Counter*, kNumEventTypes> events_dispatched{};
  for (std::size_t t = 0; t < kNumEventTypes; ++t) {
    events_dispatched[t] = &registry.counter(
        std::string("sim.events.") + to_string(static_cast<EventType>(t)));
  }
  Counter& jobs_admitted_count = registry.counter("sim.jobs.admitted");
  Counter& jobs_shed_count = registry.counter("sim.jobs.shed");
  TraceCollector* trace = kTracingCompiledIn ? options.trace : nullptr;
  cluster.set_trace(trace);

  // Fault injection: armed before the first event so background failure
  // clocks start at t = 0.  Seed 0 derives from the dispatch seed, keeping
  // replications (which re-seed the spec) on independent fault histories.
  std::optional<FaultInjector> injector;
  if (options.faults.enabled()) {
    // Per-server failure clocks split off one root stream; boot hangs draw
    // from one shared stream (DESIGN.md §11.1).
    Rng root(options.faults.seed_or(cluster_options.dispatch_seed), /*stream=*/0);
    std::vector<Rng> streams;
    streams.reserve(cluster.num_servers());
    for (unsigned i = 0; i < cluster.num_servers(); ++i) {
      streams.push_back(root.split(i + 1));
    }
    injector.emplace(options.faults, cluster.num_servers(), std::move(streams),
                     root.split(0xb007));
    cluster.set_fault_injector(&*injector);
    injector->arm(queue);
  }

  // Admission control draws from its own stream; with shedding never
  // triggered the run is event-for-event identical to admission disabled.
  AdmissionController admission(
      options.admission, options.t_ref_s,
      Rng(cluster_options.dispatch_seed, /*stream=*/7));

  // Jobs past admission control (routed or dropped); offered = admitted + shed.
  std::uint64_t admitted_total = 0;

  // The control loop (sim/control_loop.h): management network, the
  // ControlPlane facade, controller outages and the per-tick records.
  // Built here so the controller outage events it schedules keep their
  // place in the queue's tie order.
  const WearModel wear(options.reliability);
  ClusterFleet fleet(cluster, queue, metrics, admission, admitted_total, wear);
  ControlLoop control(controller, options, cluster_options.dispatch_seed, admission,
                      fleet);

  // Pending arrival: exactly one kArrival event is outstanding at a time.
  std::optional<JobArrival> pending = workload.next();
  std::uint64_t next_job_id = 1;
  if (pending) queue.schedule(pending->time, EventType::kArrival);

  // Ticks: long scheduled before short at t = 0 so the provisioning
  // decision precedes the frequency decision on ties.
  queue.schedule(0.0, EventType::kLongTick);
  queue.schedule(0.0, EventType::kShortTick);
  if (options.record_interval_s > 0.0) {
    queue.schedule(options.record_interval_s, EventType::kRecord);
  }
  if (options.warmup_s > 0.0) queue.schedule(options.warmup_s, EventType::kWarmupEnd);

  // Rate measurement between record points.
  std::uint64_t arrivals_in_record = 0;
  double last_record = 0.0;

  // Time-weighted serving count / speed / queue length / availability.
  TimeWeightedAccumulator serving_avg(0.0);
  TimeWeightedAccumulator speed_avg(0.0);
  TimeWeightedAccumulator jobs_avg(0.0);
  TimeWeightedAccumulator available_avg(0.0);

  // Warmup snapshots.
  EnergyBreakdown warmup_energy;
  double measure_start = 0.0;
  std::uint64_t warmup_dropped = 0;
  std::uint64_t warmup_boots = 0;
  std::uint64_t warmup_shutdowns = 0;
  std::uint64_t warmup_shed = 0;
  std::uint64_t warmup_failures = 0;
  std::uint64_t warmup_repairs = 0;
  std::uint64_t warmup_boot_timeouts = 0;
  std::uint64_t warmup_redispatched = 0;
  std::uint64_t warmup_lost = 0;
  std::uint64_t warmup_admitted = 0;
  bool in_warmup = options.warmup_s > 0.0;
  RatioAccumulator window_violations;

  // The time-series recorder (null = off) reads the metrics period window.
  if (options.timeseries != nullptr) metrics.enable_period_window();

  SimResult result;
  double now = 0.0;
  bool workload_done = !pending.has_value();

  auto record_timeline = [&](double t) {
    TimelinePoint point;
    point.time = t;
    const double dt = t - last_record;
    point.arrival_rate = dt > 0.0 ? static_cast<double>(arrivals_in_record) / dt : 0.0;
    arrivals_in_record = 0;
    last_record = t;
    point.serving = cluster.serving_count();
    point.powered = cluster.powered_count();
    point.available = cluster.available_count();
    point.speed = cluster.current_speed();
    point.power_watts = cluster.instantaneous_power();
    point.jobs_in_system = static_cast<double>(cluster.jobs_in_system());
    point.window_mean_response_s = metrics.take_window_mean_response();
    point.admit_probability = admission.admit_probability();
    result.timeline.push_back(point);
  };

  // Snapshots the whole-run totals the measured deltas are taken from
  // (energy after the caller's flush).
  auto snapshot_warmup = [&](double t) {
    warmup_energy = cluster.energy();
    measure_start = t;
    metrics.reset_response_stats();
    warmup_dropped = cluster.jobs_dropped();
    warmup_boots = cluster.boots_started();
    warmup_shutdowns = cluster.shutdowns_started();
    warmup_shed = admission.shed();
    warmup_failures = cluster.failures();
    warmup_repairs = cluster.repairs();
    warmup_boot_timeouts = cluster.boot_timeouts();
    warmup_redispatched = cluster.jobs_redispatched();
    warmup_lost = cluster.jobs_lost();
    warmup_admitted = admitted_total;
    control.end_warmup();
  };

  while (auto event = queue.pop()) {
    // The run is over once the workload is exhausted and every job has
    // departed; pending ticks/completions past that point would only
    // stretch the horizon with idle time.
    if (workload_done && !pending && cluster.jobs_in_system() == 0 &&
        event->type != EventType::kDeparture && event->type != EventType::kArrival) {
      break;
    }
    now = event->time;
    if (options.hard_stop_s > 0.0 && now > options.hard_stop_s) break;

    serving_avg.advance(now, static_cast<double>(cluster.serving_count()));
    speed_avg.advance(now, cluster.current_speed());
    jobs_avg.advance(now, static_cast<double>(cluster.jobs_in_system()));
    available_avg.advance(now, static_cast<double>(cluster.available_count()));

    events_dispatched[static_cast<std::size_t>(event->type)]->inc();

    switch (event->type) {
      case EventType::kArrival: {
        GC_CHECK(pending.has_value(), "arrival event without pending job");
        // Rate measurements see the *offered* load (before shedding) so the
        // controller keeps planning against true demand and scales back up
        // when capacity returns.
        ++arrivals_in_record;
        if (admission.admit()) {
          Job job;
          job.id = next_job_id++;
          job.arrival_time = pending->time;
          job.size = pending->size;
          job.remaining = pending->size;
          cluster.route_job(now, job);
          ++admitted_total;
          jobs_admitted_count.inc();
        } else {
          jobs_shed_count.inc();
          trace_instant(trace, now, "admission", "shed");
        }
        pending = workload.next();
        if (pending) {
          GC_CHECK(pending->time >= now, "workload produced non-monotone arrivals");
          queue.schedule(pending->time, EventType::kArrival);
        } else {
          workload_done = true;
        }
        break;
      }
      case EventType::kDeparture: {
        metrics.on_job_completed(now, cluster.handle_departure(now, event->subject));
        break;
      }
      case EventType::kBootComplete:
        cluster.handle_boot_complete(now, event->subject);
        break;
      case EventType::kShutdownComplete:
        cluster.handle_shutdown_complete(now, event->subject);
        break;
      case EventType::kServerFail:
        (void)cluster.handle_fault_event(now, event->type, event->subject);
        trace_instant(trace, now, "fault", "server-fail");
        break;
      case EventType::kServerRepair:
        (void)cluster.handle_fault_event(now, event->type, event->subject);
        trace_instant(trace, now, "fault", "server-repair");
        break;
      case EventType::kBootTimeout:
        (void)cluster.handle_fault_event(now, event->type, event->subject);
        trace_instant(trace, now, "fault", "boot-timeout");
        break;
      case EventType::kShortTick:
      case EventType::kLongTick: {
        const bool long_tick = event->type == EventType::kLongTick;
        control.on_tick(now, long_tick);
        // Keep ticking while there is anything left to happen.
        if (!workload_done || cluster.jobs_in_system() > 0) {
          queue.schedule(now + (long_tick ? t_long : t_short), event->type);
        }
        break;
      }
      case EventType::kTelemetryDeliver:
      case EventType::kCommandDeliver:
      case EventType::kAckDeliver:
      case EventType::kControllerFail:
      case EventType::kControllerRecover:
        control.on_event(now, event->type, event->subject);
        break;
      case EventType::kRecord: {
        record_timeline(now);
        if (!workload_done || cluster.jobs_in_system() > 0) {
          queue.schedule(now + options.record_interval_s, EventType::kRecord);
        }
        break;
      }
      case EventType::kWarmupEnd: {
        in_warmup = false;
        serving_avg = TimeWeightedAccumulator(now);
        speed_avg = TimeWeightedAccumulator(now);
        jobs_avg = TimeWeightedAccumulator(now);
        available_avg = TimeWeightedAccumulator(now);
        cluster.flush_energy(now);
        snapshot_warmup(now);
        break;
      }
    }
  }

  cluster.flush_energy(now);
  if (in_warmup) {
    // The workload drained before the warmup ended: there is no measured
    // interval at all.  Report an empty (not a warmup-polluted) result.
    snapshot_warmup(now);
  }
  const EnergyBreakdown total = cluster.energy();
  result.energy.busy_j = total.busy_j - warmup_energy.busy_j;
  result.energy.idle_j = total.idle_j - warmup_energy.idle_j;
  result.energy.transition_j = total.transition_j - warmup_energy.transition_j;
  result.energy.off_j = total.off_j - warmup_energy.off_j;

  result.sim_time_s = now - measure_start;
  result.completed_jobs = metrics.completed();
  result.dropped_jobs = cluster.jobs_dropped() - warmup_dropped;
  result.boots = cluster.boots_started() - warmup_boots;
  result.shutdowns = cluster.shutdowns_started() - warmup_shutdowns;
  result.shed_jobs = admission.shed() - warmup_shed;
  result.failures = cluster.failures() - warmup_failures;
  result.repairs = cluster.repairs() - warmup_repairs;
  result.boot_timeouts = cluster.boot_timeouts() - warmup_boot_timeouts;
  result.jobs_redispatched = cluster.jobs_redispatched() - warmup_redispatched;
  result.jobs_lost = cluster.jobs_lost() - warmup_lost;
  const std::uint64_t offered =
      (admitted_total - warmup_admitted) + result.shed_jobs;
  result.shed_ratio =
      offered > 0 ? static_cast<double>(result.shed_jobs) / static_cast<double>(offered)
                  : 0.0;

  result.response_hist = metrics.response_histogram();
  result.mean_response_s = metrics.response().mean();
  result.p95_response_s = metrics.p95();
  result.p99_response_s = metrics.p99();
  result.max_response_s = metrics.response().count() > 0 ? metrics.response().max() : 0.0;
  result.job_violation_ratio = metrics.job_violation_ratio();
  // Window violations from the recorded timeline (mean response per window
  // vs the guarantee); without a timeline this stays 0.
  for (const TimelinePoint& p : result.timeline) {
    if (p.time <= measure_start) continue;
    window_violations.add(p.window_mean_response_s > options.t_ref_s);
  }
  result.window_violation_ratio = window_violations.ratio();

  result.mean_power_w =
      result.sim_time_s > 0.0 ? result.energy.total_j() / result.sim_time_s : 0.0;
  result.mean_serving = serving_avg.time_average();
  result.mean_speed = speed_avg.time_average();
  result.mean_jobs_in_system = jobs_avg.time_average();
  result.mean_available = available_avg.time_average();
  result.unavailability =
      available_avg.elapsed() > 0.0
          ? 1.0 - result.mean_available / static_cast<double>(cluster.num_servers())
          : 0.0;

  // Whole-run totals (including warmup, unlike the deltas above) for the
  // counters snapshot.  Registered at the end so the hot loop only touches
  // the per-event counters above.
  // Every departure completes one job.
  registry.counter("sim.jobs.completed")
      .inc(events_dispatched[static_cast<std::size_t>(EventType::kDeparture)]->value());
  registry.counter("sim.jobs.dropped").inc(cluster.jobs_dropped());
  registry.counter("sim.jobs.redispatched").inc(cluster.jobs_redispatched());
  registry.counter("sim.jobs.lost").inc(cluster.jobs_lost());
  registry.counter("cluster.boots").inc(cluster.boots_started());
  registry.counter("cluster.shutdowns").inc(cluster.shutdowns_started());
  registry.counter("cluster.failures").inc(cluster.failures());
  registry.counter("cluster.repairs").inc(cluster.repairs());
  registry.counter("cluster.boot_timeouts").inc(cluster.boot_timeouts());
  registry.gauge("sim.time_s").set(now);

  // Per-server wear; finish() turns it into the reliability gauges.
  const auto server_boots = cluster.server_boots();
  const auto server_shutdowns = cluster.server_shutdowns();
  result.server_cycles.resize(server_boots.size());
  double wear_sum = 0.0;
  for (std::size_t i = 0; i < server_boots.size(); ++i) {
    result.server_cycles[i] = server_boots[i] + server_shutdowns[i];
    const double frac =
        wear.wear_fraction(server_boots[i], server_shutdowns[i],
                           cluster.server_class_of(static_cast<unsigned>(i)));
    wear_sum += frac;
    result.wear_fraction_max = std::max(result.wear_fraction_max, frac);
  }
  result.wear_fraction_mean =
      server_boots.empty() ? 0.0 : wear_sum / static_cast<double>(server_boots.size());
  control.finish(now, result, registry);
  return result;
}

}  // namespace gc
