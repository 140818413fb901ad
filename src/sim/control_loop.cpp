#include "sim/control_loop.h"

#include <cmath>

#include "util/assert.h"

namespace gc {
namespace {

// kControllerFail subject for the random (non-scripted) outage process.
constexpr std::uint32_t kRandomOutage = ~0u;

// Salt of the control-plane seed (channel links, actuator jitter stream 14,
// outage stream 15) drawn from the cluster's dispatch seed.
constexpr std::uint64_t kControlSeedSalt = 0x5ca1ab1ec0ffeeULL;

}  // namespace

ControlLoop::ControlLoop(Controller& controller, const SimulationOptions& options,
                         std::uint64_t dispatch_seed, AdmissionController& admission,
                         Fleet& fleet)
    : options_(options),
      controller_(controller),
      admission_(admission),
      fleet_(fleet),
      trace_(kTracingCompiledIn ? options.trace : nullptr),
      control_seed_(dispatch_seed ^ kControlSeedSalt),
      // Everything here follows the draw-only-when-needed discipline, so
      // leaving channel, actuator and outages at defaults (or enabling them
      // with zero loss/latency and no outages) is bit-identical to the
      // synchronous path.
      channel_(options.channel, control_seed_),
      chan_on_(options.channel.enabled),
      cmd_path_(chan_on_ || options.actuator.enabled),
      outage_rng_(options.controller_faults.seed != 0 ? options.controller_faults.seed
                                                      : control_seed_,
                  /*stream=*/15),
      in_warmup_(options.warmup_s > 0.0),
      ts_target_m_(static_cast<double>(fleet.state().committed)) {
  cp_options_.actuator = options.actuator;
  rebuild_facade();

  const ControllerFaultOptions& cf = options.controller_faults;
  cf.validate();
  if (cf.enabled()) {
    for (std::size_t i = 0; i < cf.script.size(); ++i) {
      fleet_.schedule(cf.script[i].start_s, EventType::kControllerFail,
                      static_cast<std::uint32_t>(i));
    }
    if (cf.mtbf_s > 0.0) {
      const double ttf = -cf.mtbf_s * std::log(outage_rng_.uniform01_open_left());
      fleet_.schedule(ttf, EventType::kControllerFail, kRandomOutage);
    }
  }

  // The controller's fleet view is seeded from the t = 0 ground truth so a
  // dropped first sample still leaves it something coherent to look at.
  const Fleet::State boot = fleet_.state();
  TelemetryFrame boot_view;
  boot_view.serving = boot.serving;
  boot_view.committed = boot.committed;
  boot_view.powered = boot.powered;
  boot_view.available = boot.available;
  boot_view.jobs_in_system = boot.jobs;
  cp().seed_observation(boot_view);
  // Pristine t = 0 image for cold restarts, serialized only when that mode
  // is in play.
  if (cf.enabled() && cf.recovery == ControllerRecoveryMode::kColdRestart) {
    pristine_snapshot_ = cp().snapshot();
  }
}

// (Re)builds the facade.  Its actuator takes the control seed's stream 14
// for jitter draws.  The lifecycle wiring is re-applied on every rebuild —
// a crashed controller's in-memory observability dies with it.
void ControlLoop::rebuild_facade() {
  cp_.emplace(controller_, cp_options_, Rng(control_seed_, /*stream=*/14));
  // This driver can see the fleet, so it reports command applies back, and
  // it lends the facade the run's trace sink for per-command async spans.
  cp().lifecycle().set_trace(trace_);
  cp().lifecycle().set_expect_applies(true);
}

void ControlLoop::ship_telemetry(double t, const TelemetryFrame& snap) {
  // Telemetry lifecycle id: send-site monotone sequence (DESIGN.md §14.1).
  const std::uint64_t frame_id =
      cp().lifecycle().next_frame_id(FrameClass::kTelemetry);
  if (!chan_on_) {
    cp().accept_telemetry(snap);
    return;
  }
  if (const auto delay = channel_.telemetry_delay()) {
    if (*delay > 0.0) {
      fleet_.schedule(t + *delay, EventType::kTelemetryDeliver,
                      telemetry_in_flight_.put(snap));
    } else {
      // Zero latency: deliver synchronously, never touching the queue
      // (event interleaving stays identical to no channel at all).
      cp().accept_telemetry(snap);
    }
  } else {
    cp().lifecycle().on_frame_dropped(FrameClass::kTelemetry, DropCause::kChannel);
    trace_instant1(trace_, t, "channel", "telemetry-drop", "id",
                   static_cast<double>(frame_id));
  }
}

void ControlLoop::send_ack(double t, const Command& cmd) {
  if (!cp().actuator().enabled()) return;  // fire-and-forget: no ack protocol
  const std::uint64_t frame_id = cp().lifecycle().next_frame_id(FrameClass::kAck);
  if (!chan_on_) {
    cp().on_ack(t, cmd.kind, cmd.gen);
    return;
  }
  if (const auto delay = channel_.ack_delay()) {
    if (*delay > 0.0) {
      fleet_.schedule(t + *delay, EventType::kAckDeliver,
                      acks_in_flight_.put(AckMsg{cmd.kind, cmd.gen}));
    } else {
      cp().on_ack(t, cmd.kind, cmd.gen);
    }
  } else {
    cp().lifecycle().on_frame_dropped(FrameClass::kAck, DropCause::kChannel);
    trace_instant1(trace_, t, "channel", "ack-drop", "id",
                   static_cast<double>(frame_id));
  }
}

void ControlLoop::exit_safe_mode(double t) {
  in_safe_mode_ = false;
  safe_mode_time_s_ += t - safe_mode_entered_at_;
  trace_instant(trace_, t, "control", "safe-mode-exit");
}

// Fleet-side command application: era gate (safe mode), generation dedup,
// then the fleet call, then the ack.
void ControlLoop::apply_command(double t, const Command& cmd) {
  if (in_safe_mode_) {
    if (cmd.era < safe_min_era_) {
      // Planned by the incarnation whose death tripped the watchdog;
      // nobody is waiting for an ack.
      ++cmd_rejected_era_;
      return;
    }
    // First live command after recovery: hand control back to the policy.
    exit_safe_mode(t);
  }
  const int kind = static_cast<int>(cmd.kind);
  if (cmd.gen <= last_applied_gen_[kind]) {
    // Retransmitted or reordered duplicate: idempotent — detected, not
    // re-applied, but re-acked (the original ack may be the casualty).
    ++cmd_duplicates_;
    send_ack(t, cmd);
    return;
  }
  last_applied_gen_[kind] = cmd.gen;
  if (cmd.kind == CommandKind::kTarget) {
    fleet_.apply_target(t, static_cast<unsigned>(cmd.value));
  } else {
    fleet_.apply_speed(t, cmd.value);
  }
  // Fleet-side apply observed: closes the decision→apply stage of the
  // command's lifecycle (before the ack ships, matching real causality).
  cp().on_command_applied(t, cmd.kind, cmd.gen);
  send_ack(t, cmd);
}

void ControlLoop::transmit(double t, const Command& cmd) {
  if (!chan_on_) {
    // Actuator without a channel: delivery and ack are synchronous (the
    // protocol runs, but nothing can be lost).
    apply_command(t, cmd);
    return;
  }
  if (const auto delay = channel_.command_delay()) {
    if (*delay > 0.0) {
      fleet_.schedule(t + *delay, EventType::kCommandDeliver,
                      commands_in_flight_.put(cmd));
    } else {
      apply_command(t, cmd);
    }
  } else {
    cp().lifecycle().on_command_frame_dropped(t, cmd, DropCause::kChannel);
    trace_instant1(trace_, t, "channel", "command-drop", "id",
                   static_cast<double>(command_lifecycle_id(cmd.kind, cmd.gen)));
  }
}

// Transmits one facade decision.  The facade already consulted the policy,
// stamped the fresh commands and collected due retransmissions (in
// transmit order); the driver's only job is delivery.
void ControlLoop::dispatch(double t, const ControlPlane::Decision& decision) {
  if (!cmd_path_) {
    // Synchronous path.  A live controller acting again also ends safe
    // mode (relevant when only controller faults are on).  Capacity grows
    // before speed rises so freshly revived servers adopt the new speed.
    if (in_safe_mode_) exit_safe_mode(t);
    if (decision.action.active_target) {
      fleet_.apply_target(t, *decision.action.active_target);
    }
    if (decision.action.speed) fleet_.apply_speed(t, *decision.action.speed);
    // The whole action applied in place: report each freshly stamped
    // command as applied so even fire-and-forget runs carry complete
    // issued→applied lifecycle timelines (latency 0 by construction).
    for (const ControlPlane::Outbound& out : decision.commands) {
      if (!out.retransmit) cp().on_command_applied(t, out.frame.kind, out.frame.gen);
    }
    return;
  }
  for (const ControlPlane::Outbound& out : decision.commands) {
    if (out.retransmit) trace_instant(trace_, t, "channel", "command-retry");
    transmit(t, out.frame);
  }
}

// A control tick that fires while the controller is down: telemetry has
// already been shipped, the policy is not consulted, and (on short ticks)
// the watchdog counts toward the safe-mode trip.
void ControlLoop::miss_tick(double t, double local_rate, bool short_tick) {
  const ControllerFaultOptions& cf = options_.controller_faults;
  ++ticks_missed_;
  trace_instant(trace_, t, "control", "tick-missed");
  if (short_tick) {
    ++missed_short_ticks_;
    if (cf.safe_mode && !in_safe_mode_ && missed_short_ticks_ >= cf.watchdog_ticks) {
      // Watchdog trip: safe static fallback — everything on at nominal
      // frequency — until a post-recovery command arrives.
      in_safe_mode_ = true;
      safe_mode_entered_at_ = t;
      safe_min_era_ = cp().era() + 1;
      ++safe_mode_entries_;
      fleet_.apply_target(t, fleet_.size());
      fleet_.apply_speed(t, 1.0);
      trace_instant(trace_, t, "control", "safe-mode-enter");
    }
  }
  // Admission control is fleet-local (data plane): it keeps protecting the
  // SLA from the true local rate even with the controller dark.
  admission_.update(local_rate, fleet_.state().serving, fleet_.speed());
}

void ControlLoop::on_tick(double now, bool long_tick) {
  // The rate is measured at the fleet (ground truth) and *shipped* to the
  // controller; what the controller sees is the newest sample the
  // telemetry link delivered.  Long ticks sample the partial short window
  // without resetting it.
  const double elapsed = now - last_short_tick_;
  const std::uint64_t arrivals = fleet_.totals().arrivals;
  const double local_rate =
      elapsed > 0.0 ? static_cast<double>(arrivals - short_window_arrivals_) / elapsed
                    : 0.0;
  if (!long_tick) {
    last_short_tick_ = now;
    short_window_arrivals_ = arrivals;
  }
  const Fleet::State state = fleet_.state();
  TelemetryFrame snap;
  snap.sample_time = now;
  snap.rate = local_rate;
  snap.serving = state.serving;
  snap.committed = state.committed;
  snap.powered = state.powered;
  snap.available = state.available;
  snap.jobs_in_system = state.jobs;
  ship_telemetry(now, snap);

  if (down_depth_ > 0) {
    miss_tick(now, local_rate, /*short_tick=*/!long_tick);
    if (options_.timeseries != nullptr) {
      record_ts(now, long_tick, local_rate, cp().make_context(now, in_safe_mode_),
                nullptr);
    }
    return;
  }
  if (!long_tick) missed_short_ticks_ = 0;
  const ControlPlane::Decision decision = cp().on_tick(now, long_tick, in_safe_mode_);
  const ControlAction& action = decision.action;
  dispatch(now, decision);
  ++ticks_;
  if (action.infeasible) ++infeasible_ticks_;
  if (action.explain.solved_spares >= 0) {
    // A long tick carries a fresh reliability plan (sticky scalars plus
    // the whole-run means); short ticks only re-report the standing one.
    solved_spares_ = static_cast<double>(action.explain.solved_spares);
    availability_est_ = action.explain.availability_est;
    if (long_tick) {
      reliab_avail_sum_ += action.explain.availability_est;
      reliab_spares_sum_ += solved_spares_;
      ++reliab_plan_ticks_;
    }
  }
  admission_.update(local_rate, fleet_.state().serving, fleet_.speed());
  // Spans tile the timeline: each starts at the previous live tick of the
  // same kind.
  observe(long_tick, decision.ctx, action, long_tick ? last_long_tick_ : now - elapsed);
  if (options_.timeseries != nullptr) {
    record_ts(now, long_tick, local_rate, decision.ctx, &action);
  }
  if (long_tick) last_long_tick_ = now;
}

void ControlLoop::on_event(double now, EventType type, std::uint32_t subject) {
  switch (type) {
    case EventType::kTelemetryDeliver:
      cp().accept_telemetry(telemetry_in_flight_.take(subject));
      break;
    case EventType::kCommandDeliver:
      apply_command(now, commands_in_flight_.take(subject));
      break;
    case EventType::kAckDeliver: {
      const AckMsg ack = acks_in_flight_.take(subject);
      cp().on_ack(now, ack.kind, ack.gen);
      break;
    }
    case EventType::kControllerFail: {
      const ControllerFaultOptions& cf = options_.controller_faults;
      ++down_depth_;
      const double duration =
          subject == kRandomOutage
              ? -cf.mttr_s * std::log(outage_rng_.uniform01_open_left())
              : cf.script[subject].duration_s;
      fleet_.schedule(now + duration, EventType::kControllerRecover, subject);
      trace_instant(trace_, now, "control", "controller-fail");
      break;
    }
    case EventType::kControllerRecover:
      on_controller_recover(now, subject);
      break;
    default:
      GC_CHECK(false, "control loop: not a control-plane event");
  }
}

void ControlLoop::on_controller_recover(double t, std::uint32_t subject) {
  const ControllerFaultOptions& cf = options_.controller_faults;
  GC_CHECK(down_depth_ > 0, "recover without an outage");
  --down_depth_;
  if (down_depth_ == 0) {
    switch (cf.recovery) {
      case ControllerRecoveryMode::kPreserve:
        break;
      case ControllerRecoveryMode::kWarmRestart: {
        // Crash + restart from durable state: serialize, tear the facade
        // down, rebuild it empty, restore.  The snapshot bit-identity
        // contract (cp/snapshot.h) makes this a state transplant — the
        // command stream must match kPreserve exactly, and
        // tests/test_recovery holds it to that.
        const std::string snap = cp().snapshot();
        rebuild_facade();
        cp().restore(snap);
        break;
      }
      case ControllerRecoveryMode::kColdRestart: {
        // Durable state lost: restart from the pristine t = 0 image.  The
        // era must not regress with it — safe mode rejects commands from
        // dead incarnations, and in a real deployment the incarnation
        // number lives in a coordination service, not on the lost disk —
        // so it is re-derived here.
        const std::uint32_t prev_era = cp().era();
        rebuild_facade();
        cp().restore(pristine_snapshot_);
        while (cp().era() < prev_era) cp().bump_era();
        break;
      }
    }
    // New incarnation: its commands outrank anything the dead one left in
    // flight, and the watchdog starts from a clean slate.
    cp().bump_era();
    missed_short_ticks_ = 0;
  }
  if (subject == kRandomOutage && cf.mtbf_s > 0.0) {
    const double ttf = -cf.mtbf_s * std::log(outage_rng_.uniform01_open_left());
    fleet_.schedule(t + ttf, EventType::kControllerFail, kRandomOutage);
  }
  trace_instant(trace_, t, "control", "controller-recover");
}

void ControlLoop::end_warmup() {
  in_warmup_ = false;
  warmup_ticks_ = ticks_;
  warmup_infeasible_ = infeasible_ticks_;
}

// One audit record + trace span per control tick.
void ControlLoop::observe(bool long_tick, const ControlContext& ctx,
                          const ControlAction& action, double period_start) {
  if (options_.audit != nullptr) {
    AuditRecord rec;
    rec.time_s = ctx.now;
    rec.long_tick = long_tick;
    rec.observed_rate = ctx.measured_rate;
    rec.serving = ctx.serving;
    rec.committed = ctx.committed;
    rec.powered = ctx.powered;
    rec.available = ctx.available;
    rec.jobs_in_system = ctx.jobs_in_system;
    rec.predicted_rate = action.explain.predicted_rate;
    rec.planning_rate = action.explain.planning_rate;
    rec.safety_margin = action.explain.safety_margin;
    rec.planned_servers = action.explain.planned_servers;
    rec.detected_available = action.explain.detected_available;
    rec.target_set = action.active_target.has_value();
    if (action.active_target) {
      rec.target_servers = *action.active_target;
      rec.delta_servers =
          static_cast<int>(*action.active_target) - static_cast<int>(ctx.committed);
    }
    rec.speed_set = action.speed.has_value();
    if (action.speed) rec.speed = *action.speed;
    rec.infeasible = action.infeasible;
    rec.admit_probability = admission_.admit_probability();
    rec.obs_age_s = ctx.obs_age_s;
    rec.safe_mode = ctx.safe_mode;
    rec.solved_spares = action.explain.solved_spares;
    rec.availability_est = action.explain.availability_est;
    rec.binding_constraint = action.explain.binding_constraint;
    options_.audit->append(rec);
  }
  if (trace_ != nullptr) {
    const std::uint32_t tid = long_tick ? 2u : 1u;
    trace_complete(trace_, period_start, ctx.now - period_start, "control",
                   long_tick ? "long-period" : "short-period", tid);
    TraceRecord solver;
    solver.ts_s = ctx.now;
    solver.cat = "solver";
    solver.name = long_tick ? "plan-servers" : "plan-speed";
    solver.phase = TracePhase::kInstant;
    solver.tid = tid;
    solver.nargs = 2;
    solver.arg_name[0] = "planning_rate";
    solver.arg_value[0] = action.explain.planning_rate;
    if (long_tick) {
      solver.arg_name[1] = "planned_servers";
      solver.arg_value[1] = static_cast<double>(action.explain.planned_servers);
    } else {
      solver.arg_name[1] = "speed";
      solver.arg_value[1] = action.speed ? *action.speed : 0.0;
    }
    trace_emit(trace_, solver);
    if (action.infeasible) trace_instant(trace_, ctx.now, "control", "infeasible", tid);
    // Counter series sampled on the control grid (post-action state).
    const Fleet::State state = fleet_.state();
    trace_counter(trace_, ctx.now, "rate", "jobs_per_s", ctx.measured_rate);
    trace_counter(trace_, ctx.now, "serving", "servers",
                  static_cast<double>(state.serving));
    trace_counter(trace_, ctx.now, "jobs_in_system", "jobs",
                  static_cast<double>(state.jobs));
    trace_counter(trace_, ctx.now, "speed", "s", fleet_.speed());
    if (admission_.enabled()) {
      trace_counter(trace_, ctx.now, "admit_probability", "p",
                    admission_.admit_probability());
    }
  }
}

// One time-series sample per control instant (live and missed ticks;
// `action` is null for the latter), taken after the tick's side effects so
// it shows the post-decision fleet.
void ControlLoop::record_ts(double t, bool long_tick, double local_rate,
                            const ControlContext& ctx, const ControlAction* action) {
  if (action != nullptr && action->active_target) {
    ts_target_m_ = static_cast<double>(*action->active_target);
  }
  const double power = fleet_.power_w();
  ts_energy_j_ += ts_last_power_w_ * (t - ts_last_power_t_);
  ts_last_power_w_ = power;
  ts_last_power_t_ = t;
  const PeriodWindowStats win = fleet_.take_period_window();
  const Fleet::State state = fleet_.state();
  const Fleet::Totals totals = fleet_.totals();
  TimeSeriesSample s;
  s.time = t;
  s.long_tick = long_tick;
  s.measured = !in_warmup_;
  s.observed_rate = ctx.measured_rate;
  s.local_rate = local_rate;
  if (action != nullptr) {
    s.predicted_rate = action->explain.predicted_rate;
    s.planning_rate = action->explain.planning_rate;
    s.infeasible = action->infeasible;
  }
  // While the watchdog's fallback is active the de-facto target is the
  // whole fleet, whatever the (dead) controller last asked for.
  s.target_m = in_safe_mode_ ? static_cast<double>(fleet_.size()) : ts_target_m_;
  s.serving = state.serving;
  s.committed = state.committed;
  s.powered = state.powered;
  s.available = state.available;
  s.speed = fleet_.speed();
  s.power_w = power;
  s.energy_j = ts_energy_j_;
  s.queue_depth = state.jobs;
  s.window_completed = win.completed;
  s.window_mean_response_s = win.mean_s;
  s.window_p95_response_s = win.p95_s;
  s.window_p99_response_s = win.p99_s;
  s.window_violation_fraction = win.violation_fraction;
  s.window_violated = win.completed > 0 && win.mean_s > options_.t_ref_s;
  s.d_admitted = totals.admitted - ts_prev_.admitted;
  s.d_shed = totals.shed - ts_prev_.shed;
  ts_prev_.admitted = totals.admitted;
  ts_prev_.shed = totals.shed;
  s.admit_probability = admission_.admit_probability();
  s.obs_age_s = ctx.obs_age_s;
  s.safe_mode = in_safe_mode_;
  const std::uint64_t telemetry_dropped = channel_.telemetry_counters().dropped;
  const std::uint64_t commands_dropped = channel_.command_counters().dropped;
  const std::uint64_t acks_dropped = channel_.ack_counters().dropped;
  const std::uint64_t retries = cp().actuator().retries();
  s.d_telemetry_dropped = telemetry_dropped - ts_prev_.telemetry_dropped;
  s.d_commands_dropped = commands_dropped - ts_prev_.commands_dropped;
  s.d_acks_dropped = acks_dropped - ts_prev_.acks_dropped;
  s.d_command_retries = retries - ts_prev_.retries;
  s.d_command_duplicates = cmd_duplicates_ - ts_prev_.duplicates;
  s.d_ticks_missed = ticks_missed_ - ts_prev_.ticks_missed;
  ts_prev_.telemetry_dropped = telemetry_dropped;
  ts_prev_.commands_dropped = commands_dropped;
  ts_prev_.acks_dropped = acks_dropped;
  ts_prev_.retries = retries;
  ts_prev_.duplicates = cmd_duplicates_;
  ts_prev_.ticks_missed = ticks_missed_;
  s.d_boots = totals.boots - ts_prev_.boots;
  s.d_shutdowns = totals.shutdowns - ts_prev_.shutdowns;
  ts_prev_.boots = totals.boots;
  ts_prev_.shutdowns = totals.shutdowns;
  s.solved_spares = solved_spares_;
  s.availability_est = availability_est_;
  s.wear_fraction = fleet_.wear_mean();
  options_.timeseries->append(s);
}

void ControlLoop::finish(double now, SimResult& result, MetricRegistry& registry) {
  result.infeasible_ticks = infeasible_ticks_ - warmup_infeasible_;
  const std::uint64_t measured_ticks = ticks_ - warmup_ticks_;
  result.infeasible_ratio = measured_ticks > 0
                                ? static_cast<double>(result.infeasible_ticks) /
                                      static_cast<double>(measured_ticks)
                                : 0.0;
  if (reliab_plan_ticks_ > 0) {
    result.availability_estimate =
        reliab_avail_sum_ / static_cast<double>(reliab_plan_ticks_);
    result.mean_solved_spares =
        reliab_spares_sum_ / static_cast<double>(reliab_plan_ticks_);
  }
  registry.counter("control.ticks").inc(ticks_);
  registry.counter("control.infeasible_ticks").inc(infeasible_ticks_);

  // Control-plane degradation accounting.  Result fields are whole-run
  // (the management path degrades during warmup too); counters are
  // registered only when the respective subsystem was on, so disabled
  // runs keep their historical counter set.
  if (in_safe_mode_) safe_mode_time_s_ += now - safe_mode_entered_at_;
  const CommandActuator& act = cp().actuator();
  result.safe_mode_time_s = safe_mode_time_s_;
  result.safe_mode_entries = safe_mode_entries_;
  result.telemetry_dropped = channel_.telemetry_counters().dropped;
  result.commands_dropped = channel_.command_counters().dropped;
  result.acks_dropped = channel_.ack_counters().dropped;
  result.command_retries = act.retries();
  result.command_duplicates = cmd_duplicates_;
  result.commands_exhausted = act.exhausted();
  result.ticks_missed = ticks_missed_;
  if (chan_on_) {
    registry.counter("chan.telemetry.sent").inc(channel_.telemetry_counters().sent);
    registry.counter("chan.telemetry.dropped").inc(result.telemetry_dropped);
    registry.counter("chan.telemetry.stale_discarded")
        .inc(cp().telemetry_stale_discarded());
    registry.counter("chan.command.sent").inc(channel_.command_counters().sent);
    registry.counter("chan.command.dropped").inc(result.commands_dropped);
    registry.counter("chan.ack.sent").inc(channel_.ack_counters().sent);
    registry.counter("chan.ack.dropped").inc(result.acks_dropped);
  }
  if (cmd_path_) {
    registry.counter("act.retries").inc(act.retries());
    registry.counter("act.acked").inc(act.acked());
    registry.counter("act.stale_acks").inc(act.stale_acks());
    registry.counter("act.exhausted").inc(act.exhausted());
    registry.counter("act.duplicates").inc(cmd_duplicates_);
    registry.counter("act.rejected_era").inc(cmd_rejected_era_);
  }
  if (options_.controller_faults.enabled()) {
    registry.counter("control.ticks_missed").inc(ticks_missed_);
    registry.counter("control.safe_mode_entries").inc(safe_mode_entries_);
  }
  if (options_.audit != nullptr) {
    registry.counter("obs.audit.records").inc(options_.audit->size());
  }
  // Close every still-open lifecycle record first: closing emits the
  // commands' final trace records, which the obs.trace.* tallies count.
  LifecycleTracker& lifecycle = cp().lifecycle();
  lifecycle.finalize_all(now);
  if (trace_ != nullptr) {
    // These differ between tracing on and off by construction; determinism
    // comparisons must skip the "obs." namespace (tests/test_obs_determinism).
    registry.counter("obs.trace.emitted").inc(trace_->emitted());
    registry.counter("obs.trace.dropped").inc(trace_->dropped());
  }
  if (options_.timeseries != nullptr) {
    registry.counter("obs.timeseries.periods").inc(options_.timeseries->periods());
    registry.counter("obs.timeseries.rows").inc(options_.timeseries->size());
  }

  // Reliability readout.  The fleet.* transition counters are registered
  // unconditionally so wear stays observable with the reliability policy
  // off; the wear/availability gauges appear only when the model or a
  // reliability-aware policy was active.
  const Fleet::Totals totals = fleet_.totals();
  registry.counter("fleet.boot_count").inc(totals.boots);
  registry.counter("fleet.shutdown_count").inc(totals.shutdowns);
  if (options_.reliability.enabled() || reliab_plan_ticks_ > 0) {
    registry.gauge("fleet.wear_fraction_mean").set(result.wear_fraction_mean);
    registry.gauge("fleet.wear_fraction_max").set(result.wear_fraction_max);
    // Ground-truth availability over the measured horizon, alongside the
    // closed-form estimate the controller planned with.
    registry.gauge("fleet.availability_observed").set(1.0 - result.unavailability);
    if (reliab_plan_ticks_ > 0) {
      registry.gauge("reliability.availability_estimate")
          .set(result.availability_estimate);
      registry.gauge("reliability.solved_spares_mean").set(result.mean_solved_spares);
    }
  }
  result.counters = registry.snapshot();

  // Export the per-stage latency histograms + per-command timelines.  Like
  // response_hist, these are purely observational and excluded from the
  // determinism checksums.
  result.lifecycle_ack_hist = lifecycle.ack_latency();
  result.lifecycle_apply_hist = lifecycle.apply_latency();
  result.lifecycle_e2e_hist = lifecycle.e2e_latency();
  result.lifecycle_obs_age_hist = lifecycle.obs_age();
  result.command_lifecycles = lifecycle.records();
  // The facade keeps its own cp.* instruments (lifecycle counters
  // included); merge them so a sim run exposes the same namespace as the
  // replay and wire drivers.
  const CountersSnapshot cp_snap = cp().counters_snapshot();
  for (const auto& [name, value] : cp_snap.counters) {
    result.counters.add_counter(name, value);
  }
  for (const auto& [name, value] : cp_snap.gauges) {
    result.counters.add_gauge(name, value);
  }
}

}  // namespace gc
