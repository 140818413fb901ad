// The simulator's one control-loop driver (DESIGN.md §12.2): everything
// between "sample the fleet" and "apply a command", shared by both
// simulation engines.
//
// ControlLoop owns the management network (sim/control_channel.h) and its
// in-flight payloads, the ControlPlane facade (cp/control_plane.h), the
// fleet-side generation dedup and acks, the controller outage process with
// its watchdog, safe mode, era gate and warm/cold restart (DESIGN.md §8.3,
// §13.4), the tick/infeasible counts and their warmup snapshot, the
// reliability plan scalars, and the per-tick observability records: the
// decision audit, the control trace spans/instants/counters and the
// time-series sample.  At the end of a run it fills the control fields of
// SimResult and registers the chan.*, act.*, control.*, obs.* and fleet.*
// counters, then merges the facade's cp.* namespace.
//
// An engine talks to it through Fleet, a small interface called once per
// control tick (never per simulation event).  The engine supplies fleet
// readings and applies targets and speeds; the driver never sees a server.
// Engine-owned values are passed through as each engine computes them —
// the local arrival count, the speed fed to admission and the time series,
// the wear mean and the period response window differ between the
// sequential and the sharded engine in floating point or in order, and
// each engine's pinned goldens depend on its own form.
//
// Tick scheduling and run termination stay with the engine: it calls
// on_tick() when a tick event fires and reschedules the next one itself.
// Control-plane events the driver scheduled (deliveries and controller
// outage edges) come back through on_event().
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cp/control_plane.h"
#include "obs/counters.h"
#include "sim/admission.h"
#include "sim/control_channel.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

namespace gc {

class ControlLoop {
 public:
  // The engine side of the loop, read and driven once per control tick.
  class Fleet {
   public:
    // Instantaneous fleet counts.
    struct State {
      unsigned serving = 0;
      unsigned committed = 0;
      unsigned powered = 0;
      unsigned available = 0;
      std::uint64_t jobs = 0;
    };
    // Whole-run cumulative totals.
    struct Totals {
      std::uint64_t arrivals = 0;  // offered: admitted + shed
      std::uint64_t admitted = 0;
      std::uint64_t shed = 0;
      std::uint64_t boots = 0;
      std::uint64_t shutdowns = 0;
    };

    [[nodiscard]] virtual unsigned size() const = 0;
    [[nodiscard]] virtual State state() const = 0;
    [[nodiscard]] virtual Totals totals() const = 0;
    [[nodiscard]] virtual double power_w() const = 0;
    // Fleet speed as the engine reports it to admission and observability.
    [[nodiscard]] virtual double speed() const = 0;
    [[nodiscard]] virtual double wear_mean() const = 0;
    // Response statistics since the previous call (time-series only).
    [[nodiscard]] virtual PeriodWindowStats take_period_window() = 0;
    virtual void apply_target(double now, unsigned target) = 0;
    virtual void apply_speed(double now, double speed) = 0;
    // Schedules a control-plane event on the engine's queue; it comes back
    // through ControlLoop::on_event().
    virtual void schedule(double at, EventType type, std::uint32_t subject) = 0;

   protected:
    // Engines own their fleet; nothing is deleted through this interface.
    ~Fleet() = default;
  };

  // Builds the channel and the facade, seeds the facade's fleet view from
  // the t = 0 fleet state and schedules the controller outage process.
  // Everything borrowed must outlive the loop.
  ControlLoop(Controller& controller, const SimulationOptions& options,
              std::uint64_t dispatch_seed, AdmissionController& admission,
              Fleet& fleet);

  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  // One control tick at `now`: measure and ship telemetry, then either
  // decide and transmit (controller up) or count a missed tick and run the
  // watchdog (controller down); update admission; record the tick.
  void on_tick(double now, bool long_tick);

  // A kTelemetryDeliver, kCommandDeliver, kAckDeliver, kControllerFail or
  // kControllerRecover event this loop scheduled.
  void on_event(double now, EventType type, std::uint32_t subject);

  // Snapshots the tick counters; later samples are marked measured.
  void end_warmup();

  // Fills the control-plane fields of `result`, registers the control
  // counters in `registry` and sets result.counters from it, then merges
  // the facade's cp.* counters and lifecycle records.  Call once, after
  // the engine filled the fleet scalars (wear and unavailability feed the
  // reliability gauges).
  void finish(double now, SimResult& result, MetricRegistry& registry);

 private:
  struct AckMsg {
    CommandKind kind = CommandKind::kTarget;
    std::uint64_t gen = 0;
  };

  [[nodiscard]] ControlPlane& cp() noexcept { return *cp_; }
  void rebuild_facade();
  void ship_telemetry(double t, const TelemetryFrame& snap);
  void send_ack(double t, const Command& cmd);
  void exit_safe_mode(double t);
  void apply_command(double t, const Command& cmd);
  void transmit(double t, const Command& cmd);
  void dispatch(double t, const ControlPlane::Decision& decision);
  void miss_tick(double t, double local_rate, bool short_tick);
  void on_controller_recover(double t, std::uint32_t subject);
  void observe(bool long_tick, const ControlContext& ctx, const ControlAction& action,
               double period_start);
  void record_ts(double t, bool long_tick, double local_rate, const ControlContext& ctx,
                 const ControlAction* action);

  const SimulationOptions& options_;
  Controller& controller_;
  AdmissionController& admission_;
  Fleet& fleet_;
  TraceCollector* const trace_;
  const std::uint64_t control_seed_;

  // Management network and the controller box.
  ControlChannel channel_;
  const bool chan_on_;
  // Commands take the generation-stamped path whenever the channel or the
  // ack/retry protocol is on; otherwise they apply in place.
  const bool cmd_path_;
  ControlPlaneOptions cp_options_;
  // In an optional so the crash-recovery modes can tear the facade down
  // and rebuild it mid-run.
  std::optional<ControlPlane> cp_;
  SlotStore<TelemetryFrame> telemetry_in_flight_;
  SlotStore<Command> commands_in_flight_;
  SlotStore<AckMsg> acks_in_flight_;
  // Fleet-side dedup: a delivered command applies only when its generation
  // beats the last applied one per kind.
  std::uint64_t last_applied_gen_[kNumCommandKinds] = {0, 0};
  std::uint64_t cmd_duplicates_ = 0;
  std::uint64_t cmd_rejected_era_ = 0;

  // Controller outages, watchdog and safe mode.
  Rng outage_rng_;
  // Outages may overlap (scripted windows + the random process), so the
  // controller is down while the depth is positive.
  unsigned down_depth_ = 0;
  unsigned missed_short_ticks_ = 0;  // consecutive; the watchdog's counter
  std::uint64_t ticks_missed_ = 0;
  bool in_safe_mode_ = false;
  double safe_mode_entered_at_ = 0.0;
  double safe_mode_time_s_ = 0.0;
  std::uint64_t safe_mode_entries_ = 0;
  // Safe mode rejects commands stamped by an incarnation older than this.
  std::uint32_t safe_min_era_ = 0;
  // Pristine t = 0 facade image, captured only for cold restarts.
  std::string pristine_snapshot_;

  // Local rate window (short ticks) and control-period span starts.
  double last_short_tick_ = 0.0;
  std::uint64_t short_window_arrivals_ = 0;
  double last_long_tick_ = 0.0;

  // Tick counts and their warmup snapshot.
  bool in_warmup_;
  std::uint64_t ticks_ = 0;
  std::uint64_t infeasible_ticks_ = 0;
  std::uint64_t warmup_ticks_ = 0;
  std::uint64_t warmup_infeasible_ = 0;

  // Reliability plan: sticky scalars between long ticks and run means.
  double solved_spares_ = 0.0;
  double availability_est_ = 0.0;
  double reliab_avail_sum_ = 0.0;
  double reliab_spares_sum_ = 0.0;
  std::uint64_t reliab_plan_ticks_ = 0;

  // Time-series state: sticky target, left-rule energy integral of power
  // sampled at ticks, and the previous sample's cumulative counters.
  double ts_target_m_;
  double ts_energy_j_ = 0.0;
  double ts_last_power_w_ = 0.0;
  double ts_last_power_t_ = 0.0;
  struct TsPrev {
    std::uint64_t telemetry_dropped = 0;
    std::uint64_t commands_dropped = 0;
    std::uint64_t acks_dropped = 0;
    std::uint64_t retries = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t ticks_missed = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t boots = 0;
    std::uint64_t shutdowns = 0;
  } ts_prev_;
};

}  // namespace gc
