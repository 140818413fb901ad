// The server lifecycle core shared by both simulation engines: a set of
// Servers addressed by local index, the fleet accounting over them and the
// VOVF + fault transition choreography (DESIGN.md §6.2, §11.1).
//
// Cluster (sim/cluster.h) is one pool over the whole fleet; the sharded
// engine (sim/sharded.h) runs one per shard over the servers it owns.  The
// pool owns the per-state counters and the serving set (exact because every
// power-state mutation goes through one place); boot, drain/revive,
// shutdown once drained, boot and shutdown completion, crash, boot timeout
// and repair, with their whole-run and per-server tallies; enqueue and
// departure with departure scheduling; the fleet-wide speed change and the
// energy flush.  What differs between the engines stays with them: which
// server takes a job, which servers to boot or drain, and what becomes of
// a crash's orphaned jobs.
//
// Events the pool schedules carry the local index as their subject; the
// owner routes them back into the handle_* methods.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "power/energy_meter.h"
#include "power/power_model.h"
#include "sim/event_queue.h"
#include "sim/job.h"
#include "sim/server.h"
#include "util/assert.h"

namespace gc {

class FaultInjector;

struct EnergyBreakdown {
  double busy_j = 0.0;
  double idle_j = 0.0;
  double transition_j = 0.0;
  double off_j = 0.0;
  [[nodiscard]] double total_j() const noexcept {
    return busy_j + idle_j + transition_j + off_j;
  }
};

class ServerPool {
 public:
  // `queue` must outlive the pool; `speed` is the initial fleet speed.
  ServerPool(EventQueue* queue, const TransitionModel& transition, double speed);

  void reserve(std::size_t count);
  // Appends a server at the next local index; `id` is its fleet-wide index.
  void add(std::uint32_t id, const PowerModel* power, double speed, bool initially_on,
           double rate_scale = 1.0);

  // Boot hangs are drawn from `faults` (null: every boot completes), which
  // also schedules what follows a fault event.  Must outlive the pool.
  void set_fault_injector(FaultInjector* faults) noexcept { faults_ = faults; }
  // Per-server boot/shutdown/failed phases become async trace spans keyed
  // by the server's id.  Null (the default) disables recording.
  void set_trace(TraceCollector* trace) noexcept { trace_ = trace; }
  // Called with (now, i) right before every power-state mutation of server
  // i — the sharded engine advances its lazy per-server integrals here.
  void set_before_transition(std::function<void(double, std::uint32_t)> hook) {
    before_transition_ = std::move(hook);
  }

  [[nodiscard]] unsigned num_servers() const noexcept {
    return static_cast<unsigned>(servers_.size());
  }
  [[nodiscard]] const Server& server(std::uint32_t i) const {
    GC_CHECK(i < servers_.size(), "ServerPool: server index out of range");
    return servers_[i];
  }
  [[nodiscard]] std::span<const Server> servers() const noexcept { return servers_; }

  // -- fleet accounting: O(1) ----------------------------------------------
  [[nodiscard]] unsigned serving_count() const noexcept { return serving_n_; }
  // Serving + booting: the capacity already committed.
  [[nodiscard]] unsigned committed_count() const noexcept { return serving_n_ + booting_; }
  // Anything not OFF (including FAILED: a crashed machine is not off).
  [[nodiscard]] unsigned powered_count() const noexcept { return powered_; }
  [[nodiscard]] unsigned failed_count() const noexcept { return failed_; }
  // Anything not FAILED: the fleet a failure-aware controller can draw on.
  [[nodiscard]] unsigned available_count() const noexcept {
    return num_servers() - failed_;
  }
  [[nodiscard]] std::size_t jobs_in_system() const noexcept { return jobs_; }

  // The serving set as ascending local indices.  Kept as a bitmap (a
  // transition flips one bit) and re-listed here only when it changed
  // since the last call, so between calls the list is a snapshot:
  // serving_snapshot() reads it without re-listing, which is how the
  // sharded engine freezes its round-robin window.
  [[nodiscard]] std::span<const std::uint32_t> serving() const;
  [[nodiscard]] bool serving_changed() const noexcept { return serving_dirty_; }
  [[nodiscard]] std::span<const std::uint32_t> serving_snapshot() const noexcept {
    return serving_list_;
  }

  // -- tallies --------------------------------------------------------------
  [[nodiscard]] std::uint64_t boots_started() const noexcept { return boots_; }
  [[nodiscard]] std::uint64_t shutdowns_started() const noexcept { return shutdowns_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t repairs() const noexcept { return repairs_; }
  [[nodiscard]] std::uint64_t boot_timeouts() const noexcept { return boot_timeouts_; }
  // Per-server transition counts (index = local index), the raw signal
  // behind the wear-out model (core/reliability.h): each boot or shutdown
  // is half an on/off cycle charged against that server's lifetime budget.
  [[nodiscard]] std::span<const std::uint32_t> server_boots() const noexcept {
    return server_boots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> server_shutdowns() const noexcept {
    return server_shutdowns_;
  }
  // The last fleet-wide speed.
  [[nodiscard]] double current_speed() const noexcept { return speed_; }

  // -- lifecycle -------------------------------------------------------------
  // OFF -> BOOTING; the boot completes after the boot delay or, when the
  // injector samples a hang, times out into FAILED.
  void boot(double now, std::uint32_t i);
  // A draining server takes traffic again.
  void revive(double now, std::uint32_t i);
  // A serving server stops taking traffic and shuts down once empty
  // (possibly at once).
  void drain(double now, std::uint32_t i);
  void handle_boot_complete(double now, std::uint32_t i);
  void handle_shutdown_complete(double now, std::uint32_t i);

  // Routes a fault event (kServerFail / kServerRepair / kBootTimeout) for
  // server i, then lets the injector schedule what follows.  kServerFail
  // crashes a powered server (a no-op on an OFF or FAILED one): its pending
  // events are cancelled and its in-flight and queued jobs leave the pool
  // through `orphans` — the owner re-enqueues or drops them — before any
  // follow-up is scheduled.  Returns true when a server crashed.
  bool handle_fault_event(double now, EventType type, std::uint32_t i,
                          const std::function<void(std::vector<Job>&)>& orphans);

  // -- data plane (hot path) -------------------------------------------------
  // Requires server(i).serving().
  void enqueue(double now, std::uint32_t i, const Job& job) {
    Server& s = servers_[i];
    if (const std::optional<double> eta = s.enqueue(now, job)) {
      GC_DCHECK(s.pending_departure == kInvalidEventId, "idle server with a departure");
      s.pending_departure = queue_->schedule(*eta, EventType::kDeparture, i);
    }
    ++jobs_;
  }
  // The departure event of server i fired: returns the finished job; a
  // drained server starts shutting down.
  Job handle_departure(double now, std::uint32_t i) {
    Server& s = servers_[i];
    const Server::Completion completion = s.complete_current(now);
    if (completion.next_eta) {
      s.pending_departure =
          queue_->schedule(*completion.next_eta, EventType::kDeparture, i);
    } else {
      s.pending_departure = kInvalidEventId;
      if (s.draining()) shutdown_if_drained(now, i);
    }
    GC_CHECK(jobs_ > 0, "departure with no jobs in system");
    --jobs_;
    return completion.finished;
  }

  // Every server to `speed`; in-flight departures are re-timed.  A no-op
  // when every server already runs at it.
  void set_speed(double now, double speed);
  // Servers [begin, end) to `speed` (a group of a heterogeneous fleet).
  void set_speed(double now, std::uint32_t begin, std::uint32_t end, double speed);

  void flush_energy(double now);
  [[nodiscard]] EnergyBreakdown energy() const;
  [[nodiscard]] double instantaneous_power() const;

 private:
  // Runs a power-state mutation of server i keeping the counters and the
  // serving set exact.
  template <typename Fn>
  void transition(double now, std::uint32_t i, Fn&& mutate);
  void shutdown_if_drained(double now, std::uint32_t i);
  void crash(double now, std::uint32_t i,
             const std::function<void(std::vector<Job>&)>& orphans);

  std::vector<Server> servers_;
  EventQueue* queue_;  // non-owning
  TransitionModel transition_;
  FaultInjector* faults_ = nullptr;  // non-owning; may be null
  TraceCollector* trace_ = nullptr;  // non-owning; may be null
  std::function<void(double, std::uint32_t)> before_transition_;

  std::vector<std::uint64_t> serving_bits_;
  mutable std::vector<std::uint32_t> serving_list_;
  mutable bool serving_dirty_ = true;
  unsigned serving_n_ = 0;
  unsigned booting_ = 0;
  unsigned powered_ = 0;
  unsigned failed_ = 0;
  std::size_t jobs_ = 0;

  double speed_;
  bool uniform_speed_ = true;  // every server runs at speed_

  std::uint64_t boots_ = 0;
  std::uint64_t shutdowns_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t boot_timeouts_ = 0;
  std::vector<std::uint32_t> server_boots_;
  std::vector<std::uint32_t> server_shutdowns_;
};

}  // namespace gc
