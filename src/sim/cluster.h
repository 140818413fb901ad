// The simulated cluster: N servers, a dispatcher, and the VOVF control
// policy of the sequential engine.
//
// The server lifecycle — fleet counters, serving set, boot/drain/shutdown,
// crash/timeout/repair and event scheduling for all of it — lives in the
// ServerPool (sim/server_pool.h) shared with the sharded engine.  What the
// cluster adds is its side of the model differences (DESIGN.md §11.1):
// JSQ/RR/random/least-work dispatch, the reconcile policy, re-dispatch of
// a crash's orphaned jobs, and heterogeneous server groups.
//
// Control plane semantics (see DESIGN.md §1.2):
//   * set_active_target(m): reconciles towards m servers that are either
//     serving or booting.  To grow, draining servers are revived first
//     (free), then OFF servers are booted (boot_delay, full power, no
//     service).  To shrink, serving servers with the least outstanding
//     work are put into draining; a draining server shuts down as soon as
//     its queue empties (possibly immediately).
//   * set_all_speeds(s): applied to every server; in-flight work is
//     re-timed (departure events rescheduled).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "power/power_model.h"
#include "sim/dispatcher.h"
#include "sim/event_queue.h"
#include "sim/job.h"
#include "sim/server.h"
#include "sim/server_pool.h"

namespace gc {

// A homogeneous slice of a (possibly heterogeneous) cluster.
struct ServerGroupSpec {
  unsigned count = 0;
  PowerModelParams power = {};
  double rate_scale = 1.0;       // work-seconds per wall second at s = 1
  unsigned initial_active = 0;   // servers of this group ON at t = 0
  double initial_speed = 1.0;
};

struct ClusterOptions {
  unsigned num_servers = 64;
  PowerModelParams power = {};
  TransitionModel transition = {};
  DispatchPolicy dispatch = DispatchPolicy::kJoinShortestQueue;
  unsigned initial_active = 64;  // servers ON at t = 0
  double initial_speed = 1.0;
  std::uint64_t dispatch_seed = 42;
  // Heterogeneous mode: when non-empty, `groups` supersedes num_servers /
  // power / initial_active / initial_speed (the homogeneous fields above
  // describe group 0 of a single-group cluster).
  std::vector<ServerGroupSpec> groups;
};

// The pool is a private base: its accounting and tallies are re-exported
// below; its lifecycle operations are driven only by the cluster's policy.
class Cluster : private ServerPool {
 public:
  // `queue` must outlive the cluster.
  Cluster(const ClusterOptions& options, EventQueue* queue);

  // -- control plane --------------------------------------------------------
  void set_active_target(double now, unsigned target);
  void set_all_speeds(double now, double speed) { set_speed(now, speed); }

  // Group-level control (heterogeneous clusters).  Groups are indexed in
  // ClusterOptions::groups order; a homogeneous cluster is group 0.
  [[nodiscard]] std::size_t num_groups() const noexcept { return group_sizes_.size(); }
  [[nodiscard]] unsigned group_size(std::size_t group) const;
  [[nodiscard]] unsigned group_serving_count(std::size_t group) const;
  [[nodiscard]] std::uint32_t group_of(std::uint32_t server) const;
  void set_group_active_target(double now, std::size_t group, unsigned target);
  void set_group_speed(double now, std::size_t group, double speed);
  // Routes within one group (serving servers only, random pick); used by
  // weighted hetero dispatchers.  Returns false if the group has no
  // serving server (the job is dropped).
  bool route_job_to_group(double now, std::size_t group, const Job& job);

  // Fleet counts (O(1), read on every event by the simulation loop), the
  // lifecycle tallies and energy accounting — see sim/server_pool.h.
  using ServerPool::available_count, ServerPool::committed_count,
      ServerPool::failed_count, ServerPool::powered_count, ServerPool::serving_count;
  using ServerPool::current_speed, ServerPool::num_servers, ServerPool::server;
  using ServerPool::boot_timeouts, ServerPool::boots_started, ServerPool::failures,
      ServerPool::repairs, ServerPool::shutdowns_started;
  using ServerPool::jobs_in_system, ServerPool::server_boots,
      ServerPool::server_shutdowns;
  using ServerPool::energy, ServerPool::flush_energy, ServerPool::instantaneous_power;

  // -- data plane (called by the simulation loop) ---------------------------
  // Routes an arrival; returns false if dropped (no serving server — only
  // possible if the controller drove the cluster to zero, which
  // set_active_target prevents by keeping >= 1 serving/booting).
  bool route_job(double now, const Job& job);
  // Departure / boot / shutdown completion events for a server.
  using ServerPool::handle_boot_complete, ServerPool::handle_departure,
      ServerPool::handle_shutdown_complete;

  // -- fault plane (driven by sim/fault_injector.h) -------------------------
  // When set (before any boot command), every boot consults the injector
  // for a sampled hang, and handle_fault_event routes fault events through
  // it.  `injector` must outlive the cluster.
  using ServerPool::set_fault_injector;
  // kServerFail / kServerRepair / kBootTimeout for `server`.  A crash
  // re-dispatches the orphaned jobs to surviving serving servers (jobs
  // that cannot be placed are lost and counted).  Returns true if a
  // kServerFail crashed a powered server.
  bool handle_fault_event(double now, EventType type, std::uint32_t server);

  // Optional trace sink (obs/trace.h); per-server boot/shutdown/failed
  // lifecycle phases are recorded as async spans keyed by server index.
  // Null (the default) disables recording.  `trace` must outlive the
  // cluster.  Strictly observational.
  using ServerPool::set_trace;

  [[nodiscard]] std::uint64_t jobs_dropped() const noexcept { return jobs_dropped_; }
  // Jobs that survived a crash by moving to another serving server.
  [[nodiscard]] std::uint64_t jobs_redispatched() const noexcept {
    return jobs_redispatched_;
  }
  // Jobs destroyed by a crash (no surviving server could take them).
  [[nodiscard]] std::uint64_t jobs_lost() const noexcept { return jobs_lost_; }
  // Server class of a given index (heterogeneous fleets; 0 for uniform).
  [[nodiscard]] std::uint32_t server_class_of(unsigned server) const noexcept {
    return server_group_[server];
  }

 private:
  // Reconciles active servers towards `target` within [begin, end);
  // `committed` is the serving+booting count of that range.
  void reconcile_range(double now, std::uint32_t begin, std::uint32_t end,
                       unsigned committed, unsigned target);
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> group_range(
      std::size_t group) const;
  // Hands `job` to the dispatcher's pick; false if nothing serves.
  bool place(double now, const Job& job);
  // The serving servers of [begin, end): a slice of the ascending list.
  [[nodiscard]] std::span<const std::uint32_t> serving_in(std::uint32_t begin,
                                                         std::uint32_t end) const;

  std::vector<PowerModel> power_models_;  // one per group; stable addresses
  std::vector<unsigned> group_sizes_;
  std::vector<std::uint32_t> server_group_;
  Dispatcher dispatcher_;
  Rng group_rng_;  // used by route_job_to_group
  std::uint64_t jobs_dropped_ = 0;
  std::uint64_t jobs_redispatched_ = 0;
  std::uint64_t jobs_lost_ = 0;
};

}  // namespace gc
