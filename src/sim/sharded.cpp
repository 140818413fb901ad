// Conservative parallel DES over K cluster shards (sim/sharded.h,
// DESIGN.md §11).
//
// Execution model: the orchestrator thread owns a small EventQueue holding
// only control-plane events (ticks, record/warmup marks, delayed channel
// deliveries, controller outage edges).  Before handling the events at
// barrier time t it advances every shard — in parallel — through all
// shard-local events with time <= t and all owned arrivals with time < t
// (a queue event wins a tie against an arrival at the same instant).  Between barriers shards never communicate,
// which is exactly the conservative-synchronization lookahead the DCP
// control structure guarantees: commands, telemetry and admission updates
// only happen at ticks.
//
// K-invariance (the determinism contract in the header) rests on three
// mechanisms, each tested by tests/test_sharded_determinism.cpp:
//   1. per-*server* RNG streams derived from (seed, global index) — never
//      per-shard or shared streams;
//   2. the frozen window assignment: arrival i maps to rank i mod m over
//      the serving set frozen at the window start, so every shard computes
//      its share of a global round-robin without seeing the other shards;
//   3. canonical reductions: every floating-point aggregate is folded from
//      per-server partials in ascending global-server-index order on the
//      orchestrator thread (integer totals commute and merge freely).
#include "sim/sharded.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "power/power_model.h"
#include "sim/admission.h"
#include "sim/control_loop.h"
#include "sim/server.h"
#include "stats/accumulators.h"
#include "stats/log_histogram.h"
#include "stats/rng.h"
#include "util/assert.h"

namespace gc {
namespace {

constexpr double kInfTime = std::numeric_limits<double>::infinity();
constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kControllerRecover) + 1;

// -- RNG stream derivation (DESIGN.md §11.4) --------------------------------
// Every stochastic draw belongs to a stream addressed by (base seed, global
// server index), so the sequence any one server consumes is independent of
// how the fleet is sharded.  The control-plane streams are drawn by the
// shared control loop (sim/control_loop.h) on the orchestrator thread; the
// fault salt and admission stream reuse the sequential engine's, and the
// admission salt is sharded-only (the sequential engine sheds from one
// global stream, which is inherently order-dependent).
constexpr std::uint64_t kFaultSeedSalt = 0xfa7a17f00dULL;        // = run_simulation
constexpr std::uint64_t kAdmitSeedSalt = 0xad317755ULL;          // sharded-only
constexpr std::uint64_t kAdmissionRngStream = 7;                 // = run_simulation

// Index of the first arrival in block b*m + [rank0, rank0 + width) at or
// after `i`, where m is the frozen global serving count and [rank0,
// rank0 + width) this shard's frozen rank range.  A shard's owned arrivals
// form one contiguous run per m-aligned block, so iteration is O(owned),
// not O(all arrivals).
[[nodiscard]] std::size_t first_owned_at_or_after(std::size_t i, std::size_t m,
                                                  std::size_t rank0,
                                                  std::size_t width) {
  const std::size_t block = i / m;
  const std::size_t pos = i - block * m;
  if (pos < rank0) return block * m + rank0;
  if (pos < rank0 + width) return i;
  return (block + 1) * m + rank0;
}

[[nodiscard]] std::size_t next_owned(std::size_t i, std::size_t m,
                                     std::size_t rank0, std::size_t width) {
  const std::size_t pos = i % m;
  return pos + 1 == rank0 + width ? i + m - width + 1 : i + 1;
}

// Per-server metric partials.  Floating-point members are folded in
// canonical global-index order at barriers/end-of-run; never summed into
// shard-level floats on the worker threads.
struct PerServerStats {
  // Post-warmup response aggregate.
  std::uint64_t completed = 0;
  double response_sum = 0.0;
  double response_max = 0.0;
  // Lazy time-integrals of jobs-in-system / serving / not-FAILED, advanced
  // only when the underlying signal is about to change (and at flushes).
  double anchor = 0.0;
  double jobs_integral = 0.0;
  double serving_integral = 0.0;
  double available_integral = 0.0;
  // Per-window response partials: the timeseries tick window and the
  // timeline record window (reset by their respective canonical folds).
  double window_sum = 0.0;
  std::uint64_t window_count = 0;
  double record_sum = 0.0;
  std::uint64_t record_count = 0;
};

// One shard: a contiguous global-server-index range with its own event
// queue, servers, RNG streams, serving-set index and accumulators.  All
// methods run either on the shard's worker (between barriers) or on the
// orchestrator thread (at barriers) — never both concurrently.
struct Shard {
  // -- static configuration ------------------------------------------------
  std::uint32_t first = 0;  // global index range [first, last)
  std::uint32_t last = 0;
  PowerModel power_model{};  // shard-local copy: stable address for Servers
  TransitionModel transition_model{};
  const Distribution* job_size = nullptr;
  const FaultOptions* faults = nullptr;  // null when fault injection is off
  double t_ref_s = 0.1;
  double boot_timeout_s = 0.0;  // resolved (option 0 -> 3x boot delay)
  bool track_window = false;    // timeseries sink attached
  bool track_record = false;    // timeline recording on

  // -- simulation state -----------------------------------------------------
  EventQueue queue;
  std::vector<Server> servers;
  std::vector<Rng> size_rng;   // per server
  std::vector<Rng> admit_rng;  // per server; sized only when admission is on
  std::vector<Rng> fault_rng;  // per server; sized only when faults are on
  std::vector<std::vector<double>> scripted_times;   // per server, ascending
  std::vector<std::vector<double>> scripted_repair;  // parallel to the above
  std::vector<std::size_t> scripted_next;
  std::vector<char> background_armed;  // one background failure chain/server

  // O(1) fleet accounting (the sharded analogue of Cluster's
  // apply_transition bookkeeping).
  std::vector<std::uint32_t> serving_index;  // serving servers, ascending
  unsigned booting = 0;
  unsigned powered = 0;
  unsigned failed = 0;
  std::size_t jobs = 0;

  // Frozen round-robin assignment for the current window (copy-on-dirty:
  // refreshed at a barrier only when the serving set changed).
  bool serving_dirty = true;
  std::vector<std::uint32_t> frozen;

  // Commanded control state, broadcast by the orchestrator at barriers.
  unsigned target = 0;
  double commanded_speed = 1.0;
  double p_admit = 1.0;
  bool admission_on = false;
  bool measuring = false;

  // -- per-server statistics (canonical folds read these) -------------------
  std::vector<PerServerStats> stats;
  std::vector<EnergyBreakdown> warm_energy;
  std::vector<std::uint32_t> server_boots;
  std::vector<std::uint32_t> server_shutdowns;

  // -- shard integer totals (merge exactly in any order) --------------------
  std::array<std::uint64_t, kNumEventTypes> events{};
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t failures = 0;
  std::uint64_t repairs = 0;
  std::uint64_t boot_timeouts = 0;
  std::uint64_t boots = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t violations = 0;  // post-warmup per-job tail violations
  LogHistogram response_hist;    // post-warmup

  // Per-control-period window (maintained only when track_window).
  LogHistogram window_hist;
  std::uint64_t window_completed = 0;
  std::uint64_t window_violations = 0;
  std::vector<std::uint32_t> window_touched;  // global indices, unsorted
  std::vector<std::uint32_t> record_touched;

  [[nodiscard]] unsigned size() const noexcept { return last - first; }
  [[nodiscard]] Server& server(std::uint32_t gi) noexcept {
    return servers[gi - first];
  }
  [[nodiscard]] unsigned serving_count() const noexcept {
    return static_cast<unsigned>(serving_index.size());
  }
  [[nodiscard]] unsigned committed_count() const noexcept {
    return serving_count() + booting;
  }
  [[nodiscard]] unsigned available_count() const noexcept {
    return size() - failed;
  }

  // Advances server gi's lazy time-integrals to `now` using its *current*
  // state; must run before any mutation of that state.
  void sync_stats(double now, std::uint32_t gi) {
    PerServerStats& ps = stats[gi - first];
    const double dt = now - ps.anchor;
    if (dt <= 0.0) return;
    const Server& s = servers[gi - first];
    ps.jobs_integral += dt * static_cast<double>(s.queue_length());
    if (s.serving()) ps.serving_integral += dt;
    if (!s.failed()) ps.available_integral += dt;
    ps.anchor = now;
  }

  void serving_insert(std::uint32_t gi) {
    serving_index.insert(
        std::lower_bound(serving_index.begin(), serving_index.end(), gi), gi);
    serving_dirty = true;
  }
  void serving_erase(std::uint32_t gi) {
    const auto it =
        std::lower_bound(serving_index.begin(), serving_index.end(), gi);
    GC_DCHECK(it != serving_index.end() && *it == gi,
              "sharded: serving index out of sync");
    serving_index.erase(it);
    serving_dirty = true;
  }

  // Runs a power-state mutation keeping the O(1) counters and the serving
  // index in sync (the shard-side mirror of Cluster::apply_transition).
  template <typename Fn>
  void transition(double now, std::uint32_t gi, Fn&& mutate) {
    Server& s = server(gi);
    sync_stats(now, gi);
    const PowerState before = s.state();
    const bool was_serving = s.serving();
    mutate(s);
    const PowerState after = s.state();
    if (before != after) {
      const bool was_powered = before != PowerState::kOff;
      const bool is_powered = after != PowerState::kOff;
      if (was_powered != is_powered) is_powered ? ++powered : --powered;
      const bool was_booting = before == PowerState::kBooting;
      const bool is_booting = after == PowerState::kBooting;
      if (was_booting != is_booting) is_booting ? ++booting : --booting;
      const bool was_failed = before == PowerState::kFailed;
      const bool is_failed = after == PowerState::kFailed;
      if (was_failed != is_failed) is_failed ? ++failed : --failed;
    }
    const bool is_serving = s.serving();
    if (was_serving != is_serving) {
      is_serving ? serving_insert(gi) : serving_erase(gi);
    }
  }

  [[nodiscard]] double sample_ttf(std::uint32_t li) {
    return -faults->mtbf_s * std::log(fault_rng[li].uniform01_open_left());
  }
  [[nodiscard]] double sample_ttr(std::uint32_t li) {
    return -faults->mttr_s * std::log(fault_rng[li].uniform01_open_left());
  }

  void boot_server(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.start_boot(now); });
    ++boots;
    ++server_boots[gi - first];
    Server& s = server(gi);
    // Boot-hang draw from the server's own fault stream (the sequential
    // engine uses one shared stream; see DESIGN.md §11.1).  Drawn only when
    // the outcome can differ from a clean boot.
    if (faults != nullptr && faults->boot_hang_prob > 0.0 &&
        fault_rng[gi - first].uniform01() < faults->boot_hang_prob) {
      s.pending_transition =
          queue.schedule(now + boot_timeout_s, EventType::kBootTimeout, gi);
    } else {
      s.pending_transition = queue.schedule(
          now + transition_model.boot_delay_s, EventType::kBootComplete, gi);
    }
  }

  void start_drain(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.set_draining(now, true); });
    maybe_begin_shutdown(now, gi);
  }

  void maybe_begin_shutdown(double now, std::uint32_t gi) {
    Server& s = server(gi);
    if (s.state() != PowerState::kOn || !s.draining() || s.queue_length() != 0) {
      return;
    }
    transition(now, gi, [&](Server& sv) { sv.begin_shutdown(now); });
    ++shutdowns;
    ++server_shutdowns[gi - first];
    s.pending_transition = queue.schedule(
        now + transition_model.shutdown_delay_s, EventType::kShutdownComplete, gi);
  }

  void on_boot_complete(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.finish_boot(now); });
    server(gi).pending_transition = kInvalidEventId;
    // The target may have moved below gi while this boot was in flight.
    if (gi >= target) start_drain(now, gi);
  }

  void on_shutdown_complete(double now, std::uint32_t gi) {
    transition(now, gi, [&](Server& s) { s.finish_shutdown(now); });
    server(gi).pending_transition = kInvalidEventId;
    if (gi < target) boot_server(now, gi);
  }

  // Fail-stop crash: cancel the server's pending events, orphan its jobs
  // (lost — the sharded model never re-dispatches across the frozen
  // assignment) and count the failure.
  void crash(double now, std::uint32_t gi, bool from_boot_timeout) {
    Server& s = server(gi);
    queue.cancel(s.pending_departure);
    s.pending_departure = kInvalidEventId;
    queue.cancel(s.pending_transition);
    s.pending_transition = kInvalidEventId;
    std::vector<Job> orphans;
    transition(now, gi, [&](Server& sv) { orphans = sv.fail(now); });
    jobs -= orphans.size();
    lost += orphans.size();
    ++failures;
    if (from_boot_timeout) ++boot_timeouts;
  }

  void on_fail_event(double now, std::uint32_t gi) {
    const std::uint32_t li = gi - first;
    // Scripted kServerFail events carry their exact scripted time; matched
    // FIFO per server against the background failure chain.
    bool scripted = false;
    double repair_after = 0.0;
    if (scripted_next[li] < scripted_times[li].size() &&
        scripted_times[li][scripted_next[li]] == now) {
      scripted = true;
      repair_after = scripted_repair[li][scripted_next[li]];
      ++scripted_next[li];
    } else {
      background_armed[li] = 0;
    }
    const PowerState st = server(gi).state();
    const bool can_crash = st == PowerState::kBooting || st == PowerState::kOn ||
                           st == PowerState::kShuttingDown;
    if (scripted) {
      if (!can_crash) return;  // already OFF/FAILED: the script misses
      crash(now, gi, /*from_boot_timeout=*/false);
      if (std::isfinite(repair_after)) {
        queue.schedule(now + repair_after, EventType::kServerRepair, gi);
      }
      return;
    }
    if (!can_crash) {
      // Unpowered when the clock fired: restart the background clock.
      queue.schedule(now + sample_ttf(li), EventType::kServerFail, gi);
      background_armed[li] = 1;
      return;
    }
    crash(now, gi, /*from_boot_timeout=*/false);
    queue.schedule(now + sample_ttr(li), EventType::kServerRepair, gi);
  }

  void on_repair_event(double now, std::uint32_t gi) {
    Server& s = server(gi);
    if (s.state() != PowerState::kFailed) return;
    transition(now, gi, [&](Server& sv) { sv.finish_repair(now); });
    ++repairs;
    const std::uint32_t li = gi - first;
    if (faults != nullptr && faults->mtbf_s > 0.0 && !background_armed[li]) {
      queue.schedule(now + sample_ttf(li), EventType::kServerFail, gi);
      background_armed[li] = 1;
    }
    if (gi < target) boot_server(now, gi);
  }

  void on_boot_timeout(double now, std::uint32_t gi) {
    Server& s = server(gi);
    if (s.state() != PowerState::kBooting) return;
    s.pending_transition = kInvalidEventId;  // this event
    crash(now, gi, /*from_boot_timeout=*/true);
    queue.schedule(now + sample_ttr(gi - first), EventType::kServerRepair, gi);
  }

  // Reconciles towards the committed prefix [0, new_target): ascending scan
  // of the shard's range (deterministic order), booting OFF servers below
  // the target, reviving draining ones, draining serving ones at or above.
  void reconcile(double now, unsigned new_target) {
    target = new_target;
    for (std::uint32_t gi = first; gi < last; ++gi) {
      Server& s = server(gi);
      if (gi < target) {
        if (s.state() == PowerState::kOff) {
          boot_server(now, gi);
        } else if (s.state() == PowerState::kOn && s.draining()) {
          transition(now, gi, [&](Server& sv) { sv.set_draining(now, false); });
        }
        // BOOTING / SHUTTING_DOWN / FAILED catch up from their completion
        // events; an ON serving server is already where it should be.
      } else if (s.serving()) {
        start_drain(now, gi);
      }
    }
  }

  void set_speed_all(double now, double speed) {
    commanded_speed = speed;
    for (std::uint32_t gi = first; gi < last; ++gi) {
      Server& s = server(gi);
      const auto eta = s.set_speed(now, speed);
      if (eta) {
        queue.cancel(s.pending_departure);
        s.pending_departure = queue.schedule(*eta, EventType::kDeparture, gi);
      }
    }
  }

  void on_arrival(double now, std::size_t index, std::size_t window_m,
                  std::size_t rank0) {
    ++events[static_cast<std::size_t>(EventType::kArrival)];
    const std::uint32_t gi =
        frozen[static_cast<std::size_t>(index % window_m) - rank0];
    const std::uint32_t li = gi - first;
    if (admission_on && p_admit < 1.0) {
      // Shed draw from the assigned server's admission stream; drawn only
      // when the outcome is in doubt (p == 1 admits draw-free).
      if (admit_rng[li].uniform01() >= p_admit) {
        ++shed;
        return;
      }
    }
    ++admitted;
    Server& s = servers[li];
    if (!s.serving()) {
      // Frozen assignments outlive mid-window crashes/drains; arrivals to a
      // server that stopped serving are dropped, mirroring a stale routing
      // table.
      ++dropped;
      return;
    }
    sync_stats(now, gi);
    Job job;
    job.id = static_cast<std::uint64_t>(index);
    job.arrival_time = now;
    job.size = job.remaining = job_size->sample(size_rng[li]);
    ++jobs;
    const auto eta = s.enqueue(now, job);
    if (eta) {
      s.pending_departure = queue.schedule(*eta, EventType::kDeparture, gi);
    }
  }

  void on_departure(double now, std::uint32_t gi) {
    Server& s = server(gi);
    sync_stats(now, gi);
    const auto completion = s.complete_current(now);
    s.pending_departure =
        completion.next_eta
            ? queue.schedule(*completion.next_eta, EventType::kDeparture, gi)
            : kInvalidEventId;
    --jobs;
    const double response = now - completion.finished.arrival_time;
    if (measuring) {
      PerServerStats& ps = stats[gi - first];
      ++ps.completed;
      ps.response_sum += response;
      if (response > ps.response_max) ps.response_max = response;
      if (response > t_ref_s) ++violations;
      response_hist.add(response);
      if (track_window) {
        window_hist.add(response);
        ++window_completed;
        if (response > t_ref_s) ++window_violations;
        if (ps.window_count == 0) window_touched.push_back(gi);
        ps.window_sum += response;
        ++ps.window_count;
      }
      if (track_record) {
        if (ps.record_count == 0) record_touched.push_back(gi);
        ps.record_sum += response;
        ++ps.record_count;
      }
    }
    if (!completion.next_eta) maybe_begin_shutdown(now, gi);
  }

  void dispatch(const Event& event) {
    ++events[static_cast<std::size_t>(event.type)];
    switch (event.type) {
      case EventType::kDeparture: on_departure(event.time, event.subject); break;
      case EventType::kBootComplete:
        on_boot_complete(event.time, event.subject);
        break;
      case EventType::kShutdownComplete:
        on_shutdown_complete(event.time, event.subject);
        break;
      case EventType::kServerFail: on_fail_event(event.time, event.subject); break;
      case EventType::kServerRepair:
        on_repair_event(event.time, event.subject);
        break;
      case EventType::kBootTimeout:
        on_boot_timeout(event.time, event.subject);
        break;
      default: GC_CHECK(false, "sharded: unexpected shard-local event type");
    }
  }

  // Advances the shard through one lookahead window: every queued event
  // with time <= barrier and every owned arrival in [lo, hi) — arrival
  // times are < barrier by construction.  A queue event at an arrival's
  // exact time runs first.
  void advance_to(double barrier, const std::vector<double>& arrivals,
                  std::size_t lo, std::size_t hi, std::size_t window_m,
                  std::size_t rank0) {
    const std::size_t width = frozen.size();
    std::size_t next_arrival = hi;
    if (window_m > 0 && width > 0 && lo < hi) {
      next_arrival = first_owned_at_or_after(lo, window_m, rank0, width);
    }
    for (;;) {
      const double ta = next_arrival < hi ? arrivals[next_arrival] : kInfTime;
      const double tq = queue.empty() ? kInfTime : queue.next_time();
      if (tq <= ta && tq <= barrier) {
        const auto event = queue.pop();
        dispatch(*event);
        continue;
      }
      if (next_arrival < hi) {
        on_arrival(arrivals[next_arrival], next_arrival, window_m, rank0);
        next_arrival = next_owned(next_arrival, window_m, rank0, width);
        continue;
      }
      break;
    }
  }

  // Warmup barrier: flush and snapshot energy, zero the time-integrals, and
  // start recording response statistics.
  void begin_measuring(double now) {
    for (std::uint32_t gi = first; gi < last; ++gi) {
      sync_stats(now, gi);
      const std::uint32_t li = gi - first;
      Server& s = servers[li];
      s.flush_energy(now);
      warm_energy[li] =
          EnergyBreakdown{s.meter().joules_busy(), s.meter().joules_idle(),
                          s.meter().joules_transition(), s.meter().joules_off()};
      PerServerStats& ps = stats[li];
      ps.anchor = now;
      ps.jobs_integral = 0.0;
      ps.serving_integral = 0.0;
      ps.available_integral = 0.0;
    }
    measuring = true;
  }

  void finalize(double now) {
    for (std::uint32_t gi = first; gi < last; ++gi) {
      sync_stats(now, gi);
      server(gi).flush_energy(now);
    }
  }
};

// The orchestrator's view of the K shards: O(K) integer fleet totals,
// canonical-order floating-point folds and the fan-out of commanded targets
// and speeds.  It is the sharded engine's side of the control loop
// (sim/control_loop.h); every method runs on the orchestrator thread at a
// barrier.
struct ShardedFleet final : ControlLoop::Fleet {
  std::vector<std::unique_ptr<Shard>> shards;
  ThreadPool* pool = nullptr;
  unsigned num_servers = 0;
  unsigned shard_base = 0;   // contiguous ranges: the first shard_extra
  unsigned shard_extra = 0;  // shards hold shard_base + 1 servers
  const WearModel* wear = nullptr;
  EventQueue* orchestrator = nullptr;
  // Engine state the totals read.
  std::size_t cursor = 0;  // arrivals consumed (times strictly < now)
  // Arrivals landing in a window with an empty global serving set are
  // dropped at the orchestrator (no per-server stream exists to charge).
  std::uint64_t orphaned_arrivals = 0;
  // The last applied speed command and its time average.
  double commanded_speed = 1.0;
  TimeWeightedAccumulator speed_avg{0.0};
  // Window-fold scratch.
  std::vector<std::uint32_t> touched_scratch;
  LogHistogram window_hist_merged;

  void parallel(const std::function<void(std::size_t)>& body) {
    if (shards.size() == 1) {
      body(0);
    } else {
      pool->parallel_for_index(shards.size(), body);
    }
  }

  // Maps a global server index to its owning shard.
  [[nodiscard]] Shard& shard_of(std::uint32_t gi) const {
    const std::uint32_t boundary = shard_extra * (shard_base + 1);
    const std::uint32_t k = gi < boundary ? gi / (shard_base + 1)
                                          : shard_extra + (gi - boundary) / shard_base;
    return *shards[k];
  }

  // Whole-run job-loss and fault tallies (integer sums, any order).
  struct LossTotals {
    std::uint64_t dropped = 0, lost = 0, failures = 0, repairs = 0, boot_timeouts = 0;
  };
  [[nodiscard]] LossTotals loss_totals() const {
    LossTotals t;
    t.dropped = orphaned_arrivals;
    for (const auto& s : shards) {
      t.dropped += s->dropped;
      t.lost += s->lost;
      t.failures += s->failures;
      t.repairs += s->repairs;
      t.boot_timeouts += s->boot_timeouts;
    }
    return t;
  }

  // Fold + reset the per-record-window response mean, in ascending
  // global-index order.
  [[nodiscard]] double take_record_window() {
    touched_scratch.clear();
    for (const auto& s : shards) {
      touched_scratch.insert(touched_scratch.end(), s->record_touched.begin(),
                             s->record_touched.end());
      s->record_touched.clear();
    }
    std::sort(touched_scratch.begin(), touched_scratch.end());
    double total = 0.0;
    std::uint64_t count = 0;
    for (const std::uint32_t gi : touched_scratch) {
      Shard& s = shard_of(gi);
      PerServerStats& ps = s.stats[gi - s.first];
      total += ps.record_sum;
      count += ps.record_count;
      ps.record_sum = 0.0;
      ps.record_count = 0;
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  }

  // -- ControlLoop::Fleet ----------------------------------------------------
  unsigned size() const override { return num_servers; }
  State state() const override {
    State st;
    for (const auto& s : shards) {
      st.serving += s->serving_count();
      st.committed += s->committed_count();
      st.powered += s->powered;
      st.available += s->available_count();
      st.jobs += s->jobs;
    }
    return st;
  }
  Totals totals() const override {
    Totals t;
    t.arrivals = cursor;
    t.admitted = orphaned_arrivals;
    for (const auto& s : shards) {
      t.admitted += s->admitted;
      t.shed += s->shed;
      t.boots += s->boots;
      t.shutdowns += s->shutdowns;
    }
    return t;
  }
  double power_w() const override {
    // Shards are contiguous ascending ranges, so this is the canonical
    // global-server-index fold.
    double watts = 0.0;
    for (const auto& s : shards) {
      for (const Server& server : s->servers) watts += server.instantaneous_power();
    }
    return watts;
  }
  double speed() const override { return commanded_speed; }
  double wear_mean() const override {
    if (!wear->enabled()) return 0.0;
    double total = 0.0;
    for (const auto& s : shards) {
      for (std::uint32_t li = 0; li < s->size(); ++li) {
        total += wear->wear_fraction(s->server_boots[li], s->server_shutdowns[li]);
      }
    }
    return total / static_cast<double>(num_servers);
  }
  // Fold + reset the per-tick response window across shards.  The mean is
  // folded from per-server sums in ascending global-index order.
  PeriodWindowStats take_period_window() override {
    std::uint64_t violations = 0;
    PeriodWindowStats w;
    window_hist_merged.clear();
    touched_scratch.clear();
    for (const auto& s : shards) {
      w.completed += s->window_completed;
      violations += s->window_violations;
      window_hist_merged.merge(s->window_hist);
      touched_scratch.insert(touched_scratch.end(), s->window_touched.begin(),
                             s->window_touched.end());
      s->window_hist.clear();
      s->window_completed = 0;
      s->window_violations = 0;
      s->window_touched.clear();
    }
    std::sort(touched_scratch.begin(), touched_scratch.end());
    double total = 0.0;
    for (const std::uint32_t gi : touched_scratch) {
      Shard& s = shard_of(gi);
      PerServerStats& ps = s.stats[gi - s.first];
      total += ps.window_sum;
      ps.window_sum = 0.0;
      ps.window_count = 0;
    }
    if (w.completed > 0) {
      w.mean_s = total / static_cast<double>(w.completed);
      w.p95_s = window_hist_merged.quantile(0.95);
      w.p99_s = window_hist_merged.quantile(0.99);
      w.violation_fraction =
          static_cast<double>(violations) / static_cast<double>(w.completed);
    }
    return w;
  }
  void apply_target(double now, unsigned target) override {
    const unsigned clamped = std::clamp(target, 1u, num_servers);
    parallel([&](std::size_t k) { shards[k]->reconcile(now, clamped); });
  }
  void apply_speed(double now, double speed) override {
    speed_avg.advance(now, commanded_speed);
    commanded_speed = speed;
    parallel([&](std::size_t k) { shards[k]->set_speed_all(now, speed); });
  }
  void schedule(double at, EventType type, std::uint32_t subject) override {
    orchestrator->schedule(at, type, subject);
  }
};

}  // namespace

SimResult run_sharded_simulation(const Trace& trace, const Distribution& job_size,
                                 std::uint64_t workload_seed,
                                 const ClusterOptions& cluster,
                                 Controller& controller,
                                 const SimulationOptions& options,
                                 const ShardedOptions& sharded) {
  // -- validation -----------------------------------------------------------
  GC_CHECK(cluster.num_servers > 0, "sharded: cluster must have servers");
  GC_CHECK(cluster.groups.empty(),
           "sharded: heterogeneous server groups are sequential-only");
  GC_CHECK(sharded.num_shards >= 1, "sharded: num_shards must be >= 1");
  if (options.faults.enabled()) options.faults.validate();
  options.admission.validate();

  const unsigned num_servers = cluster.num_servers;
  const unsigned num_shards = std::min(sharded.num_shards, num_servers);
  if (sharded.profile != nullptr) {
    sharded.profile->shard_busy_s.assign(num_shards, 0.0);
    sharded.profile->barrier_wall_s = 0.0;
    sharded.profile->barriers = 0;
  }
  const std::vector<double>& arrivals = trace.timestamps();

  const double t_short = controller.short_period_s();
  const double t_long = controller.long_period_s();
  GC_CHECK(t_short > 0.0 && t_long > 0.0,
           "sharded: controller periods must be positive");

  const std::uint64_t fault_seed = options.faults.seed != 0
                                       ? options.faults.seed
                                       : cluster.dispatch_seed ^ kFaultSeedSalt;
  // The orchestrator instance only computes the admit probability; the
  // per-arrival draws happen shard-side from per-server streams.
  AdmissionController admission(options.admission, options.t_ref_s,
                                Rng(cluster.dispatch_seed, kAdmissionRngStream));
  const WearModel wear(options.reliability);
  EventQueue orchestrator;

  const unsigned initial_active = std::min(cluster.initial_active, num_servers);

  // -- shard construction ---------------------------------------------------
  ShardedFleet fleet;
  fleet.pool = sharded.pool != nullptr ? sharded.pool : &global_pool();
  fleet.num_servers = num_servers;
  fleet.shard_base = num_servers / num_shards;
  fleet.shard_extra = num_servers % num_shards;
  fleet.wear = &wear;
  fleet.orchestrator = &orchestrator;
  fleet.commanded_speed = cluster.initial_speed;
  std::vector<std::unique_ptr<Shard>>& shards = fleet.shards;
  shards.reserve(num_shards);
  {
    std::uint32_t next_first = 0;
    for (unsigned k = 0; k < num_shards; ++k) {
      auto shard = std::make_unique<Shard>();
      Shard& s = *shard;
      s.first = next_first;
      s.last = next_first + fleet.shard_base + (k < fleet.shard_extra ? 1 : 0);
      next_first = s.last;
      s.power_model = PowerModel(cluster.power);
      s.transition_model = cluster.transition;
      s.job_size = &job_size;
      s.t_ref_s = options.t_ref_s;
      s.track_window = options.timeseries != nullptr;
      s.track_record = options.record_interval_s > 0.0;
      s.target = initial_active;
      s.commanded_speed = cluster.initial_speed;
      s.admission_on = options.admission.enabled;
      s.measuring = options.warmup_s <= 0.0;
      if (options.expected_events_hint > 0) {
        s.queue.reserve(options.expected_events_hint / num_shards + 1);
      }
      const unsigned count = s.size();
      s.servers.reserve(count);
      s.size_rng.reserve(count);
      s.stats.resize(count);
      s.warm_energy.resize(count);
      s.server_boots.assign(count, 0);
      s.server_shutdowns.assign(count, 0);
      for (std::uint32_t gi = s.first; gi < s.last; ++gi) {
        const bool initially_on = gi < initial_active;
        s.servers.emplace_back(gi, &s.power_model, cluster.initial_speed,
                               initially_on, 0.0);
        s.size_rng.emplace_back(workload_seed, gi);
        if (initially_on) {
          s.serving_index.push_back(gi);
          ++s.powered;
        }
      }
      if (options.admission.enabled) {
        s.admit_rng.reserve(count);
        for (std::uint32_t gi = s.first; gi < s.last; ++gi) {
          s.admit_rng.emplace_back(workload_seed ^ kAdmitSeedSalt, gi);
        }
      }
      if (options.faults.enabled()) {
        s.faults = &options.faults;
        s.boot_timeout_s = options.faults.boot_timeout_s > 0.0
                               ? options.faults.boot_timeout_s
                               : 3.0 * cluster.transition.boot_delay_s;
        s.fault_rng.reserve(count);
        for (std::uint32_t gi = s.first; gi < s.last; ++gi) {
          s.fault_rng.emplace_back(fault_seed, gi);
        }
        s.scripted_times.resize(count);
        s.scripted_repair.resize(count);
        s.scripted_next.assign(count, 0);
        s.background_armed.assign(count, 0);
        for (const ScriptedFault& f : options.faults.script) {
          if (f.server >= s.first && f.server < s.last) {
            s.scripted_times[f.server - s.first].push_back(f.time);
            s.scripted_repair[f.server - s.first].push_back(f.repair_after_s);
          }
        }
        for (std::uint32_t li = 0; li < count; ++li) {
          // Keep (time, repair) pairs sorted by time so the FIFO match at
          // on_fail_event sees them in firing order.
          auto& times = s.scripted_times[li];
          auto& reps = s.scripted_repair[li];
          std::vector<std::size_t> order(times.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return times[a] < times[b];
          });
          std::vector<double> st(times.size()), sr(times.size());
          for (std::size_t i = 0; i < order.size(); ++i) {
            st[i] = times[order[i]];
            sr[i] = reps[order[i]];
          }
          times = std::move(st);
          reps = std::move(sr);
          for (const double t : times) {
            s.queue.schedule(t, EventType::kServerFail, s.first + li);
          }
          if (options.faults.mtbf_s > 0.0) {
            s.queue.schedule(s.sample_ttf(li), EventType::kServerFail,
                             s.first + li);
            s.background_armed[li] = 1;
          }
        }
      }
      shards.push_back(std::move(shard));
    }
  }

  // The control loop (sim/control_loop.h) runs on the orchestrator thread
  // between barriers, so everything it records is K-invariant.
  ControlLoop control(controller, options, cluster.dispatch_seed, admission, fleet);
  std::array<std::uint64_t, kNumEventTypes> orchestrator_events{};

  double now = 0.0;
  std::size_t window_m = 0;
  std::vector<std::size_t> window_rank0(num_shards, 0);

  // Advances every shard to `barrier` behind a freshly frozen assignment.
  auto advance_barrier = [&](double barrier) {
    if (barrier <= now) return;
    std::size_t rank = 0;
    for (unsigned k = 0; k < num_shards; ++k) {
      Shard& s = *shards[k];
      if (s.serving_dirty) {
        s.frozen = s.serving_index;
        s.serving_dirty = false;
      }
      window_rank0[k] = rank;
      rank += s.frozen.size();
    }
    window_m = rank;
    const std::size_t lo = fleet.cursor;
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(arrivals.begin() + static_cast<std::ptrdiff_t>(lo),
                         arrivals.end(), barrier) -
        arrivals.begin());
    if (window_m == 0) fleet.orphaned_arrivals += hi - lo;
    const std::size_t arrivals_hi = window_m == 0 ? lo : hi;
    if (ShardProfile* prof = sharded.profile; prof != nullptr) {
      // Self-profiled path: per-shard busy time is read inside the worker
      // (each shard writes its own slot — no contention), the wall reading
      // brackets the whole fan-out-to-last-completion span.  Wall-clock
      // readings never feed the simulation or SimResult.
      using clock = std::chrono::steady_clock;
      const auto wall0 = clock::now();
      fleet.parallel([&](std::size_t k) {
        const auto t0 = clock::now();
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m,
                              window_rank0[k]);
        prof->shard_busy_s[k] +=
            std::chrono::duration<double>(clock::now() - t0).count();
      });
      prof->barrier_wall_s +=
          std::chrono::duration<double>(clock::now() - wall0).count();
      ++prof->barriers;
    } else {
      fleet.parallel([&](std::size_t k) {
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m,
                              window_rank0[k]);
      });
    }
    fleet.cursor = hi;
    now = barrier;
  };

  // -- observability state --------------------------------------------------
  std::vector<TimelinePoint> timeline;
  bool measuring = options.warmup_s <= 0.0;
  double measure_start = 0.0;
  double last_record_time = 0.0;
  std::size_t last_record_cursor = 0;
  // Whole-run totals at the warmup barrier.
  ControlLoop::Fleet::Totals warm_totals;
  ShardedFleet::LossTotals warm_losses;

  auto handle_record = [&](double t) {
    TimelinePoint point;
    point.time = t;
    const double elapsed = t - last_record_time;
    point.arrival_rate =
        elapsed > 0.0
            ? static_cast<double>(fleet.cursor - last_record_cursor) / elapsed
            : 0.0;
    last_record_time = t;
    last_record_cursor = fleet.cursor;
    const ControlLoop::Fleet::State state = fleet.state();
    point.serving = state.serving;
    point.powered = state.powered;
    point.available = state.available;
    point.speed = fleet.commanded_speed;
    point.power_watts = fleet.power_w();
    point.jobs_in_system = static_cast<double>(state.jobs);
    point.window_mean_response_s = fleet.take_record_window();
    point.admit_probability = admission.admit_probability();
    timeline.push_back(point);
    orchestrator.schedule(t + options.record_interval_s, EventType::kRecord, 0);
  };

  // -- initial schedule -----------------------------------------------------
  // Long before short at t = 0: at coincident ticks the long (VOVF)
  // decision wins the tie, and because T_long >= T_short the rescheduling
  // order preserves that at every later coincidence.
  orchestrator.schedule(0.0, EventType::kLongTick, 0);
  orchestrator.schedule(0.0, EventType::kShortTick, 0);
  if (options.record_interval_s > 0.0) {
    orchestrator.schedule(options.record_interval_s, EventType::kRecord, 0);
  }
  if (options.warmup_s > 0.0) {
    orchestrator.schedule(options.warmup_s, EventType::kWarmupEnd, 0);
  }

  // -- main barrier loop ----------------------------------------------------
  double end_time;
  for (;;) {
    const auto event = orchestrator.pop();
    GC_CHECK(event.has_value(), "sharded: orchestrator queue drained");
    const double t = event->time;
    if (options.hard_stop_s > 0.0 && t > options.hard_stop_s) {
      advance_barrier(options.hard_stop_s);
      end_time = options.hard_stop_s;
      break;
    }
    advance_barrier(t);
    ++orchestrator_events[static_cast<std::size_t>(event->type)];
    bool done = false;
    switch (event->type) {
      case EventType::kShortTick:
      case EventType::kLongTick: {
        const bool long_tick = event->type == EventType::kLongTick;
        control.on_tick(t, long_tick);
        if (admission.enabled()) {
          // Admission is fleet-local (data plane): the shards shed against
          // the probability this tick computed.
          const double p = admission.admit_probability();
          for (const auto& s : shards) s->p_admit = p;
        }
        orchestrator.schedule(t + (long_tick ? t_long : t_short), event->type, 0);
        done = fleet.cursor == arrivals.size() && fleet.state().jobs == 0;
        break;
      }
      case EventType::kRecord: handle_record(t); break;
      case EventType::kWarmupEnd: {
        fleet.parallel([&](std::size_t k) { shards[k]->begin_measuring(t); });
        measuring = true;
        measure_start = t;
        warm_totals = fleet.totals();
        warm_losses = fleet.loss_totals();
        control.end_warmup();
        fleet.speed_avg.advance(t, fleet.commanded_speed);
        fleet.speed_avg = TimeWeightedAccumulator(t);
        break;
      }
      case EventType::kTelemetryDeliver:
      case EventType::kCommandDeliver:
      case EventType::kAckDeliver:
      case EventType::kControllerFail:
      case EventType::kControllerRecover:
        control.on_event(t, event->type, event->subject);
        break;
      default: GC_CHECK(false, "sharded: unexpected orchestrator event type");
    }
    if (done) {
      end_time = t;
      break;
    }
  }

  fleet.parallel([&](std::size_t k) { shards[k]->finalize(end_time); });
  fleet.speed_avg.advance(end_time, fleet.commanded_speed);
  if (!measuring) measure_start = end_time;
  const double sim_time = end_time - measure_start;

  // -- canonical fold into SimResult ---------------------------------------
  SimResult result;
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  double response_sum = 0.0;
  double response_max = 0.0;
  double jobs_integral = 0.0;
  double serving_integral = 0.0;
  double available_integral = 0.0;
  EnergyBreakdown energy;
  LogHistogram response_hist;
  result.server_cycles.resize(num_servers);
  double wear_sum = 0.0;
  for (const auto& sp : shards) {
    const Shard& s = *sp;
    violations += s.violations;
    response_hist.merge(s.response_hist);
    for (std::uint32_t li = 0; li < s.size(); ++li) {
      const PerServerStats& ps = s.stats[li];
      completed += ps.completed;
      response_sum += ps.response_sum;
      if (ps.response_max > response_max) response_max = ps.response_max;
      jobs_integral += ps.jobs_integral;
      serving_integral += ps.serving_integral;
      available_integral += ps.available_integral;
      const EnergyMeter& meter = s.servers[li].meter();
      energy.busy_j += meter.joules_busy() - s.warm_energy[li].busy_j;
      energy.idle_j += meter.joules_idle() - s.warm_energy[li].idle_j;
      energy.transition_j +=
          meter.joules_transition() - s.warm_energy[li].transition_j;
      energy.off_j += meter.joules_off() - s.warm_energy[li].off_j;
      result.server_cycles[s.first + li] =
          s.server_boots[li] + s.server_shutdowns[li];
      const double frac =
          wear.wear_fraction(s.server_boots[li], s.server_shutdowns[li]);
      wear_sum += frac;
      if (frac > result.wear_fraction_max) result.wear_fraction_max = frac;
    }
  }

  const ControlLoop::Fleet::Totals totals = fleet.totals();
  result.completed_jobs = completed;
  const ShardedFleet::LossTotals losses = fleet.loss_totals();
  result.dropped_jobs = losses.dropped - warm_losses.dropped;
  result.shed_jobs = totals.shed - warm_totals.shed;
  result.failures = losses.failures - warm_losses.failures;
  result.repairs = losses.repairs - warm_losses.repairs;
  result.boot_timeouts = losses.boot_timeouts - warm_losses.boot_timeouts;
  result.jobs_redispatched = 0;  // the sharded model drops, never re-routes
  result.jobs_lost = losses.lost - warm_losses.lost;
  result.sim_time_s = sim_time;
  result.mean_response_s =
      completed > 0 ? response_sum / static_cast<double>(completed) : 0.0;
  result.p95_response_s = completed > 0 ? response_hist.quantile(0.95) : 0.0;
  result.p99_response_s = completed > 0 ? response_hist.quantile(0.99) : 0.0;
  result.max_response_s = response_max;
  result.job_violation_ratio =
      completed > 0 ? static_cast<double>(violations) /
                          static_cast<double>(completed)
                    : 0.0;
  {
    std::uint64_t windows = 0, violated = 0;
    for (const TimelinePoint& p : timeline) {
      if (p.time <= measure_start) continue;
      ++windows;
      if (p.window_mean_response_s > options.t_ref_s) ++violated;
    }
    result.window_violation_ratio =
        windows > 0
            ? static_cast<double>(violated) / static_cast<double>(windows)
            : 0.0;
  }
  result.energy = energy;
  result.mean_power_w = sim_time > 0.0 ? energy.total_j() / sim_time : 0.0;
  result.boots = totals.boots - warm_totals.boots;
  result.shutdowns = totals.shutdowns - warm_totals.shutdowns;
  result.mean_serving = sim_time > 0.0 ? serving_integral / sim_time : 0.0;
  result.mean_speed = fleet.speed_avg.time_average();
  result.mean_jobs_in_system = sim_time > 0.0 ? jobs_integral / sim_time : 0.0;
  result.mean_available = sim_time > 0.0 ? available_integral / sim_time : 0.0;
  result.unavailability =
      sim_time > 0.0
          ? 1.0 - result.mean_available / static_cast<double>(num_servers)
          : 0.0;
  {
    const std::uint64_t shed_delta = result.shed_jobs;
    const std::uint64_t offered = (totals.admitted - warm_totals.admitted) + shed_delta;
    result.shed_ratio =
        offered > 0
            ? static_cast<double>(shed_delta) / static_cast<double>(offered)
            : 0.0;
  }
  result.wear_fraction_mean =
      num_servers > 0 ? wear_sum / static_cast<double>(num_servers) : 0.0;
  result.response_hist = std::move(response_hist);
  result.timeline = std::move(timeline);

  // -- counters registry (names mirror run_simulation) ----------------------
  MetricRegistry registry;
  for (std::size_t type = 0; type < kNumEventTypes; ++type) {
    std::uint64_t count = orchestrator_events[type];
    for (const auto& s : shards) count += s->events[type];
    if (type == static_cast<std::size_t>(EventType::kArrival)) {
      count += fleet.orphaned_arrivals;
    }
    registry
        .counter(std::string("sim.events.") +
                 to_string(static_cast<EventType>(type)))
        .inc(count);
  }
  registry.counter("sim.jobs.admitted").inc(totals.admitted);
  registry.counter("sim.jobs.shed").inc(totals.shed);
  registry.counter("sim.jobs.completed").inc(completed);
  registry.counter("sim.jobs.dropped").inc(losses.dropped);
  registry.counter("sim.jobs.redispatched").inc(0);
  registry.counter("sim.jobs.lost").inc(losses.lost);
  registry.counter("cluster.boots").inc(totals.boots);
  registry.counter("cluster.shutdowns").inc(totals.shutdowns);
  registry.counter("cluster.failures").inc(losses.failures);
  registry.counter("cluster.repairs").inc(losses.repairs);
  registry.counter("cluster.boot_timeouts").inc(losses.boot_timeouts);
  registry.gauge("sim.time_s").set(end_time);
  registry.counter("sharded.num_shards").inc(num_shards);
  {
    std::uint64_t shard_events = 0, reallocations = 0;
    for (const auto& s : shards) {
      shard_events += s->queue.scheduled_total();
      reallocations += s->queue.reallocations();
    }
    registry.counter("sharded.shard_events_scheduled").inc(shard_events);
    registry.counter("sharded.queue_reallocations").inc(reallocations);
  }
  control.finish(end_time, result, registry);
  return result;
}

}  // namespace gc
