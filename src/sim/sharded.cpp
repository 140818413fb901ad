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
//      the serving set frozen at the window start (ranks are assigned by
//      one merge by global index at a barrier after a change), so every
//      shard walks its share of a global round-robin without seeing the
//      other shards;
//   3. canonical reductions: every floating-point aggregate is folded from
//      per-server partials in ascending global-server-index order on the
//      orchestrator thread, across the interleaved shards (integer totals
//      commute and merge freely).
#include "sim/sharded.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "power/power_model.h"
#include "sim/admission.h"
#include "sim/control_loop.h"
#include "sim/fault_injector.h"
#include "sim/server_pool.h"
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
// fault seed (FaultOptions::seed_or) and admission stream are the
// sequential engine's, and the admission salt is sharded-only (the
// sequential engine sheds from one global stream, which is inherently
// order-dependent).
constexpr std::uint64_t kAdmitSeedSalt = 0xad317755ULL;          // sharded-only
constexpr std::uint64_t kAdmissionRngStream = 7;                 // = run_simulation

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

// One shard: the servers whose global index gi satisfies gi % K == k,
// stored at local index li = gi / K in the shard's ServerPool, with their
// own event queue, RNG streams and accumulators.  Interleaving keeps the
// serving prefix [0, target) spread evenly over the shards however small
// the target is.  Shard-local events carry the local index as their
// subject.  All methods run either on the shard's worker (between
// barriers) or on the orchestrator thread (at barriers) — never both
// concurrently.
struct Shard {
  Shard(std::uint32_t k, std::uint32_t num_shards, const ClusterOptions& cluster)
      : index(k), stride(num_shards), power_model(cluster.power),
        pool(&queue, cluster.transition, cluster.initial_speed) {
    // The lazy integrals advance before every power-state change.
    pool.set_before_transition(
        [this](double now, std::uint32_t li) { sync_stats(now, li); });
  }

  // -- static configuration ------------------------------------------------
  std::uint32_t index;   // k
  std::uint32_t stride;  // K
  PowerModel power_model;  // shard-local copy: stable address for Servers
  const Distribution* job_size = nullptr;
  double t_ref_s = 0.1;
  bool track_window = false;    // timeseries sink attached
  bool track_record = false;    // timeline recording on

  // -- simulation state -----------------------------------------------------
  EventQueue queue;
  ServerPool pool;
  std::optional<FaultInjector> faults;  // engaged when fault injection is on
  std::vector<Rng> size_rng;   // per server
  std::vector<Rng> admit_rng;  // per server; sized only when admission is on

  // Frozen round-robin assignment for the current window: the pool's
  // serving snapshot (re-listed only at a barrier that found the serving
  // set changed) and `owned_ranks[j]`, the global round-robin rank of its
  // j-th entry, assigned by the orchestrator's merge
  // (ShardedFleet::freeze_window).
  std::vector<std::uint32_t> owned_ranks;

  // Commanded control state, broadcast by the orchestrator at barriers.
  unsigned target = 0;
  double p_admit = 1.0;
  bool admission_on = false;
  bool measuring = false;

  // -- per-server statistics (canonical folds read these) -------------------
  std::vector<PerServerStats> stats;
  std::vector<EnergyBreakdown> warm_energy;

  // -- shard integer totals (merge exactly in any order) --------------------
  std::array<std::uint64_t, kNumEventTypes> events{};
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t violations = 0;  // post-warmup per-job tail violations
  LogHistogram response_hist;    // post-warmup

  // Per-control-period window (maintained only when track_window).
  LogHistogram window_hist;
  std::uint64_t window_completed = 0;
  std::uint64_t window_violations = 0;
  std::vector<std::uint32_t> window_touched;  // global indices, unsorted
  std::vector<std::uint32_t> record_touched;

  [[nodiscard]] unsigned size() const noexcept { return pool.num_servers(); }
  [[nodiscard]] std::uint32_t global(std::uint32_t li) const noexcept {
    return li * stride + index;
  }
  // Number of owned servers with a global index below `gi`.
  [[nodiscard]] std::uint32_t owned_below(std::uint32_t gi) const noexcept {
    return gi <= index ? 0 : (gi - index + stride - 1) / stride;
  }

  // Advances server li's lazy time-integrals to `now` using its *current*
  // state; must run before any mutation of that state.
  void sync_stats(double now, std::uint32_t li) {
    PerServerStats& ps = stats[li];
    const double dt = now - ps.anchor;
    if (dt <= 0.0) return;
    const Server& s = pool.server(li);
    ps.jobs_integral += dt * static_cast<double>(s.queue_length());
    if (s.serving()) ps.serving_integral += dt;
    if (!s.failed()) ps.available_integral += dt;
    ps.anchor = now;
  }

  // The event handlers keep every server settled against the target:
  // below it none is OFF or draining (OFF ones boot, draining ones were
  // revived), at or above it none is serving (serving ones drain).  True
  // when that holds for every owned server outside local range [lo, hi).
  [[nodiscard]] bool settled_outside(std::uint32_t lo, std::uint32_t hi) const {
    for (std::uint32_t li = 0; li < size(); ++li) {
      if (li >= lo && li < hi) continue;
      const Server& s = pool.server(li);
      const bool settled = global(li) < target
                               ? s.state() != PowerState::kOff && !s.draining()
                               : !s.serving();
      if (!settled) return false;
    }
    return true;
  }

  // Reconciles towards the committed prefix [0, new_target): boots OFF
  // servers below the target, revives draining ones and drains serving
  // ones at or above it.  Only servers between the old and the new target
  // can need any of that (settled_outside), so the ascending walk covers
  // just those — O(servers that change), not O(shard).
  void reconcile(double now, unsigned new_target) {
    const std::uint32_t lo = owned_below(std::min(target, new_target));
    const std::uint32_t hi = owned_below(std::max(target, new_target));
    target = new_target;
    GC_DCHECK(settled_outside(lo, hi), "sharded: server unsettled outside reconcile range");
    for (std::uint32_t li = lo; li < hi; ++li) {
      const Server& s = pool.server(li);
      if (global(li) < target) {
        if (s.state() == PowerState::kOff) {
          pool.boot(now, li);
        } else if (s.state() == PowerState::kOn && s.draining()) {
          pool.revive(now, li);
        }
        // BOOTING / SHUTTING_DOWN / FAILED catch up from their completion
        // events; an ON serving server is already where it should be.
      } else if (s.serving()) {
        pool.drain(now, li);
      }
    }
  }

  void on_arrival(double now, std::size_t arrival, std::uint32_t li) {
    ++events[static_cast<std::size_t>(EventType::kArrival)];
    if (admission_on && p_admit < 1.0) {
      // Shed draw from the assigned server's admission stream; drawn only
      // when the outcome is in doubt (p == 1 admits draw-free).
      if (admit_rng[li].uniform01() >= p_admit) {
        ++shed;
        return;
      }
    }
    ++admitted;
    if (!pool.server(li).serving()) {
      // Frozen assignments outlive mid-window crashes/drains; arrivals to a
      // server that stopped serving are dropped, mirroring a stale routing
      // table.
      ++dropped;
      return;
    }
    sync_stats(now, li);
    Job job;
    job.id = static_cast<std::uint64_t>(arrival);
    job.arrival_time = now;
    job.size = job.remaining = job_size->sample(size_rng[li]);
    pool.enqueue(now, li, job);
  }

  void on_departure(double now, std::uint32_t li) {
    sync_stats(now, li);
    const Job finished = pool.handle_departure(now, li);
    if (!measuring) return;
    const double response = now - finished.arrival_time;
    PerServerStats& ps = stats[li];
    ++ps.completed;
    ps.response_sum += response;
    if (response > ps.response_max) ps.response_max = response;
    if (response > t_ref_s) ++violations;
    response_hist.add(response);
    if (track_window) {
      window_hist.add(response);
      ++window_completed;
      if (response > t_ref_s) ++window_violations;
      if (ps.window_count == 0) window_touched.push_back(global(li));
      ps.window_sum += response;
      ++ps.window_count;
    }
    if (track_record) {
      if (ps.record_count == 0) record_touched.push_back(global(li));
      ps.record_sum += response;
      ++ps.record_count;
    }
  }

  void dispatch(const Event& event) {
    ++events[static_cast<std::size_t>(event.type)];
    const double now = event.time;
    const std::uint32_t li = event.subject;
    switch (event.type) {
      case EventType::kDeparture: on_departure(now, li); break;
      case EventType::kBootComplete:
        pool.handle_boot_complete(now, li);
        // The target may have moved below this server while it booted.
        if (global(li) >= target) pool.drain(now, li);
        break;
      case EventType::kShutdownComplete:
        pool.handle_shutdown_complete(now, li);
        if (global(li) < target) pool.boot(now, li);
        break;
      case EventType::kServerFail:
      case EventType::kServerRepair:
      case EventType::kBootTimeout:
        // Orphans are lost: the frozen assignment has no one to hand them
        // to (DESIGN.md §11.1).
        (void)pool.handle_fault_event(now, event.type, li, [&](std::vector<Job>& orphans) {
          lost += orphans.size();
        });
        // A repaired server below the target boots again at once.
        if (event.type == EventType::kServerRepair && global(li) < target) {
          pool.boot(now, li);
        }
        break;
      default: GC_CHECK(false, "sharded: unexpected shard-local event type");
    }
  }

  // Advances the shard through one lookahead window: every queued event
  // with time <= barrier and every owned arrival in [lo, hi) — arrival
  // times are < barrier by construction.  Arrival i belongs to the server
  // of global rank i mod m, so this shard's arrivals are b*m + owned_ranks[j]
  // for consecutive blocks b, walked in order without touching the others'.
  // A queue event at an arrival's exact time runs first.
  void advance_to(double barrier, const std::vector<double>& arrivals,
                  std::size_t lo, std::size_t hi, std::size_t window_m) {
    const std::span<const std::uint32_t> frozen = pool.serving_snapshot();
    const std::size_t owned = owned_ranks.size();
    std::size_t block = 0;
    std::size_t j = 0;
    std::size_t next_arrival = hi;
    if (window_m > 0 && owned > 0 && lo < hi) {
      block = lo / window_m;
      j = static_cast<std::size_t>(
          std::lower_bound(owned_ranks.begin(), owned_ranks.end(),
                           lo - block * window_m) -
          owned_ranks.begin());
      if (j == owned) {
        j = 0;
        ++block;
      }
      next_arrival = block * window_m + owned_ranks[j];
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
        on_arrival(arrivals[next_arrival], next_arrival, frozen[j]);
        if (++j == owned) {
          j = 0;
          ++block;
        }
        next_arrival = block * window_m + owned_ranks[j];
        continue;
      }
      break;
    }
  }

  // Warmup barrier: flush and snapshot energy, zero the time-integrals, and
  // start recording response statistics.
  void begin_measuring(double now) {
    pool.flush_energy(now);
    for (std::uint32_t li = 0; li < size(); ++li) {
      sync_stats(now, li);
      const EnergyMeter& meter = pool.server(li).meter();
      warm_energy[li] = EnergyBreakdown{meter.joules_busy(), meter.joules_idle(),
                                        meter.joules_transition(), meter.joules_off()};
      PerServerStats& ps = stats[li];
      ps.anchor = now;
      ps.jobs_integral = 0.0;
      ps.serving_integral = 0.0;
      ps.available_integral = 0.0;
    }
    measuring = true;
  }

  void finalize(double now) {
    for (std::uint32_t li = 0; li < size(); ++li) sync_stats(now, li);
    pool.flush_energy(now);
  }

  // Events this shard processed: queue pops plus owned arrivals.
  [[nodiscard]] std::uint64_t events_total() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : events) total += n;
    return total;
  }
};

// The orchestrator's view of the K shards: O(K) integer fleet totals,
// canonical-order floating-point folds, the frozen-window merge and the
// fan-out of commanded targets and speeds.  It is the sharded engine's
// side of the control loop (sim/control_loop.h); every method runs on the
// orchestrator thread at a barrier.
struct ShardedFleet final : ControlLoop::Fleet {
  std::vector<std::unique_ptr<Shard>> shards;
  ThreadPool* pool = nullptr;
  unsigned num_servers = 0;
  const WearModel* wear = nullptr;
  EventQueue* orchestrator = nullptr;
  // Engine state the totals read.
  std::size_t cursor = 0;  // arrivals consumed (times strictly < now)
  // Arrivals landing in a window with an empty global serving set are
  // dropped at the orchestrator (no per-server stream exists to charge).
  std::uint64_t orphaned_arrivals = 0;
  // Time average of the applied speed commands.
  TimeWeightedAccumulator speed_avg{0.0};
  // Global serving count m of the current frozen window.
  std::size_t window_m = 0;
  // Window-fold and merge scratch.
  std::vector<std::uint32_t> touched_scratch;
  std::vector<std::size_t> merge_cursor;
  LogHistogram window_hist_merged;

  void parallel(const std::function<void(std::size_t)>& body) {
    if (shards.size() == 1) {
      body(0);
    } else {
      pool->parallel_for_index(shards.size(), body);
    }
  }

  // Global server index gi lives on shard gi % K at local index gi / K.
  [[nodiscard]] Shard& shard_of(std::uint32_t gi) const {
    return *shards[gi % shards.size()];
  }
  [[nodiscard]] PerServerStats& stats_of(std::uint32_t gi) const {
    return shard_of(gi).stats[gi / shards.size()];
  }

  // Visits every server in ascending global index — the canonical fold
  // order — as fn(shard, local index, global index).
  template <typename Fn>
  void for_each_server(Fn&& fn) const {
    for (std::uint32_t li = 0, gi = 0; gi < num_servers; ++li) {
      for (std::size_t k = 0; k < shards.size() && gi < num_servers; ++k, ++gi) {
        const Shard& s = *shards[k];
        fn(s, li, gi);
      }
    }
  }

  // Freezes the round-robin assignment for the next window.  Only when a
  // serving set changed since the last window: the dirty shards re-list
  // theirs, and one merge of all frozen lists by global index hands every
  // shard the global ranks of the servers it owns.  Global index
  // li * K + k ascends row by row over local indices, so the merge visits
  // the rows holding a serving server in order and ranks each row's
  // entries by ascending shard.
  void freeze_window() {
    bool dirty = false;
    for (const auto& s : shards) {
      if (s->pool.serving_changed()) {
        (void)s->pool.serving();  // re-lists the serving snapshot
        dirty = true;
      }
    }
    if (!dirty) return;
    merge_cursor.assign(shards.size(), 0);
    for (const auto& s : shards) s->owned_ranks.resize(s->pool.serving_snapshot().size());
    std::uint32_t rank = 0;
    for (;;) {
      std::uint32_t row = std::numeric_limits<std::uint32_t>::max();
      for (std::size_t k = 0; k < shards.size(); ++k) {
        const std::span<const std::uint32_t> frozen = shards[k]->pool.serving_snapshot();
        if (merge_cursor[k] < frozen.size()) row = std::min(row, frozen[merge_cursor[k]]);
      }
      if (row == std::numeric_limits<std::uint32_t>::max()) break;
      for (std::size_t k = 0; k < shards.size(); ++k) {
        Shard& s = *shards[k];
        std::size_t& c = merge_cursor[k];
        const std::span<const std::uint32_t> frozen = s.pool.serving_snapshot();
        if (c < frozen.size() && frozen[c] == row) s.owned_ranks[c++] = rank++;
      }
    }
    window_m = rank;
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
      t.failures += s->pool.failures();
      t.repairs += s->pool.repairs();
      t.boot_timeouts += s->pool.boot_timeouts();
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
      PerServerStats& ps = stats_of(gi);
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
      st.serving += s->pool.serving_count();
      st.committed += s->pool.committed_count();
      st.powered += s->pool.powered_count();
      st.available += s->pool.available_count();
      st.jobs += s->pool.jobs_in_system();
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
      t.boots += s->pool.boots_started();
      t.shutdowns += s->pool.shutdowns_started();
    }
    return t;
  }
  double power_w() const override {
    double watts = 0.0;
    for_each_server([&](const Shard& s, std::uint32_t li, std::uint32_t) {
      watts += s.pool.server(li).instantaneous_power();
    });
    return watts;
  }
  // The last applied speed command: every pool holds it.
  double speed() const override { return shards.front()->pool.current_speed(); }
  double wear_mean() const override {
    if (!wear->enabled()) return 0.0;
    double total = 0.0;
    for_each_server([&](const Shard& s, std::uint32_t li, std::uint32_t) {
      total +=
          wear->wear_fraction(s.pool.server_boots()[li], s.pool.server_shutdowns()[li]);
    });
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
      PerServerStats& ps = stats_of(gi);
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
    speed_avg.advance(now, this->speed());
    parallel([&](std::size_t k) { shards[k]->pool.set_speed(now, speed); });
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
  options.admission.validate();

  const unsigned num_servers = cluster.num_servers;
  const unsigned num_shards = std::min(sharded.num_shards, num_servers);
  if (sharded.profile != nullptr) {
    sharded.profile->shard_busy_s.assign(num_shards, 0.0);
    sharded.profile->shard_events.assign(num_shards, 0);
    sharded.profile->barrier_wall_s = 0.0;
    sharded.profile->barriers = 0;
  }
  const std::vector<double>& arrivals = trace.timestamps();

  const double t_short = controller.short_period_s();
  const double t_long = controller.long_period_s();
  GC_CHECK(t_short > 0.0 && t_long > 0.0,
           "sharded: controller periods must be positive");

  const std::uint64_t fault_seed = options.faults.seed_or(cluster.dispatch_seed);
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
  fleet.wear = &wear;
  fleet.orchestrator = &orchestrator;
  std::vector<std::unique_ptr<Shard>>& shards = fleet.shards;
  shards.reserve(num_shards);
  {
    for (unsigned k = 0; k < num_shards; ++k) {
      auto shard = std::make_unique<Shard>(k, num_shards, cluster);
      Shard& s = *shard;
      s.job_size = &job_size;
      s.t_ref_s = options.t_ref_s;
      s.track_window = options.timeseries != nullptr;
      s.track_record = options.record_interval_s > 0.0;
      s.target = initial_active;
      s.admission_on = options.admission.enabled;
      s.measuring = options.warmup_s <= 0.0;
      if (options.expected_events_hint > 0) {
        s.queue.reserve(options.expected_events_hint / num_shards + 1);
      }
      const unsigned count = s.owned_below(num_servers);
      s.pool.reserve(count);
      s.size_rng.reserve(count);
      s.stats.resize(count);
      s.warm_energy.resize(count);
      for (std::uint32_t li = 0; li < count; ++li) {
        const std::uint32_t gi = s.global(li);
        s.pool.add(gi, &s.power_model, cluster.initial_speed,
                   /*initially_on=*/gi < initial_active);
        s.size_rng.emplace_back(workload_seed, gi);
      }
      if (options.admission.enabled) {
        s.admit_rng.reserve(count);
        for (std::uint32_t li = 0; li < count; ++li) {
          s.admit_rng.emplace_back(workload_seed ^ kAdmitSeedSalt, s.global(li));
        }
      }
      if (options.faults.enabled()) {
        // Per-server streams double as the boot-hang streams (§11.4); the
        // script is validated against the whole fleet.
        std::vector<Rng> streams;
        streams.reserve(count);
        for (std::uint32_t li = 0; li < count; ++li) {
          streams.emplace_back(fault_seed, s.global(li));
        }
        s.faults.emplace(options.faults, num_servers, std::move(streams), std::nullopt,
                         num_shards, k);
        s.pool.set_fault_injector(&*s.faults);
        s.faults->arm(s.queue);
      }
      shards.push_back(std::move(shard));
    }
  }

  // The control loop (sim/control_loop.h) runs on the orchestrator thread
  // between barriers, so everything it records is K-invariant.
  ControlLoop control(controller, options, cluster.dispatch_seed, admission, fleet);
  std::array<std::uint64_t, kNumEventTypes> orchestrator_events{};

  double now = 0.0;

  // Advances every shard to `barrier` behind a freshly frozen assignment.
  auto advance_barrier = [&](double barrier) {
    if (barrier <= now) return;
    fleet.freeze_window();
    const std::size_t window_m = fleet.window_m;
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
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m);
        prof->shard_busy_s[k] +=
            std::chrono::duration<double>(clock::now() - t0).count();
      });
      prof->barrier_wall_s +=
          std::chrono::duration<double>(clock::now() - wall0).count();
      ++prof->barriers;
    } else {
      fleet.parallel([&](std::size_t k) {
        shards[k]->advance_to(barrier, arrivals, lo, arrivals_hi, window_m);
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

  // Takes the warm snapshots: the measured interval starts at `t`.
  auto begin_measuring = [&](double t) {
    fleet.parallel([&](std::size_t k) { shards[k]->begin_measuring(t); });
    measuring = true;
    measure_start = t;
    warm_totals = fleet.totals();
    warm_losses = fleet.loss_totals();
    control.end_warmup();
    fleet.speed_avg.advance(t, fleet.speed());
    fleet.speed_avg = TimeWeightedAccumulator(t);
  };

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
    point.speed = fleet.speed();
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
      case EventType::kWarmupEnd: begin_measuring(t); break;
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
  // The workload drained before the warmup ended: there is no measured
  // interval at all.  Report an empty (not a warmup-polluted) result.
  if (!measuring) begin_measuring(end_time);
  fleet.speed_avg.advance(end_time, fleet.speed());
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
  for (const auto& s : shards) {
    violations += s->violations;
    response_hist.merge(s->response_hist);
    if (sharded.profile != nullptr) {
      sharded.profile->shard_events[s->index] = s->events_total();
    }
  }
  fleet.for_each_server([&](const Shard& s, std::uint32_t li, std::uint32_t gi) {
    const PerServerStats& ps = s.stats[li];
    completed += ps.completed;
    response_sum += ps.response_sum;
    if (ps.response_max > response_max) response_max = ps.response_max;
    jobs_integral += ps.jobs_integral;
    serving_integral += ps.serving_integral;
    available_integral += ps.available_integral;
    const EnergyMeter& meter = s.pool.server(li).meter();
    energy.busy_j += meter.joules_busy() - s.warm_energy[li].busy_j;
    energy.idle_j += meter.joules_idle() - s.warm_energy[li].idle_j;
    energy.transition_j += meter.joules_transition() - s.warm_energy[li].transition_j;
    energy.off_j += meter.joules_off() - s.warm_energy[li].off_j;
    const std::uint32_t boots = s.pool.server_boots()[li];
    const std::uint32_t shutdowns = s.pool.server_shutdowns()[li];
    result.server_cycles[gi] = boots + shutdowns;
    const double frac = wear.wear_fraction(boots, shutdowns);
    wear_sum += frac;
    if (frac > result.wear_fraction_max) result.wear_fraction_max = frac;
  });

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
  // The merged running sums would add in shard order; the canonical fold
  // of the same samples makes the histogram's sum K-invariant too.
  response_hist.set_sum(response_sum);
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
