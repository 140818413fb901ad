// Sharded deterministic simulation core: conservative parallel DES
// (DESIGN.md §11).
//
// The cluster is partitioned into K interleaved shards — server gi belongs
// to shard gi mod K — each owning its own EventQueue, ServerPool
// (sim/server_pool.h, the lifecycle core Cluster also runs on), fault
// injector, RNG streams and metric accumulators, executed on a fixed
// thread pool.  Interleaving spreads the serving prefix [0, target) evenly
// over the shards even when most of the fleet is parked, and fleet-wide
// commands cost O(servers that change): an unchanged speed is a no-op and a
// new target visits only the servers between the old and the new one.
// Synchronization is conservative: the DCP structure gives a natural
// lookahead window — no cross-shard interaction (provisioning commands,
// telemetry aggregation, admission updates) happens between control-period
// barriers — so each shard advances independently to the next barrier and
// the orchestrator thread runs the control plane between windows — the
// same control-loop driver as run_simulation (sim/control_loop.h:
// controller, channel, actuator, outages and safe mode, admission updates,
// audit, time series and trace records).
//
// Determinism contract: the output is a pure function of the inputs and
// *independent of K* — every RNG stream is derived per global server index,
// arrivals map to servers through a frozen round-robin assignment fixed at
// each window start, and every floating-point reduction folds per-server
// partials in canonical (global server index) order.  The shard-determinism
// property test pins checksums at K ∈ {1, 2, 4, 7} against each other and
// against committed goldens.
//
// Both engines run the same server lifecycle, fault process and control
// loop; they differ only where the model must (DESIGN.md §11.1): the
// sequential loop's global JSQ dispatcher (one shared decision per
// arrival), crash re-dispatch and shared boot-hang stream are inherently
// order-dependent across the whole fleet and cannot be sharded bit-exactly.
// The sharded engine therefore uses trace-based round-robin dispatch over
// the frozen serving set, loses a crash's orphans, draws boot hangs from
// per-server fault streams, and reports histogram-derived tail quantiles.
// Anything unsupported in this model is rejected loudly (GC_CHECK), never
// silently approximated: heterogeneous groups are sequential-only for now.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "stats/distributions.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace gc {

// Self-profile of one sharded run: per-shard busy time inside the
// barrier-to-barrier advances versus the orchestrator's wall time across
// those advances, plus each shard's deterministic event count.  Filled
// only when ShardedOptions::profile points here, and written *outside*
// SimResult on purpose — wall-clock readings are machine noise, and the
// event split depends on K, while SimResult (counters included) must stay
// a pure, K-invariant function of the inputs.  bench/perf_smoke surfaces
// the derived gauges (busy fraction, imbalance, event imbalance) in
// BENCH_core.json.
struct ShardProfile {
  // Seconds each shard spent inside Shard::advance_to, indexed by shard.
  // Resized to the effective shard count by the engine.
  std::vector<double> shard_busy_s;
  // Events each shard processed (queue pops plus owned arrivals), indexed
  // by shard: the work split, free of timing noise.
  std::vector<std::uint64_t> shard_events;
  // Orchestrator wall seconds spent across all advance barriers (issue to
  // last-shard completion — includes the barrier wait on the slowest
  // shard) and the number of barriers executed.
  double barrier_wall_s = 0.0;
  std::uint64_t barriers = 0;

  [[nodiscard]] double busy_total_s() const noexcept {
    double sum = 0.0;
    for (const double b : shard_busy_s) sum += b;
    return sum;
  }
  [[nodiscard]] double busy_max_s() const noexcept {
    double mx = 0.0;
    for (const double b : shard_busy_s) mx = b > mx ? b : mx;
    return mx;
  }
  // Fraction of the workers' aggregate barrier budget (K * wall) actually
  // spent advancing shards; the remainder is barrier wait + fan-out
  // overhead.  1.0 means perfectly packed.
  [[nodiscard]] double busy_fraction() const noexcept {
    const double denom =
        barrier_wall_s * static_cast<double>(shard_busy_s.size());
    return denom > 0.0 ? busy_total_s() / denom : 0.0;
  }
  // Load imbalance: slowest shard over mean shard busy time, minus 1.
  // 0 means all shards carried equal work; 1 means the critical shard was
  // twice the mean (half the fleet idles at every barrier).
  [[nodiscard]] double imbalance() const noexcept {
    const double total = busy_total_s();
    if (shard_busy_s.empty() || total <= 0.0) return 0.0;
    const double mean = total / static_cast<double>(shard_busy_s.size());
    return mean > 0.0 ? busy_max_s() / mean - 1.0 : 0.0;
  }
  // The same ratio over shard_events: max over mean, minus 1.  Identical
  // on every machine, so it can gate the partition's balance in CI.
  [[nodiscard]] double event_imbalance() const noexcept {
    std::uint64_t total = 0, mx = 0;
    for (const std::uint64_t n : shard_events) {
      total += n;
      mx = n > mx ? n : mx;
    }
    if (total == 0) return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(shard_events.size());
    return static_cast<double>(mx) / mean - 1.0;
  }
};

struct ShardedOptions {
  // Number of shards K (>= 1; clamped to the fleet size).  K = 1 runs the
  // same model single-threaded and produces byte-identical output to any
  // other K.
  unsigned num_shards = 1;
  // Worker pool for the barrier-to-barrier shard advances; nullptr uses
  // util/thread_pool's process-wide pool.
  ThreadPool* pool = nullptr;
  // Optional wall-clock self-profile sink (see ShardProfile).  nullptr
  // skips the timing reads entirely; the simulated output is identical
  // either way.
  ShardProfile* profile = nullptr;
};

// Runs one sharded simulation over a concrete arrival trace.  `job_size`
// is sampled from per-server streams derived from `workload_seed`, so the
// draw sequence each server sees is independent of K.  The controller, the
// observability sinks inside `options` and the returned SimResult follow
// the same contracts as run_simulation().
[[nodiscard]] SimResult run_sharded_simulation(const Trace& trace,
                                               const Distribution& job_size,
                                               std::uint64_t workload_seed,
                                               const ClusterOptions& cluster,
                                               Controller& controller,
                                               const SimulationOptions& options,
                                               const ShardedOptions& sharded);

}  // namespace gc
