// Fault injection for the discrete-event simulator.
//
// Two fault sources, both driving the server lifecycle extensions in
// sim/server.h ({BOOTING, ON, SHUTTING_DOWN} -> FAILED -> OFF):
//
//   * a background fail-stop process: per-server exponential time-to-failure
//     (mean `mtbf_s`) while the server is powered, with exponential repair
//     times (mean `mttr_s`).  A failure that lands on an OFF or already
//     FAILED server is a no-op (machines that are not running do not
//     crash) and the failure clock simply restarts;
//   * boot hangs: each boot command independently hangs with probability
//     `boot_hang_prob`; a hung boot never completes and is declared failed
//     after `boot_timeout_s` (the firmware/watchdog timeout), then repaired
//     like any other crash.
//
// Scripted faults make tests reproducible: each entry crashes a specific
// server at a specific time, with an optional fixed repair delay
// (defaulting to "never repaired").
//
// Determinism: every server's failure and repair clock draws from its own
// RNG stream, handed in by the owner, so fault sequences are independent
// of event interleaving and bitwise reproducible across thread counts.
// The sequential engine passes Rng(seed, 0).split(i + 1) per server plus
// one shared boot-hang stream (split(0xb007)); each shard of the sharded
// engine passes Rng(seed, gi) per owned server and draws a server's boot
// hangs from that same stream (DESIGN.md §11.4).
//
// The injector owns fault *scheduling* and is the only fault process of
// both engines; the server lifecycle lives in sim/server_pool.h.  The
// pool routes kServerFail / kServerRepair / kBootTimeout events: it
// performs the crash, timeout or repair (the owner handles a crash's
// orphans) and then calls back here to schedule the follow-up event.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/event_queue.h"
#include "stats/rng.h"

namespace gc {

struct ScriptedFault {
  double time = 0.0;          // crash instant (simulation seconds)
  std::uint32_t server = 0;   // victim
  // Seconds from the crash until the repair completes; the default
  // (infinity) means the server stays down for the rest of the run.
  double repair_after_s = std::numeric_limits<double>::infinity();
};

struct FaultOptions {
  // Mean time between failures of one powered server; 0 disables the
  // background fault process.
  double mtbf_s = 0.0;
  // Mean time to repair a crashed server (exponential).
  double mttr_s = 600.0;
  // Probability that any individual boot command hangs instead of
  // completing.
  double boot_hang_prob = 0.0;
  // How long a hung boot stays BOOTING before it is declared failed;
  // 0 means three boot delays (a watchdog would not fire earlier than the
  // expected boot time).
  double boot_timeout_s = 0.0;
  // Reproducible crash schedule, in addition to the processes above.
  std::vector<ScriptedFault> script;
  // RNG seed; 0 derives one from the cluster's dispatch seed so that
  // replications (which re-seed the RunSpec) get independent fault
  // histories automatically.
  std::uint64_t seed = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return mtbf_s > 0.0 || boot_hang_prob > 0.0 || !script.empty();
  }
  // The seed both engines derive their fault streams from.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t dispatch_seed) const noexcept {
    return seed != 0 ? seed : dispatch_seed ^ 0xfa7a17f00dULL;
  }
  // Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

class FaultInjector {
 public:
  // Fault process of `server_rngs.size()` servers addressed by local index:
  // local server li is server li * stride + offset of a `fleet_size`-server
  // fleet.  The script is validated against the whole fleet (throws
  // std::invalid_argument) and keeps the entries this injector owns.  Boot
  // hangs draw from `boot_rng` when given, else from the booting server's
  // own stream.
  FaultInjector(const FaultOptions& options, unsigned fleet_size,
                std::vector<Rng> server_rngs, std::optional<Rng> boot_rng,
                unsigned stride = 1, unsigned offset = 0);

  // Schedules the initial background failures and every owned scripted
  // fault.  Call once, before the first event is popped.
  void arm(EventQueue& queue);

  // The owner's pool handled a fault event for `server`; schedules what
  // follows.  kServerFail: `crashed` tells whether the server was powered
  // and crashed — schedule its repair, or restart a background clock that
  // ticked while it was unpowered.  kBootTimeout: the hung boot failed —
  // schedule its repair.  kServerRepair: restart the failure clock.
  void on_fault_event(double now, EventType type, std::uint32_t server, bool crashed,
                      EventQueue& queue);

  // Consulted for every boot command: nullopt = the boot proceeds
  // normally; a value = the boot hangs and the server must be declared
  // failed after that many seconds.
  [[nodiscard]] std::optional<double> sample_boot_hang(std::uint32_t server,
                                                       double boot_delay_s);

 private:
  [[nodiscard]] double sample_ttr(std::uint32_t server);
  // Draws the next background failure of `server` and schedules it.
  void schedule_failure(double now, std::uint32_t server, EventQueue& queue);

  FaultOptions options_;
  std::vector<Rng> server_rngs_;
  std::optional<Rng> boot_rng_;
  // Owned scripted faults (local indices) sorted by time; the first
  // `script_next_` have fired.  A kServerFail matching an unfired entry's
  // server and exact time is that entry; anything else is the background
  // process, which keeps exactly one pending event per server.
  std::vector<ScriptedFault> script_;
  std::size_t script_next_ = 0;
  std::vector<bool> background_pending_;
};

}  // namespace gc
