#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.h"
#include "util/format.h"

namespace gc {

void FaultOptions::validate() const {
  if (!(mtbf_s >= 0.0) || !std::isfinite(mtbf_s)) {
    throw std::invalid_argument("FaultOptions: mtbf_s must be finite and >= 0");
  }
  if (!(mttr_s > 0.0) || !std::isfinite(mttr_s)) {
    throw std::invalid_argument("FaultOptions: mttr_s must be finite and > 0");
  }
  if (!(boot_hang_prob >= 0.0 && boot_hang_prob <= 1.0)) {
    throw std::invalid_argument("FaultOptions: boot_hang_prob out of [0,1]");
  }
  if (!(boot_timeout_s >= 0.0) || !std::isfinite(boot_timeout_s)) {
    throw std::invalid_argument("FaultOptions: boot_timeout_s must be finite and >= 0");
  }
  for (const ScriptedFault& f : script) {
    if (!(f.time >= 0.0) || !std::isfinite(f.time)) {
      throw std::invalid_argument("FaultOptions: scripted fault time must be >= 0");
    }
    if (!(f.repair_after_s > 0.0)) {  // infinity is fine
      throw std::invalid_argument("FaultOptions: scripted repair_after_s must be > 0");
    }
  }
}

FaultInjector::FaultInjector(const FaultOptions& options, unsigned fleet_size,
                             std::vector<Rng> server_rngs, std::optional<Rng> boot_rng,
                             unsigned stride, unsigned offset)
    : options_(options), server_rngs_(std::move(server_rngs)),
      boot_rng_(std::move(boot_rng)) {
  options_.validate();
  GC_CHECK(!server_rngs_.empty(), "FaultInjector: no servers");
  GC_CHECK(stride >= 1 && offset < stride, "FaultInjector: bad ownership");
  background_pending_.assign(server_rngs_.size(), false);
  for (const ScriptedFault& f : options_.script) {
    if (f.server >= fleet_size) {
      throw std::invalid_argument(
          format("FaultOptions: scripted fault targets server {} of {}", f.server,
                 fleet_size));
    }
    if (f.server % stride == offset) {
      script_.push_back({f.time, f.server / stride, f.repair_after_s});
    }
  }
  std::stable_sort(script_.begin(), script_.end(),
                   [](const ScriptedFault& a, const ScriptedFault& b) {
                     return a.time < b.time;
                   });
}

double FaultInjector::sample_ttr(std::uint32_t server) {
  return -options_.mttr_s * std::log(server_rngs_[server].uniform01_open_left());
}

void FaultInjector::schedule_failure(double now, std::uint32_t server, EventQueue& queue) {
  GC_DCHECK(options_.mtbf_s > 0.0, "background failure without a background process");
  const double ttf_s =
      -options_.mtbf_s * std::log(server_rngs_[server].uniform01_open_left());
  queue.schedule(now + ttf_s, EventType::kServerFail, server);
  background_pending_[server] = true;
}

void FaultInjector::arm(EventQueue& queue) {
  if (options_.mtbf_s > 0.0) {
    for (std::uint32_t i = 0; i < server_rngs_.size(); ++i) {
      schedule_failure(queue.now(), i, queue);
    }
  }
  for (const ScriptedFault& f : script_) {
    queue.schedule(f.time, EventType::kServerFail, f.server);
  }
}

void FaultInjector::on_fault_event(double now, EventType type, std::uint32_t server,
                                   bool crashed, EventQueue& queue) {
  GC_CHECK(server < server_rngs_.size(), "FaultInjector: unknown server");
  if (type == EventType::kBootTimeout) {
    queue.schedule(now + sample_ttr(server), EventType::kServerRepair, server);
    return;
  }
  if (type == EventType::kServerRepair) {
    // Restart the failure clock unless this server's background chain
    // already has a pending event (a background fail can tick while FAILED).
    if (options_.mtbf_s > 0.0 && !background_pending_[server]) {
      schedule_failure(now, server, queue);
    }
    return;
  }
  // kServerFail.  Scripted faults fire in time order, so the entry this
  // event fires (if any) is among the unfired ones at exactly `now`.
  bool scripted = false;
  for (std::size_t j = script_next_; j < script_.size() && script_[j].time == now; ++j) {
    if (script_[j].server == server) {
      std::swap(script_[j], script_[script_next_]);
      scripted = true;
      break;
    }
  }
  if (scripted) {
    const double repair_after = script_[script_next_++].repair_after_s;
    // A scripted fault on an unpowered server misses; an infinite repair
    // delay keeps the server down for the rest of the run.
    if (crashed && std::isfinite(repair_after)) {
      queue.schedule(now + repair_after, EventType::kServerRepair, server);
    }
    return;
  }
  background_pending_[server] = false;
  if (crashed) {
    queue.schedule(now + sample_ttr(server), EventType::kServerRepair, server);
  } else {
    // The failure clock ticked while the server was OFF or already FAILED:
    // nothing crashes, but the background chain must continue.  A crashed
    // server's chain resumes from its repair.
    schedule_failure(now, server, queue);
  }
}

std::optional<double> FaultInjector::sample_boot_hang(std::uint32_t server,
                                                      double boot_delay_s) {
  if (options_.boot_hang_prob <= 0.0) return std::nullopt;
  Rng& rng = boot_rng_ ? *boot_rng_ : server_rngs_[server];
  if (rng.uniform01() >= options_.boot_hang_prob) return std::nullopt;
  return options_.boot_timeout_s > 0.0 ? options_.boot_timeout_s : 3.0 * boot_delay_s;
}

}  // namespace gc
