#include "sim/server_pool.h"

#include <bit>

#include "sim/fault_injector.h"

namespace gc {

ServerPool::ServerPool(EventQueue* queue, const TransitionModel& transition,
                       double speed)
    : queue_(queue), transition_(transition), speed_(speed) {
  GC_CHECK(queue != nullptr, "ServerPool: null event queue");
}

void ServerPool::reserve(std::size_t count) {
  servers_.reserve(count);
  server_boots_.reserve(count);
  server_shutdowns_.reserve(count);
  serving_bits_.reserve((count + 63) / 64);
}

void ServerPool::add(std::uint32_t id, const PowerModel* power, double speed,
                     bool initially_on, double rate_scale) {
  const auto i = static_cast<std::uint32_t>(servers_.size());
  servers_.emplace_back(id, power, speed, initially_on, /*start_time=*/0.0, rate_scale);
  server_boots_.push_back(0);
  server_shutdowns_.push_back(0);
  if ((i & 63) == 0) serving_bits_.push_back(0);
  if (speed != speed_) uniform_speed_ = false;
  if (initially_on) {
    serving_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
    ++serving_n_;
    ++powered_;
    serving_dirty_ = true;
  }
}

std::span<const std::uint32_t> ServerPool::serving() const {
  if (serving_dirty_) {
    serving_list_.clear();
    for (std::size_t w = 0; w < serving_bits_.size(); ++w) {
      for (std::uint64_t bits = serving_bits_[w]; bits != 0; bits &= bits - 1) {
        serving_list_.push_back(static_cast<std::uint32_t>(w * 64) +
                                static_cast<std::uint32_t>(std::countr_zero(bits)));
      }
    }
    serving_dirty_ = false;
  }
  return serving_list_;
}

template <typename Fn>
void ServerPool::transition(double now, std::uint32_t i, Fn&& mutate) {
  if (before_transition_) before_transition_(now, i);
  Server& s = servers_[i];
  const PowerState before = s.state();
  const bool was_serving = s.serving();
  mutate(s);
  const PowerState after = s.state();
  if (before != after) {
    if ((before != PowerState::kOff) != (after != PowerState::kOff)) {
      after != PowerState::kOff ? ++powered_ : --powered_;
    }
    if ((before == PowerState::kBooting) != (after == PowerState::kBooting)) {
      after == PowerState::kBooting ? ++booting_ : --booting_;
    }
    if ((before == PowerState::kFailed) != (after == PowerState::kFailed)) {
      after == PowerState::kFailed ? ++failed_ : --failed_;
    }
  }
  if (was_serving != s.serving()) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    GC_DCHECK(((serving_bits_[i >> 6] & bit) != 0) == was_serving,
              "ServerPool: serving set out of sync");
    serving_bits_[i >> 6] ^= bit;
    was_serving ? --serving_n_ : ++serving_n_;
    serving_dirty_ = true;
  }
}

void ServerPool::boot(double now, std::uint32_t i) {
  Server& s = servers_[i];
  transition(now, i, [&](Server& sv) { sv.start_boot(now); });
  trace_async_begin(trace_, now, "lifecycle", "boot", s.index());
  // With fault injection, this individual boot may hang: instead of a
  // completion it gets a watchdog timeout that fails the server.
  const std::optional<double> hang =
      faults_ != nullptr ? faults_->sample_boot_hang(i, transition_.boot_delay_s)
                         : std::nullopt;
  s.pending_transition =
      hang ? queue_->schedule(now + *hang, EventType::kBootTimeout, i)
           : queue_->schedule(now + transition_.boot_delay_s, EventType::kBootComplete, i);
  ++boots_;
  ++server_boots_[i];
}

void ServerPool::revive(double now, std::uint32_t i) {
  transition(now, i, [&](Server& s) { s.set_draining(now, false); });
}

void ServerPool::drain(double now, std::uint32_t i) {
  transition(now, i, [&](Server& s) { s.set_draining(now, true); });
  shutdown_if_drained(now, i);
}

void ServerPool::shutdown_if_drained(double now, std::uint32_t i) {
  Server& s = servers_[i];
  if (s.state() != PowerState::kOn || !s.draining() || s.queue_length() != 0) return;
  transition(now, i, [&](Server& sv) { sv.begin_shutdown(now); });
  trace_async_begin(trace_, now, "lifecycle", "shutdown", s.index());
  s.pending_transition = queue_->schedule(now + transition_.shutdown_delay_s,
                                          EventType::kShutdownComplete, i);
  ++shutdowns_;
  ++server_shutdowns_[i];
}

void ServerPool::handle_boot_complete(double now, std::uint32_t i) {
  Server& s = servers_[i];
  s.pending_transition = kInvalidEventId;
  // The server already runs at its fleet or group speed: set_speed()
  // reaches every server, whatever its power state.
  transition(now, i, [&](Server& sv) { sv.finish_boot(now); });
  trace_async_end(trace_, now, "lifecycle", "boot", s.index());
}

void ServerPool::handle_shutdown_complete(double now, std::uint32_t i) {
  Server& s = servers_[i];
  s.pending_transition = kInvalidEventId;
  transition(now, i, [&](Server& sv) { sv.finish_shutdown(now); });
  trace_async_end(trace_, now, "lifecycle", "shutdown", s.index());
}

bool ServerPool::handle_fault_event(double now, EventType type, std::uint32_t i,
                                    const std::function<void(std::vector<Job>&)>& orphans) {
  GC_CHECK(faults_ != nullptr, "ServerPool: fault event without an injector");
  const Server& s = server(i);
  bool crashed = false;
  switch (type) {
    case EventType::kServerFail:
      crashed = s.state() != PowerState::kOff && !s.failed();
      if (crashed) crash(now, i, orphans);
      break;
    case EventType::kBootTimeout:
      // The hung boot fails; the firing event was its pending transition,
      // so cancelling it in crash() is a no-op.
      GC_CHECK(s.state() == PowerState::kBooting, "boot timeout: server not BOOTING");
      crash(now, i, orphans);
      ++boot_timeouts_;
      break;
    case EventType::kServerRepair:
      transition(now, i, [&](Server& sv) { sv.finish_repair(now); });
      ++repairs_;
      trace_async_end(trace_, now, "lifecycle", "failed", s.index());
      break;
    default: GC_CHECK(false, "ServerPool: not a fault event");
  }
  faults_->on_fault_event(now, type, i, crashed, *queue_);
  return crashed;
}

void ServerPool::crash(double now, std::uint32_t i,
                       const std::function<void(std::vector<Job>&)>& orphans) {
  Server& s = servers_[i];
  // A crashed server's scheduled future is void: its in-flight departure
  // and its boot/shutdown completion must not fire.
  queue_->cancel(s.pending_departure);
  s.pending_departure = kInvalidEventId;
  queue_->cancel(s.pending_transition);
  s.pending_transition = kInvalidEventId;
  // Close the interrupted transition's lane before opening the failed one.
  if (s.state() == PowerState::kBooting) {
    trace_async_end(trace_, now, "lifecycle", "boot", s.index());
  } else if (s.state() == PowerState::kShuttingDown) {
    trace_async_end(trace_, now, "lifecycle", "shutdown", s.index());
  }
  std::vector<Job> jobs;
  transition(now, i, [&](Server& sv) { jobs = sv.fail(now); });
  ++failures_;
  trace_async_begin(trace_, now, "lifecycle", "failed", s.index());
  jobs_ -= jobs.size();
  orphans(jobs);
}

void ServerPool::set_speed(double now, double speed) {
  if (uniform_speed_ && speed == speed_) return;
  set_speed(now, 0, num_servers(), speed);
  speed_ = speed;
  uniform_speed_ = true;
}

void ServerPool::set_speed(double now, std::uint32_t begin, std::uint32_t end,
                           double speed) {
  GC_CHECK(speed > 0.0 && speed <= 1.0, "set_speed: speed out of (0,1]");
  uniform_speed_ = false;
  for (std::uint32_t i = begin; i < end; ++i) {
    Server& s = servers_[i];
    if (const std::optional<double> eta = s.set_speed(now, speed)) {
      queue_->cancel(s.pending_departure);
      s.pending_departure = queue_->schedule(*eta, EventType::kDeparture, i);
    }
  }
}

void ServerPool::flush_energy(double now) {
  for (Server& s : servers_) s.flush_energy(now);
}

EnergyBreakdown ServerPool::energy() const {
  EnergyBreakdown sum;
  for (const Server& s : servers_) {
    sum.busy_j += s.meter().joules_busy();
    sum.idle_j += s.meter().joules_idle();
    sum.transition_j += s.meter().joules_transition();
    sum.off_j += s.meter().joules_off();
  }
  return sum;
}

double ServerPool::instantaneous_power() const {
  double watts = 0.0;
  for (const Server& s : servers_) watts += s.instantaneous_power();
  return watts;
}

}  // namespace gc
