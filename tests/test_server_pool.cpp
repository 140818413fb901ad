// Randomized invariant test of the server lifecycle core (sim/server_pool.h)
// shared by both simulation engines: drive a pool with a random
// interleaving of boot / drain / revive / crash / speed commands, arrivals
// and event processing (completions, boot timeouts, background crashes and
// repairs), and check after every step that
//   * the O(1) counters and the serving list equal a full scan;
//   * jobs are conserved: enqueued == completed + lost + in flight;
//   * the tallies agree with the per-server ones and with the FAILED count;
//   * energy is finite and non-decreasing.
#include "sim/server_pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/fault_injector.h"
#include "stats/rng.h"

namespace gc {
namespace {

constexpr unsigned kServers = 70;  // more than one bitmap word

struct PoolUnderTest {
  EventQueue queue;
  PowerModel power{PowerModelParams{}};
  TransitionModel transition{2.0, 0.5};
  ServerPool pool{&queue, transition, 1.0};
  FaultInjector faults;
  std::uint64_t enqueued = 0, completed = 0, lost = 0, hooks = 0;

  explicit PoolUnderTest(std::uint64_t seed) : faults(make_faults(seed)) {
    for (unsigned i = 0; i < kServers; ++i) {
      pool.add(i, &power, 1.0, /*initially_on=*/i % 3 == 0);
    }
    pool.set_fault_injector(&faults);
    pool.set_before_transition([this](double, std::uint32_t) { ++hooks; });
    faults.arm(queue);
  }

  static FaultInjector make_faults(std::uint64_t seed) {
    FaultOptions options;
    options.mtbf_s = 40.0;
    options.mttr_s = 5.0;
    options.boot_hang_prob = 0.2;
    std::vector<Rng> streams;
    for (unsigned i = 0; i < kServers; ++i) streams.emplace_back(seed, i);
    return FaultInjector(options, kServers, std::move(streams), std::nullopt);
  }

  void fault_event(double now, EventType type, std::uint32_t i) {
    (void)pool.handle_fault_event(
        now, type, i, [&](std::vector<Job>& orphans) { lost += orphans.size(); });
  }
};

// Index of a random server satisfying `pred`, or -1.
template <typename Pred>
long pick(Rng& rng, const ServerPool& pool, Pred&& pred) {
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < pool.num_servers(); ++i) {
    if (pred(pool.server(i))) candidates.push_back(i);
  }
  if (candidates.empty()) return -1;
  return candidates[rng.uniform_below(candidates.size())];
}

class ServerPoolPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ServerPoolPropertyTest, RandomWalkKeepsInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  PoolUnderTest t(static_cast<std::uint64_t>(GetParam()) + 11);
  ServerPool& pool = t.pool;
  double now = 0.0;
  double last_energy = 0.0;
  std::uint64_t next_id = 1;

  auto check_invariants = [&] {
    unsigned serving = 0, booting = 0, powered = 0, failed = 0, drained_idle = 0;
    std::size_t jobs = 0;
    std::vector<std::uint32_t> serving_list;
    std::uint64_t boots = 0, shutdowns = 0;
    for (std::uint32_t i = 0; i < pool.num_servers(); ++i) {
      const Server& s = pool.server(i);
      if (s.serving()) serving_list.push_back(i);
      booting += s.state() == PowerState::kBooting ? 1 : 0;
      powered += s.state() != PowerState::kOff ? 1 : 0;
      failed += s.failed() ? 1 : 0;
      // A draining server shuts down as soon as it is empty.
      drained_idle += s.draining() && s.queue_length() == 0 ? 1 : 0;
      jobs += s.queue_length();
      boots += pool.server_boots()[i];
      shutdowns += pool.server_shutdowns()[i];
    }
    serving = static_cast<unsigned>(serving_list.size());
    ASSERT_EQ(pool.serving_count(), serving);
    const auto listed = pool.serving();
    ASSERT_EQ(std::vector<std::uint32_t>(listed.begin(), listed.end()), serving_list);
    ASSERT_EQ(pool.committed_count(), serving + booting);
    ASSERT_EQ(pool.powered_count(), powered);
    ASSERT_EQ(pool.failed_count(), failed);
    ASSERT_EQ(pool.available_count(), kServers - failed);
    ASSERT_EQ(drained_idle, 0u);
    ASSERT_EQ(pool.jobs_in_system(), jobs);
    ASSERT_EQ(t.enqueued, t.completed + t.lost + jobs);
    ASSERT_EQ(pool.boots_started(), boots);
    ASSERT_EQ(pool.shutdowns_started(), shutdowns);
    ASSERT_EQ(pool.failed_count(), pool.failures() - pool.repairs());
    ASSERT_LE(pool.boot_timeouts(), pool.failures());
    pool.flush_energy(now);
    const double energy = pool.energy().total_j();
    ASSERT_TRUE(std::isfinite(energy));
    ASSERT_GE(energy, last_energy - 1e-9);
    last_energy = energy;
  };

  for (int step = 0; step < 4000; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.30) {
      const long i = pick(rng, pool, [](const Server& s) { return s.serving(); });
      if (i >= 0) {
        Job job;
        job.id = next_id++;
        job.arrival_time = now;
        job.size = job.remaining = 0.05 + rng.uniform01();
        pool.enqueue(now, static_cast<std::uint32_t>(i), job);
        ++t.enqueued;
      }
    } else if (dice < 0.36) {
      const long i =
          pick(rng, pool, [](const Server& s) { return s.state() == PowerState::kOff; });
      if (i >= 0) pool.boot(now, static_cast<std::uint32_t>(i));
    } else if (dice < 0.41) {
      const long i = pick(rng, pool, [](const Server& s) { return s.serving(); });
      if (i >= 0) pool.drain(now, static_cast<std::uint32_t>(i));
    } else if (dice < 0.44) {
      const long i = pick(rng, pool, [](const Server& s) {
        return s.state() == PowerState::kOn && s.draining();
      });
      if (i >= 0) pool.revive(now, static_cast<std::uint32_t>(i));
    } else if (dice < 0.46) {
      // A crash command on any server: a no-op unless it is powered.
      t.fault_event(now, EventType::kServerFail,
                    static_cast<std::uint32_t>(rng.uniform_below(kServers)));
    } else if (dice < 0.50) {
      const double speeds[] = {0.25, 0.5, 0.75, 1.0};
      const double speed = speeds[rng.uniform_below(4)];
      if (rng.uniform01() < 0.5) {
        pool.set_speed(now, speed);
      } else {
        const auto begin = static_cast<std::uint32_t>(rng.uniform_below(kServers));
        pool.set_speed(now, begin, kServers, speed);
      }
    } else if (const auto event = t.queue.pop()) {
      now = event->time;
      switch (event->type) {
        case EventType::kDeparture: {
          const Job job = pool.handle_departure(now, event->subject);
          ASSERT_GE(now, job.arrival_time);
          ++t.completed;
          break;
        }
        case EventType::kBootComplete:
          pool.handle_boot_complete(now, event->subject);
          break;
        case EventType::kShutdownComplete:
          pool.handle_shutdown_complete(now, event->subject);
          break;
        default: t.fault_event(now, event->type, event->subject); break;
      }
    } else {
      now += 0.1;
    }
    check_invariants();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The walk really exercised the lifecycle.
  EXPECT_GT(pool.boots_started(), 0u);
  EXPECT_GT(pool.shutdowns_started(), 0u);
  EXPECT_GT(pool.failures(), 0u);
  EXPECT_GT(pool.repairs(), 0u);
  EXPECT_GT(pool.boot_timeouts(), 0u);
  EXPECT_GT(t.completed, 0u);
  EXPECT_GT(t.lost, 0u);
  EXPECT_GE(t.hooks, pool.boots_started() + pool.shutdowns_started() + pool.failures());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerPoolPropertyTest, ::testing::Range(0, 6));

// An unchanged fleet-wide speed is a no-op only while every server runs at
// it: after a group change the same fleet speed must reach the group again.
TEST(ServerPool, FleetSpeedAfterGroupSpeedReachesEveryServer) {
  EventQueue queue;
  const PowerModel power{PowerModelParams{}};
  ServerPool pool(&queue, TransitionModel{}, 1.0);
  for (unsigned i = 0; i < 4; ++i) pool.add(i, &power, 1.0, true);
  pool.set_speed(0.0, 2, 4, 0.5);
  EXPECT_DOUBLE_EQ(pool.server(3).speed(), 0.5);
  pool.set_speed(1.0, 1.0);
  for (unsigned i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(pool.server(i).speed(), 1.0);
}

}  // namespace
}  // namespace gc
