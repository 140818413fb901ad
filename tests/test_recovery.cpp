// Controller crash-recovery tests (ControllerRecoveryMode,
// sim/control_channel.h + the kControllerRecover handler in
// sim/control_loop.cpp): a warm restart — snapshot, tear down, rebuild,
// restore — must be bit-identical to the historical preserve path in both
// simulation engines, a cold
// restart must run to completion on a regressed clock without tripping
// invariants, and both must keep the era monotone so post-outage commands
// clear safe mode's incarnation gate.
#include <gtest/gtest.h>

#include <cmath>

#include "control/policies.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "workload/rate_profile.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace gc {
namespace {

ClusterConfig config8() {
  ClusterConfig config;
  config.max_servers = 8;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  return config;
}

enum class Engine { kSequential, kSharded };

SimResult run(ControllerRecoveryMode mode, bool random_outages = false,
              Engine engine = Engine::kSequential) {
  const ClusterConfig config = config8();
  const Provisioner provisioner(config);
  PolicyOptions popts;
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &provisioner, popts);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  cluster.dispatch_seed = 11;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  sim.channel.enabled = true;
  sim.actuator.enabled = true;
  sim.actuator.ack_timeout_s = 5.0;
  // Two scripted outages (the second overlapping nothing) plus, when
  // asked, a random fail-stop process layered on top.
  sim.controller_faults.script = {{600.0, 120.0}, {1800.0, 200.0}};
  if (random_outages) {
    sim.controller_faults.mtbf_s = 700.0;
    sim.controller_faults.mttr_s = 90.0;
  }
  sim.controller_faults.recovery = mode;
  if (engine == Engine::kSharded) {
    const Trace trace =
        Trace::from_profile(ConstantRate(20.0), 3000.0, /*seed=*/3);
    ShardedOptions sharded;
    sharded.num_shards = 2;
    return run_sharded_simulation(trace, Distribution::exponential(config.mu_max),
                                  /*workload_seed=*/3, cluster, *controller, sim,
                                  sharded);
  }
  Workload workload =
      Workload::poisson_exponential(20.0, config.mu_max, 3000.0, /*seed=*/3);
  return run_simulation(workload, cluster, *controller, sim);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.ticks_missed, b.ticks_missed);
  EXPECT_EQ(a.command_retries, b.command_retries);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.p99_response_s, b.p99_response_s);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
  EXPECT_DOUBLE_EQ(a.safe_mode_time_s, b.safe_mode_time_s);
}

TEST(Recovery, WarmRestartIsBitIdenticalToPreserve) {
  // The headline invariant: rebuilding the facade from its own snapshot at
  // the recovery instant is a state transplant, not an approximation.  Both
  // engines drive the same control loop, so it holds for each.
  for (const Engine engine : {Engine::kSequential, Engine::kSharded}) {
    SCOPED_TRACE(engine == Engine::kSharded ? "sharded" : "sequential");
    const SimResult preserve = run(ControllerRecoveryMode::kPreserve, false, engine);
    EXPECT_GT(preserve.ticks_missed, 0u);
    EXPECT_GT(preserve.completed_jobs, 10000u);
    expect_identical(preserve, run(ControllerRecoveryMode::kWarmRestart, false, engine));
  }
}

TEST(Recovery, WarmRestartSurvivesRandomOutageProcesses) {
  // Random outages recover at arbitrary phases of the control cycle —
  // mid-backoff, with commands in flight, right after a long tick — which
  // is exactly where a lossy snapshot field would surface.
  expect_identical(run(ControllerRecoveryMode::kPreserve, /*random_outages=*/true),
                   run(ControllerRecoveryMode::kWarmRestart, /*random_outages=*/true));
}

TEST(Recovery, ColdRestartRunsToCompletionAndDiverges) {
  const SimResult preserve = run(ControllerRecoveryMode::kPreserve);
  const SimResult cold = run(ControllerRecoveryMode::kColdRestart);
  // Amnesia is not a crash: the run finishes, serves its jobs and the
  // outage accounting (a pre-recovery property) is untouched.
  EXPECT_GT(cold.completed_jobs, 10000u);
  EXPECT_EQ(cold.ticks_missed, preserve.ticks_missed);
  EXPECT_TRUE(std::isfinite(cold.energy.total_j()));
  // ... but the controller genuinely lost its memory: the trajectory
  // parts from preserve's after the first recovery.
  EXPECT_NE(cold.energy.total_j(), preserve.energy.total_j());
}

TEST(Recovery, ColdRestartDeterminism) {
  // Same seeds, same amnesia: the cold path must stay reproducible.
  expect_identical(run(ControllerRecoveryMode::kColdRestart),
                   run(ControllerRecoveryMode::kColdRestart));
}

}  // namespace
}  // namespace gc
