// The benchmark's own tests: the estimator and the percentile rule, spans
// and self time, the Controller decorator, the K-invariance of the sharded
// workload's model outputs, and tiny runs of every workload.
#include <gtest/gtest.h>

#include <regex>
#include <thread>

#include "bench.h"
#include "control/policies.h"
#include "core/provisioner.h"
#include "cp/control_plane.h"
#include "exp/scenario.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.001), 1.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_THROW((void)percentile(v, 0.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 1.5), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1029, 0.99), 10u);
  EXPECT_EQ(samples_beyond(147, 0.99), 1u);
  EXPECT_EQ(samples_beyond(147, 0.50), 73u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Estimator, FastestAndMedian) {
  EXPECT_EQ(fastest({3.0, 1.5, 2.0}), 1.5);
  EXPECT_EQ(fastest({}), 0.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Estimator, FastestPerCallKeepsEachCallsMinimum) {
  FastestPerCall acc(250);
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<double> times(250);
    for (std::size_t c = 0; c < times.size(); ++c) {
      // Call c costs c + 1; pass 5 is contended (x10), pass 1 only on odd calls.
      const double slow = pass == 5 || (pass == 1 && c % 2 == 1) ? 10.0 : 1.0;
      times[c] = static_cast<double>(c + 1) * slow;
    }
    acc.add(times);
  }
  EXPECT_EQ(acc.passes(), 8u);
  ASSERT_EQ(acc.fastest().size(), 250u);
  EXPECT_EQ(acc.fastest()[0], 1.0);
  EXPECT_EQ(acc.fastest()[9], 10.0);
  EXPECT_EQ(acc.total(), 250.0 * 251.0 / 2.0);
  EXPECT_THROW(acc.add(std::vector<double>(3)), std::invalid_argument);
}

TEST(Percentile, SupportedPercentileFallsBackToTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 147; ++i) v.push_back(i);
  // p99 of 147 has one sample beyond; the highest with ten beyond is rank 137.
  EXPECT_EQ(supported_percentile(v, 0.99), 137.0);
  EXPECT_EQ(supported_percentile(v, 0.50), 74.0);
  std::vector<double> big;
  for (int i = 1; i <= 1730; ++i) big.push_back(i);
  EXPECT_EQ(supported_percentile(big, 0.99), 1713.0);
  EXPECT_EQ(supported_percentile({3.0, 1.0, 2.0}, 0.99), 1.0);
  EXPECT_EQ(supported_percentile({}, 0.99), 0.0);
}

TEST(Estimator, CalibrationScalesByTheFastestUnit) {
  Calibration calib;
  EXPECT_THROW((void)calib.reference(1.0), std::logic_error);
  SpanRecorder rec;
  const double mean = calib.block(3, &rec);
  EXPECT_EQ(calib.samples(), 3u);
  EXPECT_GE(mean, calib.fastest_s());
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_STREQ(rec.spans()[0].name, "calibrate");
  EXPECT_DOUBLE_EQ(calib.reference(calib.fastest_s()), Calibration::kUnitSeconds);
  EXPECT_DOUBLE_EQ(calib.reference(2.0 * calib.fastest_s()), 2.0 * Calibration::kUnitSeconds);
}

TEST(Estimator, PairedEstimateIsAQuantileOfRepeatsScaledByTheirNeighbours) {
  const double u = Calibration::kUnitSeconds;
  // Three repeats of the same work; the machine runs at full speed around
  // the first, at half speed around the second and at 3/4 speed for the
  // third (blocks 2u then 4u/3 average to 5u/3, scaled repeat 1.8 * 3/5).
  const std::vector<double> host = {1.0, 2.0, 1.8};
  const std::vector<double> units = {u, u, 2.0 * u, 4.0 * u / 3.0};
  // Scaled: 1.0, 2.0 / 1.5 = 1.333..., 1.8 / (5/3) = 1.08.
  EXPECT_DOUBLE_EQ(paired_estimate(host, units, 0.5), 1.08);
  EXPECT_DOUBLE_EQ(paired_estimate(host, units, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(paired_estimate(host, units, 1.0), 2.0 / 1.5);
  EXPECT_EQ(paired_estimate({}, {u}, 0.5), 0.0);
  EXPECT_THROW((void)paired_estimate(host, {u}, 0.5), std::invalid_argument);
}

TEST(Estimator, PairedRepeatsRunABlockAroundEveryRepeat) {
  Calibration calib;
  PairedRepeats repeats(calib, nullptr);
  repeats.lead();
  repeats.lead();  // only the first call runs the leading block
  EXPECT_EQ(calib.samples(), 1u);
  repeats.record(0.0);
  repeats.lead();
  repeats.record(0.0);
  EXPECT_EQ(calib.samples(), 3u);
  EXPECT_EQ(repeats.host_s().size(), 2u);
  EXPECT_EQ(repeats.estimate_s(0.5), 0.0);
  EXPECT_DOUBLE_EQ(repeats.scale(0),
                   Calibration::kUnitSeconds /
                       (0.5 * (repeats.unit_s()[0] + repeats.unit_s()[1])));
}

TEST(Spans, SelfTimeIsDurationMinusChildren) {
  SpanRecorder rec;
  {
    const ScopedSpan outer(&rec, "outer");
    {
      const ScopedSpan a(&rec, "a");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      const ScopedSpan b(&rec, "b");
      const ScopedSpan nested(&rec, "nested");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  const std::vector<double> self = rec.self_times();
  EXPECT_DOUBLE_EQ(self[0], spans[0].duration() - spans[1].duration() - spans[2].duration());
  EXPECT_DOUBLE_EQ(self[2], spans[2].duration() - spans[3].duration());
  EXPECT_DOUBLE_EQ(self[3], spans[3].duration());
  EXPECT_EQ(rec.children(0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(rec.children(2), (std::vector<std::size_t>{3}));
  const std::size_t x = rec.open("x");
  (void)rec.open("y");
  EXPECT_THROW(rec.close(x), std::logic_error);
}

TEST(Spans, NullRecorderIsInert) {
  const ScopedSpan span(nullptr, "nothing");
  EXPECT_EQ(span.id(), 0u);
}

// Ticks a facade through a short recorded-like sequence.
void drive(gc::ControlPlane& cp) {
  for (int i = 1; i <= 40; ++i) {
    gc::TelemetryFrame frame;
    frame.sample_time = 5.0 * i;
    frame.rate = 40.0 + 30.0 * (i % 7);
    frame.serving = frame.committed = frame.powered = frame.available = 16;
    cp.accept_telemetry(frame);
    (void)cp.on_tick(5.0 * i, i % 5 == 0, false);
  }
}

TEST(TimedController, ForwardsDecisionsAndRecoveryState) {
  const gc::Provisioner solver(gc::bench_cluster_config());
  gc::PolicyOptions popts;
  popts.dcp = gc::bench_dcp_params();
  SpanRecorder rec;
  gc::ControlPlane plain(gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, popts),
                         gc::ControlPlaneOptions{}, gc::Rng(1, 14));
  gc::ControlPlane timed(
      std::make_unique<TimedController>(
          gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, popts), rec),
      gc::ControlPlaneOptions{}, gc::Rng(1, 14));
  drive(plain);
  drive(timed);
  EXPECT_EQ(rec.spans().size(), 40u);
  EXPECT_STREQ(timed.controller().name(), plain.controller().name());
  // save_state passes through: the snapshots are byte-identical ...
  const std::string snap = timed.snapshot();
  EXPECT_EQ(snap, plain.snapshot());
  // ... and load_state too: a decorated facade restores a plain snapshot.
  gc::ControlPlane reborn(
      std::make_unique<TimedController>(
          gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, popts), rec),
      gc::ControlPlaneOptions{}, gc::Rng(1, 14));
  reborn.restore(plain.snapshot());
  EXPECT_EQ(reborn.snapshot(), snap);
}

// The run's bits without the engine's own sharded.* counters (shard count,
// per-shard queue growth), which describe the execution, not the model.
std::vector<std::uint64_t> model_bits(gc::SimResult r) {
  std::erase_if(r.counters.counters,
                [](const auto& c) { return c.first.rfind("sharded.", 0) == 0; });
  return result_bits(r);
}

TEST(DcSharded, ModelOutputsAreIdenticalAtOneAndTwoShards) {
  const gc::SimResult k1 = run_datacenter_day(512, 1, 7);
  const gc::SimResult k2 = run_datacenter_day(512, 2, 7);
  EXPECT_GT(k1.completed_jobs, 0u);
  EXPECT_EQ(model_bits(k1), model_bits(k2));
  EXPECT_NE(model_bits(k1), model_bits(run_datacenter_day(512, 2, 8)));
}

void expect_declared(const std::vector<Metric>& got, const std::vector<MetricSpec>& want) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].unit, want[i].unit);
    EXPECT_TRUE(std::regex_match(got[i].name, name_re)) << got[i].name;
    EXPECT_TRUE(std::regex_match(got[i].unit, unit_re)) << got[i].unit;
    EXPECT_TRUE(std::isfinite(got[i].value)) << got[i].name;
  }
}

class TinyRun : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyRun, EmitsEveryDeclaredMetricAndPassesItsChecks) {
  for (const bool trace : {false, true}) {
    RunOptions opt;
    opt.workload = GetParam();
    opt.seed = 3;
    opt.seconds = 0.3;
    opt.trace = trace;
    opt.tiny = true;
    const Outcome out = run_workload(opt);
    EXPECT_TRUE(out.correct);
    EXPECT_EQ(out.failed, 0u);
    EXPECT_GE(out.attempted, 1u);
    expect_declared(out.metrics, trace ? per_layer_metrics() : end_to_end_metrics());
    if (!trace) {
      for (const Metric& m : out.metrics) EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRun, ::testing::ValuesIn(workload_names()));

TEST(TinyRun, UnknownWorkloadIsRejected) {
  RunOptions opt;
  opt.workload = "nope";
  EXPECT_THROW((void)run_workload(opt), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
