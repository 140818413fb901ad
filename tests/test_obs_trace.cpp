// TraceCollector: ring-buffer semantics and the Chrome trace_event JSON
// export (the schema shape chrome://tracing / Perfetto requires), and the
// benches' --trace-out artifact writer (bench/trace_out.h).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "../bench/trace_out.h"
#include "control/policies.h"
#include "obs/trace.h"
#include "workload/workload.h"

namespace gc {
namespace {

TEST(TraceCollector, RecordsInEmissionOrder) {
  TraceCollector trace;
  trace.instant(1.0, "cat", "a");
  trace.complete(2.0, 0.5, "cat", "b");
  trace.counter(3.0, "serving", "servers", 8.0);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_STREQ(records[0].name, "a");
  EXPECT_EQ(records[1].phase, TracePhase::kComplete);
  EXPECT_DOUBLE_EQ(records[1].dur_s, 0.5);
  EXPECT_EQ(records[2].phase, TracePhase::kCounter);
  EXPECT_EQ(trace.emitted(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceCollector, RingOverwritesOldestAndCountsDrops) {
  TraceOptions opts;
  opts.capacity = 4;
  TraceCollector trace(opts);
  for (int i = 0; i < 10; ++i) {
    trace.instant(static_cast<double>(i), "cat", i % 2 == 0 ? "even" : "odd");
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.emitted(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first: timestamps 6, 7, 8, 9 survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(i)].ts_s, 6.0 + i);
  }
}

TEST(TraceCollector, ClearResetsEverything) {
  TraceCollector trace;
  trace.instant(1.0, "cat", "a");
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.emitted(), 0u);
  EXPECT_TRUE(trace.records().empty());
}

// Chrome trace_event JSON shape: top-level "traceEvents" array; every event
// has ph/ts/pid/tid; 'X' carries "dur", 'i' carries "s", 'b'/'e' carry "id".
// Timestamps are microseconds (sim seconds x 1e6).
TEST(TraceCollector, ChromeJsonShape) {
  TraceCollector trace;
  trace.complete(1.0, 0.25, "control", "short-period", /*tid=*/1);
  trace.instant(2.0, "admission", "shed");
  trace.counter(3.0, "serving", "servers", 12.0);
  trace.async_begin(4.0, "lifecycle", "boot", /*id=*/7);
  trace.async_end(5.0, "lifecycle", "boot", /*id=*/7);
  const std::string json = trace.to_chrome_json();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Complete span: phase X, microsecond timestamp and duration.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 250000"), std::string::npos);
  // Instant: phase i with thread scope.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  // Counter: phase C with the series in args.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"servers\""), std::string::npos);
  // Async pair: phases b/e keyed by id.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 7"), std::string::npos);
  // Every event sits in one process.
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
}

TEST(TraceCollector, ChromeJsonEscapesNothingUnexpected) {
  // Names are string literals by contract; the exporter must still produce
  // valid JSON for an empty collector.
  TraceCollector trace;
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(json.find("ph"), std::string::npos);
}

TEST(TraceHelpers, NullSinkIsSafe) {
  trace_instant(nullptr, 1.0, "cat", "name");
  trace_complete(nullptr, 1.0, 0.5, "cat", "name");
  trace_counter(nullptr, 1.0, "name", "series", 2.0);
  trace_async_begin(nullptr, 1.0, "cat", "name", 0);
  trace_async_end(nullptr, 1.0, "cat", "name", 0);
  TraceRecord record;
  trace_emit(nullptr, record);
  SUCCEED();
}

TEST(TraceHelpers, SinkReceivesWhenCompiledIn) {
  TraceCollector trace;
  trace_instant(&trace, 1.0, "cat", "name");
  if constexpr (kTracingCompiledIn) {
    EXPECT_EQ(trace.emitted(), 1u);
  } else {
    EXPECT_EQ(trace.emitted(), 0u);
  }
}

// <prefix>.counters.json is the run's snapshot plus the trace sink's own
// tallies; the run already registers obs.trace.dropped, and every key must
// still appear exactly once.
TEST(TraceOut, CountersJsonHoldsEachKeyOnce) {
  if constexpr (!kTracingCompiledIn) GTEST_SKIP() << "built with GC_TRACING=OFF";
  const auto dir = std::filesystem::temp_directory_path() / "gc_trace_out_keys";
  std::filesystem::create_directories(dir);
  const std::string flag = "--trace-out=" + (dir / "run").string();
  const char* argv[] = {"test", flag.c_str()};
  gcbench::TraceOut out(CliArgs(2, argv));

  ClusterConfig config;
  config.max_servers = 8;
  config.mu_max = 10.0;
  config.t_ref_s = 0.5;
  const Provisioner provisioner(config);
  const auto controller = make_policy(PolicyKind::kCombinedDcp, &provisioner, {});
  Workload workload = Workload::poisson_exponential(20.0, config.mu_max, 300.0, 3);
  ClusterOptions cluster;
  cluster.num_servers = config.max_servers;
  cluster.initial_active = config.max_servers;
  SimulationOptions sim;
  sim.t_ref_s = config.t_ref_s;
  out.attach(sim);
  out.write(run_simulation(workload, cluster, *controller, sim));

  std::ifstream in(dir / "run.counters.json");
  std::stringstream text;
  text << in.rdbuf();
  const CountersSnapshot snap = CountersSnapshot::from_json(text.str());
  std::set<std::string> names;
  for (const auto& [name, value] : snap.counters) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter " << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate gauge " << name;
  }
  EXPECT_EQ(names.count("obs.trace.dropped"), 1u);
  EXPECT_EQ(names.count("obs.trace.records"), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gc
