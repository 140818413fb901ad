// Shared pieces of the benchmark driver: the host-time estimator, the
// percentile rule, in-memory spans, the forwarding Controller decorator,
// the bit-exact SimResult fingerprint and the workload entry point.
// See README.md for what is measured and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cp/controller.h"
#include "sim/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

// -- Host-time estimators ---------------------------------------------------
//
// On a shared machine the same call runs up to 40% slower while neighbours
// are busy, for seconds at a time, so even the fastest repeat of a process
// moves from run to run.  A fixed calibration kernel, owned by this
// benchmark and never by the program under test, measures how fast the
// machine is right now; reported host times are scaled to a machine on
// which one kernel unit takes kUnitSeconds.  Two estimators use it:
//
//  * whole calls (a simulation, a set-up) are timed as PairedRepeats: each
//    repeat is scaled by the calibration blocks run just before and after
//    it.  Simulations report the lower quartile of the scaled repeats (it
//    discounts repeats a burst slowed on one side of the pair only, and is
//    steadier than the fastest), set-ups their median;
//  * per-call latencies (FastestPerCall) keep each call's fastest time over
//    many passes and are scaled by the fastest kernel unit: minima over many
//    short samples on both sides.
class SpanRecorder;

class Calibration {
 public:
  // Fastest kernel unit on the reference machine (4-core shared VM, Release
  // build).  Only sets the scale of the reported numbers.
  static constexpr double kUnitSeconds = 0.008;

  // Runs one kernel unit and returns its wall time in seconds.
  static double run_kernel();

  // Runs `units` kernel units back to back inside a "calibrate" span and
  // returns their mean time.
  double block(std::size_t units, SpanRecorder* spans);

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] double fastest_s() const noexcept { return fastest_s_; }
  // Host seconds -> reference seconds by the fastest unit so far, for
  // times that are themselves minima.  Needs a block.
  [[nodiscard]] double reference(double host_s) const;

 private:
  std::size_t samples_ = 0;
  double fastest_s_ = 0.0;
};

// The q-th quantile (nearest rank) over repeats of host_s[i] scaled by the
// mean kernel-unit time of the blocks before (unit_s[i]) and after
// (unit_s[i + 1]) it.  unit_s must hold one more entry than host_s.
[[nodiscard]] double paired_estimate(const std::vector<double>& host_s,
                                     const std::vector<double>& unit_s, double q);

class PairedRepeats {
 public:
  PairedRepeats(Calibration& calib, SpanRecorder* spans) : calib_(&calib), spans_(spans) {}

  // Call right before each repeat: runs the leading block the first time.
  void lead();
  // Call right after each repeat with its host seconds: runs the next block,
  // about a quarter of the repeat long.
  void record(double host_s);

  [[nodiscard]] const std::vector<double>& host_s() const noexcept { return host_s_; }
  // Mean kernel-unit time of each block, the leading one first.
  [[nodiscard]] const std::vector<double>& unit_s() const noexcept { return unit_s_; }
  // Host seconds -> reference seconds for repeat i, by its two blocks.
  [[nodiscard]] double scale(std::size_t i) const;
  // paired_estimate over the repeats so far; 0 when empty.
  [[nodiscard]] double estimate_s(double q) const;

 private:
  Calibration* calib_;
  SpanRecorder* spans_;
  std::vector<double> host_s_;
  std::vector<double> unit_s_;
};

// Fastest of a set of timed repeats (each a whole call, never a
// sub-microsecond fragment of one).
[[nodiscard]] double fastest(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);

// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
// sorted sample.  p in (0, 1]; empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double p);
// Samples strictly beyond the p-th percentile's rank; the benchmark only
// trusts a percentile with at least 10 of them.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

// The p-th percentile when at least ten samples lie beyond its rank, else
// the highest percentile that has ten beyond it (the minimum for n <= 10).
[[nodiscard]] double supported_percentile(std::vector<double> values, double p);

// Per-call latencies of repeated identical passes (the same recording
// replayed cold): each call keeps its fastest time over all passes, so
// contention in any one pass is discounted while the spread across calls
// is kept.  Streaming: memory does not grow with the number of passes.
class FastestPerCall {
 public:
  explicit FastestPerCall(std::size_t calls) : fastest_(calls) {}
  // Throws std::invalid_argument when the pass has another length.
  void add(const std::vector<double>& pass);
  [[nodiscard]] std::size_t passes() const noexcept { return passes_; }
  // Per call; all zero before the first pass.
  [[nodiscard]] const std::vector<double>& fastest() const noexcept { return fastest_; }
  // A pass at every call's fastest.
  [[nodiscard]] double total() const;

 private:
  std::size_t passes_ = 0;
  std::vector<double> fastest_;
};

// -- Spans -------------------------------------------------------------------
//
// In-memory spans (name, start, end, parent) recorded around calls into the
// program's layers and written once at exit.  Single-threaded: the driver
// and the control plane (called from the simulator's orchestrator thread)
// are the only writers.
struct Span {
  const char* name = "";  // string literal
  double start_s = 0.0;   // since the recorder's origin
  double end_s = 0.0;
  std::int64_t parent = -1;
  [[nodiscard]] double duration() const noexcept { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  std::size_t open(const char* name);
  void close(std::size_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  // Duration minus the time covered by direct children, per span.
  [[nodiscard]] std::vector<double> self_times() const;
  // Ids of the direct children of `id`, in start order.
  [[nodiscard]] std::vector<std::size_t> children(std::size_t id) const;
  // One JSON object per line: {"id","parent","name","start_s","end_s"}.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Opens a span on construction and closes it on destruction; inert when
// the recorder is null (the end-to-end runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

// Forwarding Controller decorator: every call goes to the wrapped policy;
// each short/long tick is recorded as a "control.tick" span.  Crash-recovery
// state passes through untouched, so a decorated facade snapshots and
// restores exactly like an undecorated one.
class TimedController final : public gc::Controller {
 public:
  TimedController(std::unique_ptr<gc::Controller> inner, SpanRecorder& spans);

  [[nodiscard]] double short_period_s() const override;
  [[nodiscard]] double long_period_s() const override;
  [[nodiscard]] gc::ControlAction on_short_tick(const gc::ControlContext& ctx) override;
  [[nodiscard]] gc::ControlAction on_long_tick(const gc::ControlContext& ctx) override;
  [[nodiscard]] const char* name() const override;
  void save_state(gc::SnapshotWriter& w) const override;
  void load_state(gc::SnapshotReader& r) override;

 private:
  std::unique_ptr<gc::Controller> inner_;
  SpanRecorder* spans_;
};

// Every SimResult scalar plus every counter and gauge outside obs.*, as bit
// patterns in a fixed order: two runs agree bit for bit iff these match.
[[nodiscard]] std::vector<std::uint64_t> result_bits(const gc::SimResult& r);

// -- Workloads ---------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};
// The declared metrics, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
[[nodiscard]] const std::vector<std::string>& workload_names();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small inputs for the benchmark's own tests.
  bool tiny = false;
  // Where the traced run writes its spans (empty = nowhere).
  std::filesystem::path spans_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false
};

// Runs one workload: set-up, then `seconds` of measurement.  Throws
// std::invalid_argument for an unknown workload name.
[[nodiscard]] Outcome run_workload(const RunOptions& options);

// Model outputs of one sharded datacenter-day run at `servers` servers and
// `shards` shards (used by the K-invariance test).
[[nodiscard]] gc::SimResult run_datacenter_day(unsigned servers, unsigned shards,
                                               std::uint64_t seed);

}  // namespace perfbench
