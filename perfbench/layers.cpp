#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

// -- Calibration ---------------------------------------------------------------

double Calibration::run_kernel() {
  // Event-queue-like work: a 512-entry min-heap of doubles churned by an
  // xorshift stream.  Branchy and cache-resident like the simulator's hot
  // loop, so a busy neighbour slows both alike.
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < 512; ++i) heap.push(next() * 10.0);
  const auto start = Clock::now();
  double now = 0.0;
  for (int i = 0; i < 120000; ++i) {
    now = heap.top();
    heap.pop();
    heap.push(now + next() * 10.0);
  }
  const double elapsed = seconds_between(start, Clock::now());
  // Keep the loop observable.
  if (now < 0.0) std::fputs("", stderr);
  return elapsed;
}

double Calibration::block(std::size_t units, SpanRecorder* spans) {
  const ScopedSpan span(spans, "calibrate");
  double total = 0.0;
  for (std::size_t u = 0; u < units; ++u) {
    const double s = run_kernel();
    fastest_s_ = samples_ == 0 ? s : std::min(fastest_s_, s);
    ++samples_;
    total += s;
  }
  return total / static_cast<double>(units);
}

double Calibration::reference(double host_s) const {
  if (samples_ == 0) throw std::logic_error("Calibration: no kernel units run yet");
  return host_s * kUnitSeconds / fastest_s_;
}

double paired_estimate(const std::vector<double>& host_s, const std::vector<double>& unit_s,
                       double q) {
  if (host_s.empty()) return 0.0;
  if (unit_s.size() != host_s.size() + 1) {
    throw std::invalid_argument("paired_estimate: need one more block than repeats");
  }
  std::vector<double> scaled(host_s.size());
  for (std::size_t i = 0; i < host_s.size(); ++i) {
    scaled[i] = host_s[i] * Calibration::kUnitSeconds / (0.5 * (unit_s[i] + unit_s[i + 1]));
  }
  return percentile(std::move(scaled), q);
}

void PairedRepeats::lead() {
  if (unit_s_.empty()) unit_s_.push_back(calib_->block(1, spans_));
}

void PairedRepeats::record(double host_s) {
  lead();
  host_s_.push_back(host_s);
  const auto units = static_cast<std::size_t>(0.25 * host_s / calib_->fastest_s());
  unit_s_.push_back(calib_->block(std::max<std::size_t>(1, units), spans_));
}

double PairedRepeats::scale(std::size_t i) const {
  return Calibration::kUnitSeconds / (0.5 * (unit_s_.at(i) + unit_s_.at(i + 1)));
}

double PairedRepeats::estimate_s(double q) const {
  return paired_estimate(host_s_, unit_s_, q);
}

// -- Estimators ----------------------------------------------------------------

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

namespace {
std::size_t rank_of(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("percentile: p must be in (0, 1]");
  const std::size_t idx = rank_of(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

double supported_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("percentile: p must be in (0, 1]");
  const std::size_t rank = samples_beyond(n, p) >= 10 ? rank_of(n, p) : (n > 10 ? n - 10 : 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

void FastestPerCall::add(const std::vector<double>& pass) {
  if (pass.size() != fastest_.size()) {
    throw std::invalid_argument("FastestPerCall: pass has the wrong number of calls");
  }
  for (std::size_t c = 0; c < pass.size(); ++c) {
    fastest_[c] = passes_ == 0 ? pass[c] : std::min(fastest_[c], pass[c]);
  }
  ++passes_;
}

double FastestPerCall::total() const {
  return std::accumulate(fastest_.begin(), fastest_.end(), 0.0);
}

// -- Spans -----------------------------------------------------------------------

std::size_t SpanRecorder::open(const char* name) {
  Span span;
  span.name = name;
  span.start_s = seconds_between(origin_, Clock::now());
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[id].end_s = seconds_between(origin_, Clock::now());
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration();
  }
  return self;
}

std::vector<std::size_t> SpanRecorder::children(std::size_t id) const {
  std::vector<std::size_t> out;
  for (std::size_t i = id + 1; i < spans_.size(); ++i) {
    // Children open after their parent and before it closes.
    if (spans_[i].start_s > spans_[id].end_s) break;
    if (spans_[i].parent == static_cast<std::int64_t>(id)) out.push_back(i);
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::filesystem::path& path) const {
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f}\n",
                  i, static_cast<long long>(s.parent), s.name, s.start_s, s.end_s);
    out << line;
  }
  if (!out) throw std::runtime_error("failed writing spans to " + path.string());
}

// -- Controller decorator --------------------------------------------------------

TimedController::TimedController(std::unique_ptr<gc::Controller> inner,
                                 SpanRecorder& spans)
    : inner_(std::move(inner)), spans_(&spans) {}

double TimedController::short_period_s() const { return inner_->short_period_s(); }
double TimedController::long_period_s() const { return inner_->long_period_s(); }

gc::ControlAction TimedController::on_short_tick(const gc::ControlContext& ctx) {
  const ScopedSpan span(spans_, "control.tick");
  return inner_->on_short_tick(ctx);
}

gc::ControlAction TimedController::on_long_tick(const gc::ControlContext& ctx) {
  const ScopedSpan span(spans_, "control.tick");
  return inner_->on_long_tick(ctx);
}

const char* TimedController::name() const { return inner_->name(); }
void TimedController::save_state(gc::SnapshotWriter& w) const { inner_->save_state(w); }
void TimedController::load_state(gc::SnapshotReader& r) { inner_->load_state(r); }

// -- Result fingerprint ----------------------------------------------------------

std::vector<std::uint64_t> result_bits(const gc::SimResult& r) {
  std::vector<std::uint64_t> bits;
  const auto u = [&bits](std::uint64_t v) { bits.push_back(v); };
  const auto d = [&bits](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
  u(r.completed_jobs);
  u(r.dropped_jobs);
  u(r.shed_jobs);
  u(r.failures);
  u(r.repairs);
  u(r.boot_timeouts);
  u(r.jobs_redispatched);
  u(r.jobs_lost);
  d(r.sim_time_s);
  d(r.mean_response_s);
  d(r.p95_response_s);
  d(r.p99_response_s);
  d(r.max_response_s);
  d(r.job_violation_ratio);
  d(r.window_violation_ratio);
  d(r.energy.busy_j);
  d(r.energy.idle_j);
  d(r.energy.transition_j);
  d(r.energy.off_j);
  d(r.mean_power_w);
  u(r.boots);
  u(r.shutdowns);
  d(r.mean_serving);
  d(r.mean_speed);
  d(r.mean_jobs_in_system);
  d(r.mean_available);
  d(r.unavailability);
  d(r.shed_ratio);
  u(r.infeasible_ticks);
  d(r.infeasible_ratio);
  u(r.telemetry_dropped);
  u(r.commands_dropped);
  u(r.acks_dropped);
  u(r.command_retries);
  u(r.command_duplicates);
  u(r.commands_exhausted);
  u(r.ticks_missed);
  u(r.safe_mode_entries);
  d(r.safe_mode_time_s);
  d(r.wear_fraction_mean);
  d(r.wear_fraction_max);
  d(r.availability_estimate);
  d(r.mean_solved_spares);
  for (const std::uint32_t c : r.server_cycles) u(c);
  const auto observational = [](const std::string& name) {
    return name.rfind("obs.", 0) == 0;
  };
  // Names are hashed in too, so a renamed or reordered counter shows.
  const auto name_hash = [](const std::string& name) {
    return std::hash<std::string>{}(name);
  };
  for (const auto& [name, value] : r.counters.counters) {
    if (observational(name)) continue;
    u(name_hash(name));
    u(value);
  }
  for (const auto& [name, value] : r.counters.gauges) {
    if (observational(name)) continue;
    u(name_hash(name));
    d(value);
  }
  return bits;
}

}  // namespace perfbench
