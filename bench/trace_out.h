// Shared --trace-out / --timeseries-out plumbing for the figure benches.
//
// `--trace-out=PREFIX` attaches the observability sinks (obs/trace.h,
// obs/audit.h) to one designated run of the bench and writes
//   <PREFIX>.trace.json   Chrome trace_event JSON (chrome://tracing, Perfetto)
//   <PREFIX>.audit.jsonl  one decision record per control period
//   <PREFIX>.audit.csv    the same records as a spreadsheet-friendly table
//   <PREFIX>.counters.json  the run's counter/gauge snapshot, plus the
//                           trace sink's own record/drop tallies
//   <PREFIX>.lifecycle.jsonl  per-command issued->acked->applied timelines
//                             (gcinspect --lifecycle), when the run has any
// `--timeseries-out=PREFIX` additionally (or independently) attaches the
// per-control-period recorder (obs/timeseries.h) and writes
//   <PREFIX>.timeseries.csv  the columnar per-period record
//   <PREFIX>.prom            Prometheus text exposition of the counters,
//                            the run's response-time histogram and the
//                            lifecycle per-stage latency histograms
// Both prefixes may be the same; gcinspect consumes the whole artifact set.
// All sinks stay strictly observational, so the printed tables are
// identical with or without the flags.
#pragma once

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "cp/lifecycle.h"
#include "obs/audit.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "util/cli.h"

namespace gcbench {

class TraceOut {
 public:
  explicit TraceOut(const gc::CliArgs& args) {
    if (const auto prefix = args.get("trace-out")) {
      if (prefix->empty()) {
        throw std::invalid_argument("--trace-out needs a file prefix");
      }
      prefix_ = *prefix;
    }
    if (const auto prefix = args.get("timeseries-out")) {
      if (prefix->empty()) {
        throw std::invalid_argument("--timeseries-out needs a file prefix");
      }
      ts_prefix_ = *prefix;
    }
  }

  [[nodiscard]] bool enabled() const noexcept {
    return prefix_.has_value() || ts_prefix_.has_value();
  }

  // Wires the sinks into one run's options.  Attach to exactly one run per
  // bench invocation (the sinks are not shareable across parallel runs).
  void attach(gc::SimulationOptions& sim) noexcept {
    if (prefix_) {
      sim.trace = &trace_;
      sim.audit = &audit_;
    }
    if (ts_prefix_) sim.timeseries = &timeseries_;
  }

  void write(const gc::SimResult& result) const {
    if (prefix_) {
      trace_.write_chrome_json(*prefix_ + ".trace.json");
      audit_.write_jsonl(*prefix_ + ".audit.jsonl");
      audit_.write_csv(*prefix_ + ".audit.csv");
      {
        // The trace sink meters itself into the written snapshot so ring
        // overflow is visible offline, not only on stderr.  The run
        // already registered obs.trace.dropped (after its last record), so
        // only the retained-record count is added.
        gc::CountersSnapshot snap = result.counters;
        snap.add_counter("obs.trace.records", trace_.size());
        std::ofstream out(*prefix_ + ".counters.json");
        out << snap.to_json() << '\n';
        if (!out) {
          throw std::runtime_error("trace-out: cannot write " + *prefix_ +
                                   ".counters.json");
        }
      }
      if (!result.command_lifecycles.empty()) {
        std::ofstream out(*prefix_ + ".lifecycle.jsonl");
        gc::write_lifecycle_jsonl(out, result.command_lifecycles);
        if (!out) {
          throw std::runtime_error("trace-out: cannot write " + *prefix_ +
                                   ".lifecycle.jsonl");
        }
        std::cerr << "trace-out: " << *prefix_ << ".lifecycle.jsonl ("
                  << result.command_lifecycles.size() << " commands)\n";
      }
      std::cerr << "trace-out: " << *prefix_
                << ".{trace.json,audit.jsonl,audit.csv,"
                << "counters.json} (" << trace_.size() << " trace records, "
                << trace_.dropped() << " dropped; " << audit_.size()
                << " audit records)\n";
      if (trace_.dropped() > 0) {
        // Ring overflow means the trace silently lost its oldest spans —
        // make the gap loud so nobody analyses a truncated trace unaware.
        std::cerr << "trace-out: WARNING: trace ring overflowed; "
                  << trace_.dropped()
                  << " records dropped (raise TraceCollector capacity)\n";
      }
    }
    if (ts_prefix_) {
      timeseries_.write_csv(*ts_prefix_ + ".timeseries.csv");
      // Also drop the counters snapshot under the timeseries prefix when no
      // --trace-out wrote one: gcinspect then finds counters + timeseries
      // side by side under a single prefix.
      if (!prefix_ || *prefix_ != *ts_prefix_) {
        std::ofstream out(*ts_prefix_ + ".counters.json");
        out << result.counters.to_json() << '\n';
        if (!out) {
          throw std::runtime_error("timeseries-out: cannot write " +
                                   *ts_prefix_ + ".counters.json");
        }
      }
      {
        std::ofstream out(*ts_prefix_ + ".prom");
        out << gc::to_prometheus_text(
            result.counters,
            {{"response_time_seconds", &result.response_hist},
             {"cp.lifecycle.ack_latency_seconds", &result.lifecycle_ack_hist},
             {"cp.lifecycle.apply_latency_seconds",
              &result.lifecycle_apply_hist},
             {"cp.lifecycle.e2e_seconds", &result.lifecycle_e2e_hist},
             {"cp.lifecycle.obs_age_seconds", &result.lifecycle_obs_age_hist}});
        if (!out) {
          throw std::runtime_error("timeseries-out: cannot write " +
                                   *ts_prefix_ + ".prom");
        }
      }
      std::cerr << "timeseries-out: " << *ts_prefix_
                << ".{timeseries.csv,prom} (" << timeseries_.size()
                << " rows, stride " << timeseries_.stride() << ", "
                << timeseries_.periods() << " periods)\n";
    }
  }

 private:
  std::optional<std::string> prefix_;
  std::optional<std::string> ts_prefix_;
  gc::TraceCollector trace_;
  gc::DecisionAuditLog audit_;
  gc::TimeSeriesRecorder timeseries_;
};

}  // namespace gcbench
