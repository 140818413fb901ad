// perfbench_driver — runs one benchmark workload and prints its result as
// one JSON object on the last line of standard output.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|tiny] [--spans-out PATH]
//
// Exit status: 0 when every output checked out, 1 when a check failed (the
// JSON line is still printed, with "correct": false), 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--spans-out PATH]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed needs an integer");
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        return usage("--seconds needs a number in (0, 600]");
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") return usage("--size takes full or tiny");
      opt.tiny = value == "tiny";
    } else if (key == "--spans-out") {
      opt.spans_out = value;
    } else {
      return usage("unknown option");
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "perfbench_driver: check failed: %s\n", error.c_str());
  }
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return out.correct && out.failed == 0 ? 0 : 1;
}
