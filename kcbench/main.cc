// kcbench: one workload run of the kalmancast benchmark.
//
//   kcbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE]
//
// Prints a host stamp line, progress lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced run with
// --trace 1. kcbench/run.py builds this binary and is the usual entry
// point; see kcbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "kcbench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kcbench --workload pooled_quiet|sensor_queries|"
               "split_loopback --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kcbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0.0)) return Usage();
  if (options.trace_out.empty()) {
    options.trace_out = "kcbench_trace_" + options.workload + ".json";
  }

  const double load_before = kcbench::LoadAverage1();
  kcbench::Result result;
  if (options.workload == "pooled_quiet" ||
      options.workload == "sensor_queries") {
    result = kcbench::RunFleetWorkload(options);
  } else if (options.workload == "split_loopback") {
    result = kcbench::RunSplitWorkload(options);
  } else {
    return Usage();
  }
  kcbench::PrintHostStamp(load_before, kcbench::LoadAverage1());

  std::string metrics;
  for (const kcbench::Metric& m : result.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      result.Fail(m.name + " is not finite");
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value,
                  m.unit.c_str());
    metrics += buf;
  }
  if (result.attempted < 1) result.Fail("nothing was attempted");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
