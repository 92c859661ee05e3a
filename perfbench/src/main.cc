// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload claims_cold|serve_warm|serve_churn --seed N
//             --seconds S --trace 0|1 --serve PATH/factcheck_serve
//             --work-dir DIR
//
// The last stdout line is the result document
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,
//    "unit":..},...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) of perfbench/METRICS.md.  The line before it records the
// build provenance.  Exit code 0 only when the run completed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "util/parse.h"
#include "workloads.h"

namespace {

int Usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(arg + " needs a value");
    const std::string value = argv[++i];
    std::int64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!factcheck::ParseInt64(value, &number) || number < 0) {
        return Usage("--seed needs a non-negative integer");
      }
      options.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds") {
      if (!factcheck::ParseInt64(value, &number) || number < 1 || number > 600) {
        return Usage("--seconds needs an integer in 1..600");
      }
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace needs 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--serve") {
      options.serve_binary = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  const perfbench::Provenance provenance =
      perfbench::CollectProvenance(options.seed, options.workload);
  if (provenance.refuse) {
    return Usage("refusing to measure a " + provenance.refuse_reason);
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");

  perfbench::Tracer tracer(options.trace);
  perfbench::Result result;
  perfbench::Values values;
  if (options.workload == "claims_cold") {
    perfbench::RunClaimsCold(options, tracer, result, values);
  } else if (options.workload == "serve_warm" ||
             options.workload == "serve_churn") {
    if (options.serve_binary.empty()) return Usage("--serve is required");
    if (options.workload == "serve_warm") {
      perfbench::RunServeWarm(options, tracer, result, values);
    } else {
      perfbench::RunServeChurn(options, tracer, result, values);
    }
  } else {
    return Usage("unknown --workload \"" + options.workload +
                 "\" (claims_cold | serve_warm | serve_churn)");
  }
  for (const std::string& problem : result.problems()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  if (options.trace) {
    values["bench.ops_failed_frac"] =
        result.attempted() > 0
            ? static_cast<double>(result.failed()) /
                  static_cast<double>(result.attempted())
            : 0.0;
  }
  if (result.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  const auto& catalogue = options.trace ? perfbench::PerLayerMetrics()
                                        : perfbench::EndToEndMetrics();
  for (const perfbench::MetricDef& def : catalogue) {
    auto it = values.find(def.name);
    result.Metric(def.name, it == values.end() ? 0.0 : it->second, def.unit);
  }
  std::printf("%s\n%s\n", provenance.json.c_str(), result.Json().c_str());
  return 0;
}
