#include "exp/experiment.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/fault.h"
#include "util/json.h"

namespace factcheck {
namespace exp {
namespace {

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// GCC defines __SANITIZE_*__; Clang reports sanitizers via __has_feature.
#if !defined(__has_feature)
#define FC_HAS_FEATURE(x) 0
#else
#define FC_HAS_FEATURE(x) __has_feature(x)
#endif
#if defined(__SANITIZE_ADDRESS__) || FC_HAS_FEATURE(address_sanitizer)
constexpr char kSanitizer[] = "address";
#elif defined(__SANITIZE_THREAD__) || FC_HAS_FEATURE(thread_sanitizer)
constexpr char kSanitizer[] = "thread";
#else
constexpr char kSanitizer[] = "none";
#endif

#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

double Median(std::vector<double> values) {
  FC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

ExperimentRunner::ExperimentRunner(const WorkloadRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &WorkloadRegistry::Global()) {}

std::optional<ExperimentCell> ExperimentRunner::TryRunCell(
    const Workload& workload, const std::string& algorithm, double budget,
    double budget_fraction, const EngineOptions& engine, int repetitions,
    int warmup, bool with_objective, std::string* error) const {
  FC_CHECK_GE(repetitions, 1);
  Planner planner(workload.registry());

  PlanRequest request = workload.MakeRequest(budget);
  request.engine = engine;
  // The algorithm runs under its native objective kind; algorithms that
  // support both kinds use the workload's.  An objective-driven algorithm
  // of the opposite kind must not consume the workload metric — it would
  // optimize it in the wrong direction (e.g. greedy_maxpr maximizing a
  // remaining-variance metric) — so it is rejected up front.
  const AlgorithmRegistry::Algorithm* algo =
      planner.registry().Find(algorithm);
  if (algo != nullptr && algo->objective.has_value()) {
    if (workload.metric != nullptr && algo->uses_objective &&
        *algo->objective != workload.objective) {
      SetError(error, workload.name + "/" + algorithm + ": optimizes " +
                          ObjectiveKindName(*algo->objective) +
                          ", but the workload metric is a " +
                          ObjectiveKindName(workload.objective) +
                          " objective");
      return std::nullopt;
    }
    request.objective = *algo->objective;
  }

  ExperimentCell cell;
  cell.workload = workload.name;
  cell.algo = algorithm;
  cell.seed = engine.seed;
  cell.budget_fraction = budget_fraction;
  cell.budget = budget;
  cell.threads = engine.threads;
  cell.lazy = engine.lazy;
  cell.repetitions = repetitions;

  std::string plan_error;
  for (int r = 0; r < warmup; ++r) {
    if (!planner.TryPlan(request, algorithm, &plan_error).has_value()) {
      SetError(error, workload.name + "/" + algorithm + ": " + plan_error);
      return std::nullopt;
    }
  }
  // Exact-enumeration workloads (no metric) score through the Planner's
  // own trajectory machinery, which runs after the timed selection.
  const bool exact_objective =
      with_objective && workload.metric == nullptr;
  std::vector<double> wall_ms;
  wall_ms.reserve(repetitions);
  for (int r = 0; r < repetitions; ++r) {
    request.with_trajectory = exact_objective && r == repetitions - 1;
    std::optional<PlanResult> result =
        planner.TryPlan(request, algorithm, &plan_error);
    if (!result.has_value()) {
      SetError(error, workload.name + "/" + algorithm + ": " + plan_error);
      return std::nullopt;
    }
    wall_ms.push_back(result->wall_seconds * 1e3);
    if (r == repetitions - 1) cell.result = std::move(*result);
  }

  cell.wall_ms = Median(wall_ms);
  cell.wall_ms_min = *std::min_element(wall_ms.begin(), wall_ms.end());
  double sum = 0.0;
  for (double v : wall_ms) sum += v;
  cell.wall_ms_mean = sum / static_cast<double>(wall_ms.size());

  if (with_objective) {
    if (workload.metric != nullptr) {
      // selection.cleaned is canonical (ascending, duplicate-free).
      cell.objective = workload.metric(cell.result.selection.cleaned);
      cell.has_objective = true;
    } else if (cell.result.has_objective_value) {
      cell.objective = cell.result.objective_value;
      cell.has_objective = true;
    }
  }
  return cell;
}

ExperimentCell ExperimentRunner::RunCell(const Workload& workload,
                                         const std::string& algorithm,
                                         double budget,
                                         const EngineOptions& engine,
                                         bool with_objective) const {
  std::string error;
  std::optional<ExperimentCell> cell = TryRunCell(
      workload, algorithm, budget,
      workload.TotalCost() > 0.0 ? budget / workload.TotalCost()
                                 : std::numeric_limits<double>::quiet_NaN(),
      engine, /*repetitions=*/1, /*warmup=*/0, with_objective, &error);
  if (!cell.has_value()) {
    std::fprintf(stderr, "ExperimentRunner::RunCell: %s\n", error.c_str());
    FC_CHECK(cell.has_value());
  }
  return std::move(*cell);
}

std::optional<std::vector<ExperimentCell>> ExperimentRunner::TryRun(
    const ExperimentSpec& spec, std::string* error) const {
  const WorkloadRegistry::Entry* entry = registry_->Find(spec.workload);
  if (entry == nullptr) {
    SetError(error, "unknown workload \"" + spec.workload +
                        "\" (see bench list-workloads)");
    return std::nullopt;
  }
  if (spec.repetitions < 1) {
    SetError(error, "repetitions must be >= 1");
    return std::nullopt;
  }

  std::vector<std::uint64_t> seeds = spec.seeds;
  if (seeds.empty()) seeds.push_back(spec.options.seed);

  std::vector<ExperimentCell> cells;
  for (std::uint64_t seed : seeds) {
    WorkloadOptions options = spec.options;
    options.seed = seed;
    Workload workload = entry->build(options);
    workload.name = entry->name;

    std::vector<std::string> algorithms = spec.algorithms;
    if (algorithms.empty()) algorithms = workload.default_algorithms;
    if (algorithms.empty()) {
      SetError(error, spec.workload + " has no default algorithms; pass some");
      return std::nullopt;
    }

    // (fraction, budget) sweep points; fraction is NaN for absolute
    // budgets.
    std::vector<std::pair<double, double>> points;
    if (!spec.budgets.empty()) {
      for (double budget : spec.budgets) {
        points.emplace_back(std::numeric_limits<double>::quiet_NaN(), budget);
      }
    } else {
      std::vector<double> fractions = spec.budget_fractions;
      if (fractions.empty()) fractions = workload.default_budget_fractions;
      if (fractions.empty()) {
        SetError(error, spec.workload + " has no default budgets; pass some");
        return std::nullopt;
      }
      double total = workload.TotalCost();
      for (double fraction : fractions) {
        points.emplace_back(fraction, fraction * total);
      }
    }

    EngineOptions engine = spec.engine;
    engine.seed = seed;
    for (const auto& [fraction, budget] : points) {
      for (const std::string& algorithm : algorithms) {
        std::optional<ExperimentCell> cell = TryRunCell(
            workload, algorithm, budget, fraction, engine, spec.repetitions,
            spec.warmup, spec.with_objective, error);
        if (!cell.has_value()) return std::nullopt;
        cells.push_back(std::move(*cell));
      }
    }
  }
  return cells;
}

std::vector<ExperimentCell> ExperimentRunner::Run(
    const ExperimentSpec& spec) const {
  std::string error;
  std::optional<std::vector<ExperimentCell>> cells = TryRun(spec, &error);
  if (!cells.has_value()) {
    std::fprintf(stderr, "ExperimentRunner::Run: %s\n", error.c_str());
    FC_CHECK(cells.has_value());
  }
  return std::move(*cells);
}

void WriteCellJson(const ExperimentCell& cell, JsonWriter& writer) {
  writer.BeginObject();
  writer.Key("workload").String(cell.workload);
  writer.Key("algo").String(cell.algo);
  writer.Key("seed").Int(static_cast<std::int64_t>(cell.seed));
  writer.Key("budget").Number(cell.budget);
  writer.Key("budget_fraction").Number(cell.budget_fraction);
  writer.Key("threads").Int(cell.threads);
  writer.Key("lazy").Bool(cell.lazy);
  writer.Key("repetitions").Int(cell.repetitions);
  writer.Key("wall_ms").Number(cell.wall_ms);
  writer.Key("wall_ms_min").Number(cell.wall_ms_min);
  writer.Key("wall_ms_mean").Number(cell.wall_ms_mean);
  writer.Key("counters").BeginObject();
  for (const CounterSpec& counter : kEngineCounters) {
    writer.Key(counter.name).Int(cell.result.stats.*counter.field);
  }
  writer.EndObject();
  writer.Key("picked").Int(
      static_cast<std::int64_t>(cell.result.selection.cleaned.size()));
  writer.Key("cost").Number(cell.result.selection.cost);
  writer.Key("objective");
  if (cell.has_objective) {
    writer.Number(cell.objective);  // non-finite still serializes as null
  } else {
    writer.Null();
  }
  writer.EndObject();
}

void WriteExperimentJson(const ExperimentSpec& spec,
                         const std::vector<ExperimentCell>& cells,
                         JsonWriter& writer) {
  writer.BeginObject();
  writer.Key("schema").String(kBenchSchema);
  // The spec block records every knob of the run so BENCH_*.json
  // artifacts are self-describing across commits: empty axis arrays mean
  // "the workload's defaults" (the cells record the resolved values),
  // size 0 / gamma null mean the workload's default knobs.
  writer.Key("spec").BeginObject();
  writer.Key("workload").String(spec.workload);
  writer.Key("size").Int(spec.options.size);
  writer.Key("gamma").Number(spec.options.gamma);  // NaN (default) -> null
  writer.Key("algorithms").BeginArray();
  for (const std::string& algo : spec.algorithms) writer.String(algo);
  writer.EndArray();
  writer.Key("budget_fractions").BeginArray();
  for (double fraction : spec.budget_fractions) writer.Number(fraction);
  writer.EndArray();
  writer.Key("budgets").BeginArray();
  for (double budget : spec.budgets) writer.Number(budget);
  writer.EndArray();
  writer.Key("seeds").BeginArray();
  for (std::uint64_t seed : spec.seeds) {
    writer.Int(static_cast<std::int64_t>(seed));
  }
  writer.EndArray();
  writer.Key("repetitions").Int(spec.repetitions);
  writer.Key("warmup").Int(spec.warmup);
  writer.Key("threads").Int(spec.engine.threads);
  writer.Key("lazy").Bool(spec.engine.lazy);
  writer.Key("mc_samples").Int(spec.engine.mc_samples);
  writer.EndObject();
  // Provenance: counters replay only against a baseline of the same
  // build, so compare_bench.py refuses a baseline whose block differs.
  writer.Key("build")
      .BeginObject()
      .Key("fault_injection")
      .Bool(fault::Enabled())
      .Key("sanitizer")
      .String(kSanitizer)
      .Key("ndebug")
      .Bool(kNdebug)
      .EndObject();
  writer.Key("counter_gates").BeginObject();
  for (const CounterSpec& counter : kEngineCounters) {
    writer.Key(counter.name).String(CounterGateName(counter.gate));
  }
  writer.EndObject();
  writer.Key("results").BeginArray();
  for (const ExperimentCell& cell : cells) WriteCellJson(cell, writer);
  writer.EndArray();
  writer.EndObject();
}

std::string ExperimentJson(const ExperimentSpec& spec,
                           const std::vector<ExperimentCell>& cells) {
  JsonWriter writer;
  WriteExperimentJson(spec, cells, writer);
  return writer.str();
}

}  // namespace exp
}  // namespace factcheck
