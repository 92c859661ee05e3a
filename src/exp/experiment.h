// ExperimentSpec / ExperimentRunner: the one measurement path every
// benchmark and the `factcheck_cli bench` driver share.  A spec names a
// registered workload and the axes to sweep (algorithms x budgets x
// seeds, with repetitions and warmup for timing); the runner drives every
// selection through Planner::TryPlan against the workload's algorithm
// registry and aggregates each cell into min/mean/median wall-clock,
// EngineStats counters, and the workload metric of the selected set.
//
// Documents serialize via util/json in the `factcheck.bench.v2` schema
// (see WriteExperimentJson): the run's spec, the build that produced it,
// the gate policy of every counter, and one object per cell whose
// "counters" member holds one integer per kEngineCounters row
// (core/engine.h).  The BENCH_*.json perf-trajectory artifacts, the CI
// bench-smoke job, and the tools/compare_bench.py counter-regression gate
// consume it.  Non-finite numbers serialize as null.

#ifndef FACTCHECK_EXP_EXPERIMENT_H_
#define FACTCHECK_EXP_EXPERIMENT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_result.h"
#include "core/planner.h"
#include "exp/workload_registry.h"

namespace factcheck {

class JsonWriter;

namespace exp {

inline constexpr char kBenchSchema[] = "factcheck.bench.v2";

struct ExperimentSpec {
  std::string workload;     // WorkloadRegistry name
  WorkloadOptions options;  // size / gamma knobs (seed comes from `seeds`)

  // Axes; empty picks the workload defaults.
  std::vector<std::string> algorithms;
  std::vector<double> budget_fractions;  // of the problem's total cost
  std::vector<double> budgets;           // absolute; overrides fractions
  std::vector<std::uint64_t> seeds;      // workload build + RNG seeds

  int repetitions = 1;  // timed runs per cell (>= 1); stats aggregate these
  int warmup = 0;       // untimed runs per cell before the timed ones
  EngineOptions engine;  // threads / lazy / mc knobs; seed set per cell
  bool with_objective = true;  // score the final set with the metric
};

// One (workload, algorithm, budget, seed) measurement.
struct ExperimentCell {
  std::string workload;
  std::string algo;
  std::uint64_t seed = 0;
  // NaN when the spec gave absolute budgets.
  double budget_fraction = std::numeric_limits<double>::quiet_NaN();
  double budget = 0.0;
  int threads = 1;
  bool lazy = false;
  int repetitions = 1;

  double wall_ms = 0.0;      // median over the timed repetitions
  double wall_ms_min = 0.0;
  double wall_ms_mean = 0.0;

  double objective = 0.0;  // workload metric of the selected set
  bool has_objective = false;

  // Full result of the last repetition; result.stats are the cell's
  // counters.
  PlanResult result;
};

class ExperimentRunner {
 public:
  // Uses the process-wide workload registry when `registry` is null.
  explicit ExperimentRunner(const WorkloadRegistry* registry = nullptr);

  // Full sweep: seeds (outer) x budgets x algorithms (inner), rebuilding
  // the workload per seed.  Returns nullopt (and a diagnostic in `error`)
  // on an unknown workload/algorithm or an infeasible request.
  std::optional<std::vector<ExperimentCell>> TryRun(
      const ExperimentSpec& spec, std::string* error = nullptr) const;
  std::vector<ExperimentCell> Run(const ExperimentSpec& spec) const;

  // One cell on an already-built workload (the figure benchmarks use this
  // for their custom aggregations); every selection flows through
  // Planner::TryPlan against the workload's registry.
  std::optional<ExperimentCell> TryRunCell(
      const Workload& workload, const std::string& algorithm, double budget,
      double budget_fraction, const EngineOptions& engine, int repetitions,
      int warmup, bool with_objective, std::string* error) const;

  // As TryRunCell with repetitions = 1, no warmup; aborts on error.
  ExperimentCell RunCell(const Workload& workload,
                         const std::string& algorithm, double budget,
                         const EngineOptions& engine = {},
                         bool with_objective = true) const;

  const WorkloadRegistry& registry() const { return *registry_; }

 private:
  const WorkloadRegistry* registry_;  // not owned
};

// Streams the schema document: {"schema": ..., "spec": {...},
// "build": {...}, "counter_gates": {COUNTER: GATE, ...},
// "results": [cell, ...]}.
void WriteExperimentJson(const ExperimentSpec& spec,
                         const std::vector<ExperimentCell>& cells,
                         JsonWriter& writer);
std::string ExperimentJson(const ExperimentSpec& spec,
                           const std::vector<ExperimentCell>& cells);

// One cell object (exposed for tests and ad-hoc aggregation).
void WriteCellJson(const ExperimentCell& cell, JsonWriter& writer);

}  // namespace exp
}  // namespace factcheck

#endif  // FACTCHECK_EXP_EXPERIMENT_H_
