// Suite for the experiment subsystem (src/exp): the workload registry
// catalogue (golden list-workloads text), the ExperimentRunner contract
// (aggregation, objective scoring, error paths), the factcheck.bench.v2
// JSON schema consumed by CI's bench-smoke job, and cross-workload seed
// determinism — every registered workload built twice with the same seed
// yields bit-identical problems and Planner results, including with a
// thread pool and the lazy driver.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "data/problem_io.h"
#include "exp/experiment.h"
#include "exp/workload_registry.h"
#include "exp/workloads.h"
#include "util/json.h"

namespace factcheck {
namespace {

using exp::ExperimentCell;
using exp::ExperimentRunner;
using exp::ExperimentSpec;
using exp::Workload;
using exp::WorkloadOptions;
using exp::WorkloadRegistry;

TEST(WorkloadRegistry, GoldenListWorkloads) {
  EXPECT_EQ(
      cli::ListWorkloadsText(),
      "workload                   summary\n"
      "adoptions_competing        Fig 12: MinVar vs MaxPr objectives on "
      "Adoptions, tau=40\n"
      "adoptions_fairness         Fig 1a/1b: modular claim fairness on "
      "Adoptions\n"
      "adoptions_ratio            Extension: percentage-change claim on "
      "Adoptions\n"
      "cdc_causes_fairness        Fig 1d: modular claim fairness on "
      "CDC-causes\n"
      "cdc_causes_uniqueness      Fig 2b / Fig 8: claim uniqueness on "
      "CDC-causes\n"
      "cdc_dependency             Fig 11: injected covariance on "
      "CDC-firearms (--gamma = corr)\n"
      "cdc_firearms_fairness      Fig 1c: modular claim fairness on "
      "CDC-firearms\n"
      "cdc_firearms_robustness    Fig 7a: claim robustness (fragility) on "
      "CDC-firearms\n"
      "cdc_firearms_uniqueness    Fig 2a: claim uniqueness (duplicity) on "
      "CDC-firearms\n"
      "degraded_scaling           Robustness gate: faults, deadlines, "
      "shedding on a live server\n"
      "dist_kernels               Perf gate: SoA kernel counters on "
      "overlapping claims\n"
      "engine_scaling             Perf gate: incremental vs batch engine "
      "greedy (--size)\n"
      "lnx_uniqueness             Fig 4: window-sum uniqueness on LNx "
      "(--gamma sweeps)\n"
      "replan_scaling             Delta gate: warm replan latency vs "
      "streamed delta size\n"
      "service_scaling            Serving gate: concurrent clients on one "
      "warm engine\n"
      "smx_uniqueness             Fig 5: window-sum uniqueness on SMx "
      "(--gamma sweeps)\n"
      "urx_action                 Fig 9: in-action uniqueness on URx, "
      "Gamma = 100\n"
      "urx_ratio                  Extension: percentage-change claim on "
      "URx (--gamma)\n"
      "urx_robustness             Fig 7b: claim robustness on URx n=100, "
      "Gamma' = 100\n"
      "urx_scaling                Fig 10: incremental greedy efficiency "
      "on URx (--size)\n"
      "urx_uniqueness             Fig 3: window-sum uniqueness on URx "
      "(--gamma sweeps)\n"
      "urx_window_exact           Engine bench: exact-enumeration MinVar "
      "on URx windows\n");
}

TEST(WorkloadRegistry, EveryEntryDeclaresDefaults) {
  for (const auto* entry : WorkloadRegistry::Global().Sorted()) {
    Workload w = WorkloadRegistry::Global().Build(entry->name);
    EXPECT_EQ(w.name, entry->name);
    EXPECT_NE(w.problem, nullptr) << entry->name;
    EXPECT_NE(w.query, nullptr) << entry->name;
    EXPECT_FALSE(w.default_algorithms.empty()) << entry->name;
    EXPECT_FALSE(w.default_budget_fractions.empty()) << entry->name;
    // Every default algorithm resolves in the workload's registry.
    Planner planner(w.registry());
    for (const std::string& algo : w.default_algorithms) {
      EXPECT_NE(planner.registry().Find(algo), nullptr)
          << entry->name << "/" << algo;
    }
  }
}

TEST(ExperimentRunner, UnknownWorkloadAndAlgorithmErrors) {
  ExperimentRunner runner;
  std::string error;
  ExperimentSpec spec;
  spec.workload = "nope";
  EXPECT_FALSE(runner.TryRun(spec, &error).has_value());
  EXPECT_NE(error.find("unknown workload"), std::string::npos) << error;

  spec.workload = "urx_uniqueness";
  spec.algorithms = {"nope"};
  spec.budget_fractions = {0.1};
  EXPECT_FALSE(runner.TryRun(spec, &error).has_value());
  EXPECT_NE(error.find("unknown algorithm"), std::string::npos) << error;
}

TEST(ExperimentRunner, SweepShapeAndAggregation) {
  ExperimentRunner runner;
  ExperimentSpec spec;
  spec.workload = "urx_uniqueness";
  spec.algorithms = {"greedy_naive", "claims_greedy_minvar"};
  spec.budget_fractions = {0.1, 0.3};
  spec.seeds = {7, 8};
  spec.repetitions = 3;
  spec.warmup = 1;
  std::vector<ExperimentCell> cells = runner.Run(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);  // seeds x budgets x algorithms
  // Order: seed-major, then budget, then algorithm.
  EXPECT_EQ(cells[0].seed, 7u);
  EXPECT_EQ(cells[0].algo, "greedy_naive");
  EXPECT_EQ(cells[1].algo, "claims_greedy_minvar");
  EXPECT_DOUBLE_EQ(cells[0].budget_fraction, 0.1);
  EXPECT_DOUBLE_EQ(cells[2].budget_fraction, 0.3);
  EXPECT_EQ(cells[4].seed, 8u);
  for (const ExperimentCell& cell : cells) {
    EXPECT_EQ(cell.repetitions, 3);
    EXPECT_LE(cell.wall_ms_min, cell.wall_ms);
    EXPECT_LE(cell.wall_ms_min, cell.wall_ms_mean);
    EXPECT_TRUE(cell.has_objective);
    EXPECT_TRUE(std::isfinite(cell.objective));
    EXPECT_FALSE(cell.result.selection.cleaned.empty());
  }
}

TEST(ExperimentRunner, AbsoluteBudgetsHaveNoFraction) {
  ExperimentRunner runner;
  ExperimentSpec spec;
  spec.workload = "urx_uniqueness";
  spec.algorithms = {"greedy_naive"};
  spec.budgets = {5.0};
  std::vector<ExperimentCell> cells = runner.Run(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(std::isnan(cells[0].budget_fraction));
  EXPECT_DOUBLE_EQ(cells[0].budget, 5.0);
}

TEST(ExperimentRunner, ObjectiveMatchesWorkloadMetric) {
  Workload w = WorkloadRegistry::Global().Build("urx_uniqueness");
  ExperimentRunner runner;
  ExperimentCell cell =
      runner.RunCell(w, "claims_greedy_minvar", 0.2 * w.TotalCost());
  ASSERT_TRUE(cell.has_objective);
  EXPECT_EQ(cell.objective, w.metric(cell.result.selection.cleaned));
}

TEST(ExperimentRunner, ExactWorkloadScoresThroughTrajectory) {
  Workload w = WorkloadRegistry::Global().Build("urx_window_exact");
  ASSERT_EQ(w.metric, nullptr);
  ExperimentRunner runner;
  ExperimentCell cell =
      runner.RunCell(w, "greedy_minvar", 0.35 * w.TotalCost());
  EXPECT_TRUE(cell.has_objective);
  EXPECT_TRUE(cell.result.has_objective_value);
  EXPECT_EQ(cell.objective, cell.result.objective_value);

  ExperimentCell quiet =
      runner.RunCell(w, "greedy_minvar", 0.35 * w.TotalCost(),
                     EngineOptions{}, /*with_objective=*/false);
  EXPECT_FALSE(quiet.has_objective);
  EXPECT_TRUE(quiet.result.trajectory.empty());
}

// The factcheck.bench.v2 schema the CI bench-smoke job asserts: a schema
// tag, a spec block, the build provenance, one gate per counter, and one
// object per cell with the documented keys and a nested counters object
// holding exactly the gated counters.
TEST(ExperimentJson, SchemaKeys) {
  ExperimentRunner runner;
  ExperimentSpec spec;
  spec.workload = "urx_uniqueness";
  spec.algorithms = {"greedy_naive"};
  spec.budget_fractions = {0.1};
  std::vector<ExperimentCell> cells = runner.Run(spec);
  std::string json = exp::ExperimentJson(spec, cells);
  EXPECT_EQ(json.find("{\"schema\":\"factcheck.bench.v2\",\"spec\":{"), 0u)
      << json;
  // Spec block: the run's full parameterization (self-describing
  // artifacts); gamma defaults to null (NaN).
  for (const char* key :
       {"\"size\":", "\"gamma\":", "\"algorithms\":",
        "\"budget_fractions\":", "\"budgets\":", "\"seeds\":",
        "\"warmup\":", "\"mc_samples\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_NE(json.find("\"gamma\":null"), std::string::npos) << json;
  for (const char* key :
       {"\"build\":{\"fault_injection\":", "\"sanitizer\":",
        "\"ndebug\":", "\"counter_gates\":{\"evaluations\":\"monotone\"",
        "\"cache_hits\":\"exact\"", "\"commits\":\"info\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  for (const char* key :
       {"\"workload\":", "\"algo\":", "\"budget\":", "\"budget_fraction\":",
        "\"seed\":", "\"threads\":", "\"lazy\":", "\"repetitions\":",
        "\"wall_ms\":", "\"wall_ms_min\":", "\"wall_ms_mean\":",
        "\"counters\":{\"evaluations\":", "\"picked\":", "\"cost\":",
        "\"objective\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // Every table row is both a document gate and a cell counter.
  for (const CounterSpec& counter : kEngineCounters) {
    const std::string key = std::string("\"") + counter.name + "\":";
    const size_t gate = json.find(key + "\"" + CounterGateName(counter.gate));
    const size_t cell = json.find(key, json.find("\"counters\":{"));
    EXPECT_NE(gate, std::string::npos) << counter.name << " in " << json;
    EXPECT_NE(cell, std::string::npos) << counter.name << " in " << json;
  }
  EXPECT_NE(json.find("\"workload\":\"urx_uniqueness\""), std::string::npos);
  EXPECT_NE(json.find("\"algo\":\"greedy_naive\""), std::string::npos);
}

// --- Cross-workload seed determinism --------------------------------------

void ExpectSameCell(const ExperimentCell& a, const ExperimentCell& b,
                    bool compare_objective = true) {
  EXPECT_EQ(a.result.selection.cleaned, b.result.selection.cleaned);
  EXPECT_EQ(a.result.selection.order, b.result.selection.order);
  EXPECT_EQ(a.result.selection.cost, b.result.selection.cost);  // bit-equal
  if (compare_objective) {
    EXPECT_EQ(a.has_objective, b.has_objective);
    if (a.has_objective && b.has_objective) {
      EXPECT_EQ(a.objective, b.objective);  // bit-equal
    }
  }
}

// Every registered workload, built twice with the same seed, must yield
// bit-identical problems and bit-identical Planner selections/objectives
// for all of its default algorithms — under a thread pool and the lazy
// driver too.
TEST(WorkloadDeterminism, RebuildAndRerunBitIdentical) {
  ExperimentRunner runner;
  for (const auto* entry : WorkloadRegistry::Global().Sorted()) {
    SCOPED_TRACE(entry->name);
    WorkloadOptions options;
    options.seed = 2019;
    Workload w1 = entry->build(options);
    Workload w2 = entry->build(options);
    EXPECT_EQ(data::ProblemToCsv(*w1.problem), data::ProblemToCsv(*w2.problem));

    const std::vector<double>& fracs = w1.default_budget_fractions;
    ASSERT_FALSE(fracs.empty());
    double budget = w1.TotalCost() * fracs[fracs.size() / 2];

    for (const std::string& algo : w1.default_algorithms) {
      SCOPED_TRACE(algo);
      for (bool lazy : {false, true}) {
        std::vector<ExperimentCell> per_pool;
        for (int threads : {1, 4}) {
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " lazy=" + std::to_string(lazy));
          EngineOptions engine;
          engine.threads = threads;
          engine.lazy = lazy;
          ExperimentCell c1 = runner.RunCell(w1, algo, budget, engine);
          ExperimentCell c2 = runner.RunCell(w2, algo, budget, engine);
          ExpectSameCell(c1, c2);
          per_pool.push_back(std::move(c1));
        }
        // The engine guarantees bit-stable results for any pool size, so
        // the 4-thread run agrees with the single-threaded one at the
        // same lazy setting.  (Plain vs CELF equality is only guaranteed
        // on submodular objectives and is pinned where it holds —
        // bench_engine's match column and the engine equivalence suite.)
        ExpectSameCell(per_pool[0], per_pool[1]);
      }
    }
  }
}

}  // namespace
}  // namespace factcheck
