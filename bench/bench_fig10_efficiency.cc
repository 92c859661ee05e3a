// Figure 10: efficiency of the incremental GreedyMinVar.
//   (a) n = 10,000 values, 2,500 window-sum perturbations covering all
//       values; running time as the budget grows from 1% to 30%.
//   (b) growing n at a fixed absolute budget of 5,000 (roughly 1,000
//       cleanings); running time in log10 seconds.
//
// Every run goes through the Planner facade: the urx_scaling workload's
// "claims_greedy_minvar" builds a fresh Theorem-3.8 evaluator inside the
// timed run, so the wall clock includes the term caches and initial
// benefits, as a fact-checker would pay them.
//
// Absolute numbers are machine-dependent; the paper's shapes — roughly
// linear growth in budget, and superlinear-but-tractable growth in n — are
// what these series reproduce.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"

using namespace factcheck;
using namespace factcheck::bench;

namespace {

exp::ExperimentCell TimeGreedy(const exp::Workload& w, double budget) {
  return exp::ExperimentRunner().RunCell(w, "claims_greedy_minvar", budget,
                                         EngineOptions{},
                                         /*with_objective=*/false);
}

}  // namespace

int main() {
  const exp::WorkloadRegistry& workloads = exp::WorkloadRegistry::Global();
  std::printf("# Figure 10a: GreedyMinVar running time vs budget, n=10000\n");
  {
    exp::Workload w = workloads.Build("urx_scaling", {.size = 10000});
    TablePrinter table({"n", "budget_fraction", "num_cleaned", "seconds"});
    for (double frac : {0.01, 0.05, 0.10, 0.20, 0.30}) {
      exp::ExperimentCell cell = TimeGreedy(w, w.TotalCost() * frac);
      table.AddCell(10000)
          .AddCell(frac)
          .AddCell(static_cast<int>(cell.result.selection.cleaned.size()))
          .AddCell(cell.result.wall_seconds);
      table.EndRow();
    }
    table.Print();
  }

  std::printf(
      "\n# Figure 10b: GreedyMinVar running time vs n, budget=5000\n");
  {
    TablePrinter table({"n", "budget", "num_cleaned", "seconds",
                        "log10_seconds"});
    for (int n : {5000, 10000, 50000, 100000, 250000, 500000}) {
      exp::Workload w = workloads.Build("urx_scaling", {.size = n});
      exp::ExperimentCell cell = TimeGreedy(w, 5000.0);
      double secs = cell.result.wall_seconds;
      table.AddCell(n)
          .AddCell(5000.0)
          .AddCell(static_cast<int>(cell.result.selection.cleaned.size()))
          .AddCell(secs)
          .AddCell(std::log10(secs > 0 ? secs : 1e-9));
      table.EndRow();
    }
    table.Print();
  }

  // Reproduction extension: the same claims shape driven through the
  // generic engine greedy, with and without the IncrementalObjective
  // path (the engine_scaling workload registers the pinned-batch twin).
  // The batch column is the cost every Planner algorithm used to pay per
  // candidate; `match` pins identical selections.
  std::printf(
      "\n# Figure 10c (extension): engine greedy, incremental vs batch\n");
  {
    TablePrinter table({"n", "algo", "num_cleaned", "evaluations", "probes",
                        "seconds", "speedup_vs_batch", "match"});
    for (int n : {240, 480, 960}) {
      exp::Workload w = workloads.Build("engine_scaling", {.size = n});
      double budget = 0.1 * w.TotalCost();
      exp::ExperimentRunner runner;
      exp::ExperimentCell batch = runner.RunCell(
          w, "greedy_minvar_batch", budget, EngineOptions{},
          /*with_objective=*/false);
      for (const char* algo :
           {"greedy_minvar_batch", "greedy_minvar", "claims_greedy_minvar"}) {
        exp::ExperimentCell cell =
            algo == std::string("greedy_minvar_batch")
                ? batch
                : runner.RunCell(w, algo, budget, EngineOptions{},
                                 /*with_objective=*/false);
        double secs = cell.result.wall_seconds;
        table.AddCell(n)
            .AddCell(algo)
            .AddCell(static_cast<int>(cell.result.selection.cleaned.size()))
            .AddCell(static_cast<long>(cell.result.stats.evaluations))
            .AddCell(static_cast<long>(cell.result.stats.probes))
            .AddCell(secs)
            .AddCell(secs > 0.0 ? batch.result.wall_seconds / secs : 0.0)
            .AddCell(cell.result.selection.cleaned ==
                             batch.result.selection.cleaned
                         ? 1
                         : 0);
        table.EndRow();
      }
    }
    table.Print();
  }
  return 0;
}
