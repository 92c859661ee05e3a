// Micro-benchmarks (google-benchmark) of the computational kernels:
// normal quantization, support convolution / EV terms, knapsack DP and
// FPTAS, Cholesky / Schur complement, one incremental greedy step, and
// one served update batch.

#include <benchmark/benchmark.h>

#include "claims/ev_fast.h"
#include "claims/perturbation.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "data/cdc.h"
#include "data/problem_io.h"
#include "data/synthetic.h"
#include "dist/kernels.h"
#include "dist/mvn.h"
#include "dist/normal.h"
#include "dist/planes.h"
#include "knapsack/knapsack.h"
#include "serve/service.h"
#include "util/random.h"

namespace factcheck {
namespace {

void BM_QuantizeNormal(benchmark::State& state) {
  int points = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuantizeNormal(100.0, 15.0, points));
  }
}
BENCHMARK(BM_QuantizeNormal)->Arg(4)->Arg(6)->Arg(16);

void BM_ClaimEvFull(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7, {.size = n});
  PerturbationSet context =
      NonOverlappingWindowSumPerturbations(n, 4, n / 2, 1.5);
  ClaimEvEvaluator evaluator(&problem, &context, QualityMeasure::kDuplicity,
                             120.0);
  std::vector<int> cleaned;
  for (int i = 0; i < n; i += 7) cleaned.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.EV(cleaned));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ClaimEvFull)->Arg(40)->Arg(200)->Arg(1000)->Complexity();

void BM_ClaimEvOverlapping(benchmark::State& state) {
  // Covariance terms active: sliding windows.
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7, {.size = 24});
  PerturbationSet context = SlidingWindowSumPerturbations(24, 4, 0, 1.5);
  ClaimEvEvaluator evaluator(&problem, &context, QualityMeasure::kDuplicity,
                             120.0);
  std::vector<int> cleaned = {1, 5, 9, 13};
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.EV(cleaned));
  }
}
BENCHMARK(BM_ClaimEvOverlapping);

void BM_DistKernelsConvolve(benchmark::State& state) {
  // The raw SoA flat-kernel convolution over shared planes (the
  // dist_kernels workload's innermost loop).  Args: number of terms, atoms
  // per term, and ties: 0 draws URx supports (few colliding sums), 1 uses
  // the integer support {0, ..., atoms-1} so most sums tie and merge.
  // The wide supports (16 and 64 atoms) give each merge 16-64 runs.
  const int terms = static_cast<int>(state.range(0));
  const int atoms = static_cast<int>(state.range(1));
  const bool ties = state.range(2) != 0;
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7,
      {.size = 16, .min_support = atoms, .max_support = atoms});
  const DistPlanes& planes = problem.planes();
  std::vector<double> integers(atoms), uniform(atoms, 1.0 / atoms);
  for (int k = 0; k < atoms; ++k) integers[k] = k;
  std::vector<FlatTerm> flat;
  for (int i = 0; i < terms; ++i) {
    if (ties) {
      flat.push_back({integers.data(), uniform.data(), atoms, 1.0});
    } else {
      flat.push_back({planes.values(i), planes.probs(i),
                      planes.support_size(i), 1.0 + 0.1 * i});
    }
  }
  ConvolutionWorkspace ws;
  KernelCounters counters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ConvolveSumFlat(flat.data(), terms, ws, &counters));
  }
  state.SetItemsProcessed(counters.atoms);
}
BENCHMARK(BM_DistKernelsConvolve)
    ->ArgNames({"terms", "atoms", "ties"})
    ->Args({4, 4, 0})
    ->Args({6, 4, 0})
    ->Args({3, 16, 0})
    ->Args({3, 64, 0})
    ->Args({6, 4, 1})
    ->Args({4, 16, 1})
    ->Args({3, 64, 1});

void BM_DistKernelsEvOverlapping(benchmark::State& state) {
  // The dist_kernels cell: overlapping claims so both the 1-D and the 2-D
  // kernels run.  A fresh evaluator per iteration keeps the term caches
  // cold — this times the kernels, not the memoization.
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7, {.size = 24});
  PerturbationSet context = SlidingWindowSumPerturbations(24, 4, 0, 1.5);
  std::vector<int> cleaned = {1, 5, 9, 13};
  for (auto _ : state) {
    ClaimEvEvaluator evaluator(&problem, &context,
                               QualityMeasure::kDuplicity, 120.0);
    benchmark::DoNotOptimize(evaluator.EV(cleaned));
  }
}
BENCHMARK(BM_DistKernelsEvOverlapping);

void BM_BruteForceEvEnumeration(benchmark::State& state) {
  // The exponential baseline the Theorem-3.8 evaluator replaces.
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7,
      {.size = 8, .min_support = 3, .max_support = 3});
  LambdaQueryFunction f({0, 1, 2, 3, 4, 5, 6, 7},
                        [](const std::vector<double>& x) {
                          double s = 0;
                          for (double v : x) s += v;
                          return s < 400 ? 1.0 : 0.0;
                        });
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExpectedPosteriorVariance(f, problem, {0, 4}));
  }
}
BENCHMARK(BM_BruteForceEvEnumeration);

void BM_MaxKnapsackDp(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<double> values(n);
  std::vector<int> costs(n);
  for (int i = 0; i < n; ++i) {
    values[i] = rng.Uniform(0, 50);
    costs[i] = rng.UniformInt(1, 20);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxKnapsackDp(values, costs, 10 * n));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MaxKnapsackDp)->Arg(32)->Arg(128)->Arg(512)->Complexity();

void BM_MaxKnapsackFptas(benchmark::State& state) {
  int n = 64;
  double eps = 1.0 / static_cast<double>(state.range(0));
  Rng rng(11);
  std::vector<double> values(n), costs(n);
  for (int i = 0; i < n; ++i) {
    values[i] = rng.Uniform(0, 50);
    costs[i] = rng.Uniform(0.5, 20);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxKnapsackFptas(values, costs, 200.0, eps));
  }
}
BENCHMARK(BM_MaxKnapsackFptas)->Arg(2)->Arg(10)->Arg(50);

void BM_SchurComplement(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Vector stddevs(n, 2.0);
  Matrix cov = GeometricDecayCovariance(stddevs, 0.7);
  std::vector<int> a_idx, b_idx;
  for (int i = 0; i < n; ++i) {
    (i % 3 == 0 ? a_idx : b_idx).push_back(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchurComplement(cov, a_idx, b_idx));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SchurComplement)->Arg(17)->Arg(64)->Arg(128)->Complexity();

void BM_IncrementalGreedyStep(benchmark::State& state) {
  int n = 4000;
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 13, {.size = n});
  PerturbationSet context =
      NonOverlappingWindowSumPerturbations(n, 4, n / 2, 1.5);
  ClaimEvEvaluator evaluator(&problem, &context, QualityMeasure::kDuplicity,
                             120.0);
  // Amortized per-cleaning cost of a ~40-cleaning run.
  for (auto _ : state) {
    Selection sel = evaluator.GreedyMinVar(200.0);
    benchmark::DoNotOptimize(sel);
  }
}
BENCHMARK(BM_IncrementalGreedyStep);

void BM_CdcFairnessGreedy(benchmark::State& state) {
  CleaningProblem problem = data::MakeCdcFirearms(2019);
  PerturbationSet context = WindowComparisonPerturbations(
      data::kCdcYears, 4, 0, 1.5, true);
  double reference = context.original.Evaluate(problem.CurrentValues());
  LinearQueryFunction bias = BiasLinearFunction(context, reference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMinVarLinearIndependent(
        bias, problem.Variances(), problem.Costs(),
        problem.TotalCost() * 0.3));
  }
}
BENCHMARK(BM_CdcFairnessGreedy);

void BM_ServiceUpdate(benchmark::State& state) {
  // One `update` request through PlanningService::HandleLine, no store: a
  // 4-delta batch (replace_dist, set_cost, add_object, remove_object) that
  // leaves the object count where it found it, so every iteration runs the
  // same batch.  Its cost is parse + validate + apply, all O(batch): the
  // time should stay flat in n.
  const int n = static_cast<int>(state.range(0));
  serve::PlanningService service;
  std::string error;
  if (!service.RegisterProblem(
          "p",
          data::ProblemToCsv(data::MakeSynthetic(
              data::SyntheticFamily::kUniformRandom, 7, {.size = n})),
          {}, {}, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const std::string line =
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":["
      "{\"kind\":\"replace_dist\",\"object\":0,\"support\":[1,2],"
      "\"probs\":[0.5,0.5]},"
      "{\"kind\":\"set_cost\",\"object\":1,\"cost\":2.5},"
      "{\"kind\":\"add_object\",\"label\":\"x\",\"current\":4,"
      "\"cost\":2,\"support\":[3,5],\"probs\":[0.25,0.75]},"
      "{\"kind\":\"remove_object\",\"object\":" +
      std::to_string(n) + "}]}";
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.HandleLine(line));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ServiceUpdate)->Arg(200)->Arg(700)->Arg(7000)->Complexity();

}  // namespace
}  // namespace factcheck

BENCHMARK_MAIN();
