#include "core/greedy.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "core/engine.h"
#include "core/incremental.h"
#include "util/check.h"

namespace factcheck {

void FinishSelection(Selection& sel) {
  sel.order = sel.cleaned;
  std::sort(sel.cleaned.begin(), sel.cleaned.end());
}

namespace {

std::vector<double> ReferencedVariances(const QueryFunction& f,
                                        const CleaningProblem& problem) {
  std::vector<double> benefits(problem.size(), 0.0);
  for (int i : f.References()) benefits[i] = problem.object(i).dist.Variance();
  return benefits;
}

}  // namespace

Selection RandomSelect(const std::vector<double>& costs, double budget,
                       Rng& rng) {
  int n = static_cast<int>(costs.size());
  std::vector<int> order = rng.SampleWithoutReplacement(n, n);
  Selection sel;
  for (int i : order) {
    if (sel.cost + costs[i] <= budget) {
      sel.cleaned.push_back(i);
      sel.cost += costs[i];
    }
  }
  FinishSelection(sel);
  return sel;
}

Selection StaticGreedy(const std::vector<double>& benefits,
                       const std::vector<double>& costs, double budget,
                       const GreedyOptions& options) {
  FC_CHECK_EQ(benefits.size(), costs.size());
  int n = static_cast<int>(costs.size());
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options.cost_aware) {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return benefits[a] * costs[b] > benefits[b] * costs[a];
    });
  } else {
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return benefits[a] > benefits[b]; });
  }
  Selection sel;
  double benefit_sum = 0.0;
  std::vector<bool> taken(n, false);
  for (int i : order) {
    if (benefits[i] <= 0.0) continue;  // cleaning can't help
    if (sel.cost + costs[i] <= budget) {
      sel.cleaned.push_back(i);
      sel.cost += costs[i];
      benefit_sum += benefits[i];
      taken[i] = true;
    }
  }
  if (options.final_check) {
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (taken[i] || costs[i] > budget) continue;
      if (best < 0 || benefits[i] > benefits[best]) best = i;
    }
    if (best >= 0 && benefits[best] > benefit_sum) {
      sel.cleaned = {best};
      sel.cost = costs[best];
    }
  }
  FinishSelection(sel);
  return sel;
}

namespace {

// Both adaptive variants run on the shared evaluation engine: memoized
// objective values, one batch per round (parallel when options.pool is
// set), and optionally the CELF lazy driver.
Selection AdaptiveGreedy(const std::vector<double>& costs, double budget,
                         const SetObjective& objective,
                         OptimizeDirection direction,
                         const GreedyOptions& options) {
  if (options.engine != nullptr) {
    // Persistent engine: its retained objective stands in for `objective`
    // (the caller guarantees they compute the same function), so the memo
    // built by earlier selections stays valid.
    FC_CHECK(options.engine->direction() == direction);
    return options.lazy ? options.engine->LazyGreedy(costs, budget, options)
                        : options.engine->PlainGreedy(costs, budget, options);
  }
  EvalEngine engine(objective, direction, options.pool);
  return options.lazy ? engine.LazyGreedy(costs, budget, options)
                      : engine.PlainGreedy(costs, budget, options);
}

}  // namespace

Selection AdaptiveGreedyMinimize(const std::vector<double>& costs,
                                 double budget, const SetObjective& objective,
                                 const GreedyOptions& options) {
  return AdaptiveGreedy(costs, budget, objective,
                        OptimizeDirection::kMinimize, options);
}

Selection AdaptiveGreedyMaximize(const std::vector<double>& costs,
                                 double budget, const SetObjective& objective,
                                 const GreedyOptions& options) {
  return AdaptiveGreedy(costs, budget, objective,
                        OptimizeDirection::kMaximize, options);
}

Selection GreedyNaive(const QueryFunction& f, const CleaningProblem& problem,
                      double budget) {
  return StaticGreedy(ReferencedVariances(f, problem), problem.Costs(),
                      budget);
}

Selection GreedyNaiveCostBlind(const QueryFunction& f,
                               const CleaningProblem& problem, double budget) {
  GreedyOptions options;
  options.cost_aware = false;
  return StaticGreedy(ReferencedVariances(f, problem), problem.Costs(),
                      budget, options);
}

Selection GreedyMinVar(const QueryFunction& f, const CleaningProblem& problem,
                       double budget, const GreedyOptions& options) {
  return AdaptiveGreedyMinimize(problem.Costs(), budget,
                                MinVarObjective(f, problem), options);
}

Selection GreedyMaxPr(const QueryFunction& f, const CleaningProblem& problem,
                      double budget, double tau,
                      const GreedyOptions& options) {
  return AdaptiveGreedyMaximize(problem.Costs(), budget,
                                MaxPrObjective(f, problem, tau), options);
}

Selection GreedyMaxPrNormal(const LinearQueryFunction& f,
                            const std::vector<double>& means,
                            const std::vector<double>& stddevs,
                            const std::vector<double>& current,
                            const std::vector<double>& costs, double budget,
                            double tau, const GreedyOptions& options) {
  // Probe through the running sufficient statistics (O(1) per candidate)
  // unless the caller attached its own incremental evaluator; the batch
  // closed form remains the objective of record (memo, final values).
  GreedyOptions opts = options;
  std::unique_ptr<IncrementalObjective> incremental;
  if (opts.incremental == nullptr) {
    incremental = MakeNormalMaxPrIncremental(
        f.DenseWeights(static_cast<int>(costs.size())), means, stddevs,
        current, tau);
    opts.incremental = incremental.get();
  }
  return AdaptiveGreedyMaximize(
      costs, budget, MaxPrNormalObjective(f, means, stddevs, current, tau),
      opts);
}

Selection GreedyDep(const LinearQueryFunction& f,
                    const MultivariateNormal& model,
                    const std::vector<double>& costs, double budget,
                    const GreedyOptions& options) {
  std::vector<double> a = f.DenseWeights(model.dim());
  // Rank-1 Schur downdates make each probe O(1) against the maintained
  // conditional covariance instead of a fresh Schur complement per
  // candidate; the batch objective stays on for memoized re-evaluation.
  GreedyOptions opts = options;
  std::unique_ptr<IncrementalObjective> incremental;
  if (opts.incremental == nullptr) {
    incremental = MakeConditionalVarianceIncremental(model, a);
    opts.incremental = incremental.get();
  }
  return AdaptiveGreedyMinimize(
      costs, budget,
      [&model, a = std::move(a)](const std::vector<int>& t) {
        return model.ExpectedConditionalVariance(a, t);
      },
      opts);
}

Selection GreedyMinVarLinearIndependent(const LinearQueryFunction& f,
                                        const std::vector<double>& variances,
                                        const std::vector<double>& costs,
                                        double budget) {
  // Modular case (Lemma 3.1): benefit of i is exactly a_i^2 Var[X_i].
  int n = static_cast<int>(costs.size());
  std::vector<double> benefits(n, 0.0);
  const auto& refs = f.References();
  const auto& coeffs = f.coefficients();
  for (size_t k = 0; k < refs.size(); ++k) {
    benefits[refs[k]] = coeffs[k] * coeffs[k] * variances[refs[k]];
  }
  return StaticGreedy(benefits, costs, budget);
}

}  // namespace factcheck
