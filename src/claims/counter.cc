#include "claims/counter.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace factcheck {
namespace {

bool Refutes(double q, double original_value, double margin,
             CounterDirection direction) {
  if (direction == CounterDirection::kLowerRefutes) {
    return q <= original_value - margin;
  }
  return q >= original_value + margin;
}

}  // namespace

bool HasCounterargument(const PerturbationSet& context,
                        const std::vector<double>& x, double original_value,
                        double margin, CounterDirection direction) {
  return StrongestCounter(context, x, original_value, margin, direction) >= 0;
}

int StrongestCounter(const PerturbationSet& context,
                     const std::vector<double>& x, double original_value,
                     double margin, CounterDirection direction) {
  int best = -1;
  double best_q = 0.0;
  for (int k = 0; k < context.size(); ++k) {
    double q = context.perturbations[k].Evaluate(x);
    if (!Refutes(q, original_value, margin, direction)) continue;
    bool stronger = (direction == CounterDirection::kLowerRefutes)
                        ? (best < 0 || q < best_q)
                        : (best < 0 || q > best_q);
    if (stronger) {
      best = k;
      best_q = q;
    }
  }
  return best;
}

CounterSearchResult CleanUntilCounter(const PerturbationSet& context,
                                      const std::vector<double>& current,
                                      const std::vector<double>& truth,
                                      const std::vector<double>& costs,
                                      const std::vector<int>& order,
                                      double original_value, double margin,
                                      CounterDirection direction,
                                      double budget) {
  FC_CHECK_EQ(current.size(), truth.size());
  FC_CHECK_EQ(current.size(), costs.size());
  std::vector<double> x = current;
  CounterSearchResult result;
  result.counter_claim =
      StrongestCounter(context, x, original_value, margin, direction);
  if (result.counter_claim >= 0) {
    result.found = true;  // already refutable without cleaning
    return result;
  }
  for (int i : order) {
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, static_cast<int>(x.size()));
    if (result.cost_used + costs[i] > budget) break;
    x[i] = truth[i];
    result.cost_used += costs[i];
    ++result.num_cleaned;
    result.counter_claim =
        StrongestCounter(context, x, original_value, margin, direction);
    if (result.counter_claim >= 0) {
      result.found = true;
      return result;
    }
  }
  return result;
}

std::vector<int> CompleteOrder(const std::vector<int>& order,
                               const std::vector<double>& fallback_score) {
  int n = static_cast<int>(fallback_score.size());
  std::vector<bool> present(n, false);
  std::vector<int> out;
  out.reserve(n);
  for (int i : order) {
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, n);
    if (!present[i]) {
      present[i] = true;
      out.push_back(i);
    }
  }
  std::vector<int> rest;
  for (int i = 0; i < n; ++i) {
    if (!present[i]) rest.push_back(i);
  }
  std::stable_sort(rest.begin(), rest.end(), [&](int a, int b) {
    return fallback_score[a] > fallback_score[b];
  });
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace factcheck
