#include "knapsack/knapsack.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/check.h"

namespace factcheck {
namespace {

double SumAt(const std::vector<double>& xs, const std::vector<int>& idx) {
  double acc = 0.0;
  for (int i : idx) acc += xs[i];
  return acc;
}

}  // namespace

KnapsackSolution MaxKnapsackDp(const std::vector<double>& values,
                               const std::vector<int>& costs, int capacity) {
  FC_CHECK_EQ(values.size(), costs.size());
  int n = static_cast<int>(values.size());
  if (capacity < 0) capacity = 0;
  // dp[c] = best value achievable with budget exactly <= c.
  std::vector<double> dp(capacity + 1, 0.0);
  // take[i * (capacity+1) + c]: whether item i is taken in state (i, c).
  std::vector<uint8_t> take(static_cast<size_t>(n) * (capacity + 1), 0);
  for (int i = 0; i < n; ++i) {
    FC_CHECK_GT(costs[i], 0);
    FC_CHECK_GE(values[i], 0.0);
    for (int c = capacity; c >= costs[i]; --c) {
      double with = dp[c - costs[i]] + values[i];
      if (with > dp[c]) {
        dp[c] = with;
        take[static_cast<size_t>(i) * (capacity + 1) + c] = 1;
      }
    }
  }
  KnapsackSolution sol;
  int c = capacity;
  for (int i = n - 1; i >= 0; --i) {
    if (take[static_cast<size_t>(i) * (capacity + 1) + c]) {
      sol.selected.push_back(i);
      sol.total_value += values[i];
      sol.total_cost += costs[i];
      c -= costs[i];
    }
  }
  std::reverse(sol.selected.begin(), sol.selected.end());
  return sol;
}

KnapsackSolution MaxKnapsackGreedy(const std::vector<double>& values,
                                   const std::vector<double>& costs,
                                   double capacity) {
  FC_CHECK_EQ(values.size(), costs.size());
  int n = static_cast<int>(values.size());
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return values[a] * costs[b] > values[b] * costs[a];  // density desc
  });
  KnapsackSolution sol;
  for (int i : order) {
    if (sol.total_cost + costs[i] <= capacity) {
      sol.selected.push_back(i);
      sol.total_value += values[i];
      sol.total_cost += costs[i];
    }
  }
  // Algorithm 1 lines 5-8: if the single most valuable feasible leftover
  // beats the whole greedy pick, take it alone.  This restores the
  // 2-approximation that plain density greedy lacks.
  std::vector<bool> taken(n, false);
  for (int i : sol.selected) taken[i] = true;
  int best_single = -1;
  for (int i = 0; i < n; ++i) {
    if (taken[i] || costs[i] > capacity) continue;
    if (best_single < 0 || values[i] > values[best_single]) best_single = i;
  }
  if (best_single >= 0 && values[best_single] > sol.total_value) {
    sol.selected = {best_single};
    sol.total_value = values[best_single];
    sol.total_cost = costs[best_single];
  }
  std::sort(sol.selected.begin(), sol.selected.end());
  return sol;
}

KnapsackSolution MaxKnapsackFptas(const std::vector<double>& values,
                                  const std::vector<double>& costs,
                                  double capacity, double eps) {
  FC_CHECK_EQ(values.size(), costs.size());
  FC_CHECK_GT(eps, 0.0);
  int n = static_cast<int>(values.size());
  double vmax = 0.0;
  for (int i = 0; i < n; ++i) {
    if (costs[i] <= capacity) vmax = std::max(vmax, values[i]);
  }
  if (vmax <= 0.0) return {};
  // Scale values to integers; profit-indexed DP: min cost to reach profit p.
  double scale = eps * vmax / n;
  std::vector<long> scaled(n);
  long pmax = 0;
  for (int i = 0; i < n; ++i) {
    scaled[i] = static_cast<long>(std::floor(values[i] / scale));
    if (costs[i] <= capacity) pmax += scaled[i];
  }
  const double kInf = 1e300;
  std::vector<double> min_cost(pmax + 1, kInf);
  std::vector<uint8_t> take(static_cast<size_t>(n) * (pmax + 1), 0);
  min_cost[0] = 0.0;
  for (int i = 0; i < n; ++i) {
    if (costs[i] > capacity || scaled[i] == 0) continue;
    for (long p = pmax; p >= scaled[i]; --p) {
      double with = min_cost[p - scaled[i]] + costs[i];
      if (with < min_cost[p]) {
        min_cost[p] = with;
        take[static_cast<size_t>(i) * (pmax + 1) + p] = 1;
      }
    }
  }
  long best_p = 0;
  for (long p = pmax; p >= 0; --p) {
    if (min_cost[p] <= capacity) {
      best_p = p;
      break;
    }
  }
  KnapsackSolution sol;
  long p = best_p;
  for (int i = n - 1; i >= 0; --i) {
    if (p >= scaled[i] && take[static_cast<size_t>(i) * (pmax + 1) + p]) {
      sol.selected.push_back(i);
      p -= scaled[i];
    }
  }
  std::reverse(sol.selected.begin(), sol.selected.end());
  sol.total_value = SumAt(values, sol.selected);
  sol.total_cost = SumAt(costs, sol.selected);
  // Zero-scaled items are free wins if they still fit.
  for (int i = 0; i < n; ++i) {
    if (scaled[i] == 0 && values[i] > 0.0 &&
        sol.total_cost + costs[i] <= capacity &&
        !std::binary_search(sol.selected.begin(), sol.selected.end(), i)) {
      sol.selected.insert(
          std::lower_bound(sol.selected.begin(), sol.selected.end(), i), i);
      sol.total_value += values[i];
      sol.total_cost += costs[i];
    }
  }
  return sol;
}

namespace {

// State for the branch-and-bound recursion over density-sorted items.
struct BnbState {
  const std::vector<double>* values;
  const std::vector<double>* costs;
  std::vector<int> order;      // items by density descending
  double capacity;
  double best_value = 0.0;
  std::vector<bool> best_taken;
  std::vector<bool> taken;
};

// Dantzig bound: fill greedily from position `pos`, fractionally at the end.
double FractionalBound(const BnbState& s, size_t pos, double value,
                       double remaining) {
  double bound = value;
  for (size_t k = pos; k < s.order.size(); ++k) {
    int i = s.order[k];
    double c = (*s.costs)[i];
    if (c <= remaining) {
      bound += (*s.values)[i];
      remaining -= c;
    } else {
      bound += (*s.values)[i] * (remaining / c);
      break;
    }
  }
  return bound;
}

void BnbRecurse(BnbState& s, size_t pos, double value, double cost) {
  if (value > s.best_value) {
    s.best_value = value;
    s.best_taken = s.taken;
  }
  if (pos == s.order.size()) return;
  if (FractionalBound(s, pos, value, s.capacity - cost) <=
      s.best_value + 1e-12) {
    return;  // prune
  }
  int i = s.order[pos];
  // Branch "take" first (density order makes it the promising child).
  if (cost + (*s.costs)[i] <= s.capacity + 1e-12) {
    s.taken[i] = true;
    BnbRecurse(s, pos + 1, value + (*s.values)[i], cost + (*s.costs)[i]);
    s.taken[i] = false;
  }
  BnbRecurse(s, pos + 1, value, cost);
}

}  // namespace

KnapsackSolution MaxKnapsackBranchAndBound(const std::vector<double>& values,
                                           const std::vector<double>& costs,
                                           double capacity) {
  FC_CHECK_EQ(values.size(), costs.size());
  int n = static_cast<int>(values.size());
  BnbState state;
  state.values = &values;
  state.costs = &costs;
  state.capacity = capacity;
  state.taken.assign(n, false);
  state.best_taken.assign(n, false);
  state.order.resize(n);
  std::iota(state.order.begin(), state.order.end(), 0);
  // Drop worthless or oversized items from the search entirely.
  state.order.erase(
      std::remove_if(state.order.begin(), state.order.end(),
                     [&](int i) {
                       return values[i] <= 0.0 || costs[i] > capacity;
                     }),
      state.order.end());
  std::stable_sort(state.order.begin(), state.order.end(), [&](int a, int b) {
    return values[a] * costs[b] > values[b] * costs[a];
  });
  BnbRecurse(state, 0, 0.0, 0.0);
  KnapsackSolution sol;
  for (int i = 0; i < n; ++i) {
    if (state.best_taken[i]) {
      sol.selected.push_back(i);
      sol.total_value += values[i];
      sol.total_cost += costs[i];
    }
  }
  return sol;
}

KnapsackSolution MinKnapsackDp(const std::vector<double>& values,
                               const std::vector<int>& costs, int demand) {
  FC_CHECK_EQ(values.size(), costs.size());
  int n = static_cast<int>(values.size());
  int total_cost = std::accumulate(costs.begin(), costs.end(), 0);
  KnapsackSolution sol;
  if (demand <= 0) return sol;  // empty set already covers
  if (demand > total_cost) {
    // Infeasible even with everything; return the full set (closest cover).
    for (int i = 0; i < n; ++i) {
      sol.selected.push_back(i);
      sol.total_value += values[i];
      sol.total_cost += costs[i];
    }
    return sol;
  }
  // Complement mapping (Lemma 3.6): the items we do NOT select form a
  // max-knapsack solution with capacity total_cost - demand.
  KnapsackSolution keep_out =
      MaxKnapsackDp(values, costs, total_cost - demand);
  std::vector<bool> out(n, false);
  for (int i : keep_out.selected) out[i] = true;
  for (int i = 0; i < n; ++i) {
    if (!out[i]) {
      sol.selected.push_back(i);
      sol.total_value += values[i];
      sol.total_cost += costs[i];
    }
  }
  return sol;
}

KnapsackSolution MinKnapsackGreedy(const std::vector<double>& values,
                                   const std::vector<double>& costs,
                                   double demand) {
  FC_CHECK_EQ(values.size(), costs.size());
  int n = static_cast<int>(values.size());
  KnapsackSolution sol;
  if (demand <= 0) return sol;
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Cheapest value per unit of covered cost first.
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return values[a] * costs[b] < values[b] * costs[a];
  });
  for (int i : order) {
    if (sol.total_cost >= demand) break;
    sol.selected.push_back(i);
    sol.total_value += values[i];
    sol.total_cost += costs[i];
  }
  // Polish: drop the most valuable items whose removal keeps feasibility.
  std::stable_sort(sol.selected.begin(), sol.selected.end(),
                   [&](int a, int b) { return values[a] > values[b]; });
  std::vector<int> kept;
  for (size_t k = 0; k < sol.selected.size(); ++k) {
    int i = sol.selected[k];
    if (sol.total_cost - costs[i] >= demand) {
      sol.total_cost -= costs[i];
      sol.total_value -= values[i];
    } else {
      kept.push_back(i);
    }
  }
  sol.selected = std::move(kept);
  std::sort(sol.selected.begin(), sol.selected.end());
  return sol;
}

std::vector<int> ScaleCostsToInt(const std::vector<double>& costs,
                                 double scale) {
  FC_CHECK_GT(scale, 0.0);
  std::vector<int> out(costs.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    // Round up so a solution feasible for the scaled instance can never
    // exceed the real budget (slightly pessimistic, never infeasible).
    out[i] = std::max(1, static_cast<int>(std::ceil(costs[i] * scale - 1e-9)));
  }
  return out;
}

}  // namespace factcheck
