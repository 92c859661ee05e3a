#include "core/scenario.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace factcheck {
namespace {

// Lexicographic comparison of two scenarios' projections onto `coords`.
int CompareProjection(const Scenario& a, const Scenario& b,
                      const std::vector<int>& coords) {
  for (int c : coords) {
    if (a.values[c] < b.values[c]) return -1;
    if (a.values[c] > b.values[c]) return 1;
  }
  return 0;
}

}  // namespace

ScenarioSet::ScenarioSet(std::vector<Scenario> scenarios)
    : scenarios_(std::move(scenarios)) {
  FC_CHECK(!scenarios_.empty());
  dim_ = static_cast<int>(scenarios_[0].values.size());
  FC_CHECK_GT(dim_, 0);
  double total = 0.0;
  for (const Scenario& s : scenarios_) {
    FC_CHECK_EQ(static_cast<int>(s.values.size()), dim_);
    FC_CHECK_GE(s.prob, 0.0);
    total += s.prob;
  }
  FC_CHECK_GT(total, 0.0);
  for (Scenario& s : scenarios_) s.prob /= total;
}

ScenarioSet ScenarioSet::FromIndependent(const CleaningProblem& problem) {
  std::vector<Scenario> scenarios = {{std::vector<double>(), 1.0}};
  for (int i = 0; i < problem.size(); ++i) {
    const DiscreteDistribution& d = problem.object(i).dist;
    std::vector<Scenario> next;
    next.reserve(scenarios.size() * d.support_size());
    for (const Scenario& s : scenarios) {
      for (int k = 0; k < d.support_size(); ++k) {
        Scenario extended = s;
        extended.values.push_back(d.value(k));
        extended.prob *= d.prob(k);
        next.push_back(std::move(extended));
      }
    }
    scenarios = std::move(next);
    FC_CHECK_LE(scenarios.size(), 4u << 20);  // keep the product bounded
  }
  return ScenarioSet(std::move(scenarios));
}

ScenarioSet ScenarioSet::FromSamples(
    int count, Rng& rng,
    const std::function<std::vector<double>(Rng&)>& sampler) {
  FC_CHECK_GT(count, 0);
  std::vector<Scenario> scenarios;
  scenarios.reserve(count);
  for (int s = 0; s < count; ++s) {
    scenarios.push_back({sampler(rng), 1.0 / count});
  }
  return ScenarioSet(std::move(scenarios));
}

double ScenarioSet::Mean(const QueryFunction& f) const {
  double acc = 0.0;
  for (const Scenario& s : scenarios_) acc += s.prob * f.Evaluate(s.values);
  return acc;
}

double ScenarioSet::Variance(const QueryFunction& f) const {
  double m1 = 0.0, m2 = 0.0;
  for (const Scenario& s : scenarios_) {
    double v = f.Evaluate(s.values);
    m1 += s.prob * v;
    m2 += s.prob * v * v;
  }
  double var = m2 - m1 * m1;
  return var > 0.0 ? var : 0.0;
}

double ScenarioSet::ExpectedPosteriorVariance(
    const QueryFunction& f, const std::vector<int>& cleaned) const {
  std::vector<int> coords = cleaned;
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
  for (int c : coords) {
    FC_CHECK_GE(c, 0);
    FC_CHECK_LT(c, dim_);
  }
  if (coords.empty()) return Variance(f);
  // Sort scenario indices by their projection onto the cleaned coords;
  // equal projections form the conditioning groups.
  std::vector<int> order(scenarios_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return CompareProjection(scenarios_[a], scenarios_[b], coords) < 0;
  });
  double ev = 0.0;
  size_t start = 0;
  while (start < order.size()) {
    size_t end = start + 1;
    while (end < order.size() &&
           CompareProjection(scenarios_[order[start]],
                             scenarios_[order[end]], coords) == 0) {
      ++end;
    }
    double p_group = 0.0, m1 = 0.0, m2 = 0.0;
    for (size_t k = start; k < end; ++k) {
      const Scenario& s = scenarios_[order[k]];
      double v = f.Evaluate(s.values);
      p_group += s.prob;
      m1 += s.prob * v;
      m2 += s.prob * v * v;
    }
    if (p_group > 0.0) {
      double mean = m1 / p_group;
      double var = m2 / p_group - mean * mean;
      if (var > 0.0) ev += p_group * var;
    }
    start = end;
  }
  return ev;
}

double ScenarioSet::SurpriseProbability(const QueryFunction& f,
                                        const std::vector<double>& current,
                                        const std::vector<int>& cleaned,
                                        double threshold) const {
  FC_CHECK_EQ(static_cast<int>(current.size()), dim_);
  std::vector<bool> is_cleaned(dim_, false);
  for (int c : cleaned) is_cleaned[c] = true;
  double consistent_mass = 0.0, surprise_mass = 0.0;
  for (const Scenario& s : scenarios_) {
    bool consistent = true;
    for (int i = 0; i < dim_ && consistent; ++i) {
      if (!is_cleaned[i] && s.values[i] != current[i]) consistent = false;
    }
    if (!consistent) continue;
    consistent_mass += s.prob;
    // f evaluated with uncleaned coords pinned at current (they already
    // match) and cleaned coords at the scenario's values.
    if (f.Evaluate(s.values) < threshold) surprise_mass += s.prob;
  }
  if (consistent_mass <= 0.0) return 0.0;
  return surprise_mass / consistent_mass;
}

Selection ScenarioSet::GreedyMinVar(const QueryFunction& f,
                                    const std::vector<double>& costs,
                                    double budget) const {
  FC_CHECK_EQ(static_cast<int>(costs.size()), dim_);
  return AdaptiveGreedyMinimize(
      costs, budget, [&](const std::vector<int>& t) {
        return ExpectedPosteriorVariance(f, t);
      });
}

}  // namespace factcheck
