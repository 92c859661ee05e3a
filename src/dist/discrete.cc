#include "dist/discrete.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dist/kernels.h"
#include "util/random.h"

namespace factcheck {
namespace {

// Atoms whose normalized probability falls below this are treated as
// numerically extinct (e.g. the vanishing atoms of a logarithmic opinion
// pool) and dropped from the support.
constexpr double kAtomFloor = 1e-15;

}  // namespace

DiscreteDistribution::DiscreteDistribution(std::vector<double> values,
                                           std::vector<double> probs) {
  FC_CHECK(!values.empty());
  FC_CHECK_EQ(values.size(), probs.size());
  // Non-finite values would break the sorted-support invariant (NaN has no
  // ordering), so they are programmer errors like negative probabilities.
  for (double v : values) FC_CHECK(std::isfinite(v));
  double total = 0.0;
  for (double p : probs) {
    FC_CHECK_GE(p, 0.0);
    FC_CHECK(std::isfinite(p));
    total += p;
  }
  FC_CHECK_GT(total, 0.0);

  // Sort atoms by value, carrying probabilities along.  The input index is
  // the second key, so equal values keep their input order (the order
  // std::stable_sort gives, without its scratch allocation on this
  // bulk-construction path) and merge their probabilities in it.
  std::vector<std::pair<double, int>> order(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    order[i] = {values[i], static_cast<int>(i)};
  }
  std::sort(order.begin(), order.end());

  values_.reserve(values.size());
  probs_.reserve(values.size());
  for (const auto& [v, idx] : order) {
    double p = probs[idx] / total;
    if (p < kAtomFloor) continue;
    if (!values_.empty() && values_.back() == v) {
      probs_.back() += p;
    } else {
      values_.push_back(v);
      probs_.push_back(p);
    }
  }
  // Dropping sub-floor atoms can only remove negligible mass, but if the
  // input was pathological (every atom below the floor relative to total)
  // fall back to keeping the heaviest atom.
  if (values_.empty()) {
    int best = order[0].second;
    for (const auto& [v, idx] : order) {
      if (probs[idx] > probs[best]) best = idx;
    }
    values_.push_back(values[best]);
    probs_.push_back(1.0);
    return;
  }
  // Renormalize the kept mass (a no-op when nothing was dropped beyond
  // floating-point dust).
  double kept = 0.0;
  for (double p : probs_) kept += p;  // first-to-last, bit-deterministic
  if (kept != 1.0) {
    for (double& p : probs_) p /= kept;
  }
}

DiscreteDistribution DiscreteDistribution::PointMass(double v) {
  DiscreteDistribution d;
  d.values_ = {v};
  d.probs_ = {1.0};
  return d;
}

// The moment/CDF loops are the flat-plane reduction kernels applied to
// this distribution's own contiguous storage (same accumulation order, so
// values are unchanged bit-for-bit).

double DiscreteDistribution::Mean() const {
  return WeightedSum(values_.data(), probs_.data(), support_size());
}

double DiscreteDistribution::SecondMoment() const {
  return WeightedSquareSum(values_.data(), probs_.data(), support_size());
}

double DiscreteDistribution::Variance() const {
  // Centered one-pass form for numerical stability on large supports.
  return CenteredSquareSum(values_.data(), probs_.data(), support_size(),
                           Mean());
}

double DiscreteDistribution::Entropy() const {
  return EntropySum(probs_.data(), support_size());
}

double DiscreteDistribution::CdfBelow(double x) const {
  return MassBelow(values_.data(), probs_.data(), support_size(), x);
}

double DiscreteDistribution::CdfAtOrBelow(double x) const {
  return MassAtOrBelow(values_.data(), probs_.data(), support_size(), x);
}

DiscreteDistribution DiscreteDistribution::Shifted(double delta) const {
  DiscreteDistribution d = *this;
  for (double& v : d.values_) v += delta;
  return d;
}

DiscreteDistribution DiscreteDistribution::Scaled(double s) const {
  DiscreteDistribution d = *this;
  for (double& v : d.values_) v *= s;
  if (s < 0.0) {
    std::reverse(d.values_.begin(), d.values_.end());
    std::reverse(d.probs_.begin(), d.probs_.end());
  } else if (s == 0.0) {
    d.values_ = {0.0};
    d.probs_ = {1.0};
  }
  return d;
}

double DiscreteDistribution::Sample(Rng& rng) const {
  if (is_point_mass()) return values_[0];
  return values_[rng.Categorical(probs_)];
}

}  // namespace factcheck
