// Exact convolution of weighted sums of independent discrete variables —
// the computational kernel behind the Theorem 3.8 evaluator (ev_fast) and
// the ratio-claim evaluator.
//
// A SumDistribution is the exact distribution of sum_i c_i X_i as a sorted
// atom list with colliding values merged, in the specified order of
// dist/kernels.h (equal values' probabilities summed in the order of a
// stable sort of the term-major expansion); the 2-D variant tracks the joint
// of two weighted sums over the SAME underlying variables
// (sum_i a_i X_i, sum_i b_i X_i), which is how shared objects induce
// correlation between overlapping claims.

#ifndef FACTCHECK_DIST_CONVOLUTION_H_
#define FACTCHECK_DIST_CONVOLUTION_H_

#include <vector>

#include "dist/discrete.h"

namespace factcheck {

// One atom of a 1-D sum distribution.
struct SumAtom {
  double value = 0.0;
  double prob = 0.0;
};
using SumDistribution = std::vector<SumAtom>;

// One term c * X of a weighted sum; `dist` must outlive the call.
struct WeightedTerm {
  const DiscreteDistribution* dist = nullptr;
  double coeff = 1.0;
};

// Exact distribution of sum_i coeff_i X_i over independent X_i, strictly
// ascending by value with equal values merged (after every term, point
// masses included).  The empty sum is a point mass at 0.
SumDistribution ConvolveSum(const std::vector<WeightedTerm>& terms);

// One atom of a joint (a, b) sum distribution.
struct SumAtom2 {
  double a = 0.0;
  double b = 0.0;
  double prob = 0.0;
};
using SumDistribution2 = std::vector<SumAtom2>;

// One term (coeff_a * X, coeff_b * X) contributing to both coordinates.
struct WeightedTerm2 {
  const DiscreteDistribution* dist = nullptr;
  double coeff_a = 0.0;
  double coeff_b = 0.0;
};

// Joint distribution of (sum_i a_i X_i, sum_i b_i X_i); sharing an X_i
// between nonzero a_i and b_i makes the coordinates dependent.  Strictly
// ascending lexicographically by (a, b), equal pairs merged, even where
// rounding collapses distinct a values.  The empty sum is a point mass at
// (0, 0).
SumDistribution2 ConvolveSum2(const std::vector<WeightedTerm2>& terms);

// Moments and tail statistics of a sum distribution.
double SumMean(const SumDistribution& d);
double SumVariance(const SumDistribution& d);
// P[S < t] (strict).
double SumProbBelow(const SumDistribution& d, double t);
// Shannon entropy in nats.
double SumEntropy(const SumDistribution& d);

// Repackages a sum distribution as a DiscreteDistribution.
DiscreteDistribution SumToDiscrete(const SumDistribution& d);

}  // namespace factcheck

#endif  // FACTCHECK_DIST_CONVOLUTION_H_
