// Ratio (percentage-change) claims.
//
// Giuliani's claim (Example 4) was literally "adoptions went up 65 to 70
// percent" — a *ratio* of window aggregates:
//
//   q(x) = (sum_{later} x - sum_{earlier} x) / sum_{earlier} x.
//
// Ratios are nonlinear, so the modular machinery of Section 3.2 does not
// apply; but each claim is still a function of just two window sums, so
// the Theorem-3.8 strategy carries over with the 1-D convolutions replaced
// by joint 2-D (earlier, later) sum distributions.  The exact evaluator
// below requires perturbations with pairwise-disjoint references (no
// covariance terms); overlapping sets can fall back to Monte Carlo via
// montecarlo/mc_greedy.h and the RatioQualityFunction adapter.

#ifndef FACTCHECK_CLAIMS_RATIO_H_
#define FACTCHECK_CLAIMS_RATIO_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "claims/quality.h"
#include "core/incremental.h"
#include "core/problem.h"

namespace factcheck {

// A percentage-change claim between two equal-width windows.
struct RatioClaim {
  std::vector<int> earlier;  // denominator window (sorted)
  std::vector<int> later;    // numerator window (sorted)
  std::string description;

  // (sum later - sum earlier) / sum earlier; the denominator is clamped
  // away from zero (fact-checking data are positive counts).
  double Evaluate(const std::vector<double>& x) const;

  // Sorted union of both windows.
  std::vector<int> References() const;
};

RatioClaim MakeRatioComparisonClaim(int earlier_start, int later_start,
                                    int width);

// The perturbation context for ratio claims.
struct RatioPerturbationSet {
  RatioClaim original;
  std::vector<RatioClaim> perturbations;
  std::vector<double> sensibilities;

  int size() const { return static_cast<int>(perturbations.size()); }
};

// Back-to-back ratio comparisons at non-overlapping placements (stride
// 2 * width), walking outward from the original — disjoint references by
// construction, as the exact evaluator requires.
RatioPerturbationSet NonOverlappingRatioPerturbations(int n, int width,
                                                      int original_start,
                                                      double lambda);

// Quality measure of a ratio-claim context as a generic QueryFunction
// (for brute force, Monte Carlo, and cross-validation).
LambdaQueryFunction RatioQualityFunction(const RatioPerturbationSet& context,
                                         QualityMeasure measure,
                                         double reference,
                                         StrengthDirection direction);

class RatioIncrementalObjective;

// Exact EV evaluator for ratio-claim quality measures over independent X
// with pairwise-disjoint perturbations (aborts otherwise).
class RatioEvEvaluator {
 public:
  RatioEvEvaluator(const CleaningProblem* problem,
                   const RatioPerturbationSet* context,
                   QualityMeasure measure, double reference,
                   StrengthDirection direction =
                       StrengthDirection::kHigherIsStronger);

  double EV(const std::vector<int>& cleaned) const;
  double PriorVariance() const { return EV({}); }
  QualityMoments Moments() const;

  // The per-claim benefit locality packaged as an engine-pluggable
  // IncrementalObjective: disjoint references mean cleaning object i
  // moves exactly one claim's term, so ProbeGain(i) recomputes at most
  // one 2-D convolution term instead of the full EV sum — ratio
  // workloads stop paying batch cost per probe.  Value() re-sums the
  // cached terms in EV's claim order, so it is bit-equal to the batch EV
  // of the same set (AdaptiveGreedyMinimize selects identical sets with
  // and without it).  Shares this evaluator's memoized term caches (not
  // locked — single-threaded by contract); the evaluator must outlive the
  // returned objective.
  std::unique_ptr<IncrementalObjective> MakeIncremental() const;

  // Epoch resynchronization with the underlying problem (see
  // ClaimEvEvaluator::RefreshIfStale — same protocol): drops the term
  // caches of claims referencing mutated objects, so evaluations after a
  // Clean/ReplaceDistribution/Apply are computed against the new state.
  void RefreshIfStale() const;

 private:
  friend class RatioIncrementalObjective;

  double Transform(int k, double q) const;
  // E_T[Var(g_k | X_T)] and E[g_k] via joint (earlier, later) convolutions;
  // EVarTerm memoizes on the cleaned-subset mask of the claim's references
  // (problem mutations between public calls are absorbed by
  // RefreshIfStale).
  double EVarTerm(int k, const std::vector<bool>& is_cleaned) const;
  double EVarTermUncached(int k, const std::vector<bool>& is_cleaned) const;
  double MeanTerm(int k, const std::vector<bool>& is_cleaned) const;

  const CleaningProblem* problem_;
  const RatioPerturbationSet* context_;
  QualityMeasure measure_;
  double reference_;
  StrengthDirection direction_;
  // Mutable only for RefreshIfStale's tail resize after add/remove
  // deltas; rows for pre-existing objects never change.
  mutable std::vector<std::vector<int>> object_claims_;
  std::vector<std::vector<int>> claim_refs_;  // sorted refs per claim
  mutable std::vector<std::unordered_map<uint32_t, double>> evar_cache_;
  mutable std::uint64_t seen_epoch_ = 0;
};

}  // namespace factcheck

#endif  // FACTCHECK_CLAIMS_RATIO_H_
