// Cross-validation of the Theorem-3.8 structured EV evaluator against the
// exact enumeration evaluator of core/ev.h, plus the incremental greedy.

#include <gtest/gtest.h>

#include "claims/ev_fast.h"
#include "core/delta.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace factcheck {
namespace {

struct Instance {
  CleaningProblem problem;
  PerturbationSet context;
  double reference;
};

Instance MakeOverlapping(uint64_t seed, int n = 9, int width = 3) {
  Instance s{data::MakeSynthetic(data::SyntheticFamily::kUniformRandom, seed,
                              {.size = n, .min_support = 2, .max_support = 3}),
          SlidingWindowSumPerturbations(n, width, 0, 1.5), 0.0};
  s.reference = s.context.original.Evaluate(s.problem.CurrentValues());
  return s;
}

Instance MakeDisjoint(uint64_t seed, int n = 12, int width = 3) {
  Instance s{data::MakeSynthetic(data::SyntheticFamily::kUniformRandom, seed,
                              {.size = n, .min_support = 2, .max_support = 3}),
          NonOverlappingWindowSumPerturbations(n, width, 0, 1.5), 0.0};
  s.reference = s.context.original.Evaluate(s.problem.CurrentValues());
  return s;
}

class EvFastAgreementTest
    : public ::testing::TestWithParam<
          std::tuple<int, QualityMeasure, StrengthDirection>> {};

TEST_P(EvFastAgreementTest, MatchesBruteForceEnumerationOverlapping) {
  auto [seed, measure, direction] = GetParam();
  Instance s = MakeOverlapping(seed);
  ClaimEvEvaluator fast(&s.problem, &s.context, measure, s.reference,
                        direction);
  ClaimQualityFunction f(&s.context, measure, s.reference, direction);
  Rng rng(seed);
  // Check EV on several random cleaned sets, plus the extremes.
  std::vector<std::vector<int>> sets = {{}, {0, 1, 2, 3, 4, 5, 6, 7, 8}};
  for (int t = 0; t < 4; ++t) {
    int k = rng.UniformInt(1, 5);
    sets.push_back(rng.SampleWithoutReplacement(9, k));
  }
  for (const auto& cleaned : sets) {
    double exact = ExpectedPosteriorVariance(f, s.problem, cleaned);
    double fast_ev = fast.EV(cleaned);
    EXPECT_NEAR(fast_ev, exact, 1e-7 * (1.0 + exact))
        << "seed " << seed << " measure " << static_cast<int>(measure);
  }
}

TEST_P(EvFastAgreementTest, MatchesBruteForceEnumerationDisjoint) {
  auto [seed, measure, direction] = GetParam();
  Instance s = MakeDisjoint(seed);
  ClaimEvEvaluator fast(&s.problem, &s.context, measure, s.reference,
                        direction);
  EXPECT_EQ(fast.num_overlapping_pairs(), 0);
  ClaimQualityFunction f(&s.context, measure, s.reference, direction);
  Rng rng(seed + 99);
  for (int t = 0; t < 4; ++t) {
    int k = rng.UniformInt(0, 6);
    std::vector<int> cleaned = rng.SampleWithoutReplacement(12, k);
    double exact = ExpectedPosteriorVariance(f, s.problem, cleaned);
    EXPECT_NEAR(fast.EV(cleaned), exact, 1e-7 * (1.0 + exact));
  }
}

TEST_P(EvFastAgreementTest, MomentsMatchEnumeration) {
  auto [seed, measure, direction] = GetParam();
  Instance s = MakeOverlapping(seed);
  ClaimEvEvaluator fast(&s.problem, &s.context, measure, s.reference,
                        direction);
  ClaimQualityFunction f(&s.context, measure, s.reference, direction);
  QualityMoments moments = fast.Moments();
  EXPECT_NEAR(moments.mean, ExpectedValue(f, s.problem),
              1e-7 * (1 + std::abs(moments.mean)));
  EXPECT_NEAR(moments.variance, PriorVariance(f, s.problem),
              1e-7 * (1 + moments.variance));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsMeasuresDirections, EvFastAgreementTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(QualityMeasure::kBias,
                                         QualityMeasure::kDuplicity,
                                         QualityMeasure::kFragility),
                       ::testing::Values(StrengthDirection::kHigherIsStronger,
                                         StrengthDirection::kLowerIsStronger)));

TEST(EvFastTest, OverlappingPairsDetected) {
  Instance s = MakeOverlapping(3);
  ClaimEvEvaluator fast(&s.problem, &s.context, QualityMeasure::kDuplicity,
                        s.reference);
  EXPECT_GT(fast.num_overlapping_pairs(), 0);
  // Sliding width-3 windows: interior objects belong to 3 claims.
  EXPECT_EQ(fast.MaxClaimDegree(), 3);
}

TEST(EvFastTest, DisjointClaimsHaveDegreeOne) {
  Instance s = MakeDisjoint(3);
  ClaimEvEvaluator fast(&s.problem, &s.context, QualityMeasure::kDuplicity,
                        s.reference);
  EXPECT_EQ(fast.num_overlapping_pairs(), 0);
  EXPECT_EQ(fast.MaxClaimDegree(), 1);
}

TEST(EvFastTest, MomentsAfterCleaningReflectPointMasses) {
  Instance s = MakeDisjoint(11);
  ClaimEvEvaluator before(&s.problem, &s.context, QualityMeasure::kDuplicity,
                          s.reference);
  double var_before = before.Moments().variance;
  CleaningProblem cleaned = s.problem;
  for (int i : s.context.perturbations[0].References()) {
    cleaned.Clean(i, cleaned.object(i).dist.Mean());
  }
  ClaimEvEvaluator after(&cleaned, &s.context, QualityMeasure::kDuplicity,
                         s.reference);
  EXPECT_LE(after.Moments().variance, var_before + 1e-9);
}

TEST(EvFastTest, IncrementalGreedyMatchesGenericAdaptiveGreedy) {
  for (uint64_t seed : {1u, 5u, 9u}) {
    Instance s = MakeOverlapping(seed, /*n=*/8, /*width=*/3);
    ClaimEvEvaluator fast(&s.problem, &s.context, QualityMeasure::kDuplicity,
                          s.reference);
    double budget = s.problem.TotalCost() * 0.45;
    Selection incremental = fast.GreedyMinVar(budget);
    Selection generic = AdaptiveGreedyMinimize(
        s.problem.Costs(), budget,
        [&](const std::vector<int>& t) { return fast.EV(t); });
    // Same achieved EV (tie-breaking may differ, value must match).
    EXPECT_NEAR(fast.EV(incremental.cleaned), fast.EV(generic.cleaned),
                1e-7)
        << "seed " << seed;
    EXPECT_LE(incremental.cost, budget);
  }
}

TEST(EvFastTest, GreedyReducesEvMonotonically) {
  Instance s = MakeOverlapping(13);
  ClaimEvEvaluator fast(&s.problem, &s.context, QualityMeasure::kFragility,
                        s.reference);
  Selection sel = fast.GreedyMinVar(s.problem.TotalCost());
  std::vector<int> prefix;
  double prev = fast.PriorVariance();
  for (int i : sel.order) {
    prefix.push_back(i);
    double ev = fast.EV(prefix);
    EXPECT_LE(ev, prev + 1e-9);
    prev = ev;
  }
}

TEST(EvFastTest, FullBudgetDrivesEvToZero) {
  Instance s = MakeOverlapping(17);
  ClaimEvEvaluator fast(&s.problem, &s.context, QualityMeasure::kDuplicity,
                        s.reference);
  Selection sel = fast.GreedyMinVar(s.problem.TotalCost() + 1);
  EXPECT_NEAR(fast.EV(sel.cleaned), 0.0, 1e-9);
}

// The stale-EVFast-base bugfix: after ReplaceDistribution the sparse base
// terms are recomputed on the next call, so an evaluator that was warm
// before the mutation answers bit-for-bit like one built on the mutated
// problem.
TEST(EvFastTest, LiveEvaluatorMatchesFreshAfterMutation) {
  for (uint64_t seed : {2u, 8u}) {
    Instance s = MakeOverlapping(seed);
    ClaimEvEvaluator live(&s.problem, &s.context, QualityMeasure::kDuplicity,
                          s.reference);
    std::vector<std::vector<int>> sets = {{}, {0, 4}, {1, 2, 7}, {3, 5, 6, 8}};
    // Warm the term caches and the EVFast bases on the pre-mutation state.
    for (const auto& cleaned : sets) live.EV(cleaned);

    // Mutate through the delta path: a support change on a claim-shared
    // object, a Clean (dist + value), and a cost change (no-op for EV).
    s.problem.Apply(ProblemDelta::ReplaceDistribution(
        1, DiscreteDistribution({-2.0, 6.0, 40.0}, {0.2, 0.6, 0.2})));
    s.problem.Apply(
        ProblemDelta::Clean(4, s.problem.object(4).dist.Mean()));
    s.problem.Apply(ProblemDelta::SetCost(0, 7.0));

    ClaimEvEvaluator fresh(&s.problem, &s.context, QualityMeasure::kDuplicity,
                           s.reference);
    for (const auto& cleaned : sets) {
      EXPECT_EQ(live.EV(cleaned), fresh.EV(cleaned))  // bit-exact
          << "seed " << seed;
    }
    const QualityMoments live_moments = live.Moments();
    const QualityMoments fresh_moments = fresh.Moments();
    EXPECT_EQ(live_moments.mean, fresh_moments.mean);
    EXPECT_EQ(live_moments.variance, fresh_moments.variance);
    const double budget = s.problem.TotalCost() * 0.4;
    Selection from_live = live.GreedyMinVar(budget);
    Selection from_fresh = fresh.GreedyMinVar(budget);
    EXPECT_EQ(from_live.cleaned, from_fresh.cleaned);
    EXPECT_EQ(from_live.order, from_fresh.order);
  }
}

// An object appended by a delta is visible to the incidence lookup before
// any evaluation has resynchronized the evaluator.
TEST(EvFastTest, NumClaimsReferencingSeesAddedObject) {
  Instance s = MakeOverlapping(4);
  ClaimEvEvaluator fast(&s.problem, &s.context, QualityMeasure::kDuplicity,
                        s.reference);
  UncertainObject object;
  object.label = "tail";
  object.current_value = 3.0;
  object.dist = DiscreteDistribution({2.0, 4.0}, {0.5, 0.5});
  s.problem.Apply(ProblemDelta::AddObject(object));
  EXPECT_EQ(fast.NumClaimsReferencing(s.problem.size() - 1), 0);
}

TEST(EvFastTest, PointMassObjectsContributeNothing) {
  Instance s = MakeDisjoint(19);
  // Clean everything up front: EV must be 0 without enumeration blowups.
  CleaningProblem cleaned = s.problem;
  for (int i = 0; i < cleaned.size(); ++i) {
    cleaned.Clean(i, cleaned.object(i).dist.Mean());
  }
  ClaimEvEvaluator fast(&cleaned, &s.context, QualityMeasure::kBias,
                        s.reference);
  EXPECT_NEAR(fast.PriorVariance(), 0.0, 1e-12);
}

}  // namespace
}  // namespace factcheck
