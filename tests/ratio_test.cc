#include <memory>

#include <gtest/gtest.h>

#include "claims/ratio.h"
#include "core/delta.h"
#include "core/engine.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace factcheck {
namespace {

// Algorithm 1 over the evaluator's batch EV: the reference selection the
// incremental paths must reproduce.
Selection BatchGreedy(const RatioEvEvaluator& evaluator,
                      const CleaningProblem& problem, double budget) {
  return AdaptiveGreedyMinimize(
      problem.Costs(), budget,
      [&](const std::vector<int>& cleaned) { return evaluator.EV(cleaned); });
}

TEST(RatioClaimTest, EvaluatesPercentageChange) {
  RatioClaim claim = MakeRatioComparisonClaim(0, 2, 2);
  // earlier = x0 + x1 = 10, later = x2 + x3 = 17 -> +70%.
  EXPECT_NEAR(claim.Evaluate({4, 6, 8, 9}), 0.7, 1e-12);
}

TEST(RatioClaimTest, ReferencesAreSortedUnion) {
  RatioClaim claim = MakeRatioComparisonClaim(3, 0, 2);
  EXPECT_EQ(claim.References(), (std::vector<int>{0, 1, 3, 4}));
}

TEST(RatioClaimTest, GiulianiScaleExample) {
  // "Adoptions went up 65 to 70 percent" between 4-year windows.
  RatioClaim claim = MakeRatioComparisonClaim(0, 4, 4);
  std::vector<double> x = {1784, 1850, 2021, 2302,   // 1989-1992
                           3105, 3646, 3914, 3801};  // 1995-1998-ish
  double q = claim.Evaluate(x);
  EXPECT_GT(q, 0.6);
  EXPECT_LT(q, 0.9);
}

TEST(RatioPerturbationsTest, DisjointByConstruction) {
  RatioPerturbationSet set = NonOverlappingRatioPerturbations(40, 4, 16, 1.5);
  EXPECT_GE(set.size(), 2);
  std::vector<bool> seen(40, false);
  for (const RatioClaim& q : set.perturbations) {
    for (int i : q.References()) {
      EXPECT_FALSE(seen[i]) << "object " << i << " shared";
      seen[i] = true;
    }
  }
  double total = 0;
  for (double s : set.sensibilities) total += s;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RatioEvEvaluatorTest, MatchesBruteForceEnumeration) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    CleaningProblem p = data::MakeSynthetic(
        data::SyntheticFamily::kUniformRandom, seed,
        {.size = 12, .min_support = 2, .max_support = 3});
    RatioPerturbationSet context =
        NonOverlappingRatioPerturbations(12, 2, 4, 1.5);
    for (QualityMeasure measure :
         {QualityMeasure::kBias, QualityMeasure::kDuplicity,
          QualityMeasure::kFragility}) {
      double reference = 0.1;
      RatioEvEvaluator fast(&p, &context, measure, reference);
      LambdaQueryFunction generic = RatioQualityFunction(
          context, measure, reference,
          StrengthDirection::kHigherIsStronger);
      Rng rng(seed * 3 + 1);
      for (int trial = 0; trial < 5; ++trial) {
        int k = rng.UniformInt(0, 6);
        std::vector<int> cleaned = rng.SampleWithoutReplacement(12, k);
        double exact = ExpectedPosteriorVariance(generic, p, cleaned);
        EXPECT_NEAR(fast.EV(cleaned), exact, 1e-7 * (1 + exact))
            << "seed " << seed << " measure " << static_cast<int>(measure);
      }
      QualityMoments moments = fast.Moments();
      EXPECT_NEAR(moments.mean, ExpectedValue(generic, p),
                  1e-7 * (1 + std::abs(moments.mean)));
    }
  }
}

TEST(RatioEvEvaluatorTest, EvMonotoneAndZeroWhenAllCleaned) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 9,
      {.size = 16, .min_support = 2, .max_support = 3});
  RatioPerturbationSet context =
      NonOverlappingRatioPerturbations(16, 2, 4, 1.5);
  RatioEvEvaluator fast(&p, &context, QualityMeasure::kDuplicity, 0.0);
  std::vector<int> cleaned;
  double prev = fast.PriorVariance();
  for (int i = 0; i < 16; ++i) {
    cleaned.push_back(i);
    double next = fast.EV(cleaned);
    EXPECT_LE(next, prev + 1e-9);
    prev = next;
  }
  EXPECT_NEAR(prev, 0.0, 1e-12);
}

TEST(RatioEvEvaluatorTest, GreedyReducesUncertainty) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 13,
      {.size = 16, .min_support = 2, .max_support = 4});
  RatioPerturbationSet context =
      NonOverlappingRatioPerturbations(16, 2, 4, 1.5);
  RatioEvEvaluator fast(&p, &context, QualityMeasure::kFragility, 0.2);
  double prior = fast.PriorVariance();
  if (prior < 1e-12) return;
  Selection sel = BatchGreedy(fast, p, p.TotalCost() * 0.3);
  EXPECT_LT(fast.EV(sel.cleaned), prior);
  EXPECT_LE(sel.cost, p.TotalCost() * 0.3);
}

TEST(RatioEvEvaluatorDeathTest, OverlappingPerturbationsAbort) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 17, {.size = 8});
  RatioPerturbationSet context;
  context.original = MakeRatioComparisonClaim(0, 2, 2);
  context.perturbations = {MakeRatioComparisonClaim(0, 2, 2),
                           MakeRatioComparisonClaim(2, 4, 2)};  // share 2,3
  context.sensibilities = {0.5, 0.5};
  EXPECT_DEATH(
      RatioEvEvaluator(&p, &context, QualityMeasure::kBias, 0.0),
      "CHECK failed");
}

// The engine's incremental greedy driven through MakeIncremental must
// select bit-identically to Algorithm 1 over the batch EV.
TEST(RatioEvEvaluatorTest, EngineIncrementalMatchesBatchGreedy) {
  for (uint64_t seed : {3u, 21u, 77u}) {
    CleaningProblem p = data::MakeSynthetic(
        data::SyntheticFamily::kUniformRandom, seed,
        {.size = 16, .min_support = 2, .max_support = 3});
    RatioPerturbationSet context =
        NonOverlappingRatioPerturbations(16, 2, 4, 1.5);
    for (QualityMeasure measure :
         {QualityMeasure::kBias, QualityMeasure::kDuplicity}) {
      RatioEvEvaluator evaluator(&p, &context, measure, 0.1);
      const double budget = p.TotalCost() * 0.3;
      Selection batch = BatchGreedy(evaluator, p, budget);

      EvalEngine engine(
          [&](const std::vector<int>& cleaned) { return evaluator.EV(cleaned); },
          OptimizeDirection::kMinimize);
      std::unique_ptr<IncrementalObjective> incremental =
          evaluator.MakeIncremental();
      GreedyOptions options;
      options.incremental = incremental.get();
      Selection engine_sel = engine.PlainGreedy(p.Costs(), budget, options);

      EXPECT_EQ(engine_sel.cleaned, batch.cleaned)
          << "seed " << seed << " measure " << static_cast<int>(measure);
      EXPECT_EQ(engine_sel.order, batch.order);
      EXPECT_EQ(engine_sel.cost, batch.cost);  // bit-exact
      // The incremental protocol actually ran: probes, not batch sweeps.
      EXPECT_GT(engine.stats().probes, 0);
      EXPECT_EQ(engine.stats().commits,
                static_cast<std::int64_t>(engine_sel.cleaned.size()));
    }
  }
}

// A mutation between evaluations is absorbed by RefreshIfStale: the
// evaluator answers exactly like one constructed fresh on the mutated
// problem (the stale-term-cache bugfix).
TEST(RatioEvEvaluatorTest, RefreshAfterMutationMatchesFreshEvaluator) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 9,
      {.size = 16, .min_support = 2, .max_support = 3});
  RatioPerturbationSet context =
      NonOverlappingRatioPerturbations(16, 2, 4, 1.5);
  RatioEvEvaluator live(&p, &context, QualityMeasure::kDuplicity, 0.1);
  // Warm the term caches on the pre-mutation state.
  std::vector<std::vector<int>> sets = {{}, {0, 1}, {4, 5, 10}, {2, 7, 12}};
  for (const auto& cleaned : sets) live.EV(cleaned);

  // Mutate an object referenced by the first perturbation, plus an
  // unrelated cost (which must not disturb any term).
  const int touched = context.perturbations[0].References()[0];
  p.Apply(ProblemDelta::ReplaceDistribution(
      touched, DiscreteDistribution({1.0, 3.0, 50.0}, {0.25, 0.5, 0.25})));
  p.Apply(ProblemDelta::SetCost(15, 9.0));

  RatioEvEvaluator fresh(&p, &context, QualityMeasure::kDuplicity, 0.1);
  for (const auto& cleaned : sets) {
    EXPECT_EQ(live.EV(cleaned), fresh.EV(cleaned))  // bit-exact
        << "cleaned set size " << cleaned.size();
  }
  Selection warm = BatchGreedy(live, p, p.TotalCost() * 0.3);
  Selection cold = BatchGreedy(fresh, p, p.TotalCost() * 0.3);
  EXPECT_EQ(warm.cleaned, cold.cleaned);
  EXPECT_EQ(warm.order, cold.order);
}

TEST(RatioClaimTest, DenominatorGuardKeepsRatioFinite) {
  RatioClaim claim = MakeRatioComparisonClaim(0, 1, 1);
  double q = claim.Evaluate({0.0, 5.0});
  EXPECT_TRUE(std::isfinite(q));
}

}  // namespace
}  // namespace factcheck
