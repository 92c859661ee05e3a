// Equivalence tier for the engine's incremental-objective path
// (core/incremental.h): every IncrementalObjective must drive the greedy
// to the identical selection — same set, same pick order, same cost, and
// bitwise the same objective trajectory — as the from-scratch batch
// SetObjective path, across pool sizes and lazy modes; the stats must
// show the work moving from full evaluations to O(Δ) probes.  Also the
// collision-path tier for the engine's 64-bit set-signature memo (the
// exact-key fallback must keep the cache sound under a degenerate hash)
// and the stats_out-on-early-exit contract.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "claims/ev_fast.h"
#include "claims/perturbation.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/maxpr.h"
#include "core/planner.h"
#include "data/synthetic.h"
#include "dist/mvn.h"
#include "exp/workload_registry.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace factcheck {
namespace {

void ExpectSameSelection(const Selection& a, const Selection& b,
                         const std::string& context) {
  EXPECT_EQ(a.cleaned, b.cleaned) << context;
  EXPECT_EQ(a.order, b.order) << context;
  EXPECT_EQ(a.cost, b.cost) << context;  // bit-equal
}

// One (batch objective, incremental factory) pair plus the instance data
// it closes over.
struct Family {
  std::string name;
  OptimizeDirection direction;
  std::vector<double> costs;
  double budget = 0.0;
  SetObjective batch;
  IncrementalFactory make_incremental;
  // Keep-alive for state captured by reference in the closures.
  std::shared_ptr<void> holder;
};

Family ModularFamily(std::uint64_t seed) {
  const int n = 14;
  Rng rng(seed);
  auto weights = std::make_shared<std::vector<double>>();
  Family f;
  for (int i = 0; i < n; ++i) {
    weights->push_back(rng.Uniform(0.0, 3.0));
    f.costs.push_back(rng.Uniform(0.5, 2.0));
  }
  f.name = "modular";
  f.direction = OptimizeDirection::kMinimize;
  f.budget = 0.4 * n;
  f.batch = [weights](const std::vector<int>& cleaned) {
    std::vector<bool> in(weights->size(), false);
    for (int i : cleaned) in[i] = true;
    double acc = 0.0;
    for (size_t i = 0; i < weights->size(); ++i) {
      if (!in[i]) acc += (*weights)[i];
    }
    return acc;
  };
  f.make_incremental = [weights] { return MakeModularIncremental(*weights); };
  f.holder = weights;
  return f;
}

Family NormalMaxPrFamily(std::uint64_t seed) {
  const int n = 12;
  Rng rng(seed);
  struct State {
    std::unique_ptr<LinearQueryFunction> f;
    std::vector<double> means, stddevs, current;
  };
  auto state = std::make_shared<State>();
  std::vector<int> refs;
  std::vector<double> coeffs;
  Family f;
  for (int i = 0; i < n; ++i) {
    state->means.push_back(rng.Uniform(40.0, 60.0));
    state->current.push_back(state->means.back() + rng.Uniform(-4.0, 4.0));
    state->stddevs.push_back(rng.Uniform(0.5, 4.0));
    f.costs.push_back(rng.Uniform(0.5, 2.0));
    if (i % 3 != 2) {  // leave some objects unreferenced (coefficient 0)
      refs.push_back(i);
      coeffs.push_back(rng.Uniform(-1.5, 1.5));
    }
  }
  state->f = std::make_unique<LinearQueryFunction>(refs, coeffs);
  const double tau = 2.0;
  f.name = "normal_maxpr";
  f.direction = OptimizeDirection::kMaximize;
  f.budget = 0.5 * n;
  f.batch = MaxPrNormalObjective(*state->f, state->means, state->stddevs,
                                 state->current, tau);
  f.make_incremental = [state, tau, n] {
    return MakeNormalMaxPrIncremental(state->f->DenseWeights(n),
                                      state->means, state->stddevs,
                                      state->current, tau);
  };
  f.holder = state;
  return f;
}

Family MvnFamily(std::uint64_t seed) {
  const int n = 10;
  Rng rng(seed);
  struct State {
    std::unique_ptr<MultivariateNormal> model;
    std::vector<double> a;
  };
  auto state = std::make_shared<State>();
  Vector mean(n, 0.0), stddevs(n);
  Family f;
  for (int i = 0; i < n; ++i) {
    stddevs[i] = rng.Uniform(0.5, 3.0);
    state->a.push_back(rng.Uniform(-1.0, 1.0));
    f.costs.push_back(rng.Uniform(0.5, 2.0));
  }
  state->model = std::make_unique<MultivariateNormal>(
      mean, GeometricDecayCovariance(stddevs, 0.7));
  f.name = "mvn_conditional";
  f.direction = OptimizeDirection::kMinimize;
  f.budget = 0.45 * n;
  f.batch = [state](const std::vector<int>& cleaned) {
    return state->model->ExpectedConditionalVariance(state->a, cleaned);
  };
  f.make_incremental = [state] {
    return MakeConditionalVarianceIncremental(*state->model, state->a);
  };
  f.holder = state;
  return f;
}

Family ClaimsFamily(std::uint64_t seed) {
  const int n = 12;
  struct State {
    CleaningProblem problem;
    PerturbationSet context;
    std::unique_ptr<ClaimEvEvaluator> evaluator;
  };
  auto state = std::make_shared<State>();
  state->problem =
      data::MakeSynthetic(data::SyntheticFamily::kUniformRandom, seed,
                          {.size = n, .min_support = 2, .max_support = 3});
  state->context = SlidingWindowSumPerturbations(n, 3, 0, 1.5);
  double reference =
      state->context.original.Evaluate(state->problem.CurrentValues());
  state->evaluator = std::make_unique<ClaimEvEvaluator>(
      &state->problem, &state->context, QualityMeasure::kDuplicity,
      reference);
  Family f;
  f.name = "claims_thm38";
  f.direction = OptimizeDirection::kMinimize;
  f.costs = state->problem.Costs();
  f.budget = 0.45 * state->problem.TotalCost();
  f.batch = [state](const std::vector<int>& cleaned) {
    return state->evaluator->EV(cleaned);
  };
  f.make_incremental = [state] {
    return state->evaluator->MakeIncremental();
  };
  f.holder = state;
  return f;
}

std::vector<Family> AllFamilies(std::uint64_t seed) {
  return {ModularFamily(seed), NormalMaxPrFamily(seed), MvnFamily(seed),
          ClaimsFamily(seed)};
}

// --- Value / probe / commit consistency -----------------------------------

TEST(IncrementalConsistency, ValueProbeAndCommitMatchBatchObjective) {
  for (std::uint64_t seed : {3u, 11u}) {
    for (Family& family : AllFamilies(seed)) {
      SCOPED_TRACE(family.name);
      const int n = static_cast<int>(family.costs.size());
      std::unique_ptr<IncrementalObjective> inc = family.make_incremental();
      Rng rng(seed + 17);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<int> set =
            rng.SampleWithoutReplacement(n, rng.UniformInt(0, n - 2));
        inc->Reset(set);
        double batch_value = family.batch([&] {
          std::vector<int> canonical = set;
          std::sort(canonical.begin(), canonical.end());
          return canonical;
        }());
        double scale = 1.0 + std::abs(batch_value);
        EXPECT_NEAR(inc->Value(), batch_value, 1e-9 * scale);
        // Probe every absent object against a from-scratch evaluation.
        std::vector<bool> in(n, false);
        for (int i : set) in[i] = true;
        for (int i = 0; i < n; ++i) {
          if (in[i]) continue;
          std::vector<int> with = set;
          with.push_back(i);
          std::sort(with.begin(), with.end());
          double probed = inc->Value() + inc->ProbeGain(i);
          double exact = family.batch(with);
          EXPECT_NEAR(probed, exact, 1e-9 * (1.0 + std::abs(exact)))
              << "object " << i;
        }
      }
      // Commit replay: committing one-by-one must land where Reset lands.
      inc->Reset({});
      std::vector<int> order = rng.SampleWithoutReplacement(n, n / 2);
      for (int i : order) inc->Commit(i);
      double committed = inc->Value();
      inc->Reset(order);
      EXPECT_NEAR(committed, inc->Value(),
                  1e-9 * (1.0 + std::abs(committed)));
    }
  }
}

// --- Engine equivalence: incremental path vs batch path -------------------

Selection RunEngine(const Family& family, bool incremental, bool lazy,
                    int pool_threads, EngineStats* stats) {
  GreedyOptions options;
  options.lazy = lazy;
  options.stats_out = stats;
  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 0) {
    pool = std::make_unique<ThreadPool>(pool_threads);
    options.pool = pool.get();
  }
  std::unique_ptr<IncrementalObjective> inc;
  if (incremental) {
    inc = family.make_incremental();
    options.incremental = inc.get();
  }
  return family.direction == OptimizeDirection::kMinimize
             ? AdaptiveGreedyMinimize(family.costs, family.budget,
                                      family.batch, options)
             : AdaptiveGreedyMaximize(family.costs, family.budget,
                                      family.batch, options);
}

TEST(IncrementalEngineEquivalence, SameSelectionAcrossPoolsAndLazyModes) {
  for (std::uint64_t seed : {2u, 7u, 19u}) {
    for (Family& family : AllFamilies(seed)) {
      for (bool lazy : {false, true}) {
        // Batch reference at pool size 0; the engine guarantees pool-size
        // bit-stability, so one batch reference per lazy mode suffices.
        EngineStats batch_stats;
        Selection batch =
            RunEngine(family, /*incremental=*/false, lazy, 0, &batch_stats);
        for (int pool_threads : {0, 1, 4}) {
          SCOPED_TRACE(family.name + (lazy ? " lazy" : " plain") +
                       " pool=" + std::to_string(pool_threads) + " seed=" +
                       std::to_string(seed));
          EngineStats inc_stats;
          Selection inc = RunEngine(family, /*incremental=*/true, lazy,
                                    pool_threads, &inc_stats);
          ExpectSameSelection(batch, inc, family.name);
          // The work must have moved from full evaluations to probes:
          // one Reset-evaluation, everything else O(Δ).
          EXPECT_EQ(inc_stats.evaluations, 1);
          EXPECT_GT(inc_stats.probes, 0);
          EXPECT_LE(inc_stats.commits, inc_stats.probes);
          EXPECT_GT(batch_stats.evaluations, inc_stats.evaluations);
          // Identical selections imply bitwise-identical objective
          // trajectories; pin it explicitly through the batch evaluator.
          std::vector<int> prefix;
          for (size_t k = 0; k < batch.order.size(); ++k) {
            prefix.push_back(batch.order[k]);
            std::vector<int> canonical = prefix;
            std::sort(canonical.begin(), canonical.end());
            std::vector<int> other(inc.order.begin(),
                                   inc.order.begin() + k + 1);
            std::sort(other.begin(), other.end());
            EXPECT_EQ(family.batch(canonical), family.batch(other));
          }
        }
      }
    }
  }
}

// --- Workload-level equivalence through the Planner -----------------------

// Every registered workload that ships an incremental factory must select
// identically with and without it, for threads in {1, 4} x lazy on/off,
// including the (bitwise) objective trajectory the Planner recomputes
// through the workload metric.
TEST(WorkloadIncrementalEquivalence, AllRegisteredWorkloadsMatchBatchPath) {
  using exp::Workload;
  using exp::WorkloadOptions;
  using exp::WorkloadRegistry;
  int covered = 0;
  for (const auto* entry : WorkloadRegistry::Global().Sorted()) {
    SCOPED_TRACE(entry->name);
    WorkloadOptions options;
    options.size = 48;  // keep the synthetic families test-sized
    Workload w = entry->build(options);
    w.name = entry->name;
    PlanRequest request = w.MakeRequest(0.3 * w.TotalCost());
    if (request.custom_incremental == nullptr) continue;
    ASSERT_EQ(w.objective, ObjectiveKind::kMinVar);
    ++covered;
    request.with_trajectory = true;
    Planner planner(w.registry());
    for (bool lazy : {false, true}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " lazy=" + std::to_string(lazy));
        request.engine.threads = threads;
        request.engine.lazy = lazy;
        PlanResult with_inc = planner.Plan(request, "greedy_minvar");
        PlanRequest batch_request = request;
        batch_request.custom_incremental = nullptr;
        PlanResult batch = planner.Plan(batch_request, "greedy_minvar");
        ExpectSameSelection(batch.selection, with_inc.selection,
                            entry->name);
        ASSERT_EQ(batch.trajectory.size(), with_inc.trajectory.size());
        for (size_t k = 0; k < batch.trajectory.size(); ++k) {
          EXPECT_EQ(batch.trajectory[k], with_inc.trajectory[k]);  // bitwise
        }
        EXPECT_EQ(with_inc.stats.evaluations, 1);
        EXPECT_GT(with_inc.stats.probes, 0);
        EXPECT_GT(with_inc.stats.commits, 0);
        EXPECT_EQ(batch.stats.probes, 0);
        EXPECT_GT(batch.stats.evaluations, with_inc.stats.evaluations);
      }
    }
  }
  // The catalogue must actually exercise the path: the fairness, claims,
  // dependency, and engine-gate workloads all ship factories.
  EXPECT_GE(covered, 10);
}

// The incremental factory mirrors the workload METRIC; algorithms that
// greedy-drive a different objective — the Monte Carlo estimators build
// their own sampling objective — must not inherit it, or they would
// silently become the exact greedy.
TEST(WorkloadIncrementalEquivalence, MonteCarloKeepsItsOwnObjective) {
  using exp::Workload;
  using exp::WorkloadRegistry;
  Workload w = WorkloadRegistry::Global().Build("adoptions_fairness");
  PlanRequest request = w.MakeRequest(0.3 * w.TotalCost());
  ASSERT_NE(request.custom_incremental, nullptr);
  request.engine.mc_samples = 16;
  request.engine.mc_inner = 8;
  Planner planner(w.registry());
  PlanResult mc = planner.Plan(request, "mc_greedy_minvar");
  // The Monte Carlo objective must actually have been evaluated: many
  // full evaluations, no incremental probes.
  EXPECT_GT(mc.stats.evaluations, 1);
  EXPECT_EQ(mc.stats.probes, 0);
  EXPECT_EQ(mc.stats.commits, 0);
}

// --- Signature-collision fallback -----------------------------------------

TEST(SignatureCollision, DegenerateHashStaysSoundThroughExactKeyFallback) {
  int calls = 0;
  SetObjective objective = [&calls](const std::vector<int>& t) {
    ++calls;
    double acc = 1.0;
    for (int i : t) acc += (i + 1) * (i + 1);
    return acc;
  };
  EvalEngine engine(objective, OptimizeDirection::kMinimize);
  engine.UseDegenerateSignatureForTest();
  // Distinct sets, all colliding on the degenerate signature.
  EXPECT_EQ(engine.Evaluate({0, 1}), 1.0 + 1.0 + 4.0);
  EXPECT_EQ(engine.Evaluate({2}), 1.0 + 9.0);
  EXPECT_EQ(engine.Evaluate({0, 3}), 1.0 + 1.0 + 16.0);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(engine.stats().evaluations, 3);
  // Re-querying must hit the memo (primary slot or exact-key fallback).
  EXPECT_EQ(engine.Evaluate({0, 1}), 6.0);
  EXPECT_EQ(engine.Evaluate({2}), 10.0);
  EXPECT_EQ(engine.Evaluate({1, 0, 0}), 6.0);  // canonicalization
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(engine.stats().cache_hits, 3);
  EXPECT_GT(engine.stats().key_bytes_hashed, 0);
}

TEST(SignatureCollision, GreedySelectsAndCountsIdenticallyUnderCollisions) {
  Family family = ModularFamily(23);
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    EvalEngine normal(family.batch, family.direction);
    EvalEngine degenerate(family.batch, family.direction);
    degenerate.UseDegenerateSignatureForTest();
    GreedyOptions options;
    options.lazy = lazy;
    Selection a = lazy ? normal.LazyGreedy(family.costs, family.budget)
                       : normal.PlainGreedy(family.costs, family.budget);
    Selection b = lazy
                      ? degenerate.LazyGreedy(family.costs, family.budget)
                      : degenerate.PlainGreedy(family.costs, family.budget);
    ExpectSameSelection(a, b, "degenerate signature");
    // The fallback must not change what is memoized, only where.
    EXPECT_EQ(normal.stats().evaluations, degenerate.stats().evaluations);
    EXPECT_EQ(normal.stats().cache_hits, degenerate.stats().cache_hits);
    EXPECT_GT(degenerate.stats().key_bytes_hashed,
              normal.stats().key_bytes_hashed);
  }
}

// --- stats_out population on early exits ----------------------------------

EngineStats SentinelStats() {
  EngineStats stats;
  for (const CounterSpec& counter : kEngineCounters) stats.*counter.field = -7;
  return stats;
}

TEST(StatsOut, PopulatedWhenNothingIsAffordable) {
  Family family = ModularFamily(5);
  for (bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "batch");
    EngineStats stats = SentinelStats();
    GreedyOptions options;
    options.stats_out = &stats;
    std::unique_ptr<IncrementalObjective> inc;
    if (incremental) {
      inc = family.make_incremental();
      options.incremental = inc.get();
    }
    Selection sel =
        AdaptiveGreedyMinimize(family.costs, /*budget=*/0.0, family.batch,
                               options);
    EXPECT_TRUE(sel.cleaned.empty());
    // The empty-candidate early break still reports: one evaluation for
    // the empty set, nothing else.
    EXPECT_EQ(stats.evaluations, 1);
    EXPECT_EQ(stats.probes, 0);
    EXPECT_EQ(stats.commits, 0);
    EXPECT_GE(stats.key_bytes_hashed, 0);
  }
}

TEST(StatsOut, PopulatedOnMaximizeNoGainEarlyBreak) {
  const int n = 6;
  std::vector<double> costs(n, 1.0);
  SetObjective constant = [](const std::vector<int>&) { return 0.25; };
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    EngineStats stats = SentinelStats();
    GreedyOptions options;
    options.lazy = lazy;
    options.stats_out = &stats;
    Selection sel =
        AdaptiveGreedyMaximize(costs, /*budget=*/100.0, constant, options);
    EXPECT_TRUE(sel.cleaned.empty());  // no candidate improves the constant
    EXPECT_EQ(stats.evaluations, n + 1);  // empty set + the first round
    EXPECT_EQ(stats.probes, 0);
    EXPECT_EQ(stats.commits, 0);
  }
}

TEST(StatsOut, ClaimsGreedyReportsOnEmptyBudget) {
  CleaningProblem problem =
      data::MakeSynthetic(data::SyntheticFamily::kUniformRandom, 31,
                          {.size = 12, .min_support = 2, .max_support = 3});
  PerturbationSet context = SlidingWindowSumPerturbations(12, 3, 0, 1.5);
  double reference = context.original.Evaluate(problem.CurrentValues());
  ClaimEvEvaluator evaluator(&problem, &context, QualityMeasure::kDuplicity,
                             reference);
  EngineStats stats = SentinelStats();
  GreedyOptions options;
  options.stats_out = &stats;
  Selection sel = evaluator.GreedyMinVar(/*budget=*/0.0, options);
  EXPECT_TRUE(sel.cleaned.empty());
  EXPECT_GT(stats.evaluations, 0);  // the initial term pass
  EXPECT_GT(stats.probes, 0);       // the initial benefit pass
  EXPECT_EQ(stats.commits, 0);
  EXPECT_EQ(stats.cache_hits, 0);  // fully assigned, no sentinel residue
  EXPECT_EQ(stats.key_bytes_hashed, 0);
}

}  // namespace
}  // namespace factcheck
