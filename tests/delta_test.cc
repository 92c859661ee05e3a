// The streaming-delta subsystem (core/delta.h): ProblemDelta validation
// (one delta, and a batch against the running shape) and Apply semantics,
// the mutation epoch + change journal
// (CleaningProblem::epoch / ChangesSince), the O(changed rows) partial
// planes rebuild, and EvalEngine's epoch downdating (BindProblem) — the
// cache-consistency contracts the replan_scaling bench gate quantifies.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta.h"
#include "core/engine.h"
#include "core/problem.h"
#include "dist/discrete.h"
#include "dist/planes.h"
#include "serve_fixtures.h"

namespace factcheck {
namespace {

UncertainObject MakeObject(const std::string& label) {
  UncertainObject object;
  object.label = label;
  object.current_value = 3.0;
  object.cost = 2.0;
  object.dist = DiscreteDistribution({2.0, 4.0}, {0.5, 0.5});
  return object;
}

// --- ValidateDelta ----------------------------------------------------------

TEST(ValidateDelta, AcceptsEveryKindInRange) {
  CleaningProblem problem = MakeProblem(4);
  std::string error;
  EXPECT_TRUE(ValidateDelta(
      problem,
      ProblemDelta::ReplaceDistribution(1, DiscreteDistribution({1}, {1})),
      &error))
      << error;
  EXPECT_TRUE(ValidateDelta(problem, ProblemDelta::AddObject(MakeObject("x")),
                            &error))
      << error;
  EXPECT_TRUE(ValidateDelta(problem, ProblemDelta::RemoveObject(3), &error))
      << error;
  EXPECT_TRUE(ValidateDelta(problem, ProblemDelta::SetCost(0, 5.0), &error));
  EXPECT_TRUE(
      ValidateDelta(problem, ProblemDelta::SetCurrentValue(2, -1.0), &error));
  EXPECT_TRUE(ValidateDelta(problem, ProblemDelta::Clean(2, 11.5), &error));
}

TEST(ValidateDelta, RejectsOutOfRangeIndices) {
  CleaningProblem problem = MakeProblem(4);
  std::string error;
  EXPECT_FALSE(ValidateDelta(problem, ProblemDelta::SetCost(4, 1.0), &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(ValidateDelta(problem, ProblemDelta::Clean(-1, 0.0), &error));
  EXPECT_FALSE(ValidateDelta(
      problem,
      ProblemDelta::ReplaceDistribution(99, DiscreteDistribution({1}, {1})),
      &error));
}

TEST(ValidateDelta, RejectsInteriorRemoval) {
  CleaningProblem problem = MakeProblem(4);
  std::string error;
  EXPECT_FALSE(ValidateDelta(problem, ProblemDelta::RemoveObject(1), &error));
  EXPECT_NE(error.find("only the last object"), std::string::npos) << error;
  EXPECT_FALSE(ValidateDelta(problem, ProblemDelta::RemoveObject(4), &error));
}

TEST(ValidateDelta, RejectsNonPositiveCosts) {
  CleaningProblem problem = MakeProblem(4);
  std::string error;
  EXPECT_FALSE(ValidateDelta(problem, ProblemDelta::SetCost(0, 0.0), &error));
  EXPECT_NE(error.find("must be > 0"), std::string::npos) << error;
  UncertainObject bad = MakeObject("bad");
  bad.cost = -1.0;
  EXPECT_FALSE(ValidateDelta(problem, ProblemDelta::AddObject(bad), &error));
}

// --- DeltaValidator: the running shape -------------------------------------

// Index of the first delta the running shape rejects, or -1 when it
// accepts the whole batch.
int FirstRejected(int objects, const std::vector<ProblemDelta>& batch,
                  std::string* error) {
  DeltaValidator shape(objects);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!shape.Accept(batch[i], error)) return static_cast<int>(i);
  }
  return -1;
}

// The validation the running shape replaces: each delta checked against a
// scratch copy of the problem that already holds its predecessors.
int FirstRejectedByScratchCopy(const CleaningProblem& problem,
                               const std::vector<ProblemDelta>& batch,
                               std::string* error) {
  CleaningProblem scratch = problem;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!ValidateDelta(scratch, batch[i], error)) return static_cast<int>(i);
    scratch.Apply(batch[i]);
  }
  return -1;
}

// Each delta is checked against the object count its predecessors leave
// behind: an added index is usable at once, a removed one is gone at once.
TEST(DeltaValidator, ChecksEachDeltaAgainstTheRunningObjectCount) {
  struct Case {
    const char* name;
    std::vector<ProblemDelta> batch;
    int rejected_at;  // -1: accepted
    const char* needle;
  };
  const Case cases[] = {
      {"add then use",
       {ProblemDelta::AddObject(MakeObject("x")), ProblemDelta::SetCost(4, 3.0)},
       -1, ""},
      {"add then remove the added tail",
       {ProblemDelta::AddObject(MakeObject("x")), ProblemDelta::RemoveObject(4)},
       -1, ""},
      {"remove twice",
       {ProblemDelta::RemoveObject(3), ProblemDelta::RemoveObject(2)}, -1, ""},
      {"remove then use",
       {ProblemDelta::RemoveObject(3), ProblemDelta::SetCost(3, 3.0)}, 1,
       "out of range (problem has 3 objects)"},
      {"remove the old tail twice",
       {ProblemDelta::RemoveObject(3), ProblemDelta::RemoveObject(3)}, 1,
       "only the last object (index 2)"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(FirstRejected(4, c.batch, &error), c.rejected_at)
        << c.name << ": " << error;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.name << ": " << error;
  }
}

TEST(DeltaValidator, ARejectLeavesTheShapeAsItWas) {
  std::string error;
  DeltaValidator shape(2);
  EXPECT_FALSE(shape.Accept(ProblemDelta::RemoveObject(0), &error));
  UncertainObject bad = MakeObject("bad");
  bad.cost = 0.0;
  EXPECT_FALSE(shape.Accept(ProblemDelta::AddObject(bad), &error));
  // Still two objects: the tail is 1, and two removals empty it.
  EXPECT_TRUE(shape.Accept(ProblemDelta::RemoveObject(1), &error)) << error;
  EXPECT_TRUE(shape.Accept(ProblemDelta::RemoveObject(0), &error)) << error;
  EXPECT_FALSE(shape.Accept(ProblemDelta::RemoveObject(0), &error));
  EXPECT_NE(error.find("problem is empty"), std::string::npos) << error;
}

// All or nothing: a batch whose LAST delta is rejected applies nothing, so
// the problem keeps its epoch and serializes to the same snapshot bytes.
TEST(DeltaValidator, ABatchRejectedAtItsLastDeltaLeavesTheProblemUntouched) {
  CleaningProblem problem = MakeProblem(4);
  const std::vector<int> refs = {0, 1};
  const std::vector<double> coeffs = {1.0, 1.0};
  const std::string before = serve::EncodeSnapshot(problem, refs, coeffs, 0);
  const std::vector<ProblemDelta> batch = {
      ProblemDelta::SetCost(0, 9.0),
      ProblemDelta::AddObject(MakeObject("x")),
      ProblemDelta::Clean(1, 10.0),
      ProblemDelta::SetCost(5, 1.0),  // one past the new tail
  };
  std::string error;
  const int rejected = FirstRejected(problem.size(), batch, &error);
  EXPECT_EQ(rejected, 3);
  if (rejected == -1) {
    for (const ProblemDelta& delta : batch) problem.Apply(delta);
  }
  EXPECT_EQ(problem.epoch(), 0u);
  EXPECT_EQ(serve::EncodeSnapshot(problem, refs, coeffs, 0), before);
}

// The running shape accepts and rejects exactly what validation against a
// scratch copy did, at the same index and with the same diagnostic, on
// every batch of up to three deltas drawn from an alphabet that covers
// each kind, each index around the shrinking and growing tail, and each
// payload defect.
TEST(DeltaValidator, MatchesScratchCopyValidationOnEveryShortBatch) {
  UncertainObject bad_cost = MakeObject("bad");
  bad_cost.cost = -1.0;
  std::vector<ProblemDelta> alphabet = {
      ProblemDelta::AddObject(MakeObject("x")),
      ProblemDelta::AddObject(bad_cost),
      ProblemDelta::SetCost(0, 0.0),
  };
  for (int i = -1; i <= 4; ++i) {
    alphabet.push_back(ProblemDelta::RemoveObject(i));
    alphabet.push_back(ProblemDelta::SetCost(i, 2.0));
    alphabet.push_back(ProblemDelta::Clean(i, 1.0));
  }
  const CleaningProblem problem = MakeProblem(2);
  const int k = static_cast<int>(alphabet.size());
  int batches = 0;
  int accepted = 0;
  for (int length = 1; length <= 3; ++length) {
    int count = 1;
    for (int j = 0; j < length; ++j) count *= k;
    for (int code = 0; code < count; ++code) {
      std::vector<ProblemDelta> batch;
      for (int j = 0, c = code; j < length; ++j, c /= k) {
        batch.push_back(alphabet[c % k]);
      }
      std::string error, oracle_error;
      const int got = FirstRejected(problem.size(), batch, &error);
      const int want =
          FirstRejectedByScratchCopy(problem, batch, &oracle_error);
      ASSERT_EQ(got, want) << "batch " << length << ":" << code;
      ASSERT_EQ(error, oracle_error) << "batch " << length << ":" << code;
      ++batches;
      accepted += got == -1 ? 1 : 0;
    }
  }
  // The enumeration reaches both outcomes, not just rejects.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(batches - accepted, 100);
}

// --- Apply ------------------------------------------------------------------

TEST(ProblemApply, EachKindMutatesWhatItNames) {
  CleaningProblem problem = MakeProblem(4);

  problem.Apply(ProblemDelta::SetCost(1, 7.5));
  EXPECT_EQ(problem.object(1).cost, 7.5);

  problem.Apply(ProblemDelta::SetCurrentValue(2, 42.0));
  EXPECT_EQ(problem.object(2).current_value, 42.0);

  DiscreteDistribution swapped({1.0, 2.0, 3.0}, {0.2, 0.3, 0.5});
  problem.Apply(ProblemDelta::ReplaceDistribution(0, swapped));
  EXPECT_EQ(problem.object(0).dist.support_size(), 3);
  EXPECT_EQ(problem.object(0).dist.value(2), 3.0);

  problem.Apply(ProblemDelta::Clean(3, 13.25));
  EXPECT_EQ(problem.object(3).current_value, 13.25);
  EXPECT_EQ(problem.object(3).dist.support_size(), 1);
  EXPECT_EQ(problem.object(3).dist.value(0), 13.25);

  problem.Apply(ProblemDelta::AddObject(MakeObject("tail")));
  ASSERT_EQ(problem.size(), 5);
  EXPECT_EQ(problem.object(4).label, "tail");

  problem.Apply(ProblemDelta::RemoveObject(4));
  EXPECT_EQ(problem.size(), 4);
}

TEST(ProblemApply, EveryMutationAdvancesTheEpochByOne) {
  CleaningProblem problem = MakeProblem(3);
  EXPECT_EQ(problem.epoch(), 0u);
  problem.Apply(ProblemDelta::SetCost(0, 2.0));
  EXPECT_EQ(problem.epoch(), 1u);
  problem.Clean(1, 5.0);
  EXPECT_EQ(problem.epoch(), 2u);
  problem.ReplaceDistribution(2, DiscreteDistribution({1}, {1}));
  EXPECT_EQ(problem.epoch(), 3u);
  problem.set_current_value(0, 9.0);
  EXPECT_EQ(problem.epoch(), 4u);
}

// --- ChangesSince -----------------------------------------------------------

TEST(ChangesSince, CurrentEpochYieldsAnEmptySummary) {
  CleaningProblem problem = MakeProblem(3);
  CleaningProblem::ProblemChanges changes;
  ASSERT_TRUE(problem.ChangesSince(problem.epoch(), &changes));
  EXPECT_TRUE(changes.dist_changed.empty());
  EXPECT_FALSE(changes.values_changed);
  EXPECT_FALSE(changes.costs_changed);
  EXPECT_FALSE(changes.structure_changed);
}

TEST(ChangesSince, UnionsTheInterveningMutations) {
  CleaningProblem problem = MakeProblem(5);
  std::uint64_t stamp = problem.epoch();
  // Out-of-order dist changes, one duplicated, plus a cost change.
  problem.Apply(ProblemDelta::ReplaceDistribution(
      3, DiscreteDistribution({1, 2}, {0.5, 0.5})));
  problem.Apply(ProblemDelta::ReplaceDistribution(
      1, DiscreteDistribution({3, 4}, {0.5, 0.5})));
  problem.Apply(ProblemDelta::ReplaceDistribution(
      3, DiscreteDistribution({5, 6}, {0.5, 0.5})));
  problem.Apply(ProblemDelta::SetCost(0, 3.0));

  CleaningProblem::ProblemChanges changes;
  ASSERT_TRUE(problem.ChangesSince(stamp, &changes));
  EXPECT_EQ(changes.dist_changed, (std::vector<int>{1, 3}));  // sorted, unique
  EXPECT_TRUE(changes.costs_changed);
  EXPECT_FALSE(changes.values_changed);
  EXPECT_FALSE(changes.structure_changed);

  // Clean touches both the distribution and the current value.
  stamp = problem.epoch();
  problem.Apply(ProblemDelta::Clean(2, 12.0));
  ASSERT_TRUE(problem.ChangesSince(stamp, &changes));
  EXPECT_EQ(changes.dist_changed, (std::vector<int>{2}));
  EXPECT_TRUE(changes.values_changed);

  // Structural change.
  stamp = problem.epoch();
  problem.Apply(ProblemDelta::AddObject(MakeObject("tail")));
  ASSERT_TRUE(problem.ChangesSince(stamp, &changes));
  EXPECT_TRUE(changes.structure_changed);
}

TEST(ChangesSince, CopiesInheritTheJournal) {
  CleaningProblem problem = MakeProblem(3);
  std::uint64_t stamp = problem.epoch();
  problem.Apply(ProblemDelta::SetCost(1, 4.0));
  CleaningProblem copy(problem);
  EXPECT_EQ(copy.epoch(), problem.epoch());
  CleaningProblem::ProblemChanges changes;
  ASSERT_TRUE(copy.ChangesSince(stamp, &changes));
  EXPECT_TRUE(changes.costs_changed);
}

TEST(ChangesSince, AssignmentForcesAFullRebuild) {
  CleaningProblem problem = MakeProblem(3);
  CleaningProblem other = MakeProblem(4);
  std::uint64_t stamp = problem.epoch();
  problem = other;  // whole-instance replacement
  EXPECT_GT(problem.epoch(), stamp);
  CleaningProblem::ProblemChanges changes;
  EXPECT_FALSE(problem.ChangesSince(stamp, &changes));
  // But the post-assignment epoch is a valid stamp again.
  EXPECT_TRUE(problem.ChangesSince(problem.epoch(), &changes));
}

TEST(ChangesSince, JournalOverrunForcesAFullRebuild) {
  CleaningProblem problem = MakeProblem(3);
  std::uint64_t old_stamp = problem.epoch();
  for (int i = 0; i < 300; ++i) {  // > kJournalCapacity (256)
    problem.Apply(ProblemDelta::SetCost(i % 3, 1.0 + i));
  }
  CleaningProblem::ProblemChanges changes;
  EXPECT_FALSE(problem.ChangesSince(old_stamp, &changes));
  // A recent stamp is still covered.
  EXPECT_TRUE(problem.ChangesSince(problem.epoch() - 10, &changes));
  EXPECT_TRUE(changes.costs_changed);
}

// --- Partial planes rebuild -------------------------------------------------

TEST(PlanesDowndate, OneDistDeltaRepacksOneRow) {
  CleaningProblem problem = MakeProblem(5);
  std::shared_ptr<const DistPlanes> before = problem.planes_ptr();
  EXPECT_EQ(problem.plane_rows_rebuilt(), 5);  // lazy first build: all rows

  problem.Apply(ProblemDelta::ReplaceDistribution(
      2, DiscreteDistribution({1.0, 9.0}, {0.25, 0.75})));
  std::shared_ptr<const DistPlanes> after = problem.planes_ptr();
  EXPECT_NE(after, before);
  EXPECT_EQ(problem.plane_rows_rebuilt(), 6);  // +1, not +5
  EXPECT_EQ(after->rows_rebuilt(), 1);

  // The repacked row carries the new atoms; untouched rows are bit-equal.
  EXPECT_EQ(after->support_size(2), 2);
  EXPECT_EQ(after->values(2)[1], 9.0);
  EXPECT_EQ(after->probs(2)[1], 0.75);
  for (int i : {0, 1, 3, 4}) {
    ASSERT_EQ(after->support_size(i), before->support_size(i));
    for (int a = 0; a < after->support_size(i); ++a) {
      EXPECT_EQ(after->values(i)[a], before->values(i)[a]);
      EXPECT_EQ(after->probs(i)[a], before->probs(i)[a]);
    }
  }
}

TEST(PlanesDowndate, BatchedDeltasRepackOnlyTheTouchedRows) {
  CleaningProblem problem = MakeProblem(6);
  problem.planes();  // force the lazy full build (6 rows)
  problem.Apply(ProblemDelta::Clean(1, 10.0));
  problem.Apply(ProblemDelta::ReplaceDistribution(
      4, DiscreteDistribution({2.0}, {1.0})));
  problem.Apply(ProblemDelta::Clean(1, 11.0));  // same row twice: one repack
  const DistPlanes& planes = problem.planes();
  EXPECT_EQ(planes.rows_rebuilt(), 2);
  EXPECT_EQ(problem.plane_rows_rebuilt(), 8);  // 6 (full) + 2 (partial)
  EXPECT_TRUE(planes.is_point_mass(1));
  EXPECT_TRUE(planes.is_point_mass(4));
}

TEST(PlanesDowndate, StructuralDeltaRebuildsFully) {
  CleaningProblem problem = MakeProblem(4);
  problem.planes();  // 4 rows
  problem.Apply(ProblemDelta::AddObject(MakeObject("tail")));
  const DistPlanes& planes = problem.planes();
  EXPECT_EQ(planes.num_objects(), 5);
  EXPECT_EQ(planes.rows_rebuilt(), 5);
  EXPECT_EQ(problem.plane_rows_rebuilt(), 9);
}

// --- EvalEngine epoch downdating -------------------------------------------

// A problem-reading objective whose full evaluations are observable: the
// value of T is the sum of dist means of T's members (so a stale memo
// entry would be numerically wrong after a ReplaceDistribution).
struct CountingObjective {
  const CleaningProblem* problem;
  int* calls;
  double operator()(const std::vector<int>& cleaned) const {
    ++*calls;
    double value = 0.0;
    for (int i : cleaned) value += problem->object(i).dist.Mean();
    return value;
  }
};

TEST(EngineDowndate, CleanedSubsetPolicyEvictsOnlyIntersectingSets) {
  CleaningProblem problem = MakeProblem(4);
  int calls = 0;
  EvalEngine engine(CountingObjective{&problem, &calls},
                    OptimizeDirection::kMinimize);
  engine.BindProblem(&problem, CacheDependency::kCleanedSubset);

  engine.Evaluate({0});
  engine.Evaluate({1});
  engine.Evaluate({0, 1});
  EXPECT_EQ(calls, 3);

  problem.Apply(ProblemDelta::ReplaceDistribution(
      0, DiscreteDistribution({100.0}, {1.0})));

  // {1} does not intersect the change: served from the surviving memo.
  std::int64_t hits = engine.stats().cache_hits;
  engine.Evaluate({1});
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(engine.stats().cache_hits, hits + 1);

  // {0} and {0,1} were evicted and recompute against the new state.
  EXPECT_EQ(engine.Evaluate({0}), 100.0);
  EXPECT_EQ(engine.Evaluate({0, 1}),
            100.0 + problem.object(1).dist.Mean());
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(engine.stats().cache_evictions, 2);
}

TEST(EngineDowndate, AllObjectsPolicyFlushesOnAnyDistChange) {
  CleaningProblem problem = MakeProblem(4);
  int calls = 0;
  EvalEngine engine(CountingObjective{&problem, &calls},
                    OptimizeDirection::kMinimize);
  engine.BindProblem(&problem, CacheDependency::kAllObjects);

  engine.Evaluate({0});
  engine.Evaluate({1});
  engine.Evaluate({2});
  EXPECT_EQ(calls, 3);

  problem.Apply(ProblemDelta::ReplaceDistribution(
      3, DiscreteDistribution({1.0}, {1.0})));
  engine.Evaluate({0});  // under kAllObjects even disjoint sets recompute
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(engine.stats().cache_evictions, 3);
}

TEST(EngineDowndate, CostOnlyChangesEvictNothing) {
  CleaningProblem problem = MakeProblem(4);
  int calls = 0;
  EvalEngine engine(CountingObjective{&problem, &calls},
                    OptimizeDirection::kMinimize);
  engine.BindProblem(&problem, CacheDependency::kAllObjects);
  engine.Evaluate({0, 1});
  problem.Apply(ProblemDelta::SetCost(0, 9.0));
  engine.Evaluate({0, 1});  // objective values never read costs
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(engine.stats().cache_evictions, 0);
}

TEST(EngineDowndate, ValueAndStructuralChangesFlushEverything) {
  CleaningProblem problem = MakeProblem(4);
  int calls = 0;
  EvalEngine engine(CountingObjective{&problem, &calls},
                    OptimizeDirection::kMinimize);
  engine.BindProblem(&problem, CacheDependency::kCleanedSubset);
  engine.Evaluate({0});
  engine.Evaluate({1});

  problem.Apply(ProblemDelta::SetCurrentValue(3, 0.0));
  engine.Evaluate({0});
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(engine.stats().cache_evictions, 2);

  engine.Evaluate({1});  // re-warm
  problem.Apply(ProblemDelta::AddObject(MakeObject("tail")));
  engine.Evaluate({1});
  EXPECT_EQ(calls, 5);
}

TEST(EngineDowndate, JournalOverrunFallsBackToAFullFlush) {
  CleaningProblem problem = MakeProblem(3);
  int calls = 0;
  EvalEngine engine(CountingObjective{&problem, &calls},
                    OptimizeDirection::kMinimize);
  engine.BindProblem(&problem, CacheDependency::kCleanedSubset);
  engine.Evaluate({1});
  // Push the journal past its capacity with cost-only changes; the engine
  // can no longer prove {1} untouched and must flush.
  for (int i = 0; i < 300; ++i) {
    problem.Apply(ProblemDelta::SetCost(0, 1.0 + i));
  }
  engine.Evaluate({1});
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(engine.stats().cache_evictions, 1);
}

TEST(EngineDowndate, UnboundEnginesNeverSync) {
  CleaningProblem problem = MakeProblem(3);
  int calls = 0;
  EvalEngine engine(CountingObjective{&problem, &calls},
                    OptimizeDirection::kMinimize);
  engine.Evaluate({0});
  problem.Apply(ProblemDelta::ReplaceDistribution(
      0, DiscreteDistribution({5.0}, {1.0})));
  engine.Evaluate({0});  // stale by design: unbound engines skip the check
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(engine.stats().cache_evictions, 0);
}

}  // namespace
}  // namespace factcheck
