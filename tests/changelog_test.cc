// The durable-update half of the streaming-delta subsystem
// (serve/changelog.h): delta <-> JSON codec, snapshot codec, the
// fail-closed all-or-nothing replay, and the filesystem store with its
// snapshot-compaction behaviour.  Carries the `stress` label so the
// sanitizer legs replay the corruption cases under ASan/UBSan and TSan.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/delta.h"
#include "core/problem.h"
#include "data/problem_io.h"
#include "serve/changelog.h"
#include "serve/json_value.h"
#include "serve_fixtures.h"
#include "util/json.h"

namespace factcheck {
namespace serve {
namespace {

ProblemDelta RoundTrip(const ProblemDelta& delta) {
  std::string text = DeltaJson(delta);
  std::string error;
  std::optional<JsonValue> json = JsonValue::Parse(text, &error);
  EXPECT_TRUE(json.has_value()) << error << " in " << text;
  ProblemDelta out;
  EXPECT_TRUE(DeltaFromJson(*json, &out, &error)) << error << " in " << text;
  return out;
}

// A scratch directory per test, removed on scope exit.
struct TempDir {
  explicit TempDir(const char* tag)
      : path("/tmp/fc_changelog_" + std::string(tag) + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// --- Delta <-> JSON ---------------------------------------------------------

TEST(DeltaJson, EveryKindRoundTrips) {
  ProblemDelta replace = RoundTrip(ProblemDelta::ReplaceDistribution(
      3, DiscreteDistribution({1.5, 2.25}, {0.375, 0.625})));
  EXPECT_EQ(replace.kind, DeltaKind::kReplaceDistribution);
  EXPECT_EQ(replace.object, 3);
  ASSERT_EQ(replace.dist.support_size(), 2);
  EXPECT_EQ(replace.dist.value(1), 2.25);   // bit-exact through the codec
  EXPECT_EQ(replace.dist.prob(0), 0.375);

  UncertainObject object;
  object.label = "added \"x\", y";  // exercises JSON string escaping
  object.current_value = -4.5;
  object.cost = 2.0;
  object.dist = DiscreteDistribution({3.0, 5.0}, {0.25, 0.75});
  ProblemDelta add = RoundTrip(ProblemDelta::AddObject(object));
  EXPECT_EQ(add.kind, DeltaKind::kAddObject);
  EXPECT_EQ(add.added.label, object.label);
  EXPECT_EQ(add.added.current_value, -4.5);
  EXPECT_EQ(add.added.cost, 2.0);
  ASSERT_EQ(add.added.dist.support_size(), 2);
  EXPECT_EQ(add.added.dist.value(0), 3.0);

  ProblemDelta remove = RoundTrip(ProblemDelta::RemoveObject(7));
  EXPECT_EQ(remove.kind, DeltaKind::kRemoveObject);
  EXPECT_EQ(remove.object, 7);

  ProblemDelta cost = RoundTrip(ProblemDelta::SetCost(2, 1.5));
  EXPECT_EQ(cost.kind, DeltaKind::kSetCost);
  EXPECT_EQ(cost.object, 2);
  EXPECT_EQ(cost.value, 1.5);

  ProblemDelta value = RoundTrip(ProblemDelta::SetCurrentValue(0, 9.0));
  EXPECT_EQ(value.kind, DeltaKind::kSetCurrentValue);
  EXPECT_EQ(value.value, 9.0);

  ProblemDelta clean = RoundTrip(ProblemDelta::Clean(4, 3.125));
  EXPECT_EQ(clean.kind, DeltaKind::kClean);
  EXPECT_EQ(clean.object, 4);
  EXPECT_EQ(clean.value, 3.125);
}

TEST(DeltaJson, RejectsMalformedInputWithoutAborting) {
  const char* cases[] = {
      "[]",                                       // not an object
      "{\"object\":1}",                           // no kind
      "{\"kind\":\"bogus\",\"object\":1}",        // unknown kind
      "{\"kind\":\"set_cost\",\"object\":1}",     // missing cost
      "{\"kind\":\"set_cost\",\"cost\":1}",       // missing object
      "{\"kind\":\"set_cost\",\"object\":-1,\"cost\":1}",   // negative index
      "{\"kind\":\"set_cost\",\"object\":1.5,\"cost\":1}",  // fractional
      "{\"kind\":\"clean\",\"object\":0}",        // missing value
      "{\"kind\":\"remove_object\"}",             // missing object
      // Distribution payload defects: fail closed here, never reach the
      // aborting DiscreteDistribution constructor.
      "{\"kind\":\"replace_dist\",\"object\":0,\"support\":[],\"probs\":[]}",
      "{\"kind\":\"replace_dist\",\"object\":0,"
      "\"support\":[1,2],\"probs\":[1]}",          // length mismatch
      "{\"kind\":\"replace_dist\",\"object\":0,"
      "\"support\":[1,2],\"probs\":[-0.5,1.5]}",   // negative probability
      "{\"kind\":\"replace_dist\",\"object\":0,"
      "\"support\":[1,2],\"probs\":[0,0]}",        // zero total mass
      "{\"kind\":\"replace_dist\",\"object\":0,"
      "\"support\":[1,\"x\"],\"probs\":[0.5,0.5]}",  // non-number atom
      "{\"kind\":\"add_object\",\"label\":\"x\",\"current\":1,\"cost\":1,"
      "\"support\":[1],\"probs\":[0]}",            // added dist, zero mass
  };
  for (const char* text : cases) {
    std::optional<JsonValue> json = JsonValue::Parse(text);
    ASSERT_TRUE(json.has_value()) << text;
    ProblemDelta delta;
    std::string error;
    EXPECT_FALSE(DeltaFromJson(*json, &delta, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// --- Snapshot codec ---------------------------------------------------------

TEST(SnapshotCodec, RoundTripsProblemQueryAndSeq) {
  CleaningProblem problem = MakeShiftedProblem(4);
  std::vector<int> refs = {0, 2, 3};
  std::vector<double> coeffs = {1.0, -0.5, 2.0};
  std::string text = EncodeSnapshot(problem, refs, coeffs, 17);
  EXPECT_EQ(text.find('\n'), std::string::npos)
      << "snapshots must encode the CSV's newlines, not contain them";

  std::int64_t seq = 0;
  std::string csv, error;
  std::vector<int> out_refs;
  std::vector<double> out_coeffs;
  ASSERT_TRUE(DecodeSnapshot(text, &seq, &csv, &out_refs, &out_coeffs, &error))
      << error;
  EXPECT_EQ(seq, 17);
  EXPECT_EQ(out_refs, refs);
  EXPECT_EQ(out_coeffs, coeffs);
  std::optional<CleaningProblem> restored = data::ProblemFromCsv(csv, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(data::ProblemToCsv(*restored), data::ProblemToCsv(problem));
}

TEST(SnapshotCodec, RejectsMalformedDocuments) {
  const char* cases[] = {
      "not json",
      "[]",
      "{\"refs\":[],\"coeffs\":[],\"csv\":\"x\"}",            // no seq
      "{\"seq\":-1,\"refs\":[],\"coeffs\":[],\"csv\":\"x\"}",  // bad seq
      "{\"seq\":1,\"coeffs\":[],\"csv\":\"x\"}",               // no refs
      "{\"seq\":1,\"refs\":[0.5],\"coeffs\":[1],\"csv\":\"x\"}",
      "{\"seq\":1,\"refs\":[0],\"coeffs\":[1]}",               // no csv
  };
  for (const char* text : cases) {
    std::int64_t seq;
    std::string csv, error;
    std::vector<int> refs;
    std::vector<double> coeffs;
    EXPECT_FALSE(DecodeSnapshot(text, &seq, &csv, &refs, &coeffs, &error))
        << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// --- Replay -----------------------------------------------------------------

std::vector<ProblemDelta> SampleDeltas() {
  return {
      ProblemDelta::SetCost(1, 3.5),
      ProblemDelta::ReplaceDistribution(
          0, DiscreteDistribution({1.0, 2.0}, {0.5, 0.5})),
      ProblemDelta::Clean(3, 12.5),
  };
}

std::string LogText(const std::vector<ProblemDelta>& deltas,
                    std::int64_t first_seq) {
  std::string log;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    log += EncodeLogRecord(first_seq + static_cast<std::int64_t>(i),
                           deltas[i]);
    log += "\n";
  }
  return log;
}

TEST(Replay, AppliesRecordsInOrder) {
  CleaningProblem problem = MakeShiftedProblem();
  CleaningProblem oracle = problem;
  for (const ProblemDelta& delta : SampleDeltas()) oracle.Apply(delta);

  std::int64_t last_seq = 0;
  std::string error;
  ASSERT_TRUE(ReplayChangelog(LogText(SampleDeltas(), 1), 0, &problem,
                              &last_seq, &error))
      << error;
  EXPECT_EQ(last_seq, 3);
  EXPECT_EQ(data::ProblemToCsv(problem), data::ProblemToCsv(oracle));
}

TEST(Replay, EmptyLogIsANoOp) {
  CleaningProblem problem = MakeShiftedProblem();
  std::int64_t last_seq = -1;
  std::string error;
  ASSERT_TRUE(ReplayChangelog("", 5, &problem, &last_seq, &error)) << error;
  EXPECT_EQ(last_seq, 5);
  EXPECT_EQ(problem.epoch(), 0u);
}

TEST(Replay, SkipsRecordsAtOrBelowTheSnapshotSeq) {
  // The compaction crash window: a snapshot at seq 2 with the old records
  // still in the log.  Only seq 3 may apply.
  CleaningProblem problem = MakeShiftedProblem();
  CleaningProblem oracle = problem;
  oracle.Apply(SampleDeltas()[2]);

  std::int64_t last_seq = 0;
  std::string error;
  ASSERT_TRUE(ReplayChangelog(LogText(SampleDeltas(), 1), 2, &problem,
                              &last_seq, &error))
      << error;
  EXPECT_EQ(last_seq, 3);
  EXPECT_EQ(data::ProblemToCsv(problem), data::ProblemToCsv(oracle));
}

TEST(Replay, FailsClosedAndLeavesTheProblemUntouched) {
  const std::string good = LogText(SampleDeltas(), 1);
  struct Case {
    const char* name;
    std::string log;
  };
  std::vector<Case> cases;
  // Torn final line: crash mid-append left no trailing newline.
  cases.push_back({"torn final line", good.substr(0, good.size() - 5)});
  // A line that is not valid JSON.
  cases.push_back({"malformed line", good + "{half\n"});
  // Duplicated sequence number.
  cases.push_back(
      {"duplicate seq",
       good + EncodeLogRecord(3, ProblemDelta::SetCost(0, 2.0)) + "\n"});
  // Out-of-order sequence number.
  cases.push_back(
      {"out of order",
       good + EncodeLogRecord(2, ProblemDelta::SetCost(0, 2.0)) + "\n"});
  // Gap in the applied portion.
  cases.push_back(
      {"gap", good + EncodeLogRecord(9, ProblemDelta::SetCost(0, 2.0)) + "\n"});
  // A structurally invalid delta (object out of range for the problem).
  cases.push_back(
      {"invalid delta",
       good + EncodeLogRecord(4, ProblemDelta::SetCost(99, 2.0)) + "\n"});
  // Interior removal (index renumbering hazard).
  cases.push_back(
      {"interior removal",
       good + EncodeLogRecord(4, ProblemDelta::RemoveObject(0)) + "\n"});

  for (const Case& c : cases) {
    CleaningProblem problem = MakeShiftedProblem();
    const std::string before = data::ProblemToCsv(problem);
    std::int64_t last_seq = 0;
    std::string error;
    EXPECT_FALSE(
        ReplayChangelog(c.log, 0, &problem, &last_seq, &error))
        << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
    // All-or-nothing: even the valid prefix was not applied.
    EXPECT_EQ(data::ProblemToCsv(problem), before) << c.name;
    EXPECT_EQ(problem.epoch(), 0u) << c.name;
  }
}

// Records are validated against the object count the records before them
// leave behind, exactly as the live problem would see them.
TEST(Replay, AnAddedIndexIsUsableByLaterRecords) {
  CleaningProblem problem = MakeShiftedProblem(5);
  UncertainObject added;
  added.label = "x";
  added.current_value = 4.0;
  added.cost = 2.0;
  added.dist = DiscreteDistribution({3.0, 5.0}, {0.25, 0.75});
  const std::vector<ProblemDelta> deltas = {ProblemDelta::AddObject(added),
                                            ProblemDelta::SetCost(5, 7.0)};
  CleaningProblem oracle = problem;
  for (const ProblemDelta& delta : deltas) oracle.Apply(delta);

  std::int64_t last_seq = 0;
  std::string error;
  ASSERT_TRUE(
      ReplayChangelog(LogText(deltas, 1), 0, &problem, &last_seq, &error))
      << error;
  EXPECT_EQ(last_seq, 2);
  ASSERT_EQ(problem.size(), 6);
  EXPECT_EQ(problem.object(5).cost, 7.0);
  EXPECT_EQ(data::ProblemToCsv(problem), data::ProblemToCsv(oracle));
}

TEST(Replay, ARemovedIndexFailsClosed) {
  CleaningProblem problem = MakeShiftedProblem(5);
  const std::string before = data::ProblemToCsv(problem);
  const std::vector<ProblemDelta> deltas = {ProblemDelta::RemoveObject(4),
                                            ProblemDelta::SetCost(4, 7.0)};
  std::int64_t last_seq = 0;
  std::string error;
  EXPECT_FALSE(
      ReplayChangelog(LogText(deltas, 1), 0, &problem, &last_seq, &error));
  EXPECT_NE(error.find("changelog line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_EQ(data::ProblemToCsv(problem), before);
  EXPECT_EQ(problem.epoch(), 0u);
}

// Sequence numbers are doubles on the wire: anything past 2^53 (where a
// cast to int64 is undefined once past its range) is rejected by value,
// and 2^53 itself still replays.
TEST(Replay, SeqBeyondTwoToThe53IsRejected) {
  const std::string delta =
      ",\"delta\":{\"kind\":\"set_cost\",\"object\":1,\"cost\":3.5}}\n";
  for (const char* seq : {"1e300", "9007199254740994", "-1e300"}) {
    CleaningProblem problem = MakeShiftedProblem();
    std::int64_t last_seq = 0;
    std::string error;
    EXPECT_FALSE(ReplayChangelog(std::string("{\"seq\":") + seq + delta, 0,
                                 &problem, &last_seq, &error))
        << seq;
    EXPECT_NE(error.find("must be an integer in [1, 2^53]"),
              std::string::npos)
        << seq << ": " << error;
    EXPECT_EQ(problem.epoch(), 0u) << seq;
  }
  CleaningProblem problem = MakeShiftedProblem();
  std::int64_t last_seq = 0;
  std::string error;
  ASSERT_TRUE(ReplayChangelog("{\"seq\":9007199254740992" + delta,
                              kMaxExactInteger - 1, &problem, &last_seq,
                              &error))
      << error;
  EXPECT_EQ(last_seq, kMaxExactInteger);
}

TEST(SnapshotCodec, SeqBeyondTwoToThe53IsRejected) {
  const std::string rest =
      ",\"refs\":[0],\"coeffs\":[1],\"csv\":\"x\"}";
  for (const char* seq : {"1e300", "9007199254740994"}) {
    std::int64_t out = 0;
    std::string csv, error;
    std::vector<int> refs;
    std::vector<double> coeffs;
    EXPECT_FALSE(DecodeSnapshot(std::string("{\"seq\":") + seq + rest, &out,
                                &csv, &refs, &coeffs, &error))
        << seq;
    EXPECT_NE(error.find("must be an integer in [0, 2^53]"),
              std::string::npos)
        << seq << ": " << error;
  }
  std::int64_t out = 0;
  std::string csv, error;
  std::vector<int> refs;
  std::vector<double> coeffs;
  ASSERT_TRUE(DecodeSnapshot("{\"seq\":9007199254740992" + rest, &out, &csv,
                             &refs, &coeffs, &error))
      << error;
  EXPECT_EQ(out, kMaxExactInteger);
}

// --- ChangelogStore ---------------------------------------------------------

TEST(ChangelogStore, ValidNameRestrictsFileStems) {
  EXPECT_TRUE(ChangelogStore::ValidName("p"));
  EXPECT_TRUE(ChangelogStore::ValidName("prob_1.v2-final"));
  EXPECT_FALSE(ChangelogStore::ValidName(""));
  EXPECT_FALSE(ChangelogStore::ValidName(".hidden"));
  EXPECT_FALSE(ChangelogStore::ValidName("a/b"));
  EXPECT_FALSE(ChangelogStore::ValidName("a b"));
  EXPECT_FALSE(ChangelogStore::ValidName("..\\up"));
  EXPECT_FALSE(ChangelogStore::ValidName(std::string(201, 'a')));
}

TEST(ChangelogStore, SaveAppendLoadRoundTrips) {
  TempDir dir("roundtrip");
  ChangelogStore store(dir.path);
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;

  CleaningProblem problem = MakeShiftedProblem(3);
  const std::string snap_b = EncodeSnapshot(problem, {0, 1}, {1.0, 1.0}, 0);
  const std::string snap_a = EncodeSnapshot(problem, {2}, {2.0}, 4);
  ASSERT_TRUE(store.SaveSnapshot("beta", snap_b, &error)) << error;
  ASSERT_TRUE(store.SaveSnapshot("alpha", snap_a, &error)) << error;
  const std::string rec1 = EncodeLogRecord(1, ProblemDelta::SetCost(0, 2.0));
  const std::string rec2 = EncodeLogRecord(2, ProblemDelta::Clean(1, 5.0));
  ASSERT_TRUE(store.AppendRecord("beta", rec1, &error)) << error;
  ASSERT_TRUE(store.AppendRecord("beta", rec2, &error)) << error;

  std::vector<ChangelogStore::LoadedProblem> loaded;
  ASSERT_TRUE(store.LoadAll(&loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "alpha");  // deterministic name order
  EXPECT_EQ(loaded[1].name, "beta");
  // SaveSnapshot writes the document plus a trailing newline; Parse skips
  // trailing whitespace, so decoders never see the difference.
  EXPECT_EQ(loaded[0].snapshot, snap_a + "\n");
  EXPECT_EQ(loaded[0].log, "");
  EXPECT_EQ(loaded[1].snapshot, snap_b + "\n");
  EXPECT_EQ(loaded[1].log, rec1 + "\n" + rec2 + "\n");
}

TEST(ChangelogStore, CompactionTruncatesTheLog) {
  TempDir dir("compact");
  ChangelogStore store(dir.path);
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  CleaningProblem problem = MakeShiftedProblem(3);
  ASSERT_TRUE(store.SaveSnapshot(
      "p", EncodeSnapshot(problem, {}, {}, 0), &error))
      << error;
  ASSERT_TRUE(store.AppendRecord(
      "p", EncodeLogRecord(1, ProblemDelta::SetCost(0, 2.0)), &error));

  // Compaction: a fresh snapshot at the log head replaces the log.
  problem.Apply(ProblemDelta::SetCost(0, 2.0));
  ASSERT_TRUE(store.SaveSnapshot(
      "p", EncodeSnapshot(problem, {}, {}, 1), &error))
      << error;
  std::vector<ChangelogStore::LoadedProblem> loaded;
  ASSERT_TRUE(store.LoadAll(&loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].log, "");
  std::int64_t seq;
  std::string csv;
  std::vector<int> refs;
  std::vector<double> coeffs;
  ASSERT_TRUE(
      DecodeSnapshot(loaded[0].snapshot, &seq, &csv, &refs, &coeffs, &error));
  EXPECT_EQ(seq, 1);
}

TEST(ChangelogStore, OrphanedLogIsAnError) {
  TempDir dir("orphan");
  ChangelogStore store(dir.path);
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  {
    std::ofstream out(dir.path + "/ghost.log");
    out << EncodeLogRecord(1, ProblemDelta::SetCost(0, 2.0)) << "\n";
  }
  std::vector<ChangelogStore::LoadedProblem> loaded;
  EXPECT_FALSE(store.LoadAll(&loaded, &error));
  EXPECT_NE(error.find("ghost"), std::string::npos) << error;
}

TEST(ChangelogStore, InitFailsOnAFileInTheWay) {
  TempDir dir("blocked");
  {
    std::ofstream out(dir.path);  // a FILE at the directory path
    out << "x";
  }
  ChangelogStore store(dir.path);
  std::string error;
  EXPECT_FALSE(store.Init(&error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace serve
}  // namespace factcheck
