// Crash safety of the durable-update path (serve/changelog.h +
// PlanningService persistence): the torn-write crash matrix over every
// byte offset of a changelog, the fsync policy's exact syscall counts,
// acked-update durability across a restart, and — in fault-injection
// builds — torn/failed appends reconciled through the snapshot fallback
// so a restarted service is bit-identical to the never-restarted one.
//
// Carries the `stress` label so the sanitizer legs replay the corruption
// cases too.

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
#include "serve/service.h"
#include "serve_fixtures.h"
#include "util/fault.h"
#include "util/json.h"

namespace factcheck {
namespace serve {
namespace {

std::string TestDir(const char* tag) {
  return "/tmp/fc_robust_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

// --- The crash matrix -----------------------------------------------------

// A changelog truncated at EVERY byte offset — the full space of states a
// crash mid-append can leave behind.  Prefixes ending exactly on a line
// boundary load the complete records they hold; every other prefix has a
// torn final line and must fail closed, leaving the problem untouched.
TEST(CrashMatrix, ReplayTruncatedAtEveryByteFailsClosed) {
  CleaningProblem base = MakeShiftedProblem();
  const std::string base_csv = data::ProblemToCsv(base);

  std::string log;
  std::vector<std::size_t> boundaries = {0};  // prefix lengths that load
  const std::vector<ProblemDelta> deltas = {
      ProblemDelta::SetCost(0, 9.0),
      ProblemDelta::ReplaceDistribution(
          1, DiscreteDistribution({5.0, 25.0}, {0.5, 0.5})),
      ProblemDelta::SetCurrentValue(2, 4.0),
      ProblemDelta::Clean(3, 13.0),
  };
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    log += EncodeLogRecord(static_cast<std::int64_t>(i) + 1, deltas[i]);
    log += '\n';
    boundaries.push_back(log.size());
  }

  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string prefix = log.substr(0, cut);
    CleaningProblem problem = base;
    std::int64_t last_seq = -1;
    std::string error;
    const bool loaded =
        ReplayChangelog(prefix, /*base_seq=*/0, &problem, &last_seq, &error);
    std::size_t complete = 0;
    bool on_boundary = false;
    for (std::size_t b = 0; b < boundaries.size(); ++b) {
      if (boundaries[b] == cut) {
        on_boundary = true;
        complete = b;
      }
    }
    if (on_boundary) {
      ASSERT_TRUE(loaded) << error;
      EXPECT_EQ(last_seq, static_cast<std::int64_t>(complete));
      // Exactly the complete records applied, in order.
      CleaningProblem expected = base;
      for (std::size_t i = 0; i < complete; ++i) expected.Apply(deltas[i]);
      EXPECT_EQ(data::ProblemToCsv(problem), data::ProblemToCsv(expected));
    } else {
      EXPECT_FALSE(loaded);
      EXPECT_FALSE(error.empty());
      // Fail-closed: NOTHING half-applied, even the intact records.
      EXPECT_EQ(data::ProblemToCsv(problem), base_csv);
    }
  }
}

// --- Fsync policy ---------------------------------------------------------

TEST(FsyncPolicy, NamesRoundTrip) {
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kBatch), "batch");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kOff), "off");
  EXPECT_EQ(ParseFsyncPolicy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(ParseFsyncPolicy("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(ParseFsyncPolicy("off"), FsyncPolicy::kOff);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").has_value());
}

// The exact durability work per policy: kAlways pays one fsync per
// record, kBatch one per AppendRecords batch (group commit), kOff none.
// Snapshots under kAlways/kBatch sync tmp file + directory + truncated
// log (3); under kOff, none.
TEST(FsyncPolicy, CountsTheExactSyscalls) {
  struct Case {
    FsyncPolicy policy;
    std::int64_t snapshot_syncs;
    std::int64_t append_syncs;  // for one 3-record batch
  };
  const Case cases[] = {
      {FsyncPolicy::kAlways, 3, 3},
      {FsyncPolicy::kBatch, 3, 1},
      {FsyncPolicy::kOff, 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(FsyncPolicyName(c.policy));
    const std::string dir = TestDir("fsync");
    std::filesystem::remove_all(dir);
    ChangelogStore store(dir);
    store.set_fsync_policy(c.policy);
    std::string error;
    ASSERT_TRUE(store.Init(&error)) << error;
    CleaningProblem problem = MakeShiftedProblem();
    ASSERT_TRUE(store.SaveSnapshot(
        "p", EncodeSnapshot(problem, {0, 1}, {1.0, 1.0}, 0), &error))
        << error;
    EXPECT_EQ(store.fsyncs(), c.snapshot_syncs);

    const std::vector<std::string> batch = {
        EncodeLogRecord(1, ProblemDelta::SetCost(0, 2.0)),
        EncodeLogRecord(2, ProblemDelta::SetCost(1, 2.0)),
        EncodeLogRecord(3, ProblemDelta::SetCost(2, 2.0)),
    };
    ASSERT_TRUE(store.AppendRecords("p", batch, &error)) << error;
    EXPECT_EQ(store.fsyncs(), c.snapshot_syncs + c.append_syncs);
    std::filesystem::remove_all(dir);
  }
}

// An acked update under --fsync=always survives a restart bit-identically
// (the strongest policy; the restart machinery itself is policy-blind).
TEST(FsyncPolicy, AckedUpdateSurvivesRestartUnderAlways) {
  const std::string dir = TestDir("always");
  std::filesystem::remove_all(dir);
  CleaningProblem problem = MakeShiftedProblem();
  const std::string plan = PlanLine("p", 3.0);
  std::vector<int> live_cleaned;
  {
    PlanningService service;
    std::string error;
    ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
    service.store()->set_fsync_policy(FsyncPolicy::kAlways);
    ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
    ParseOk(service.HandleLine(
        UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 0.25)) + "," +
                            DeltaJson(ProblemDelta::Clean(3, 13.0)) + "]")));
    EXPECT_GT(service.store()->fsyncs(), 0);
    live_cleaned = CleanedOf(ParseOk(service.HandleLine(plan)));
  }
  PlanningService restarted;
  std::string error;
  ASSERT_TRUE(restarted.EnablePersistence(dir, &error)) << error;
  EXPECT_EQ(CleanedOf(ParseOk(restarted.HandleLine(plan))), live_cleaned);
  std::filesystem::remove_all(dir);
}

// --- Injected append failures ---------------------------------------------

// A torn append (crash mid-record) makes PersistDeltas fall back to a
// reconciling snapshot: the update is still acked, the torn log suffix is
// truncated away, and a restart reconstructs exactly the in-memory state.
TEST(CrashMatrix, TornAppendReconcilesThroughTheSnapshot) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "build without FACTCHECK_FAULT_INJECTION";
  }
  fault::DisarmAll();
  const std::string dir = TestDir("torn");
  std::filesystem::remove_all(dir);
  CleaningProblem problem = MakeShiftedProblem();
  const std::string plan = PlanLine("p", 3.0);
  std::vector<int> live_cleaned;
  {
    PlanningService service;
    std::string error;
    ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
    ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
    // Tear the very next append mid-record.  The snapshot fallback runs
    // with the fault still armed on the append point only, so it
    // succeeds and reconciles.
    fault::Arm("changelog.append", {.kind = fault::FaultKind::kTornWrite,
                                    .first = 0,
                                    .period = 1,
                                    .max_count = 1,
                                    .bytes_num = 1,
                                    .bytes_den = 2});
    ParseOk(service.HandleLine(
        UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 0.25)) + "," +
                            DeltaJson(ProblemDelta::Clean(3, 13.0)) + "]")));
    EXPECT_EQ(fault::InjectedCount(), 1);
    fault::DisarmAll();
    live_cleaned = CleanedOf(ParseOk(service.HandleLine(plan)));
  }
  // The reconciling snapshot truncated the log: no torn suffix on disk.
  {
    std::ifstream log(dir + "/p.log");
    ASSERT_TRUE(log.good());
    std::string all((std::istreambuf_iterator<char>(log)),
                    std::istreambuf_iterator<char>());
    EXPECT_TRUE(all.empty()) << all;
  }
  PlanningService restarted;
  std::string error;
  ASSERT_TRUE(restarted.EnablePersistence(dir, &error)) << error;
  EXPECT_EQ(CleanedOf(ParseOk(restarted.HandleLine(plan))), live_cleaned);
  std::filesystem::remove_all(dir);
}

// When the disk is gone entirely (append AND snapshot fail), the update
// reports the divergence instead of acking silently — and the service
// keeps serving.
TEST(CrashMatrix, TotalDiskFailureSurfacesInTheResponse) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "build without FACTCHECK_FAULT_INJECTION";
  }
  fault::DisarmAll();
  const std::string dir = TestDir("enospc");
  std::filesystem::remove_all(dir);
  CleaningProblem problem = MakeShiftedProblem();
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  fault::Arm("changelog.append", {.kind = fault::FaultKind::kEnospc,
                                  .first = 0,
                                  .period = 1,
                                  .max_count = -1});
  fault::Arm("changelog.snapshot", {.kind = fault::FaultKind::kEnospc,
                                    .first = 0,
                                    .period = 1,
                                    .max_count = -1});
  std::optional<JsonValue> response = JsonValue::Parse(service.HandleLine(
      UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 0.25)) + "]")));
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->Find("ok")->boolean());
  EXPECT_NE(response->Find("error")->string().find("applied in memory"),
            std::string::npos)
      << response->Find("error")->string();
  fault::DisarmAll();
  // The disk is back: the next update persists and acks normally.
  ParseOk(service.HandleLine(
      UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(1, 0.5)) + "]")));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace serve
}  // namespace factcheck
