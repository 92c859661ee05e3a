// The benchmark's own tests: request streams are a pure function of the
// seed, the percentile helper is exact, open-loop latency runs from the
// due time, and an error response counts as a failed operation.
#include <gtest/gtest.h>

#include "harness.h"
#include "inputs.h"

namespace perfbench {
namespace {

std::string WarmStreamBytes(std::uint64_t seed) {
  const std::vector<ProblemInput> problems = WarmProblems(seed);
  const PlanPool pool = WarmPool(problems);
  std::string bytes;
  for (const ProblemInput& problem : problems) bytes += problem.RegisterLine();
  for (int conn = 0; conn < kConnections; ++conn) {
    PlanStream stream(seed, conn, &pool);
    for (int i = 0; i < 500; ++i) bytes += pool.specs[stream.Next()].line + "\n";
  }
  return bytes;
}

std::string ChurnStreamBytes(std::uint64_t seed) {
  const std::vector<ProblemInput> problems = ChurnProblems(seed);
  const PlanPool pool = ChurnPool(problems);
  const ChurnSchedule schedule = MakeChurnSchedule(seed, 2.0, problems);
  std::string bytes;
  for (const ChurnOp& op : schedule.ops) {
    bytes += std::to_string(op.due_ms) + " " + op.line + "\n";
  }
  for (int conn = 1; conn < kConnections; ++conn) {
    PlanStream stream(seed, conn, &pool);
    for (int i = 0; i < 500; ++i) bytes += pool.specs[stream.Next()].line + "\n";
  }
  return bytes;
}

TEST(RequestStream, SameSeedGivesByteIdenticalStreams) {
  EXPECT_EQ(WarmStreamBytes(7), WarmStreamBytes(7));
  EXPECT_EQ(ChurnStreamBytes(7), ChurnStreamBytes(7));
  EXPECT_NE(WarmStreamBytes(7), WarmStreamBytes(8));
  EXPECT_NE(ChurnStreamBytes(7), ChurnStreamBytes(8));
}

TEST(RequestStream, ChurnUpdatesKeepContiguousSequence) {
  const std::vector<ProblemInput> problems = ChurnProblems(3);
  const ChurnSchedule schedule = MakeChurnSchedule(3, 3.0, problems);
  std::vector<std::int64_t> next(problems.size(), 1);
  int updates = 0;
  for (const ChurnOp& op : schedule.ops) {
    if (op.kind != OpKind::kUpdate) continue;
    ++updates;
    const std::string expected =
        "\"idempotency_seq\":" + std::to_string(next[op.problem]) + "}";
    EXPECT_NE(op.line.find(expected), std::string::npos) << op.line;
    next[op.problem] += static_cast<std::int64_t>(
        ParseDeltas(schedule.batches[op.problem][op.batch]).size());
  }
  EXPECT_GT(updates, 100);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({4.0}, 0.99), 4.0);
  EXPECT_EQ(Percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.0);
  EXPECT_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 0.75), 3.0);
  EXPECT_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_EQ(Percentile({5.0, 1.0}, 0.0), 1.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(Percentile(hundred, 0.9), 90.0);
  EXPECT_EQ(Percentile(hundred, 0.01), 1.0);
  EXPECT_EQ(Percentile(hundred, 0.011), 2.0);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  // Due at 10 ms, sent 5 ms late behind a stall, answered 1 ms after the
  // send: the request waited 6 ms, not 1.
  const OpenLoopTiming late = OpenLoopTimes(10.0, 15.0, 16.0);
  EXPECT_DOUBLE_EQ(late.latency_ms, 6.0);
  EXPECT_DOUBLE_EQ(late.lag_ms, 5.0);
  const OpenLoopTiming on_time = OpenLoopTimes(10.0, 10.0, 11.5);
  EXPECT_DOUBLE_EQ(on_time.latency_ms, 1.5);
  EXPECT_DOUBLE_EQ(on_time.lag_ms, 0.0);
}

TEST(Outcome, ErrorResponsesCountAsFailures) {
  EXPECT_EQ(ClassifyResponse("{\"ok\":true,\"op\":\"ping\"}", ""), Outcome::kOk);
  EXPECT_EQ(ClassifyResponse("{\"ok\":false,\"error\":\"overloaded\","
                             "\"retry_after_ms\":50}", ""),
            Outcome::kError);
  EXPECT_EQ(ClassifyResponse("{\"ok\":false,\"error\":\"deadline exceeded\"}",
                             "{\"algorithm\":\"x\""),
            Outcome::kError);
  EXPECT_EQ(ClassifyResponse("", ""), Outcome::kError);
  const std::string served =
      "{\"ok\":true,\"op\":\"plan\",\"problem\":\"p\",\"requests\":3,"
      "\"result\":{\"algorithm\":\"a\",\"selection\":{\"cleaned\":[1]},"
      "\"stats\":{\"evaluations\":9},\"wall_ms\":1}}";
  EXPECT_EQ(ClassifyResponse(served, ResultPrefix(
                "{\"algorithm\":\"a\",\"selection\":{\"cleaned\":[1]},"
                "\"stats\":{\"evaluations\":0},\"wall_ms\":2}")),
            Outcome::kOk);
  EXPECT_EQ(ClassifyResponse(served, ResultPrefix(
                "{\"algorithm\":\"a\",\"selection\":{\"cleaned\":[2]},"
                "\"stats\":{\"evaluations\":0},\"wall_ms\":2}")),
            Outcome::kMismatch);

  Result result;
  result.CountOp(ClassifyResponse("{\"ok\":false,\"error\":\"x\"}", "") !=
                 Outcome::kOk);
  result.CountOp(false);
  EXPECT_EQ(result.attempted(), 2);
  EXPECT_EQ(result.failed(), 1);
  EXPECT_FALSE(result.correct());
}

}  // namespace
}  // namespace perfbench
