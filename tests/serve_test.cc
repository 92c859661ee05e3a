// The serving layer (src/serve): the JSON request parser, the latency
// histogram, the PlanningService protocol — including bit-identical
// equivalence of a served plan to the one-shot Planner path and the
// cross-request engine-cache reuse the service exists for — the Unix
// socket transport, and the thread-safety contracts the service leans on
// (concurrent lazy planes builds, the engine's single-writer guard).
//
// The suite carries the `stress` label: the concurrency tests here are
// the TSan job's main target (.github/workflows/ci.yml).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/delta.h"
#include "core/engine.h"
#include "core/ev.h"
#include "core/object.h"
#include "core/planner.h"
#include "core/problem.h"
#include "core/query_function.h"
#include "data/problem_io.h"
#include "dist/planes.h"
#include "serve/changelog.h"
#include "serve/json_value.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "serve_fixtures.h"
#include "util/json.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FACTCHECK_TSAN 1
#endif
#endif

namespace factcheck {
namespace serve {
namespace {

// --- Fixtures --------------------------------------------------------------

std::int64_t StatOf(const JsonValue& plan_response, const std::string& key) {
  return static_cast<std::int64_t>(
      plan_response.Find("result")->Find("stats")->Find(key)->number());
}

// --- JsonValue -------------------------------------------------------------

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->boolean());
  EXPECT_FALSE(JsonValue::Parse("false")->boolean());
  EXPECT_EQ(JsonValue::Parse("42")->number(), 42.0);
  EXPECT_EQ(JsonValue::Parse("-0.5")->number(), -0.5);
  EXPECT_EQ(JsonValue::Parse("1e3")->number(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("  \"hi\"  ")->string(), "hi");
}

TEST(JsonValue, ParsesEscapesAndSurrogatePairs) {
  EXPECT_EQ(JsonValue::Parse("\"a\\nb\\t\\\\\\\"\"")->string(), "a\nb\t\\\"");
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\"")->string(), "A");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(JsonValue::Parse("\"\\uD83D\\uDE00\"")->string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonValue, ParsesNestedDocuments) {
  std::optional<JsonValue> doc = JsonValue::Parse(
      "{\"op\":\"plan\",\"refs\":[0,1,2],\"opts\":{\"lazy\":true}}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("op")->string(), "plan");
  EXPECT_EQ(doc->Find("refs")->array().size(), 3u);
  EXPECT_EQ(doc->Find("refs")->array()[2].number(), 2.0);
  EXPECT_TRUE(doc->Find("opts")->Find("lazy")->boolean());
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_EQ(doc->Find("refs")->Find("x"), nullptr);  // not an object
}

TEST(JsonValue, DuplicateKeysKeepTheLast) {
  EXPECT_EQ(JsonValue::Parse("{\"a\":1,\"a\":2}")->Find("a")->number(), 2.0);
}

TEST(JsonValue, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
  EXPECT_FALSE(JsonValue::Parse("01", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("nulle", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("\"\\uD83D\"", &error).has_value());  // lone
  EXPECT_FALSE(JsonValue::Parse("\"raw\ntab\"", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]", &error).has_value());
}

TEST(JsonValue, DepthCapStopsHostileNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // A legal depth parses.
  std::string ok(40, '[');
  ok += "1" + std::string(40, ']');
  EXPECT_TRUE(JsonValue::Parse(ok).has_value());
}

TEST(JsonValue, RoundTripsJsonWriterOutput) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("pi")
      .Number(3.141592653589793)
      .Key("s")
      .String("a\"b\\c\n")
      .Key("xs")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .EndObject();
  std::optional<JsonValue> doc = JsonValue::Parse(writer.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("pi")->number(), 3.141592653589793);  // bit-exact
  EXPECT_EQ(doc->Find("s")->string(), "a\"b\\c\n");
}

// --- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, QuantilesAreWithinBucketResolution) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.p50(), 0.0);
  for (int i = 0; i < 99; ++i) histogram.Record(1e-3);  // 1ms
  histogram.Record(2.0);  // one slow outlier
  EXPECT_EQ(histogram.count(), 100);
  // Bucket upper bounds: within 2x above the true value, never below.
  EXPECT_GE(histogram.p50(), 1e-3);
  EXPECT_LT(histogram.p50(), 2e-3);
  EXPECT_GE(histogram.p99(), 1e-3);
  EXPECT_LE(histogram.p50(), histogram.p99());
  EXPECT_GE(histogram.Quantile(1.0), 2.0);  // the outlier's bucket
}

TEST(LatencyHistogram, ClampsOutOfRangeSamples) {
  LatencyHistogram histogram;
  histogram.Record(-1.0);      // clamps to the zero bucket
  histogram.Record(1e9);       // clamps to the top bucket
  EXPECT_EQ(histogram.count(), 2);
  EXPECT_GT(histogram.Quantile(1.0), 0.0);
}

// --- PlanningService: protocol --------------------------------------------

TEST(PlanningService, PingStatsAndUnknownOp) {
  PlanningService service;
  EXPECT_EQ(service.HandleLine("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"op\":\"ping\"}");
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("stats")->Find("total_requests")->number(), 0.0);
  EXPECT_TRUE(stats.Find("stats")->Find("problems")->array().empty());

  std::optional<JsonValue> error =
      JsonValue::Parse(service.HandleLine("{\"op\":\"nope\"}"));
  ASSERT_TRUE(error.has_value());
  EXPECT_FALSE(error->Find("ok")->boolean());
  EXPECT_NE(error->Find("error")->string().find("unknown op"),
            std::string::npos);
}

TEST(PlanningService, MalformedLinesComeBackAsErrors) {
  PlanningService service;
  for (const char* line : {"", "not json", "[1,2]", "{\"no_op\":1}"}) {
    std::optional<JsonValue> response = JsonValue::Parse(service.HandleLine(line));
    ASSERT_TRUE(response.has_value()) << line;
    EXPECT_FALSE(response->Find("ok")->boolean()) << line;
    EXPECT_TRUE(response->Find("error")->is_string()) << line;
  }
}

TEST(PlanningService, RegisterReportsTheProblemShape) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  JsonValue response = ParseOk(
      service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  EXPECT_EQ(response.Find("objects")->number(), problem.size());
  EXPECT_EQ(response.Find("total_cost")->number(), problem.TotalCost());
}

TEST(PlanningService, RegisterErrorPaths) {
  CleaningProblem problem = MakeProblem();
  const std::string csv = data::ProblemToCsv(problem);
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", csv)));

  // Duplicate name.
  std::optional<JsonValue> dup =
      JsonValue::Parse(service.HandleLine(RegisterLine("p", csv)));
  EXPECT_FALSE(dup->Find("ok")->boolean());
  EXPECT_NE(dup->Find("error")->string().find("already registered"),
            std::string::npos);

  // Malformed CSV.
  std::optional<JsonValue> bad =
      JsonValue::Parse(service.HandleLine(RegisterLine("q", "label,current\nx")));
  EXPECT_FALSE(bad->Find("ok")->boolean());

  // Out-of-range query ref.
  std::string error;
  EXPECT_FALSE(service.RegisterProblem("r", csv, {0, 99}, {}, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(PlanningService, PlanErrorPaths) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));

  auto expect_error = [&](const std::string& line, const char* needle) {
    std::optional<JsonValue> response = JsonValue::Parse(service.HandleLine(line));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->Find("ok")->boolean()) << line;
    EXPECT_NE(response->Find("error")->string().find(needle),
              std::string::npos)
        << response->Find("error")->string();
  };
  expect_error(PlanLine("ghost", "greedy_minvar", 2.0), "unknown problem");
  expect_error(PlanLine("p", "ghost_algo", 2.0), "unknown algorithm");
  expect_error("{\"op\":\"plan\",\"problem\":\"p\",\"algo\":\"greedy_minvar\"}",
               "\"budget\" or \"budget_frac\"");
  expect_error(
      "{\"op\":\"plan\",\"problem\":\"p\",\"algo\":\"greedy_minvar\","
      "\"budget\":\"two\"}",
      "must be a number");
  // Errors leave the service usable.
  ParseOk(service.HandleLine(PlanLine("p", "greedy_minvar", 2.0)));
}

// --- PlanningService: equivalence + cache reuse ----------------------------

// A served plan is bit-identical to the one-shot Planner path on the same
// problem/query/budget — selection, cost, objective value, trajectory.
TEST(PlanningService, PlanMatchesOneShotPlanner) {
  CleaningProblem problem = MakeProblem();
  std::vector<int> refs(problem.size());
  for (int i = 0; i < problem.size(); ++i) refs[i] = i;
  LinearQueryFunction query(refs, std::vector<double>(refs.size(), 1.0));

  PlanRequest request;
  request.problem = &problem;
  request.query = &query;
  request.linear_query = &query;
  request.budget = 3.0;
  Planner planner;
  PlanResult oracle = planner.Plan(request, "greedy_minvar");

  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  JsonValue response =
      ParseOk(service.HandleLine(PlanLine("p", "greedy_minvar", 3.0)));

  EXPECT_EQ(CleanedOf(response),
            std::vector<int>(oracle.selection.cleaned.begin(),
                             oracle.selection.cleaned.end()));
  const JsonValue* result = response.Find("result");
  EXPECT_EQ(result->Find("selection")->Find("cost")->number(),
            oracle.selection.cost);
  EXPECT_EQ(result->Find("objective_value")->number(),
            oracle.objective_value);
  const std::vector<JsonValue>& trajectory =
      result->Find("trajectory")->array();
  ASSERT_EQ(trajectory.size(), oracle.trajectory.size());
  for (size_t i = 0; i < trajectory.size(); ++i) {
    EXPECT_EQ(trajectory[i].number(), oracle.trajectory[i]);  // bit-exact
  }
  // First request on a cold service engine does the same evaluation work
  // as the one-shot path.
  EXPECT_EQ(StatOf(response, "evaluations"), oracle.stats.evaluations);
}

TEST(PlanningService, RepeatRequestsServeFromTheWarmEngine) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));

  const std::string line = PlanLine("p", "greedy_minvar", 3.0);
  JsonValue first = ParseOk(service.HandleLine(line));
  JsonValue second = ParseOk(service.HandleLine(line));

  EXPECT_EQ(CleanedOf(second), CleanedOf(first));
  EXPECT_EQ(first.Find("requests")->number(), 1.0);
  EXPECT_EQ(second.Find("requests")->number(), 2.0);
  // The tentpole property: the second request's evaluation count is
  // frozen (every set it probes is already memoized) while cache hits
  // keep growing.
  EXPECT_EQ(StatOf(second, "evaluations"), StatOf(first, "evaluations"));
  EXPECT_GT(StatOf(second, "cache_hits"), StatOf(first, "cache_hits"));
  EXPECT_EQ(service.total_requests(), 2);
}

TEST(PlanningService, StatsDocumentAggregatesPerProblem) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  const std::string line = PlanLine("p", "greedy_minvar", 3.0);
  ParseOk(service.HandleLine(line));
  ParseOk(service.HandleLine(line));

  std::string error;
  std::optional<JsonValue> stats = JsonValue::Parse(service.StatsJson(), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->Find("total_requests")->number(), 2.0);
  const std::vector<JsonValue>& problems = stats->Find("problems")->array();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0].Find("name")->string(), "p");
  EXPECT_EQ(problems[0].Find("requests")->number(), 2.0);
  EXPECT_EQ(problems[0].Find("latency")->Find("count")->number(), 2.0);
  EXPECT_GE(problems[0].Find("latency")->Find("p99_ms")->number(),
            problems[0].Find("latency")->Find("p50_ms")->number());
  const std::vector<JsonValue>& engines = problems[0].Find("engines")->array();
  ASSERT_EQ(engines.size(), 1u);
  EXPECT_EQ(engines[0].Find("objective")->string(), "minvar");
  EXPECT_GT(engines[0].Find("evaluations")->number(), 0.0);
}

// --- PlanningService: concurrency ------------------------------------------

// N client threads hammer one problem.  Every response must carry the
// bit-identical selection of the single-threaded oracle, and the engine's
// cumulative cache_hits must be monotone in service order — the properties
// the service_scaling bench gate quantifies.
TEST(PlanningService, ConcurrentClientsMatchTheSingleThreadedOracle) {
  CleaningProblem problem = MakeProblem(10);
  const std::string csv = data::ProblemToCsv(problem);
  const std::string line = PlanLine("p", "greedy_minvar", 4.0);

  PlanningService oracle_service;
  ParseOk(oracle_service.HandleLine(RegisterLine("p", csv)));
  const std::vector<int> oracle =
      CleanedOf(ParseOk(oracle_service.HandleLine(line)));

  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", csv)));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::string> responses(kThreads * kPerThread);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int r = 0; r < kPerThread; ++r) {
        responses[t * kPerThread + r] = service.HandleLine(line);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // (request ordinal, lifetime cache_hits at that point).
  std::vector<std::pair<std::int64_t, std::int64_t>> order;
  for (const std::string& text : responses) {
    JsonValue response = ParseOk(text);
    EXPECT_EQ(CleanedOf(response), oracle);
    order.emplace_back(
        static_cast<std::int64_t>(response.Find("requests")->number()),
        StatOf(response, "cache_hits"));
  }
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, static_cast<std::int64_t>(i) + 1)
        << "request ordinals must be a permutation of 1..N";
    if (i > 0) {
      EXPECT_GE(order[i].second, order[i - 1].second)
          << "cache_hits must grow monotonically across requests";
    }
  }
  EXPECT_EQ(service.total_requests(), kThreads * kPerThread);
}

TEST(PlanningService, DistinctProblemsPlanInParallel) {
  PlanningService service;
  constexpr int kProblems = 4;
  std::vector<std::string> lines;
  for (int p = 0; p < kProblems; ++p) {
    std::string name = "p" + std::to_string(p);
    ParseOk(service.HandleLine(
        RegisterLine(name, data::ProblemToCsv(MakeProblem(6 + p)))));
    lines.push_back(PlanLine(name, "greedy_minvar", 3.0));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int p = 0; p < kProblems; ++p) {
    threads.emplace_back([&, p] {
      for (int r = 0; r < 4; ++r) {
        std::optional<JsonValue> response =
            JsonValue::Parse(service.HandleLine(lines[p]));
        if (!response.has_value() || !response->Find("ok")->boolean()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.total_requests(), kProblems * 4);
}

// --- PlanningService: the update verb + persistence -------------------------

std::int64_t EpochOf(PlanningService& service, const std::string& name) {
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  for (const JsonValue& problem : stats.Find("stats")->Find("problems")->array()) {
    if (problem.Find("name")->string() == name) {
      return static_cast<std::int64_t>(problem.Find("epoch")->number());
    }
  }
  ADD_FAILURE() << "problem " << name << " missing from stats";
  return -1;
}

// Planners, an updater and a stats poller on two problems at once.  Every
// published counter is monotone across polls, and each planner's next
// stats shows at least the request ordinal and epoch its plan answered
// with (read-your-writes under concurrency).
TEST(PlanningService, StatsPollsSeeMonotoneCountersUnderLoad) {
  PlanningService service;
  const std::vector<std::string> names = {"a", "b"};
  for (const std::string& name : names) {
    ParseOk(service.HandleLine(
        RegisterLine(name, data::ProblemToCsv(MakeProblem(7)))));
  }
  constexpr int kPlanners = 3;
  constexpr int kPlansEach = 12;
  constexpr int kUpdates = 12;
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  // Reads one stats document into "problem/counter" and
  // "problem/objective/counter" keys.
  auto read_stats = [&service](std::map<std::string, double>* out) {
    JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
    out->clear();
    double total = 0.0;
    for (const JsonValue& problem :
         stats.Find("stats")->Find("problems")->array()) {
      const std::string name = problem.Find("name")->string();
      for (const char* key : {"epoch", "plane_rows_rebuilt", "requests"}) {
        (*out)[name + "/" + key] = problem.Find(key)->number();
      }
      (*out)[name + "/latency_count"] =
          problem.Find("latency")->Find("count")->number();
      total += problem.Find("requests")->number();
      for (const JsonValue& engine : problem.Find("engines")->array()) {
        const std::string prefix =
            name + "/" + engine.Find("objective")->string() + "/";
        for (const CounterSpec& counter : kEngineCounters) {
          if (counter.source != CounterSource::kEngine) continue;
          (*out)[prefix + counter.name] = engine.Find(counter.name)->number();
        }
      }
    }
    EXPECT_EQ(stats.Find("stats")->Find("total_requests")->number(), total);
  };
  // Engines are never dropped, so every earlier key is still present.
  auto expect_monotone = [](const std::map<std::string, double>& previous,
                            const std::map<std::string, double>& current) {
    for (const auto& [key, value] : previous) {
      auto it = current.find(key);
      ASSERT_TRUE(it != current.end()) << key;
      EXPECT_GE(it->second, value) << key;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kPlanners; ++t) {
    threads.emplace_back([&, t] {
      std::map<std::string, double> previous, seen;
      for (int r = 0; r < kPlansEach; ++r) {
        const std::string& name = names[(t + r) % names.size()];
        const std::string algo = r % 3 == 0 ? "greedy_maxpr" : "greedy_minvar";
        std::optional<JsonValue> response =
            JsonValue::Parse(service.HandleLine(PlanLine(name, algo, 3.0)));
        if (!response.has_value() || !response->Find("ok")->boolean()) {
          ++failures;
          continue;
        }
        read_stats(&seen);
        expect_monotone(previous, seen);
        EXPECT_GE(seen[name + "/requests"],
                  response->Find("requests")->number());
        EXPECT_GE(seen[name + "/epoch"], response->Find("epoch")->number());
        previous.swap(seen);
      }
    });
  }
  threads.emplace_back([&] {
    for (int u = 0; u < kUpdates; ++u) {
      const std::string& name = names[u % names.size()];
      std::optional<JsonValue> response = JsonValue::Parse(service.HandleLine(
          UpdateLine(name, "[" +
                               DeltaJson(ProblemDelta::ReplaceDistribution(
                                   u % 7, DiscreteDistribution(
                                              {1.0, 20.0 + u}, {0.5, 0.5}))) +
                               "]")));
      if (!response.has_value() || !response->Find("ok")->boolean()) {
        ++failures;
      }
    }
  });
  int polls = 0;
  std::thread poller([&] {
    std::map<std::string, double> previous, current;
    bool last = false;
    while (!last) {
      last = done.load();
      read_stats(&current);
      expect_monotone(previous, current);
      previous.swap(current);
      ++polls;
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(polls, 1);
  EXPECT_EQ(service.total_requests(), kPlanners * kPlansEach);
  EXPECT_EQ(EpochOf(service, "a"), kUpdates / 2);
  EXPECT_EQ(EpochOf(service, "b"), kUpdates / 2);
}

// The stale-cache regression this PR fixes: a problem mutation between
// two plans on the same session engine must force re-evaluation, and the
// re-planned selection must be bit-identical to a cold service planning
// the mutated problem from scratch.
TEST(PlanningService, MutationBetweenPlansReEvaluates) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  const std::string line = PlanLine("p", "greedy_minvar", 3.0);
  JsonValue first = ParseOk(service.HandleLine(line));
  JsonValue warm = ParseOk(service.HandleLine(line));
  EXPECT_EQ(StatOf(warm, "evaluations"), StatOf(first, "evaluations"));
  EXPECT_EQ(first.Find("epoch")->number(), 0.0);

  // Blow up object 0's uncertainty; the optimal selection changes.
  DiscreteDistribution wide({0.0, 60.0}, {0.5, 0.5});
  JsonValue updated = ParseOk(service.HandleLine(UpdateLine(
      "p", "[" + DeltaJson(ProblemDelta::ReplaceDistribution(0, wide)) + "]")));
  EXPECT_EQ(updated.Find("applied")->number(), 1.0);
  EXPECT_EQ(updated.Find("epoch")->number(), 1.0);
  EXPECT_EQ(updated.Find("objects")->number(), problem.size());

  JsonValue replanned = ParseOk(service.HandleLine(line));
  EXPECT_EQ(replanned.Find("epoch")->number(), 1.0);
  // Before the epoch protocol the warm memo served the pre-mutation
  // values: evaluations stayed frozen and the selection was stale.
  EXPECT_GT(StatOf(replanned, "evaluations"), StatOf(warm, "evaluations"));
  EXPECT_GT(StatOf(replanned, "cache_evictions"), 0);

  CleaningProblem mutated = problem;
  mutated.ReplaceDistribution(0, wide);
  PlanningService oracle;
  ParseOk(oracle.HandleLine(RegisterLine("p", data::ProblemToCsv(mutated))));
  JsonValue expected = ParseOk(oracle.HandleLine(line));
  EXPECT_EQ(CleanedOf(replanned), CleanedOf(expected));
  const std::vector<JsonValue>& trajectory =
      replanned.Find("result")->Find("trajectory")->array();
  const std::vector<JsonValue>& oracle_trajectory =
      expected.Find("result")->Find("trajectory")->array();
  ASSERT_EQ(trajectory.size(), oracle_trajectory.size());
  for (size_t i = 0; i < trajectory.size(); ++i) {
    EXPECT_EQ(trajectory[i].number(), oracle_trajectory[i].number());
  }
}

TEST(PlanningService, UpdateErrorPathsAreAllOrNothing) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));

  auto expect_error = [&](const std::string& line, const char* needle) {
    std::optional<JsonValue> response =
        JsonValue::Parse(service.HandleLine(line));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->Find("ok")->boolean()) << line;
    EXPECT_NE(response->Find("error")->string().find(needle),
              std::string::npos)
        << response->Find("error")->string();
  };
  expect_error(UpdateLine("ghost", "[{\"kind\":\"set_cost\",\"object\":0,"
                                   "\"cost\":1}]"),
               "unknown problem");
  expect_error("{\"op\":\"update\",\"problem\":\"p\"}",
               "\"deltas\" must be a non-empty array");
  expect_error(UpdateLine("p", "[]"), "non-empty array");
  expect_error(UpdateLine("p", "7"), "non-empty array");
  // A defect anywhere in the batch rejects the whole batch: valid first
  // delta, malformed second — the valid one must NOT have been applied.
  expect_error(
      UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 9.0)) +
                          ",{\"kind\":\"bogus\"}]"),
      "deltas[1]");
  EXPECT_EQ(EpochOf(service, "p"), 0);
  // Same for a structurally invalid delta (index out of range).
  expect_error(
      UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "," +
                          DeltaJson(ProblemDelta::SetCost(99, 1.0)) + "]"),
      "deltas[1]");
  EXPECT_EQ(EpochOf(service, "p"), 0);
  // Errors leave the service usable.
  ParseOk(service.HandleLine(
      UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "]")));
  EXPECT_EQ(EpochOf(service, "p"), 1);
}

TEST(PlanningService, UpdateRejectsRemovingQueryReferencedObjects) {
  CleaningProblem problem = MakeProblem(6);
  const std::string csv = data::ProblemToCsv(problem);
  PlanningService service;
  std::string error;
  // "head" only references objects 0 and 1; "tail" references the last.
  ASSERT_TRUE(service.RegisterProblem("head", csv, {0, 1}, {1.0, 1.0}, &error))
      << error;
  ASSERT_TRUE(service.RegisterProblem("tail", csv, {0, 5}, {1.0, 1.0}, &error))
      << error;

  const std::string removal =
      "[" + DeltaJson(ProblemDelta::RemoveObject(5)) + "]";
  JsonValue ok = ParseOk(service.HandleLine(UpdateLine("head", removal)));
  EXPECT_EQ(ok.Find("objects")->number(), 5.0);

  std::optional<JsonValue> rejected =
      JsonValue::Parse(service.HandleLine(UpdateLine("tail", removal)));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->Find("ok")->boolean());
  EXPECT_NE(rejected->Find("error")->string().find("cannot be removed"),
            std::string::npos)
      << rejected->Find("error")->string();
  EXPECT_EQ(EpochOf(service, "tail"), 0);
}

std::string TestChangelogDir(const char* tag) {
  return "/tmp/fc_serve_chlog_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

// A restarted service replays the changelog and serves plans bit-identical
// to the never-restarted one — the tentpole's durability contract.
TEST(PlanningService, RestartFromChangelogIsBitIdentical) {
  const std::string dir = TestChangelogDir("restart");
  std::filesystem::remove_all(dir);
  CleaningProblem problem = MakeProblem();
  const std::string line = PlanLine("p", "greedy_minvar", 3.0);
  std::vector<int> live_cleaned;
  std::vector<double> live_trajectory;
  {
    PlanningService service;
    std::string error;
    ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
    ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
    ParseOk(service.HandleLine(UpdateLine(
        "p", "[" +
                 DeltaJson(ProblemDelta::ReplaceDistribution(
                     1, DiscreteDistribution({5.0, 25.0}, {0.5, 0.5}))) +
                 "," + DeltaJson(ProblemDelta::SetCost(2, 0.5)) + "]")));
    ParseOk(service.HandleLine(
        UpdateLine("p", "[" + DeltaJson(ProblemDelta::Clean(3, 13.0)) + "]")));
    JsonValue live = ParseOk(service.HandleLine(line));
    live_cleaned = CleanedOf(live);
    for (const JsonValue& v :
         live.Find("result")->Find("trajectory")->array()) {
      live_trajectory.push_back(v.number());
    }
  }

  PlanningService restarted;
  std::string error;
  ASSERT_TRUE(restarted.EnablePersistence(dir, &error)) << error;
  EXPECT_TRUE(restarted.HasProblem("p"));
  // The restore published the replayed state: three deltas, three epochs.
  EXPECT_EQ(EpochOf(restarted, "p"), 3);
  // Re-registering the restored name is still a duplicate.
  std::optional<JsonValue> dup = JsonValue::Parse(restarted.HandleLine(
      RegisterLine("p", data::ProblemToCsv(problem))));
  EXPECT_FALSE(dup->Find("ok")->boolean());

  JsonValue replayed = ParseOk(restarted.HandleLine(line));
  EXPECT_EQ(CleanedOf(replayed), live_cleaned);
  const std::vector<JsonValue>& trajectory =
      replayed.Find("result")->Find("trajectory")->array();
  ASSERT_EQ(trajectory.size(), live_trajectory.size());
  for (size_t i = 0; i < trajectory.size(); ++i) {
    EXPECT_EQ(trajectory[i].number(), live_trajectory[i]);  // bit-exact
  }

  // Updates keep appending at the restored sequence: a second restart
  // replays them too.
  ParseOk(restarted.HandleLine(
      UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 3.0)) + "]")));
  std::vector<int> after_update =
      CleanedOf(ParseOk(restarted.HandleLine(line)));
  PlanningService third;
  ASSERT_TRUE(third.EnablePersistence(dir, &error)) << error;
  EXPECT_EQ(CleanedOf(ParseOk(third.HandleLine(line))), after_update);
  std::filesystem::remove_all(dir);
}

TEST(PlanningService, ChangelogCompactionKeepsRestartsWorking) {
  const std::string dir = TestChangelogDir("compact");
  std::filesystem::remove_all(dir);
  CleaningProblem problem = MakeProblem();
  const std::string line = PlanLine("p", "greedy_minvar", 3.0);
  std::vector<int> live_cleaned;
  {
    PlanningService service;
    std::string error;
    ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
    ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
    // Enough single-delta updates to cross the compaction threshold (64).
    for (int i = 0; i < 70; ++i) {
      ParseOk(service.HandleLine(UpdateLine(
          "p", "[" +
                   DeltaJson(ProblemDelta::SetCost(i % 6, 1.0 + 0.01 * i)) +
                   "]")));
    }
    ParseOk(service.HandleLine(UpdateLine(
        "p", "[" +
                 DeltaJson(ProblemDelta::ReplaceDistribution(
                     0, DiscreteDistribution({2.0, 30.0}, {0.5, 0.5}))) +
                 "]")));
    live_cleaned = CleanedOf(ParseOk(service.HandleLine(line)));
    EXPECT_EQ(EpochOf(service, "p"), 71);
  }
  // The log was compacted into the snapshot: far fewer than 71 records.
  {
    std::ifstream log(dir + "/p.log");
    ASSERT_TRUE(log.good());
    int lines = 0;
    std::string unused;
    while (std::getline(log, unused)) ++lines;
    EXPECT_LT(lines, 64);
  }
  PlanningService restarted;
  std::string error;
  ASSERT_TRUE(restarted.EnablePersistence(dir, &error)) << error;
  EXPECT_EQ(CleanedOf(ParseOk(restarted.HandleLine(line))), live_cleaned);
  std::filesystem::remove_all(dir);
}

TEST(PlanningService, PersistenceRefusesACorruptChangelog) {
  const std::string dir = TestChangelogDir("corrupt");
  std::filesystem::remove_all(dir);
  {
    PlanningService service;
    std::string error;
    ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
    ParseOk(service.HandleLine(
        RegisterLine("p", data::ProblemToCsv(MakeProblem()))));
    ParseOk(service.HandleLine(
        UpdateLine("p", "[" + DeltaJson(ProblemDelta::SetCost(0, 2.0)) + "]")));
  }
  {
    std::ofstream log(dir + "/p.log", std::ios::app);
    log << "{torn";  // no newline: a crash mid-append
  }
  PlanningService restarted;
  std::string error;
  EXPECT_FALSE(restarted.EnablePersistence(dir, &error));
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

// With persistence on, a register writes its snapshot only for a new
// name: a duplicate is refused before anything touches disk, and a failed
// snapshot write leaves the name unregistered and free to register again.
TEST(PlanningService, RegisterPersistsOnlyANewName) {
  const std::string dir = TestChangelogDir("register");
  std::filesystem::remove_all(dir);
  auto read_file = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
  ParseOk(service.HandleLine(
      RegisterLine("p", data::ProblemToCsv(MakeProblem()))));
  const std::string snapshot = read_file(dir + "/p.snapshot");
  ASSERT_FALSE(snapshot.empty());

  std::optional<JsonValue> dup = JsonValue::Parse(service.HandleLine(
      RegisterLine("p", data::ProblemToCsv(MakeProblem(9)))));
  ASSERT_TRUE(dup.has_value());
  EXPECT_NE(dup->Find("error")->string().find("already registered"),
            std::string::npos);
  EXPECT_EQ(read_file(dir + "/p.snapshot"), snapshot);

  std::filesystem::remove_all(dir);  // the next snapshot write fails
  std::optional<JsonValue> failed = JsonValue::Parse(service.HandleLine(
      RegisterLine("q", data::ProblemToCsv(MakeProblem()))));
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->Find("ok")->boolean());
  EXPECT_FALSE(service.HasProblem("q"));
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("stats")->Find("problems")->array().size(), 1u);

  std::filesystem::create_directories(dir);
  ParseOk(service.HandleLine(
      RegisterLine("q", data::ProblemToCsv(MakeProblem()))));
  EXPECT_TRUE(service.HasProblem("q"));
  std::filesystem::remove_all(dir);
}

// --- CleaningProblem: planes thread-safety contract ------------------------

// Concurrent first-touch of the lazy planes cache from many threads: the
// per-instance mutex (the bug this PR fixed — the old function-local
// static serialized unrelated problems and left the copy path unguarded)
// must hand every reader the SAME fully built snapshot.  This is the
// TSan job's planes target.
TEST(PlanesContract, ConcurrentLazyBuildYieldsOneSnapshot) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 16; ++round) {
    CleaningProblem problem = MakeProblem(12);
    std::vector<std::shared_ptr<const DistPlanes>> snapshots(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ++ready;
        while (ready.load() < kThreads) std::this_thread::yield();
        if (t % 2 == 0) {
          snapshots[t] = problem.planes_ptr();
        } else {
          // The copy constructor snapshots the cache under the same
          // mutex, so copying from a const problem races with nothing.
          // A copy taken before the source's first build legitimately
          // builds its own planes, so only validity is asserted here.
          CleaningProblem copy(problem);
          snapshots[t] = copy.planes_ptr();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_NE(snapshots[t], nullptr);
      if (t % 2 == 0) {
        EXPECT_EQ(snapshots[t], snapshots[0]) << "distinct builds escaped";
      }
      EXPECT_EQ(snapshots[t]->num_objects(), 12);
    }
  }
}

TEST(PlanesContract, MutationKeepsPriorSnapshotsValid) {
  CleaningProblem problem = MakeProblem(5);
  std::shared_ptr<const DistPlanes> before = problem.planes_ptr();
  ASSERT_EQ(before->num_objects(), 5);
  EXPECT_FALSE(before->is_point_mass(0));

  problem.Clean(0, 11.0);  // collapses o0, resets the cache

  // The old snapshot is untouched; the rebuilt one sees the point mass.
  EXPECT_FALSE(before->is_point_mass(0));
  std::shared_ptr<const DistPlanes> after = problem.planes_ptr();
  EXPECT_NE(after, before);
  EXPECT_TRUE(after->is_point_mass(0));
}

// --- EvalEngine: single-writer guard ---------------------------------------

TEST(EngineGuard, NestedCallsFromTheOwnerThreadPass) {
  CleaningProblem problem = MakeProblem();
  LinearQueryFunction query = LinearQueryFunction::FromDense(
      std::vector<double>(problem.size(), 1.0));
  EvalEngine engine(MinVarObjective(query, problem),
                    OptimizeDirection::kMinimize);
  // PlainGreedy funnels through the batch entry points internally — the
  // guard must treat those as nested frames, not violations.
  Selection selection = engine.PlainGreedy(problem.Costs(), 3.0);
  EXPECT_FALSE(selection.cleaned.empty());
  EXPECT_GT(engine.stats().evaluations, 0);
  // And the engine stays claimable afterwards.
  EXPECT_EQ(engine.Evaluate({0}), engine.Evaluate({0}));
}

#ifndef FACTCHECK_TSAN
// A second thread entering the engine mid-call must abort with the
// single-writer diagnostic instead of racing on the memo tables.  (Under
// TSan the death-test fork machinery and the deliberate abort are noise —
// TSan instead proves the fixed paths are race-free.)
TEST(EngineGuardDeathTest, CrossThreadUseAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        std::atomic<bool> inside{false};
        EvalEngine engine(
            [&](const std::vector<int>&) {
              inside.store(true);
              // Hold the engine's API claim open until the process dies.
              for (;;) std::this_thread::yield();
              return 0.0;
            },
            OptimizeDirection::kMinimize);
        std::thread holder([&] { engine.Evaluate({0}); });
        while (!inside.load()) std::this_thread::yield();
        engine.Evaluate({1});  // second thread -> FC_CHECK abort
        holder.join();
      },
      "CHECK failed");
}
#endif  // !FACTCHECK_TSAN

// --- Socket transport -------------------------------------------------------

std::string TestSocketPath(const char* tag) {
  return "/tmp/fc_serve_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(SocketServer, EndToEndRegisterPlanStats) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  SocketServer server(&service, {TestSocketPath("e2e"), /*threads=*/2});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path(), &error)) << error;
  std::string response;
  ASSERT_TRUE(client.Call(RegisterLine("p", data::ProblemToCsv(problem)),
                          &response, &error))
      << error;
  ParseOk(response);
  ASSERT_TRUE(client.Call(PlanLine("p", "greedy_minvar", 3.0), &response,
                          &error));
  JsonValue plan = ParseOk(response);
  EXPECT_FALSE(CleanedOf(plan).empty());
  ASSERT_TRUE(client.Call("{\"op\":\"stats\"}", &response, &error));
  JsonValue stats = ParseOk(response);
  EXPECT_EQ(stats.Find("stats")->Find("total_requests")->number(), 1.0);
  // A malformed line keeps the connection usable.
  ASSERT_TRUE(client.Call("not json", &response, &error));
  EXPECT_FALSE(JsonValue::Parse(response)->Find("ok")->boolean());
  ASSERT_TRUE(client.Call("{\"op\":\"ping\"}", &response, &error));
  client.Close();
  server.Stop();  // idempotent with the destructor's Stop
}

TEST(SocketServer, ConcurrentConnectionsShareTheWarmEngine) {
  CleaningProblem problem = MakeProblem(8);
  PlanningService service;
  SocketServer server(&service, {TestSocketPath("conc"), /*threads=*/4});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    LineClient setup;
    ASSERT_TRUE(setup.Connect(server.socket_path(), &error)) << error;
    std::string response;
    ASSERT_TRUE(setup.Call(RegisterLine("p", data::ProblemToCsv(problem)),
                           &response, &error));
    ParseOk(response);
  }

  constexpr int kClients = 4;
  constexpr int kCalls = 3;
  const std::string line = PlanLine("p", "greedy_minvar", 3.0);
  std::vector<std::vector<int>> selections(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      std::string client_error, response;
      if (!client.Connect(server.socket_path(), &client_error)) {
        ++failures;
        return;
      }
      for (int r = 0; r < kCalls; ++r) {
        if (!client.Call(line, &response, &client_error)) {
          ++failures;
          return;
        }
        std::optional<JsonValue> parsed = JsonValue::Parse(response);
        if (!parsed.has_value() || !parsed->Find("ok")->boolean()) {
          ++failures;
          return;
        }
        selections[c] = CleanedOf(*parsed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(selections[c], selections[0]);
  }
  EXPECT_EQ(service.total_requests(), kClients * kCalls);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace factcheck
