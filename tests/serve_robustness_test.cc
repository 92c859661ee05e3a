// Failure-path behaviour of the serving stack: the SIGPIPE regression
// (a peer vanishing mid-response must never kill the daemon), graceful
// Stop() draining in-flight responses without tearing them, request
// deadlines rejected at the planner boundary with the engine memo left
// consistent, bounded-admission overload shedding, the update
// idempotency contract RequestSession retries lean on, and the
// journal-overrun full-rebuild fallback for streams past the problem's
// delta-journal capacity; and the non-blocking /stats contract: stats
// answers while a plan holds its problem's run mutex, and shows every
// answered request (read-your-writes).
//
// Carries the `stress` label: the socket and drain tests are TSan
// targets.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta.h"
#include "core/engine.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "core/query_function.h"
#include "data/problem_io.h"
#include "serve/client.h"
#include "serve/json_value.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve_fixtures.h"
#include "util/cancel.h"
#include "util/json.h"

namespace factcheck {
namespace serve {
namespace {

std::int64_t RobustnessStat(PlanningService& service, const std::string& key) {
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  return static_cast<std::int64_t>(
      stats.Find("stats")->Find("robustness")->Find(key)->number());
}

const JsonValue& ProblemStats(const JsonValue& stats_response, size_t index) {
  return stats_response.Find("stats")->Find("problems")->array()[index];
}

std::string TestSocket(const char* tag) {
  return "/tmp/fc_robust_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// --- SIGPIPE --------------------------------------------------------------

// The regression: before MSG_NOSIGNAL, a peer that closed its socket
// before the response was written delivered SIGPIPE to the whole process
// and killed the daemon.  Now the send fails with EPIPE, the connection
// is reaped, and the next client is served normally.
TEST(SocketServer, PeerVanishingMidResponseDoesNotKillTheProcess) {
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.RegisterProblem(
      "p", data::ProblemToCsv(MakeProblem()), {}, {}, &error))
      << error;
  ServerOptions options;
  options.socket_path = TestSocket("sigpipe");
  options.threads = 2;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(&error)) << error;

  // Several rounds: fire a plan request and slam the connection shut
  // without reading, so the server's response send races our close and
  // regularly lands on a dead socket.
  const std::string request = PlanLine("p", 3.0) + "\n";
  for (int round = 0; round < 8; ++round) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ::close(fd);  // gone before the response
  }

  // Still alive and serving: a well-behaved client gets a full response.
  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path, &error)) << error;
  std::string response;
  ASSERT_TRUE(client.Call(PlanLine("p", 3.0), &response, &error)) << error;
  ParseOk(response);
  server.Stop();
}

// --- Graceful shutdown ----------------------------------------------------

// Stop() must drain: every response a client DOES receive is a complete
// JSON line, even when shutdown lands mid-burst — a torn response means
// the drain logic cut a handler off mid-write.
TEST(SocketServer, StopDrainsInFlightResponsesWithoutTearing) {
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.RegisterProblem(
      "p", data::ProblemToCsv(MakeProblem()), {}, {}, &error))
      << error;
  ServerOptions options;
  options.socket_path = TestSocket("drain");
  options.threads = 2;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(&error)) << error;

  std::atomic<bool> first_response{false};
  std::atomic<int> completed{0};
  std::thread burst([&] {
    LineClient client;
    std::string client_error;
    if (!client.Connect(options.socket_path, &client_error)) return;
    const std::string line = PlanLine("p", 3.0);
    for (int i = 0; i < 50; ++i) {
      std::string response;
      if (!client.Call(line, &response, &client_error)) break;
      // A received response is NEVER torn: it parses as a full document.
      std::string parse_error;
      std::optional<JsonValue> parsed =
          JsonValue::Parse(response, &parse_error);
      EXPECT_TRUE(parsed.has_value()) << parse_error << " in " << response;
      ++completed;
      first_response.store(true);
    }
  });
  // Stop mid-burst, after at least one request proved the loop is live.
  while (!first_response.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  burst.join();
  EXPECT_GE(completed.load(), 1);
}

// --- Deadlines ------------------------------------------------------------

// A born-expired deadline is rejected whole — plan AND update — with the
// failure counted, the epoch untouched, and the next undeadlined plan
// bit-identical to a fresh service's (the memo was never perturbed).
TEST(PlanningService, ExpiredDeadlineIsRejectedWholeAndCounted) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));

  const std::string expired_plan =
      "{\"op\":\"plan\",\"problem\":\"p\",\"algo\":\"greedy_minvar\","
      "\"budget\":3.0,\"deadline_ms\":0}";
  std::optional<JsonValue> rejected =
      JsonValue::Parse(service.HandleLine(expired_plan));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->Find("ok")->boolean());
  EXPECT_NE(rejected->Find("error")->string().find("deadline"),
            std::string::npos);

  const std::string expired_update =
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "],\"deadline_ms\":0}";
  std::optional<JsonValue> update_rejected =
      JsonValue::Parse(service.HandleLine(expired_update));
  ASSERT_TRUE(update_rejected.has_value());
  EXPECT_FALSE(update_rejected->Find("ok")->boolean());
  EXPECT_EQ(RobustnessStat(service, "deadline_exceeded"), 2);

  // The rejected update applied nothing...
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("stats")
                ->Find("problems")
                ->array()[0]
                .Find("epoch")
                ->number(),
            0.0);
  // ...and the rejected plan left no memo damage: same selection as a
  // service that never saw a deadline.
  PlanningService oracle;
  ParseOk(oracle.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  EXPECT_EQ(CleanedOf(ParseOk(service.HandleLine(PlanLine("p", 3.0)))),
            CleanedOf(ParseOk(oracle.HandleLine(PlanLine("p", 3.0)))));
}

// Engine-level cancellation at an exact round boundary: the partial run
// passes the memo's structural audit, and re-running the same engine to
// completion matches a never-cancelled engine bit-for-bit.
TEST(EvalEngine, CancelledRunLeavesTheMemoConsistent) {
  CleaningProblem problem = MakeProblem(8);
  std::vector<int> refs(problem.size());
  for (int i = 0; i < problem.size(); ++i) refs[i] = i;
  LinearQueryFunction f(refs, std::vector<double>(problem.size(), 1.0));
  const std::vector<double> costs = problem.Costs();
  const double budget = 4.0;

  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    EvalEngine engine(MinVarObjective(f, problem),
                      OptimizeDirection::kMinimize);
    CountdownToken token(2);
    GreedyOptions cancelled;
    cancelled.cancel = &token;
    Selection partial = lazy ? engine.LazyGreedy(costs, budget, cancelled)
                             : engine.PlainGreedy(costs, budget, cancelled);

    std::string why;
    EXPECT_TRUE(engine.CheckMemoInvariants(&why)) << why;

    EvalEngine fresh(MinVarObjective(f, problem),
                     OptimizeDirection::kMinimize);
    Selection oracle = lazy ? fresh.LazyGreedy(costs, budget)
                            : fresh.PlainGreedy(costs, budget);
    // The cancelled run stopped early...
    EXPECT_LT(partial.cleaned.size(), oracle.cleaned.size());
    // ...and the warm rerun finishes it bit-identically to a cold run.
    Selection resumed = lazy ? engine.LazyGreedy(costs, budget)
                             : engine.PlainGreedy(costs, budget);
    EXPECT_EQ(resumed.cleaned, oracle.cleaned);
    EXPECT_EQ(resumed.order, oracle.order);
    EXPECT_EQ(resumed.cost, oracle.cost);  // bit-equal
    EXPECT_TRUE(engine.CheckMemoInvariants(&why)) << why;
  }
}

// An already-cancelled token stops the run before the first evaluation.
TEST(EvalEngine, BornExpiredTokenSelectsNothing) {
  CleaningProblem problem = MakeProblem();
  std::vector<int> refs(problem.size());
  for (int i = 0; i < problem.size(); ++i) refs[i] = i;
  LinearQueryFunction f(refs, std::vector<double>(problem.size(), 1.0));
  EvalEngine engine(MinVarObjective(f, problem), OptimizeDirection::kMinimize);
  DeadlineToken expired(0.0);
  GreedyOptions options;
  options.cancel = &expired;
  Selection sel = engine.PlainGreedy(problem.Costs(), 3.0, options);
  EXPECT_TRUE(sel.cleaned.empty());
  EXPECT_EQ(engine.stats().evaluations, 0);
}

// --- Overload shedding ----------------------------------------------------

TEST(SocketServer, BoundedAdmissionShedsWithRetryAfter) {
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.RegisterProblem(
      "p", data::ProblemToCsv(MakeProblem()), {}, {}, &error))
      << error;
  ServerOptions options;
  options.socket_path = TestSocket("shed");
  options.threads = 2;
  options.max_connections = 1;
  options.retry_after_ms = 7;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient holder;
  ASSERT_TRUE(holder.Connect(options.socket_path, &error)) << error;
  std::string pong;
  ASSERT_TRUE(holder.Call("{\"op\":\"ping\"}", &pong, &error)) << error;
  EXPECT_EQ(server.live_connections(), 1);

  // The slot is taken: the next connection gets exactly one overload
  // line and a close — never a hung accept.
  LineClient rejected;
  ASSERT_TRUE(rejected.Connect(options.socket_path, &error)) << error;
  std::string response;
  ASSERT_TRUE(rejected.Call("{\"op\":\"ping\"}", &response, &error)) << error;
  std::optional<JsonValue> parsed = JsonValue::Parse(response, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->Find("ok")->boolean());
  EXPECT_EQ(parsed->Find("error")->string(), "overloaded");
  EXPECT_EQ(parsed->Find("retry_after_ms")->number(), 7.0);
  EXPECT_EQ(RobustnessStat(service, "sheds"), 1);

  // Capacity released: a RequestSession retries through the transient
  // and lands the plan.
  holder.Close();
  SessionOptions session_options;
  session_options.socket_path = options.socket_path;
  session_options.max_attempts = 6;
  session_options.backoff_initial_ms = 0.5;
  session_options.backoff_cap_ms = 4.0;
  session_options.counters = &service.robustness();
  RequestSession session(session_options);
  std::string planned;
  ASSERT_TRUE(session.Call(PlanLine("p", 3.0), &planned, &error)) << error;
  ParseOk(planned);
  server.Stop();
}

// --- Idempotency ----------------------------------------------------------

// The retry contract for updates: a batch stamped with idempotency_seq is
// applied once; the retried duplicate is acknowledged without reapplying;
// a sequence from the future is an error (a gap would mean lost updates).
TEST(PlanningService, IdempotencySequencesDedupeRetriedBatches) {
  PlanningService service;
  ParseOk(service.HandleLine(
      RegisterLine("p", data::ProblemToCsv(MakeProblem()))));
  const std::string batch =
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":1,"
      "\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "," +
      DeltaJson(ProblemDelta::SetCost(1, 8.0)) + "]}";

  JsonValue first = ParseOk(service.HandleLine(batch));
  EXPECT_EQ(first.Find("applied")->number(), 2.0);
  EXPECT_EQ(first.Find("epoch")->number(), 2.0);
  EXPECT_EQ(first.Find("replayed"), nullptr);

  // The retry: same seq, nothing reapplied, same resulting state.
  JsonValue replay = ParseOk(service.HandleLine(batch));
  EXPECT_EQ(replay.Find("applied")->number(), 0.0);
  ASSERT_NE(replay.Find("replayed"), nullptr);
  EXPECT_TRUE(replay.Find("replayed")->boolean());
  EXPECT_EQ(replay.Find("epoch")->number(), 2.0);
  EXPECT_EQ(RobustnessStat(service, "idempotent_replays"), 1);

  // A future sequence is a protocol error, applied nowhere.
  std::optional<JsonValue> ahead = JsonValue::Parse(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":7,"
      "\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(2, 7.0)) + "]}"));
  ASSERT_TRUE(ahead.has_value());
  EXPECT_FALSE(ahead->Find("ok")->boolean());
  EXPECT_NE(ahead->Find("error")->string().find("ahead of the changelog"),
            std::string::npos);

  // The next in-order sequence still lands.
  JsonValue next = ParseOk(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":3,"
      "\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(2, 7.0)) + "]}"));
  EXPECT_EQ(next.Find("applied")->number(), 1.0);
  EXPECT_EQ(next.Find("epoch")->number(), 3.0);
}

// Integer request fields travel as JSON doubles.  A fraction, a value
// outside the field's range, or an idempotency sequence below 1 is a
// request error that changes nothing, never a cast: a cast of 1e300 is
// undefined behaviour, and on x86 turned an unapplied first batch into a
// "replayed" acknowledgement.
TEST(PlanningService, IntegerFieldsRejectFractionsAndOutOfRangeValues) {
  const std::string csv = data::ProblemToCsv(MakeProblem());
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", csv)));
  auto expect_rejected = [&service](const std::string& line,
                                    const std::string& field) {
    std::optional<JsonValue> response =
        JsonValue::Parse(service.HandleLine(line));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->Find("ok")->boolean()) << line;
    ASSERT_NE(response->Find("error"), nullptr) << line;
    EXPECT_EQ(response->Find("error")->string().find(
                  "\"" + field + "\" must be an integer in ["),
              0u)
        << line << " -> " << response->Find("error")->string();
  };

  const std::string deltas =
      ",\"deltas\":[" + DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "]}";
  for (const char* seq : {"1e300", "-1e300", "0", "1.5"}) {
    SCOPED_TRACE(seq);
    expect_rejected("{\"op\":\"update\",\"problem\":\"p\","
                    "\"idempotency_seq\":" + std::string(seq) + deltas,
                    "idempotency_seq");
  }
  // Nothing was applied or recorded: the first sequence still lands.
  JsonValue first = ParseOk(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":1" +
      deltas));
  EXPECT_EQ(first.Find("applied")->number(), 1.0);
  EXPECT_EQ(first.Find("epoch")->number(), 1.0);
  EXPECT_EQ(first.Find("replayed"), nullptr);
  EXPECT_EQ(RobustnessStat(service, "idempotent_replays"), 0);

  const std::string plan =
      "{\"op\":\"plan\",\"problem\":\"p\",\"algo\":\"greedy_minvar\","
      "\"budget\":3,";
  expect_rejected(plan + "\"seed\":-1}", "seed");
  expect_rejected(plan + "\"seed\":1e300}", "seed");
  expect_rejected(plan + "\"mc_samples\":1e300}", "mc_samples");
  expect_rejected(plan + "\"mc_samples\":2.5}", "mc_samples");
  const std::string register_q = RegisterLine("q", csv);
  expect_rejected(register_q.substr(0, register_q.size() - 1) +
                      ",\"refs\":[0,4294967296]}",
                  "refs[1]");
  EXPECT_FALSE(service.HasProblem("q"));
}

// --- Journal overrun ------------------------------------------------------

// A delta stream past CleaningProblem::kJournalCapacity (256) between two
// plans outruns the engines' epoch downdating: SyncEpoch must fall back
// to a full memo flush — counted as a full_rebuild — and the replanned
// selection must be bit-identical to a cold service planning the final
// state.
TEST(PlanningService, JournalOverrunFallsBackToFullRebuild) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  const std::string plan = PlanLine("p", 3.0);
  ParseOk(service.HandleLine(plan));  // warm the session engine

  // 300 deltas in batches of 60 — far past the 256-record journal.
  CleaningProblem mutated = problem;
  for (int batch = 0; batch < 5; ++batch) {
    std::string deltas = "[";
    for (int i = 0; i < 60; ++i) {
      const int k = batch * 60 + i;
      ProblemDelta delta =
          ProblemDelta::SetCost(k % problem.size(), 1.0 + 0.003 * k);
      mutated.Apply(delta);
      if (i > 0) deltas += ",";
      deltas += DeltaJson(delta);
    }
    deltas += "]";
    ParseOk(service.HandleLine("{\"op\":\"update\",\"problem\":\"p\","
                               "\"deltas\":" +
                               deltas + "}"));
  }

  JsonValue replanned = ParseOk(service.HandleLine(plan));
  EXPECT_EQ(replanned.Find("epoch")->number(), 300.0);
  // The overrun was detected and the memo flushed wholesale, exactly
  // once, on the one warm engine — visible in the very next stats.
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(ProblemStats(stats, 0).Find("epoch")->number(), 300.0);
  const std::vector<JsonValue>& engines = stats.Find("stats")
                                              ->Find("problems")
                                              ->array()[0]
                                              .Find("engines")
                                              ->array();
  ASSERT_EQ(engines.size(), 1u);
  EXPECT_EQ(engines[0].Find("full_rebuilds")->number(), 1.0);

  PlanningService oracle;
  ParseOk(oracle.HandleLine(RegisterLine("p", data::ProblemToCsv(mutated))));
  EXPECT_EQ(CleanedOf(replanned),
            CleanedOf(ParseOk(oracle.HandleLine(plan))));
}

// --- Non-blocking stats ---------------------------------------------------

// A cancel token that parks the first plan polling it — inside the
// planner, so inside that problem's run-mutex section — until the test
// releases it.  Never cancels.
class ParkingToken : public CancelToken {
 public:
  bool Cancelled() const override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!parked_) {
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return false;
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool parked_ = false;
  bool released_ = false;
};

// The control plane never waits behind a plan: while a plan on "p" is
// parked holding p's run mutex, stats, total_requests, registration and
// a plan and update on another problem all answer, and stats shows p as
// of its last completed request.  Before snapshots were published this
// deadlocked: StatsJson took every run mutex.
TEST(PlanningService, StatsAnswersWhileAPlanHoldsTheRunMutex) {
  const std::string csv = data::ProblemToCsv(MakeProblem());
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", csv)));
  ParseOk(service.HandleLine(RegisterLine("q", csv)));
  ParseOk(service.HandleLine(PlanLine("p", 3.0)));
  const JsonValue before = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));

  ParkingToken token;
  service.SetPlanCancelForTest(&token);
  std::string parked_response;
  std::thread parked(
      [&] { parked_response = service.HandleLine(PlanLine("p", 3.0)); });
  token.AwaitParked();

  JsonValue during = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(during.Find("stats")->Find("total_requests")->number(), 1.0);
  EXPECT_EQ(ProblemStats(during, 0).Find("name")->string(), "p");
  EXPECT_EQ(ProblemStats(during, 0).Find("requests")->number(), 1.0);
  EXPECT_EQ(
      ProblemStats(during, 0).Find("engines")->array()[0].Find("cache_hits")
          ->number(),
      ProblemStats(before, 0).Find("engines")->array()[0].Find("cache_hits")
          ->number());
  EXPECT_EQ(service.total_requests(), 1);
  ParseOk(service.HandleLine(PlanLine("q", 3.0)));
  ParseOk(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"q\",\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 2.0)) + "]}"));
  ParseOk(service.HandleLine(RegisterLine("r", csv)));
  JsonValue still = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(still.Find("stats")->Find("problems")->array().size(), 3u);
  EXPECT_EQ(ProblemStats(still, 1).Find("epoch")->number(), 1.0);
  EXPECT_EQ(service.total_requests(), 2);

  token.Release();
  parked.join();
  JsonValue plan = ParseOk(parked_response);
  EXPECT_EQ(plan.Find("requests")->number(), 2.0);
  JsonValue after = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(ProblemStats(after, 0).Find("requests")->number(), 2.0);
  EXPECT_EQ(service.total_requests(), 3);
}

// Every answered request is visible in the next stats: a plan's counters
// and epoch, an update's epoch, a rejected update's unchanged epoch, and
// the evaluations of a plan its deadline cancelled mid-run.
TEST(PlanningService, StatsReadsYourWrites) {
  const std::string csv = data::ProblemToCsv(MakeProblem(8));
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", csv)));

  // A plan response's engine counters are the session engine's lifetime
  // counters as of the end of the request, trajectory lookups included,
  // so the next /stats shows exactly them.
  auto expect_next_stats_match = [&service](const JsonValue& plan) {
    JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
    const JsonValue& engine =
        ProblemStats(stats, 0).Find("engines")->array()[0];
    const JsonValue* plan_stats = plan.Find("result")->Find("stats");
    for (const CounterSpec& counter : kEngineCounters) {
      if (counter.source != CounterSource::kEngine) continue;
      EXPECT_EQ(engine.Find(counter.name)->number(),
                plan_stats->Find(counter.name)->number())
          << counter.name;
    }
  };

  JsonValue plan = ParseOk(service.HandleLine(PlanLine("p", 3.0)));
  EXPECT_EQ(plan.Find("epoch")->number(), 0.0);
  EXPECT_GT(plan.Find("result")->Find("stats")->Find("cache_hits")->number(),
            0.0);
  expect_next_stats_match(plan);
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(ProblemStats(stats, 0).Find("requests")->number(), 1.0);

  JsonValue update = ParseOk(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 2.0)) + "," +
      DeltaJson(ProblemDelta::SetCost(1, 0.5)) + "]}"));
  EXPECT_EQ(update.Find("epoch")->number(), 2.0);
  EXPECT_EQ(ProblemStats(ParseOk(service.HandleLine("{\"op\":\"stats\"}")), 0)
                .Find("epoch")
                ->number(),
            2.0);
  JsonValue replan = ParseOk(service.HandleLine(PlanLine("p", 3.0)));
  EXPECT_EQ(replan.Find("epoch")->number(), 2.0);
  expect_next_stats_match(replan);

  // A validation reject (the second delta names no object) applies
  // nothing and publishes the unchanged epoch.
  std::optional<JsonValue> rejected = JsonValue::Parse(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(2, 2.0)) + "," +
      DeltaJson(ProblemDelta::SetCost(99, 2.0)) + "]}"));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->Find("ok")->boolean());
  stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(ProblemStats(stats, 0).Find("epoch")->number(), 2.0);
  EXPECT_EQ(ProblemStats(stats, 0).Find("requests")->number(), 2.0);

  // A deadline that expires after the first greedy round: the partial
  // run's evaluations are published though the request failed, and they
  // are fewer than a full run's.
  ParseOk(service.HandleLine(RegisterLine("c", csv)));
  CountdownToken countdown(2);  // the planner's entry check, round 1
  service.SetPlanCancelForTest(&countdown);
  std::optional<JsonValue> cancelled =
      JsonValue::Parse(service.HandleLine(PlanLine("c", 3.0)));
  service.SetPlanCancelForTest(nullptr);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->Find("error")->string(), "deadline exceeded");
  stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  const JsonValue& partial = ProblemStats(stats, 0);
  ASSERT_EQ(partial.Find("name")->string(), "c");
  EXPECT_EQ(partial.Find("requests")->number(), 0.0);
  ASSERT_EQ(partial.Find("engines")->array().size(), 1u);
  const double partial_evaluations =
      partial.Find("engines")->array()[0].Find("evaluations")->number();
  EXPECT_GT(partial_evaluations, 0.0);
  EXPECT_EQ(RobustnessStat(service, "deadline_exceeded"), 1);

  PlanningService fresh;
  ParseOk(fresh.HandleLine(RegisterLine("c", csv)));
  JsonValue full = ParseOk(fresh.HandleLine(PlanLine("c", 3.0)));
  EXPECT_LT(partial_evaluations,
            full.Find("result")->Find("stats")->Find("evaluations")->number());
}

// An update applied in memory whose persisting failed is an error
// response, but the problem did change: the next stats shows its epoch.
TEST(PlanningService, StatsShowsAnUpdateThatFailedToPersist) {
  const std::string dir = "/tmp/fc_robust_unpersisted_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.EnablePersistence(dir, &error)) << error;
  ParseOk(service.HandleLine(
      RegisterLine("p", data::ProblemToCsv(MakeProblem()))));
  std::filesystem::remove_all(dir);  // every later write fails
  std::optional<JsonValue> response = JsonValue::Parse(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 2.0)) + "]}"));
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->Find("error")->string().find("applied in memory"),
            std::string::npos);
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(ProblemStats(stats, 0).Find("epoch")->number(), 1.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace serve
}  // namespace factcheck
