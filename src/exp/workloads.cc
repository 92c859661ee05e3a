#include "exp/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include <thread>

#include "claims/claim.h"
#include "claims/ev_fast.h"
#include "claims/perturbation.h"
#include "claims/quality.h"
#include "claims/ratio.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/maxpr.h"
#include "core/modular.h"
#include "data/adoptions.h"
#include "data/cdc.h"
#include "data/dependency.h"
#include "data/problem_io.h"
#include "data/synthetic.h"
#include "serve/client.h"
#include "serve/json_value.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/json.h"

namespace factcheck {
namespace exp {
namespace {

// The Section-4 effectiveness sweep (Figs 1-9, 11a).
const std::vector<double> kEffectivenessFractions = {
    0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.60, 0.80, 1.00};

// The ratio-claim extension sweep.
const std::vector<double> kRatioFractions = {0.05, 0.1, 0.2, 0.3,
                                             0.4,  0.6, 0.8, 1.0};

// Remaining modular variance after cleaning: the sum of the uncleaned
// weights in index order (bit-identical to the historical
// RemainingBiasVariance accumulation).
SetObjective RemainingVarianceMetric(
    std::shared_ptr<const std::vector<double>> weights) {
  return [weights](const std::vector<int>& cleaned) {
    std::vector<bool> is_cleaned(weights->size(), false);
    for (int i : cleaned) is_cleaned[i] = true;
    double acc = 0.0;
    for (size_t i = 0; i < weights->size(); ++i) {
      if (!is_cleaned[i]) acc += (*weights)[i];
    }
    return acc;
  };
}

// The claims evaluators memoize term values behind a mutable cache, so a
// shared metric must serialize concurrent calls (the engine may probe the
// objective from a thread pool).
template <typename Evaluator>
SetObjective LockedEvMetric(std::shared_ptr<const Evaluator> evaluator) {
  auto mutex = std::make_shared<std::mutex>();
  return [evaluator, mutex](const std::vector<int>& cleaned) {
    std::lock_guard<std::mutex> lock(*mutex);
    return evaluator->EV(cleaned);
  };
}

// --- Figure 1 / 11 claim contexts ----------------------------------------

// Fig 1d: transportation injuries over a 2-year window vs 30% of all
// other causes combined; perturbations slide the window over the years.
PerturbationSet CdcCausesFairnessContext() {
  auto make_claim = [](int start_year) {
    std::vector<int> plus, minus;
    for (int y = start_year; y <= start_year + 1; ++y) {
      plus.push_back(data::CdcCausesIndex(1, y));
      for (int cause : {0, 2, 3}) {
        minus.push_back(data::CdcCausesIndex(cause, y));
      }
    }
    return MakeWeightedAggregateClaim(
        plus, 1.0, minus, -0.3,
        "transportation vs 30% of others, " + std::to_string(start_year));
  };
  PerturbationSet context;
  int original_start = data::kCdcLastYear - 1;  // 2016-2017
  context.original = make_claim(original_start);
  std::vector<double> distances;
  for (int y = data::kCdcFirstYear; y + 1 <= data::kCdcLastYear; ++y) {
    context.perturbations.push_back(make_claim(y));
    distances.push_back(std::abs(y - original_start));
  }
  context.sensibilities = ExponentialSensibilities(distances, 1.5);
  return context;
}

// Fig 2b / Fig 8: all-cause two-year window sums, non-overlapping windows
// walking back from the original placement.
PerturbationSet CdcCausesAllCauseContext() {
  auto make_claim = [](int start_year) {
    std::vector<int> refs;
    for (int cause = 0; cause < data::kCdcNumCauses; ++cause) {
      for (int y = start_year; y <= start_year + 1; ++y) {
        refs.push_back(data::CdcCausesIndex(cause, y));
      }
    }
    return MakeWeightedAggregateClaim(
        refs, 1.0, {}, 0.0, "all causes " + std::to_string(start_year));
  };
  PerturbationSet context;
  int original_start = data::kCdcLastYear - 1;
  context.original = make_claim(original_start);
  std::vector<double> distances;
  for (int y = original_start - 2; y >= data::kCdcFirstYear; y -= 2) {
    context.perturbations.push_back(make_claim(y));
    distances.push_back((original_start - y) / 2.0);
  }
  context.sensibilities = ExponentialSensibilities(distances, 1.5);
  return context;
}

// --- Builders -------------------------------------------------------------

Workload BuildAdoptionsFairness(const WorkloadOptions& options) {
  auto problem =
      std::make_shared<const CleaningProblem>(data::MakeAdoptions(options.seed));
  // Giuliani: 1993-1996 vs 1989-1992; 18 shifted comparisons, sensibility
  // decay 1.5.
  auto context = std::make_shared<const PerturbationSet>(
      WindowComparisonPerturbations(data::kAdoptionsYears, 4, 0, 1.5));
  double reference = context->original.Evaluate(problem->CurrentValues());
  return MakeModularFairnessWorkload("adoptions_fairness", problem, context,
                                     reference, reference);
}

Workload BuildCdcFirearmsFairness(const WorkloadOptions& options) {
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeCdcFirearms(options.seed));
  // 2001-2004 vs 2005-2008 and its 10 shifts (including the original).
  auto context = std::make_shared<const PerturbationSet>(
      WindowComparisonPerturbations(data::kCdcYears, 4, 0, 1.5,
                                    /*include_original=*/true));
  double reference = context->original.Evaluate(problem->CurrentValues());
  return MakeModularFairnessWorkload("cdc_firearms_fairness", problem,
                                     context, reference, reference);
}

Workload BuildCdcCausesFairness(const WorkloadOptions& options) {
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeCdcCauses(options.seed));
  auto context =
      std::make_shared<const PerturbationSet>(CdcCausesFairnessContext());
  double reference = context->original.Evaluate(problem->CurrentValues());
  return MakeModularFairnessWorkload("cdc_causes_fairness", problem, context,
                                     reference, reference);
}

Workload BuildCdcFirearmsUniqueness(const WorkloadOptions& options) {
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeCdcFirearms(options.seed, /*quantization_points=*/6));
  auto context = std::make_shared<const PerturbationSet>(
      NonOverlappingWindowSumPerturbations(problem->size(), 2,
                                           problem->size() - 2, 1.5, 8));
  // "as low as Gamma" with a contested Gamma: the median two-year total.
  double reference = GammaOrDefault(
      options, MedianPerturbationValue(*problem, *context));
  return MakeClaimsWorkload("cdc_firearms_uniqueness", problem, context,
                            QualityMeasure::kDuplicity, reference,
                            StrengthDirection::kLowerIsStronger);
}

Workload BuildCdcCausesUniqueness(const WorkloadOptions& options) {
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeCdcCauses(options.seed, /*quantization_points=*/4));
  auto context =
      std::make_shared<const PerturbationSet>(CdcCausesAllCauseContext());
  double reference = GammaOrDefault(
      options, MedianPerturbationValue(*problem, *context));
  return MakeClaimsWorkload("cdc_causes_uniqueness", problem, context,
                            QualityMeasure::kDuplicity, reference,
                            StrengthDirection::kLowerIsStronger);
}

// Figs 3-5 / 9: width-4 window-sum uniqueness claims on the synthetic
// families; the original window sits at the 40%-mark of the series.
Workload BuildSyntheticUniqueness(const std::string& name,
                                  data::SyntheticFamily family,
                                  const WorkloadOptions& options,
                                  double default_gamma,
                                  StrengthDirection direction) {
  int size = SizeOrDefault(options, 40);
  double gamma = GammaOrDefault(options, default_gamma);
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeSynthetic(family, options.seed, {.size = size}));
  auto context = std::make_shared<const PerturbationSet>(
      NonOverlappingWindowSumPerturbations(size, /*width=*/4,
                                           /*original_start=*/(2 * size) / 5,
                                           1.5, /*max_perturbations=*/10));
  return MakeClaimsWorkload(name, problem, context,
                            QualityMeasure::kDuplicity, gamma, direction);
}

Workload BuildCdcFirearmsRobustness(const WorkloadOptions& options) {
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeCdcFirearms(options.seed));
  auto context = std::make_shared<const PerturbationSet>(
      NonOverlappingWindowSumPerturbations(problem->size(), 2,
                                           problem->size() - 2, 1.5, 8));
  double reference = GammaOrDefault(
      options, context->original.Evaluate(problem->CurrentValues()));
  return MakeClaimsWorkload("cdc_firearms_robustness", problem, context,
                            QualityMeasure::kFragility, reference,
                            StrengthDirection::kHigherIsStronger);
}

Workload BuildUrxRobustness(const WorkloadOptions& options) {
  // URx n=100 with Gamma' = 100; 24 non-overlapping 4-value windows (the
  // paper's 25-perturbation setup).
  int size = SizeOrDefault(options, 100);
  double gamma = GammaOrDefault(options, 100.0);
  auto problem = std::make_shared<const CleaningProblem>(data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, options.seed, {.size = size}));
  auto context = std::make_shared<const PerturbationSet>(
      NonOverlappingWindowSumPerturbations(size, /*width=*/4,
                                           /*original_start=*/size / 2 - 2,
                                           1.5, /*max_perturbations=*/25));
  return MakeClaimsWorkload("urx_robustness", problem, context,
                            QualityMeasure::kFragility, gamma,
                            StrengthDirection::kHigherIsStronger);
}

// Fig 10: URx of size n with non-overlapping width-4 window perturbations
// covering every value (n/4 claims, the paper's 2,500 at n = 10,000).
Workload BuildUrxScaling(const WorkloadOptions& options) {
  int size = SizeOrDefault(options, 2000);
  double gamma = GammaOrDefault(options, 100.0);  // Fig 10's caption Gamma
  auto problem = std::make_shared<const CleaningProblem>(data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, options.seed, {.size = size}));
  const int width = 4;
  PerturbationSet context;
  context.original = MakeWindowSumClaim(0, width);
  std::vector<double> distances;
  for (int start = width; start + width <= size; start += width) {
    context.perturbations.push_back(MakeWindowSumClaim(start, width));
    distances.push_back(start / static_cast<double>(width));
  }
  context.sensibilities = ExponentialSensibilities(distances, 1.001);
  auto context_ptr =
      std::make_shared<const PerturbationSet>(std::move(context));
  Workload w = MakeClaimsWorkload("urx_scaling", problem, context_ptr,
                                  QualityMeasure::kDuplicity, gamma,
                                  StrengthDirection::kHigherIsStronger);
  w.default_algorithms = {"claims_greedy_minvar"};
  w.default_budget_fractions = {0.01, 0.05, 0.10, 0.20, 0.30};
  return w;
}

// The perf-gate workload behind BENCH_engine.json: the Fig 10 claims
// shape at a size where the batch/incremental split is unmistakable
// (default n = 240, 59 window claims), with three algorithm columns —
//   greedy_minvar        the engine greedy on the workload's incremental
//                        Theorem-3.8 evaluator (O(Δ) probes),
//   greedy_minvar_batch  the same greedy forced onto the batch
//                        SetObjective path (the pre-incremental cost),
//   claims_greedy_minvar the bespoke heap greedy (fresh evaluator per
//                        run, the Fig 10 timing semantics).
// The batch column exists so the checked-in baseline records both sides
// of the ≥10x evaluation / ≥5x wall-clock headline and CI can diff the
// deterministic counters of each.
Workload BuildEngineScaling(const WorkloadOptions& options) {
  WorkloadOptions resolved = options;
  resolved.size = SizeOrDefault(options, 240);
  Workload w = BuildUrxScaling(resolved);
  w.name = "engine_scaling";
  w.default_algorithms = {"greedy_minvar", "greedy_minvar_batch",
                          "claims_greedy_minvar"};
  w.default_budget_fractions = {0.10, 0.20};
  w.EnsureLocalRegistry().Register(
      {.name = "greedy_minvar_batch",
       .summary = "greedy_minvar pinned to the batch SetObjective path "
                  "(perf baseline)",
       .objective = ObjectiveKind::kMinVar,
       .uses_objective = true,
       .run = [](const PlanContext& ctx) {
         GreedyOptions opts = ctx.greedy;
         opts.incremental = nullptr;
         return AdaptiveGreedyMinimize(ctx.costs, ctx.request.budget,
                                       ctx.objective, opts);
       }});
  return w;
}

// --- service_scaling: the serving perf gate behind BENCH_serve.json ------

constexpr int kServeClients = 4;
constexpr int kServeRequestsPerClient = 8;

// Pulls the selection out of a plan response's "result" object.
Selection SelectionFromResponse(const serve::JsonValue& result) {
  const serve::JsonValue* selection = result.Find("selection");
  FC_CHECK(selection != nullptr);
  Selection out;
  for (const serve::JsonValue& v : selection->Find("cleaned")->array()) {
    out.cleaned.push_back(static_cast<int>(v.number()));
  }
  for (const serve::JsonValue& v : selection->Find("order")->array()) {
    out.order.push_back(static_cast<int>(v.number()));
  }
  out.cost = selection->Find("cost")->number();
  return out;
}

// The counters of a plan result's "stats" object, one per kEngineCounters
// row (a key the result lacks reads 0).
EngineStats StatsFromResponse(const serve::JsonValue& result) {
  const serve::JsonValue* stats = result.Find("stats");
  FC_CHECK(stats != nullptr);
  EngineStats out;
  for (const CounterSpec& counter : kEngineCounters) {
    if (const serve::JsonValue* value = stats->Find(counter.name)) {
      out.*counter.field = static_cast<std::int64_t>(value->number());
    }
  }
  return out;
}

// The gates' plan request against their registered "bench" problem.
std::string BenchPlanLine(double budget,
                          std::optional<double> deadline_ms = std::nullopt) {
  JsonWriter request;
  request.BeginObject()
      .Key("op")
      .String("plan")
      .Key("problem")
      .String("bench")
      .Key("algo")
      .String("greedy_minvar")
      .Key("budget")
      .Number(budget);
  if (deadline_ms.has_value()) request.Key("deadline_ms").Number(*deadline_ms);
  request.EndObject();
  return request.str();
}

// The exact-enumeration instance of the serving and replan gates: n URx
// objects with two-atom supports under an all-ones linear query over
// every object, as a workload with no algorithms yet.
Workload BinarySyntheticWorkload(const std::string& name,
                                 const WorkloadOptions& options,
                                 int default_size) {
  const int size = SizeOrDefault(options, default_size);
  auto problem = std::make_shared<const CleaningProblem>(data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, options.seed,
      {.size = size, .min_support = 2, .max_support = 2}));
  std::vector<int> refs(size);
  for (int i = 0; i < size; ++i) refs[i] = i;
  auto query = std::make_shared<const LinearQueryFunction>(
      refs, std::vector<double>(size, 1.0));
  Workload w;
  w.name = name;
  w.problem = problem;
  w.query = query;
  w.linear = query;
  w.holders = {problem, query};
  return w;
}

// A serving gate: the binary instance plus one algorithm that runs `loop`
// against a service holding the problem's CSV.
Workload ServingWorkload(const std::string& name,
                         const WorkloadOptions& options, int default_size,
                         const char* algo, const char* summary,
                         Selection (*loop)(const std::string& csv,
                                           const PlanContext& ctx)) {
  Workload w = BinarySyntheticWorkload(name, options, default_size);
  auto csv =
      std::make_shared<const std::string>(data::ProblemToCsv(*w.problem));
  w.holders.push_back(csv);
  w.EnsureLocalRegistry().Register(
      {.name = algo,
       .summary = summary,
       .objective = ObjectiveKind::kMinVar,
       .uses_objective = true,
       .run = [csv, loop](const PlanContext& ctx) {
         return loop(*csv, ctx);
       }});
  return w;
}

// The closed loop: an in-process PlanningService with the workload's
// problem registered once, hammered by kServeClients threads issuing
// kServeRequestsPerClient identical plan requests each, plus one final
// request whose selection is the cell's result.  Every response must
// carry the same selection (requests on one problem serialize on the
// session engine, so the shared memo cannot change what greedy picks),
// and the cell's counters are the service-side aggregates: lifetime
// engine evaluations / cache_hits — cross-request reuse means the
// evaluation count stays at the one-request cost while cache_hits absorb
// the other 32 requests — plus the served request count.  All of them
// are interleaving-independent (each distinct set is evaluated exactly
// once, and each request's probe multiset is fixed), which is what lets
// BENCH_serve.json gate them exactly.
Selection RunServeLoop(const std::string& csv, const PlanContext& ctx) {
  serve::PlanningService service;
  std::string error;
  bool registered = service.RegisterProblem("bench", csv, {}, {}, &error);
  FC_CHECK(registered);

  const std::string line = BenchPlanLine(ctx.request.budget);

  std::vector<std::string> responses(kServeClients * kServeRequestsPerClient);
  std::vector<std::thread> clients;
  clients.reserve(kServeClients);
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&service, &responses, &line, c] {
      for (int r = 0; r < kServeRequestsPerClient; ++r) {
        responses[c * kServeRequestsPerClient + r] = service.HandleLine(line);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::optional<serve::JsonValue> final_response =
      serve::JsonValue::Parse(service.HandleLine(line), &error);
  FC_CHECK(final_response.has_value());
  FC_CHECK(final_response->Find("ok")->boolean());
  const serve::JsonValue* result = final_response->Find("result");
  Selection selection = SelectionFromResponse(*result);

  for (const std::string& response : responses) {
    std::optional<serve::JsonValue> parsed =
        serve::JsonValue::Parse(response, &error);
    FC_CHECK(parsed.has_value());
    FC_CHECK(parsed->Find("ok")->boolean());
    Selection concurrent = SelectionFromResponse(*parsed->Find("result"));
    FC_CHECK(concurrent.cleaned == selection.cleaned);
    FC_CHECK(concurrent.order == selection.order);
  }

  if (ctx.greedy.stats_out != nullptr) {
    *ctx.greedy.stats_out = StatsFromResponse(*result);
  }
  return selection;
}

// A small exact-enumeration problem (n = 12, binary supports -> 4096
// scenarios per evaluation), so one evaluation is expensive enough for
// reuse to matter and cheap enough for 33 requests per cell.  The second
// algorithm column runs the same plan cold through the ordinary planner
// path, so the checked-in baseline records the one-shot cost next to the
// amortized serving cost.
Workload BuildServiceScaling(const WorkloadOptions& options) {
  Workload w = ServingWorkload(
      "service_scaling", options, 12, "serve_loop",
      "closed-loop PlanningService clients on one warm engine", RunServeLoop);
  w.default_algorithms = {"serve_loop", "greedy_minvar"};
  w.default_budget_fractions = {0.15, 0.30};
  return w;
}

// --- degraded_scaling: the robustness gate behind BENCH_robust.json ------
//
// Drives a REAL SocketServer (Unix socket, bounded admission) through a
// scripted degradation sequence with the fault registry armed on the
// server's response-write path: transient EINTR and short writes the
// write-all loop must absorb without the client noticing, mid-line peer
// disconnects the RequestSession must reconnect and retry through,
// born-expired deadlines the planner must reject without touching the
// memo, and an overloaded accept loop that sheds the session while two
// helper connections hold every admission slot.  Every fault schedule is
// periodic over the point's hit counter and the session's retry jitter
// is seeded, so the failure counters — sheds / deadline_exceeded /
// retries / faults_injected — are exact deterministic functions of the
// workload; BENCH_robust.json pins them through tools/compare_bench.py
// in the fault-injection CI job.  In builds without
// FACTCHECK_FAULT_INJECTION the armed schedules are inert and the loop
// still runs (deadlines and shedding do not depend on injection), just
// with zero injected faults and no fault-driven retries.
Selection RunDegradedLoop(const std::string& csv, const PlanContext& ctx) {
  fault::DisarmAll();

  serve::PlanningService service;
  std::string error;
  bool registered = service.RegisterProblem("bench", csv, {}, {}, &error);
  FC_CHECK(registered);

  serve::ServerOptions server_options;
  server_options.socket_path =
      "/tmp/factcheck_degraded_" + std::to_string(::getpid()) + ".sock";
  server_options.threads = 2;
  // Capacity 2: the overload phase fills both slots with helpers, and a
  // post-disconnect reconnect can briefly overlap the connection the
  // server is still tearing down without being shed itself.
  server_options.max_connections = 2;
  serve::SocketServer server(&service, server_options);
  FC_CHECK(server.Start(&error));

  serve::SessionOptions session_options;
  session_options.socket_path = server_options.socket_path;
  session_options.max_attempts = 4;
  session_options.backoff_initial_ms = 0.05;
  session_options.backoff_cap_ms = 0.5;
  session_options.counters = &service.robustness();
  serve::RequestSession session(session_options);

  const std::string plan_line = BenchPlanLine(ctx.request.budget);

  auto call_ok = [&](const std::string& line) {
    std::string response;
    bool ok = session.Call(line, &response, &error);
    FC_CHECK(ok);
    std::optional<serve::JsonValue> parsed =
        serve::JsonValue::Parse(response, &error);
    FC_CHECK(parsed.has_value());
    FC_CHECK(parsed->Find("ok")->boolean());
    return std::move(*parsed);
  };
  auto wait_connections = [&](int want) {
    for (int waited = 0; waited < 2000; ++waited) {
      if (server.live_connections() == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  // Healthy baseline: every later successful plan must select exactly
  // this set — faults may cost retries, never answers.
  serve::JsonValue warm = call_ok(plan_line);
  const Selection oracle = SelectionFromResponse(*warm.Find("result"));

  // Recovered faults: EINTR (hits 0 and 2) and halved short writes
  // (hits 0..2 after re-arming) on the response path complete inside the
  // server's write-all loop — the session never sees a failure.
  fault::Arm("serve.write", {.kind = fault::FaultKind::kEintr,
                             .first = 0,
                             .period = 2,
                             .max_count = 2});
  for (int i = 0; i < 4; ++i) {
    Selection got = SelectionFromResponse(*call_ok(plan_line).Find("result"));
    FC_CHECK(got.cleaned == oracle.cleaned);
  }
  fault::Arm("serve.write", {.kind = fault::FaultKind::kShortWrite,
                             .first = 0,
                             .period = 1,
                             .max_count = 3});
  for (int i = 0; i < 3; ++i) {
    Selection got = SelectionFromResponse(*call_ok(plan_line).Find("result"));
    FC_CHECK(got.cleaned == oracle.cleaned);
  }

  // Mid-line disconnects: the server drops the peer halfway through the
  // response (hits 0 and 2); the session reconnects and the resent plan
  // is answered bit-identically from the warm memo.
  fault::Arm("serve.write", {.kind = fault::FaultKind::kDisconnect,
                             .first = 0,
                             .period = 2,
                             .max_count = 2});
  for (int i = 0; i < 2; ++i) {
    Selection got = SelectionFromResponse(*call_ok(plan_line).Find("result"));
    FC_CHECK(got.cleaned == oracle.cleaned);
    FC_CHECK(got.order == oracle.order);
  }
  fault::Disarm("serve.write");

  // Born-expired deadlines: rejected at the planner's entry check before
  // any greedy work; the memo must stay untouched (the final plan below
  // re-verifies against the oracle).
  const std::string expired_line = BenchPlanLine(ctx.request.budget, 0.0);
  for (int i = 0; i < 2; ++i) {
    std::string response;
    bool delivered = session.Call(expired_line, &response, &error);
    FC_CHECK(delivered);  // a deadline rejection is a response, not a loss
    std::optional<serve::JsonValue> parsed =
        serve::JsonValue::Parse(response, &error);
    FC_CHECK(parsed.has_value());
    FC_CHECK(!parsed->Find("ok")->boolean());
  }

  // Overload: two helper connections hold both admission slots (the ping
  // round-trips prove the server registered them), so every one of the
  // session's four attempts is shed with one overload line — four sheds,
  // three retries, and a clean "overloaded" failure surfaced to the
  // caller.
  session.Close();
  FC_CHECK(wait_connections(0));
  {
    serve::LineClient hold_a, hold_b;
    FC_CHECK(hold_a.Connect(server_options.socket_path, &error));
    FC_CHECK(hold_b.Connect(server_options.socket_path, &error));
    std::string pong;
    FC_CHECK(hold_a.Call("{\"op\":\"ping\"}", &pong, &error));
    FC_CHECK(hold_b.Call("{\"op\":\"ping\"}", &pong, &error));
    std::string response;
    bool shed = !session.Call(plan_line, &response, &error);
    FC_CHECK(shed);
    FC_CHECK(error == "overloaded");
  }
  FC_CHECK(wait_connections(0));

  // Recovery: capacity is back, and the degraded phases must not have
  // perturbed the engine — the final plan is bit-identical to the warm
  // baseline.
  serve::JsonValue final_response = call_ok(plan_line);
  Selection selection = SelectionFromResponse(*final_response.Find("result"));
  FC_CHECK(selection.cleaned == oracle.cleaned);
  FC_CHECK(selection.order == oracle.order);

  const std::int64_t injected = fault::InjectedCount();
  if (ctx.greedy.stats_out != nullptr) {
    EngineStats out = StatsFromResponse(*final_response.Find("result"));
    out.sheds = service.robustness().sheds.load();
    out.deadline_exceeded = service.robustness().deadline_exceeded.load();
    out.retries = session.stats().retries;
    out.faults_injected = injected;
    *ctx.greedy.stats_out = out;
  }
  server.Stop();
  fault::DisarmAll();
  return selection;
}

// A small exact-enumeration problem like service_scaling's, sized so the
// thirteen-plus plan round-trips stay cheap: the point of the cell is
// the failure counters, not the selection cost.
Workload BuildDegradedScaling(const WorkloadOptions& options) {
  Workload w = ServingWorkload(
      "degraded_scaling", options, 10, "degraded_loop",
      "scripted faults, deadlines, and shedding against a live socket server",
      RunDegradedLoop);
  w.default_algorithms = {"degraded_loop"};
  w.default_budget_fractions = {0.25};
  return w;
}

// --- replan_scaling: the streaming-delta warm-replan gate ----------------
//
// Measures the delta subsystem end to end: plan once cold on a persistent
// engine, stream `touched` single-object ReplaceDistribution deltas into
// the problem, re-plan WARM on the same engine, and compare against a
// from-scratch plan of the mutated problem.  The warm replan must select
// the bit-identical set while re-evaluating strictly fewer signatures
// than the fresh engine (epoch downdating keeps every memo entry whose
// set avoids the mutated objects — the objective is exact MaxPr, whose
// value depends only on the cleaned set's own distributions), and the
// planes cache must repack exactly `touched` rows instead of rebuilding
// all n.  Every counter is an exact deterministic function of the
// workload, which is what lets BENCH_replan.json gate evaluations /
// cache_evictions / plane_rows_rebuilt through tools/compare_bench.py.

Selection RunReplanCell(const CleaningProblem& base,
                        const LinearQueryFunction& query, double tau,
                        int touched, bool report_warm,
                        const PlanContext& ctx) {
  CleaningProblem working = base;  // private mutable copy per cell
  const std::vector<double> costs = working.Costs();

  EvalEngine engine(MaxPrObjective(query, working, tau),
                    OptimizeDirection::kMaximize);
  engine.BindProblem(&working, CacheDependency::kCleanedSubset);

  // Cold plan: fills the memo, and forces the planes build the deltas
  // will partially invalidate.
  (void)working.planes();
  const Selection cold = engine.PlainGreedy(costs, ctx.request.budget);
  (void)cold;  // the cell's result is the post-delta replan

  const int n = working.size();
  for (int k = 0; k < touched; ++k) {
    const int object = (7 * k + 3) % n;  // distinct for touched <= n/7ish
    working.Apply(ProblemDelta::ReplaceDistribution(
        object, working.object(object).dist.Shifted(0.25 * (k + 1))));
  }

  const EngineStats before = engine.stats();
  const std::int64_t rows_before = working.plane_rows_rebuilt();
  (void)working.planes();  // partial repack of exactly the touched rows
  const Selection warm = engine.PlainGreedy(costs, ctx.request.budget);
  const EngineStats after = engine.stats();
  const std::int64_t rows_rebuilt =
      working.plane_rows_rebuilt() - rows_before;

  // A fresh engine on the mutated problem is the ground truth: the warm
  // replan must pick the bit-identical selection with strictly fewer
  // evaluations (the surviving memo answers the rest), and the planes
  // repack is bounded by the number of objects the deltas touched.
  EvalEngine fresh(MaxPrObjective(query, working, tau),
                   OptimizeDirection::kMaximize);
  const Selection scratch = fresh.PlainGreedy(costs, ctx.request.budget);
  FC_CHECK(scratch.cleaned == warm.cleaned);
  FC_CHECK(scratch.order == warm.order);
  const EngineStats warm_cost = after - before;
  FC_CHECK_LT(warm_cost.evaluations, fresh.stats().evaluations);
  FC_CHECK_LE(rows_rebuilt, touched);

  if (ctx.greedy.stats_out != nullptr) {
    // The warm-phase deltas (what the replan itself cost), or the
    // from-scratch cost of the same replan for the baseline to record
    // next to the warm columns.
    EngineStats out = report_warm ? warm_cost : fresh.stats();
    out.plane_rows_rebuilt = report_warm ? rows_rebuilt : 0;
    *ctx.greedy.stats_out = out;
  }
  return warm;
}

Workload BuildReplanScaling(const WorkloadOptions& options) {
  Workload w = BinarySyntheticWorkload("replan_scaling", options, 32);
  const double tau = GammaOrDefault(options, 25.0);
  w.objective = ObjectiveKind::kMaxPr;
  w.tau = tau;
  w.default_algorithms = {"replan_cold", "replan_warm_1", "replan_warm_4",
                          "replan_warm_8"};
  w.default_budget_fractions = {0.25};
  AlgorithmRegistry& local = w.EnsureLocalRegistry();
  struct Column {
    const char* name;
    const char* summary;
    int touched;
    bool warm;
  };
  const Column columns[] = {
      {"replan_cold", "from-scratch replan cost after 1 streamed delta", 1,
       false},
      {"replan_warm_1", "warm replan after 1 streamed delta", 1, true},
      {"replan_warm_4", "warm replan after 4 streamed deltas", 4, true},
      {"replan_warm_8", "warm replan after 8 streamed deltas", 8, true},
  };
  for (const Column& column : columns) {
    local.Register(
        {.name = column.name,
         .summary = column.summary,
         .objective = ObjectiveKind::kMaxPr,
         .uses_objective = false,
         .run = [problem = w.problem, query = w.linear, tau,
                 touched = column.touched,
                 warm = column.warm](const PlanContext& ctx) {
           return RunReplanCell(*problem, *query, tau, touched, warm, ctx);
         }});
  }
  return w;
}

// The kernel-layer perf gate behind BENCH_dist.json: overlapping
// sliding-window fragility claims (width 6, stride 2) on URx, so every
// greedy step drives both the 1-D per-claim and the 2-D per-pair
// convolution kernels (the stride makes every claim overlap its four
// neighbours).  The checked-in baseline records claims_greedy_minvar's
// deterministic kernel counters for CI to diff.
Workload BuildDistKernels(const WorkloadOptions& options) {
  int size = SizeOrDefault(options, 48);
  auto problem = std::make_shared<const CleaningProblem>(data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, options.seed,
      {.size = size, .min_support = 3, .max_support = 5}));
  const int width = 6;
  const int stride = 2;
  PerturbationSet context;
  context.original = MakeWindowSumClaim(0, width);
  std::vector<double> distances;
  for (int start = stride; start + width <= size; start += stride) {
    context.perturbations.push_back(MakeWindowSumClaim(start, width));
    distances.push_back(start / static_cast<double>(stride));
  }
  context.sensibilities = ExponentialSensibilities(distances, 1.05);
  auto context_ptr =
      std::make_shared<const PerturbationSet>(std::move(context));
  double gamma = GammaOrDefault(
      options, MedianPerturbationValue(*problem, *context_ptr));
  Workload w = MakeClaimsWorkload("dist_kernels", problem, context_ptr,
                                  QualityMeasure::kFragility, gamma,
                                  StrengthDirection::kHigherIsStronger);
  w.default_algorithms = {"claims_greedy_minvar"};
  w.default_budget_fractions = {0.15, 0.30};
  return w;
}

// Fig 11: CDC-firearms with injected covariance
// Cov(X_i, X_j) = gamma^{|j-i|} sigma_i sigma_j; the metric is the
// conditional variance of the bias under the full covariance.
Workload BuildCdcDependency(const WorkloadOptions& options) {
  double gamma = GammaOrDefault(options, 0.7);
  auto dataset = std::make_shared<const data::DependentDataset>(
      data::MakeDependentCdcFirearms(options.seed, gamma));
  auto problem = std::shared_ptr<const CleaningProblem>(
      dataset, &dataset->independent_view);
  auto context = std::make_shared<const PerturbationSet>(
      WindowComparisonPerturbations(data::kCdcYears, 4, 0, 1.5,
                                    /*include_original=*/true));
  double reference = context->original.Evaluate(problem->CurrentValues());
  auto bias = std::make_shared<const LinearQueryFunction>(
      BiasLinearFunction(*context, reference));
  auto weights = std::make_shared<const Vector>(
      bias->DenseWeights(data::kCdcYears));

  Workload w;
  w.name = "cdc_dependency";
  w.problem = problem;
  w.linear = bias;
  // The dependency-unaware naive greedy scores by the kBias quality at
  // reference 0, matching the historical Fig 11 driver.
  w.query = std::make_shared<const ClaimQualityFunction>(
      context.get(), QualityMeasure::kBias, 0.0);
  w.claims = context;
  w.measure = QualityMeasure::kBias;
  w.reference = reference;
  w.metric = [dataset, weights](const std::vector<int>& cleaned) {
    return dataset->model.ExpectedConditionalVariance(*weights, cleaned);
  };
  w.incremental = [dataset, weights] {
    return MakeConditionalVarianceIncremental(dataset->model, *weights);
  };
  w.default_algorithms = {"greedy_minvar_linear", "greedy_dep"};
  w.default_budget_fractions = kEffectivenessFractions;
  w.holders = {dataset, context, bias, weights};

  AlgorithmRegistry& registry = w.EnsureLocalRegistry();
  registry.Register(
      {.name = "greedy_dep",
       .summary = "covariance-aware adaptive MinVar greedy (Section 3.4)",
       .objective = ObjectiveKind::kMinVar,
       .needs_linear = true,
       .run = [dataset](const PlanContext& ctx) {
         return GreedyDep(*ctx.linear, dataset->model, ctx.costs,
                          ctx.request.budget, ctx.greedy);
       }});
  // Exhaustive OPT with full covariance knowledge: EV and cost of every
  // subset are precomputed once (lazily, shared across budgets), then any
  // budget is answered by an ascending-mask scan for the strictly
  // smallest EV — the historical Fig 11 OptTable semantics.
  struct OptCache {
    bool built = false;
    std::vector<double> evs;
    std::vector<double> costs;
  };
  auto cache = std::make_shared<OptCache>();
  registry.Register(
      {.name = "opt_exhaustive_cov",
       .summary = "exhaustive subset OPT under the true covariance, n <= 25",
       .objective = ObjectiveKind::kMinVar,
       .max_n = 25,
       .run = [dataset, weights, cache](const PlanContext& ctx) {
         const int n = ctx.problem.size();
         const std::uint32_t num_masks = 1u << n;
         if (!cache->built) {
           cache->evs.resize(num_masks);
           cache->costs.resize(num_masks);
           for (std::uint32_t mask = 0; mask < num_masks; ++mask) {
             double cost = 0.0;
             std::vector<int> set;
             for (int i = 0; i < n; ++i) {
               if (mask & (1u << i)) {
                 cost += ctx.costs[i];
                 set.push_back(i);
               }
             }
             cache->costs[mask] = cost;
             cache->evs[mask] =
                 dataset->model.ExpectedConditionalVariance(*weights, set);
           }
           cache->built = true;
         }
         double best = 1e300;
         std::uint32_t best_mask = 0;
         for (std::uint32_t mask = 0; mask < num_masks; ++mask) {
           if (cache->costs[mask] <= ctx.request.budget &&
               cache->evs[mask] < best) {
             best = cache->evs[mask];
             best_mask = mask;
           }
         }
         Selection sel;
         for (int i = 0; i < n; ++i) {
           if (best_mask & (1u << i)) {
             sel.cleaned.push_back(i);
             sel.cost += ctx.costs[i];
           }
         }
         sel.order = sel.cleaned;
         return sel;
       }});
  return w;
}

// Fig 12: Adoptions with a simplified 4-year window-sum claim; MinVar
// (budget-sweep knapsack) vs GreedyMaxPr at tau = 40.
Workload BuildAdoptionsCompeting(const WorkloadOptions& options) {
  auto problem =
      std::make_shared<const CleaningProblem>(data::MakeAdoptions(options.seed));
  int n = problem->size();
  auto context = std::make_shared<const PerturbationSet>(
      NonOverlappingWindowSumPerturbations(n, 4, 12, 1.5));
  double reference = context->original.Evaluate(problem->CurrentValues());
  auto bias = std::make_shared<const LinearQueryFunction>(
      BiasLinearFunction(*context, reference));
  auto weights = std::make_shared<const std::vector<double>>(
      MinVarModularWeights(*bias, problem->Variances(), n));

  Workload w;
  w.name = "adoptions_competing";
  w.problem = problem;
  w.query = bias;
  w.linear = bias;
  w.claims = context;
  w.measure = QualityMeasure::kBias;
  w.reference = reference;
  w.tau = GammaOrDefault(options, 40.0);
  w.metric = RemainingVarianceMetric(weights);
  w.default_algorithms = {"knapsack_dp_minvar", "greedy_maxpr_normal"};
  w.default_budget_fractions = kEffectivenessFractions;
  w.holders = {problem, context, bias, weights};
  return w;
}

// Percentage-change (ratio) claims — nonlinear, so only the ratio
// evaluator's incremental greedy and the naive baseline apply.
Workload BuildRatioWorkload(const std::string& name,
                            std::shared_ptr<const CleaningProblem> problem,
                            int width, int original_start, double claimed) {
  auto context = std::make_shared<const RatioPerturbationSet>(
      NonOverlappingRatioPerturbations(problem->size(), width,
                                       original_start, 1.5));
  auto evaluator = std::make_shared<const RatioEvEvaluator>(
      problem.get(), context.get(), QualityMeasure::kDuplicity, claimed);

  Workload w;
  w.name = name;
  w.problem = problem;
  w.query = std::make_shared<const LambdaQueryFunction>(RatioQualityFunction(
      *context, QualityMeasure::kDuplicity, claimed,
      StrengthDirection::kHigherIsStronger));
  w.measure = QualityMeasure::kDuplicity;
  w.reference = claimed;
  w.metric = LockedEvMetric(evaluator);
  // Disjoint-reference locality through the shared evaluator's term
  // caches: every engine algorithm now probes ratio claims at O(1) terms
  // per candidate instead of one full EV (the PR-5 carry-over).
  w.incremental = [evaluator] { return evaluator->MakeIncremental(); };
  w.default_algorithms = {"greedy_naive", "claims_greedy_minvar"};
  w.default_budget_fractions = kRatioFractions;
  w.holders = {problem, context, evaluator};

  w.EnsureLocalRegistry().Register(
      {.name = "claims_greedy_minvar",
       .summary = "incremental ratio-claim greedy (fresh evaluator per run)",
       .objective = ObjectiveKind::kMinVar,
       .run = [problem, context, claimed](const PlanContext& ctx) {
         RatioEvEvaluator fresh(problem.get(), context.get(),
                                QualityMeasure::kDuplicity, claimed);
         std::unique_ptr<IncrementalObjective> incremental =
             fresh.MakeIncremental();
         GreedyOptions options = ctx.greedy;
         options.incremental = incremental.get();
         return AdaptiveGreedyMinimize(
             ctx.costs, ctx.request.budget,
             [&fresh](const std::vector<int>& t) { return fresh.EV(t); },
             options);
       }});
  return w;
}

Workload BuildAdoptionsRatio(const WorkloadOptions& options) {
  // "The rise between back-to-back 4-year windows was as large as +30%";
  // perturbations are other non-overlapping window pairs.
  auto problem = std::make_shared<const CleaningProblem>(
      data::MakeAdoptions(options.seed, /*quantization_points=*/4));
  return BuildRatioWorkload("adoptions_ratio", problem, 4, 8,
                            GammaOrDefault(options, 0.30));
}

Workload BuildUrxRatio(const WorkloadOptions& options) {
  auto problem = std::make_shared<const CleaningProblem>(data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, options.seed,
      {.size = SizeOrDefault(options, 48), .min_support = 2,
       .max_support = 4}));
  return BuildRatioWorkload("urx_ratio", problem, 4, 16,
                            GammaOrDefault(options, 0.25));
}

}  // namespace

const std::vector<double>& EffectivenessBudgetFractions() {
  return kEffectivenessFractions;
}

double MedianPerturbationValue(const CleaningProblem& problem,
                               const PerturbationSet& context) {
  std::vector<double> u = problem.CurrentValues();
  std::vector<double> sums;
  for (const Claim& q : context.perturbations) sums.push_back(q.Evaluate(u));
  std::sort(sums.begin(), sums.end());
  FC_CHECK(!sums.empty());
  return sums[sums.size() / 2];
}

Workload MakeModularFairnessWorkload(
    std::string name, std::shared_ptr<const CleaningProblem> problem,
    std::shared_ptr<const PerturbationSet> context, double bias_reference,
    double quality_reference) {
  auto bias = std::make_shared<const LinearQueryFunction>(
      BiasLinearFunction(*context, bias_reference));
  int n = problem->size();
  std::vector<double> variances = problem->Variances();
  auto weights = std::make_shared<const std::vector<double>>([&] {
    std::vector<double> w(n, 0.0);
    for (int i = 0; i < n; ++i) {
      double a = bias->Coefficient(i);
      w[i] = a * a * variances[i];
    }
    return w;
  }());

  Workload w;
  w.name = std::move(name);
  w.problem = problem;
  w.query = std::make_shared<const ClaimQualityFunction>(
      context.get(), QualityMeasure::kBias, quality_reference);
  w.linear = bias;
  w.claims = context;
  w.measure = QualityMeasure::kBias;
  w.reference = bias_reference;
  w.metric = RemainingVarianceMetric(weights);
  w.incremental = [weights] { return MakeModularIncremental(*weights); };
  w.default_algorithms = {"greedy_naive_cost_blind", "greedy_naive",
                          "greedy_minvar_linear", "knapsack_dp_minvar"};
  w.default_budget_fractions = kEffectivenessFractions;
  w.holders = {problem, context, bias, weights};
  return w;
}

Workload MakeClaimsWorkload(std::string name,
                            std::shared_ptr<const CleaningProblem> problem,
                            std::shared_ptr<const PerturbationSet> context,
                            QualityMeasure measure, double reference,
                            StrengthDirection direction) {
  auto evaluator = std::make_shared<const ClaimEvEvaluator>(
      problem.get(), context.get(), measure, reference, direction);

  Workload w;
  w.name = std::move(name);
  w.problem = problem;
  w.query = std::make_shared<const ClaimQualityFunction>(
      context.get(), measure, reference, direction);
  w.claims = context;
  w.measure = measure;
  w.reference = reference;
  w.direction = direction;
  w.metric = LockedEvMetric(evaluator);
  // The engine's greedy drivers probe through the shared evaluator's term
  // caches (Theorem 3.8's locality) instead of paying one full EV per
  // candidate; the metric above stays the batch objective of record.
  w.incremental = [evaluator] { return evaluator->MakeIncremental(); };
  w.default_algorithms = {"greedy_naive", "claims_greedy_minvar",
                          "best_minvar"};
  w.default_budget_fractions = kEffectivenessFractions;
  w.holders = {problem, context, evaluator};

  // The incremental Theorem-3.8 greedy.  A fresh evaluator is built per
  // run so the wall clock includes the term-cache construction a
  // fact-checker would pay (the Fig 10 timing semantics).
  w.EnsureLocalRegistry().Register(
      {.name = "claims_greedy_minvar",
       .summary =
           "incremental Theorem-3.8 greedy (fresh evaluator per run)",
       .objective = ObjectiveKind::kMinVar,
       .run = [problem, context, measure, reference,
               direction](const PlanContext& ctx) {
         ClaimEvEvaluator fresh(problem.get(), context.get(), measure,
                                reference, direction);
         return fresh.GreedyMinVar(ctx.request.budget, ctx.greedy);
       }});
  return w;
}

Workload MakeMaxPrNormalWorkload(
    std::string name, std::shared_ptr<const CleaningProblem> problem,
    std::shared_ptr<const LinearQueryFunction> bias, double tau) {
  Workload w;
  w.name = std::move(name);
  w.problem = problem;
  w.query = bias;
  w.linear = bias;
  w.objective = ObjectiveKind::kMaxPr;
  w.tau = tau;
  w.default_algorithms = {"greedy_maxpr_normal"};
  w.default_budget_fractions = kEffectivenessFractions;
  w.holders = {problem, bias};
  return w;
}

Workload MakeUrxWindowExact(int size, int num_refs, std::uint64_t seed) {
  FC_CHECK_LE(num_refs, size);
  auto problem = std::make_shared<const CleaningProblem>(data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, seed,
      {.size = size, .min_support = 3, .max_support = 3}));
  std::vector<int> refs(num_refs);
  double mean_sum = 0.0;
  for (int i = 0; i < num_refs; ++i) {
    refs[i] = i;
    mean_sum += problem->object(i).dist.Mean();
  }
  // Contested indicator: the window sum can land on either side of the
  // mean total.
  Workload w;
  w.name = "urx_window_exact";
  w.problem = problem;
  w.query = std::make_shared<const LambdaQueryFunction>(
      refs, [threshold = mean_sum](const std::vector<double>& x) {
        double s = 0.0;
        for (double v : x) s += v;
        return s < threshold ? 1.0 : 0.0;
      });
  w.default_algorithms = {"greedy_minvar"};
  w.default_budget_fractions = {0.35};
  w.holders = {problem};
  return w;
}

namespace internal {

void RegisterBuiltinWorkloads(WorkloadRegistry& registry) {
  using Family = data::SyntheticFamily;
  auto add = [&registry](WorkloadRegistry::Entry entry) {
    registry.Register(std::move(entry));
  };
  add({.name = "adoptions_fairness",
       .summary = "Fig 1a/1b: modular claim fairness on Adoptions",
       .build = BuildAdoptionsFairness});
  add({.name = "cdc_firearms_fairness",
       .summary = "Fig 1c: modular claim fairness on CDC-firearms",
       .build = BuildCdcFirearmsFairness});
  add({.name = "cdc_causes_fairness",
       .summary = "Fig 1d: modular claim fairness on CDC-causes",
       .build = BuildCdcCausesFairness});
  add({.name = "cdc_firearms_uniqueness",
       .summary = "Fig 2a: claim uniqueness (duplicity) on CDC-firearms",
       .build = BuildCdcFirearmsUniqueness});
  add({.name = "cdc_causes_uniqueness",
       .summary = "Fig 2b / Fig 8: claim uniqueness on CDC-causes",
       .build = BuildCdcCausesUniqueness});
  add({.name = "urx_uniqueness",
       .summary = "Fig 3: window-sum uniqueness on URx (--gamma sweeps)",
       .build = [](const WorkloadOptions& options) {
         return BuildSyntheticUniqueness(
             "urx_uniqueness", Family::kUniformRandom, options, 150.0,
             StrengthDirection::kHigherIsStronger);
       }});
  add({.name = "lnx_uniqueness",
       .summary = "Fig 4: window-sum uniqueness on LNx (--gamma sweeps)",
       .build = [](const WorkloadOptions& options) {
         return BuildSyntheticUniqueness(
             "lnx_uniqueness", Family::kLogNormal, options, 4.5,
             StrengthDirection::kHigherIsStronger);
       }});
  add({.name = "smx_uniqueness",
       .summary = "Fig 5: window-sum uniqueness on SMx (--gamma sweeps)",
       .build = [](const WorkloadOptions& options) {
         return BuildSyntheticUniqueness(
             "smx_uniqueness", Family::kStructuredMultimodal, options, 150.0,
             StrengthDirection::kHigherIsStronger);
       }});
  add({.name = "urx_action",
       .summary = "Fig 9: in-action uniqueness on URx, Gamma = 100",
       .build = [](const WorkloadOptions& options) {
         return BuildSyntheticUniqueness(
             "urx_action", Family::kUniformRandom, options, 100.0,
             StrengthDirection::kLowerIsStronger);
       }});
  add({.name = "cdc_firearms_robustness",
       .summary = "Fig 7a: claim robustness (fragility) on CDC-firearms",
       .build = BuildCdcFirearmsRobustness});
  add({.name = "degraded_scaling",
       .summary =
           "Robustness gate: faults, deadlines, shedding on a live server",
       .build = BuildDegradedScaling});
  add({.name = "urx_robustness",
       .summary = "Fig 7b: claim robustness on URx n=100, Gamma' = 100",
       .build = BuildUrxRobustness});
  add({.name = "urx_scaling",
       .summary = "Fig 10: incremental greedy efficiency on URx (--size)",
       .build = BuildUrxScaling});
  add({.name = "engine_scaling",
       .summary = "Perf gate: incremental vs batch engine greedy (--size)",
       .build = BuildEngineScaling});
  add({.name = "dist_kernels",
       .summary = "Perf gate: SoA kernel counters on overlapping claims",
       .build = BuildDistKernels});
  add({.name = "service_scaling",
       .summary = "Serving gate: concurrent clients on one warm engine",
       .build = BuildServiceScaling});
  add({.name = "replan_scaling",
       .summary = "Delta gate: warm replan latency vs streamed delta size",
       .build = BuildReplanScaling});
  add({.name = "cdc_dependency",
       .summary =
           "Fig 11: injected covariance on CDC-firearms (--gamma = corr)",
       .build = BuildCdcDependency});
  add({.name = "adoptions_competing",
       .summary = "Fig 12: MinVar vs MaxPr objectives on Adoptions, tau=40",
       .build = BuildAdoptionsCompeting});
  add({.name = "adoptions_ratio",
       .summary = "Extension: percentage-change claim on Adoptions",
       .build = BuildAdoptionsRatio});
  add({.name = "urx_ratio",
       .summary = "Extension: percentage-change claim on URx (--gamma)",
       .build = BuildUrxRatio});
  add({.name = "urx_window_exact",
       .summary = "Engine bench: exact-enumeration MinVar on URx windows",
       .build = [](const WorkloadOptions& options) {
         int size = SizeOrDefault(options, 16);
         // The query window cannot reference more objects than exist.
         int num_refs = std::min(6, size);
         return MakeUrxWindowExact(size, num_refs, options.seed + size);
       }});
}

}  // namespace internal

}  // namespace exp
}  // namespace factcheck
