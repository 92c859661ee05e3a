#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/brute_force.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "core/maxpr.h"
#include "core/modular.h"
#include "core/registry.h"
#include "montecarlo/mc_greedy.h"
#include "submodular/issc.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace factcheck {

const char* ObjectiveKindName(ObjectiveKind kind) {
  return kind == ObjectiveKind::kMinVar ? "minvar" : "maxpr";
}

std::optional<ObjectiveKind> ParseObjectiveKind(const std::string& name) {
  if (name == "minvar") return ObjectiveKind::kMinVar;
  if (name == "maxpr") return ObjectiveKind::kMaxPr;
  return std::nullopt;
}

namespace {

std::vector<double> Stddevs(const CleaningProblem& problem) {
  std::vector<double> out = problem.Variances();
  for (double& v : out) v = std::sqrt(v);
  return out;
}

// --- Built-in adapters: PlanContext -> the algorithm's native call. ------

Selection RunRandom(const PlanContext& ctx) {
  return RandomSelect(ctx.costs, ctx.request.budget, *ctx.rng);
}

Selection RunGreedyNaive(const PlanContext& ctx) {
  return GreedyNaive(ctx.query, ctx.problem, ctx.request.budget);
}

Selection RunGreedyNaiveCostBlind(const PlanContext& ctx) {
  return GreedyNaiveCostBlind(ctx.query, ctx.problem, ctx.request.budget);
}

Selection RunGreedyMinVar(const PlanContext& ctx) {
  // Identical to GreedyMinVar(query, problem, ...) — that free function is
  // exactly this call with the exact enumeration objective — but driven by
  // ctx.objective so custom objectives (e.g. the fast claim evaluator)
  // plug in transparently.
  return AdaptiveGreedyMinimize(ctx.costs, ctx.request.budget, ctx.objective,
                                ctx.greedy);
}

Selection RunGreedyMaxPr(const PlanContext& ctx) {
  return AdaptiveGreedyMaximize(ctx.costs, ctx.request.budget, ctx.objective,
                                ctx.greedy);
}

Selection RunGreedyMaxPrNormal(const PlanContext& ctx) {
  return GreedyMaxPrNormal(*ctx.linear, ctx.problem.Means(),
                           Stddevs(ctx.problem), ctx.problem.CurrentValues(),
                           ctx.costs, ctx.request.budget, ctx.request.tau,
                           ctx.greedy);
}

Selection RunGreedyMinVarLinear(const PlanContext& ctx) {
  return GreedyMinVarLinearIndependent(*ctx.linear, ctx.problem.Variances(),
                                       ctx.costs, ctx.request.budget);
}

// GreedyDep (the covariance-aware variant) is deliberately not registered:
// PlanRequest has no MVN field yet, and registering the degenerate
// diagonal form would be misleading.  It remains a direct call
// (core/greedy.h) until the request grows a correlation model.

Selection RunMcGreedyMinVar(const PlanContext& ctx) {
  return GreedyMinVarMonteCarlo(ctx.query, ctx.problem, ctx.request.budget,
                                ctx.request.engine.mc_samples,
                                ctx.request.engine.mc_inner, *ctx.rng,
                                ctx.greedy);
}

Selection RunMcGreedyMaxPr(const PlanContext& ctx) {
  return GreedyMaxPrMonteCarlo(ctx.query, ctx.problem, ctx.request.budget,
                               ctx.request.tau,
                               ctx.request.engine.mc_samples, *ctx.rng,
                               ctx.greedy);
}

Selection RunBestMinVar(const PlanContext& ctx) {
  return BestMinVar(ctx.objective, ctx.costs, ctx.request.budget);
}

Selection RunKnapsackDpMinVar(const PlanContext& ctx) {
  return MinVarOptimumDp(*ctx.linear, ctx.problem.Variances(), ctx.costs,
                         ctx.request.budget, ctx.request.cost_scale);
}

Selection RunKnapsackFptasMinVar(const PlanContext& ctx) {
  return MinVarFptas(*ctx.linear, ctx.problem.Variances(), ctx.costs,
                     ctx.request.budget, ctx.request.fptas_eps);
}

Selection RunKnapsackDpMaxPr(const PlanContext& ctx) {
  return MaxPrOptimumDp(*ctx.linear, Stddevs(ctx.problem), ctx.costs,
                        ctx.request.budget, ctx.request.cost_scale);
}

Selection RunKnapsackFptasMaxPr(const PlanContext& ctx) {
  return MaxPrFptas(*ctx.linear, Stddevs(ctx.problem), ctx.costs,
                    ctx.request.budget, ctx.request.fptas_eps);
}

Selection RunBruteForce(const PlanContext& ctx) {
  return ctx.direction == OptimizeDirection::kMinimize
             ? BruteForceMinimize(ctx.costs, ctx.request.budget, ctx.objective)
             : BruteForceMaximize(ctx.costs, ctx.request.budget,
                                  ctx.objective);
}

// Product of the support sizes of the query's references — the number of
// scenarios one exact objective evaluation enumerates.
double ScenarioCount(const QueryFunction& query,
                     const CleaningProblem& problem) {
  double scenarios = 1.0;
  for (int i : query.References()) {
    scenarios *= problem.object(i).dist.support_size();
    if (scenarios > Planner::kTrajectoryScenarioLimit) break;
  }
  return scenarios;
}

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

namespace internal {

void RegisterBuiltinAlgorithms(AlgorithmRegistry& registry) {
  using Kind = ObjectiveKind;
  auto add = [&registry](AlgorithmRegistry::Algorithm algorithm) {
    registry.Register(std::move(algorithm));
  };
  add({.name = "random",
       .summary = "uniform random baseline (seeded)",
       .objective = std::nullopt,
       .run = RunRandom});
  add({.name = "greedy_naive",
       .summary = "static greedy on Var[X_i]/cost of referenced objects",
       .objective = std::nullopt,
       .run = RunGreedyNaive});
  add({.name = "greedy_naive_cost_blind",
       .summary = "static greedy on Var[X_i], ignoring costs",
       .objective = std::nullopt,
       .run = RunGreedyNaiveCostBlind});
  add({.name = "greedy_minvar",
       .summary = "adaptive greedy on the exact (or custom) EV objective",
       .objective = Kind::kMinVar,
       .uses_objective = true,
       .run = RunGreedyMinVar});
  add({.name = "greedy_minvar_linear",
       .summary = "modular MinVar greedy for affine queries (Lemma 3.1)",
       .objective = Kind::kMinVar,
       .needs_linear = true,
       .run = RunGreedyMinVarLinear});
  add({.name = "greedy_maxpr",
       .summary = "adaptive greedy on the exact surprise probability",
       .objective = Kind::kMaxPr,
       .uses_objective = true,
       .run = RunGreedyMaxPr});
  add({.name = "greedy_maxpr_normal",
       .summary = "MaxPr greedy in the normal closed form (Lemma 3.3)",
       .objective = Kind::kMaxPr,
       .needs_linear = true,
       .run = RunGreedyMaxPrNormal});
  add({.name = "mc_greedy_minvar",
       .summary = "adaptive greedy on the Monte Carlo EV estimate",
       .objective = Kind::kMinVar,
       .run = RunMcGreedyMinVar});
  add({.name = "mc_greedy_maxpr",
       .summary = "adaptive greedy on the Monte Carlo surprise estimate",
       .objective = Kind::kMaxPr,
       .run = RunMcGreedyMaxPr});
  add({.name = "best_minvar",
       .summary = "ISSC submodular-cover approximation (\"Best\", Thm 3.7)",
       .objective = Kind::kMinVar,
       .uses_objective = true,
       .run = RunBestMinVar});
  add({.name = "knapsack_dp_minvar",
       .summary = "exact modular MinVar via knapsack DP (Lemma 3.2)",
       .objective = Kind::kMinVar,
       .needs_linear = true,
       .run = RunKnapsackDpMinVar});
  add({.name = "knapsack_fptas_minvar",
       .summary = "modular MinVar FPTAS (Lemma 3.2, value scaling)",
       .objective = Kind::kMinVar,
       .needs_linear = true,
       .run = RunKnapsackFptasMinVar});
  add({.name = "knapsack_dp_maxpr",
       .summary = "exact modular MaxPr via knapsack DP (Lemma 3.3)",
       .objective = Kind::kMaxPr,
       .needs_linear = true,
       .run = RunKnapsackDpMaxPr});
  add({.name = "knapsack_fptas_maxpr",
       .summary = "modular MaxPr FPTAS (Lemma 3.3, value scaling)",
       .objective = Kind::kMaxPr,
       .needs_linear = true,
       .run = RunKnapsackFptasMaxPr});
  add({.name = "brute_force",
       .summary = "exhaustive subset search (\"OPT\"), n <= 25",
       .objective = std::nullopt,
       .uses_objective = true,
       .max_n = 25,
       .run = RunBruteForce});
}

}  // namespace internal

Planner::Planner(const AlgorithmRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &AlgorithmRegistry::Global()) {}

std::optional<PlanResult> Planner::TryPlan(const PlanRequest& request,
                                           const std::string& algorithm,
                                           std::string* error) const {
  const AlgorithmRegistry::Algorithm* algo = registry_->Find(algorithm);
  if (algo == nullptr) {
    SetError(error, "unknown algorithm \"" + algorithm +
                        "\" (see list-algos for the catalogue)");
    return std::nullopt;
  }
  FC_CHECK(request.problem != nullptr);
  FC_CHECK(request.query != nullptr);
  if (request.budget < 0.0) {
    SetError(error, "budget must be non-negative");
    return std::nullopt;
  }
  if (algo->objective.has_value() && *algo->objective != request.objective) {
    SetError(error, algorithm + " optimizes " +
                        ObjectiveKindName(*algo->objective) +
                        "; the request asks for " +
                        ObjectiveKindName(request.objective));
    return std::nullopt;
  }
  if (algo->needs_linear && request.linear_query == nullptr) {
    SetError(error, algorithm + " needs the query in affine form "
                                "(PlanRequest::linear_query)");
    return std::nullopt;
  }
  if (algo->max_n > 0 && request.problem->size() > algo->max_n) {
    SetError(error, algorithm + " supports at most " +
                        std::to_string(algo->max_n) + " objects, problem has " +
                        std::to_string(request.problem->size()));
    return std::nullopt;
  }

  // Deadline check before any work: a request that arrives already
  // expired is rejected without building the objective.
  if (request.cancel != nullptr && request.cancel->Cancelled()) {
    SetError(error, "deadline exceeded");
    return std::nullopt;
  }

  PlanResult result;
  result.algorithm = algorithm;
  result.objective = ObjectiveKindName(request.objective);

  const bool custom = request.custom_objective != nullptr;
  SetObjective objective =
      custom ? request.custom_objective
      : request.objective == ObjectiveKind::kMinVar
          ? MinVarObjective(*request.query, *request.problem)
          : MaxPrObjective(*request.query, *request.problem, request.tau);

  std::optional<ThreadPool> pool;
  if (request.engine.threads > 1) pool.emplace(request.engine.threads);
  Rng rng(request.engine.seed);

  // One incremental instance per run: the objects are single-run state
  // machines (core/incremental.h), so the request carries a factory.
  // Attached only to algorithms that consume PlanContext::objective —
  // the factory mirrors THAT objective, and handing it to an algorithm
  // that greedy-drives a different one (the Monte Carlo estimators build
  // their own sampling objective) would silently swap its evaluator.
  std::unique_ptr<IncrementalObjective> incremental;
  if (request.custom_incremental != nullptr && algo->uses_objective) {
    incremental = request.custom_incremental();
  }

  PlanContext ctx{.request = request,
                  .problem = *request.problem,
                  .query = *request.query,
                  .linear = request.linear_query,
                  .objective = objective,
                  .direction = request.objective == ObjectiveKind::kMinVar
                                   ? OptimizeDirection::kMinimize
                                   : OptimizeDirection::kMaximize,
                  .costs = request.problem->Costs(),
                  .greedy = {},
                  .rng = &rng};
  ctx.greedy.lazy = request.engine.lazy;
  ctx.greedy.pool = pool.has_value() ? &*pool : nullptr;
  ctx.greedy.incremental = incremental.get();
  ctx.greedy.stats_out = &result.stats;
  ctx.greedy.cancel = request.cancel;
  // Persistent engine: same uses_objective gate as the incremental factory
  // — the engine's retained objective mirrors PlanContext::objective, so
  // only algorithms that greedy-drive it may run on the shared memo.
  const bool shared_engine =
      request.session_engine != nullptr && algo->uses_objective;
  if (shared_engine) {
    ctx.greedy.engine = request.session_engine;
  }

  Stopwatch stopwatch;
  result.selection = algo->run(ctx);
  result.wall_seconds = stopwatch.ElapsedSeconds();

  // A run the token stopped mid-way produced a partial selection; discard
  // it rather than hand back a silently worse plan.  The engine memo is
  // untouched by the discard — cancellation only ever skips work.
  if (request.cancel != nullptr && request.cancel->Cancelled()) {
    SetError(error, "deadline exceeded");
    return std::nullopt;
  }

  result.labels.reserve(result.selection.cleaned.size());
  for (int i : result.selection.cleaned) {
    result.labels.push_back(request.problem->object(i).label);
  }

  // Per-round trajectory: the objective re-evaluated on each prefix of the
  // pick order, exact enumeration guarded by the scenario cap (a custom
  // objective is the caller's scalable evaluator, so it is always used).
  if (request.with_trajectory &&
      (custom || ScenarioCount(*request.query, *request.problem) <=
                     kTrajectoryScenarioLimit)) {
    // Set-producing algorithms (brute_force, best_minvar) return no pick
    // order; walk their cleaned set in index order instead.
    const std::vector<int>& picks = result.selection.order.empty()
                                        ? result.selection.cleaned
                                        : result.selection.order;
    std::vector<std::vector<int>> prefixes;
    prefixes.reserve(picks.size() + 1);
    prefixes.emplace_back();
    for (int i : picks) {
      prefixes.push_back(prefixes.back());
      prefixes.back().push_back(i);
    }
    // All prefixes go through one engine batch (spread over the pool when
    // threads > 1) instead of a serial objective loop.  A session engine
    // that drove the selection also serves the trajectory, so repeat
    // requests answer it from the cross-request memo; otherwise a local
    // engine still dedupes the prefixes the selection already evaluated
    // within this batch.
    std::optional<EvalEngine> local_engine;
    if (!shared_engine) {
      local_engine.emplace(objective, ctx.direction, ctx.greedy.pool);
    }
    EvalEngine& trajectory_engine =
        shared_engine ? *request.session_engine : *local_engine;
    result.trajectory = trajectory_engine.EvaluateBatch(prefixes);
    result.objective_value = result.trajectory.back();
    result.has_objective_value = true;
    // A session engine's stats are its lifetime counters: report them as
    // of the end of this request, trajectory lookups included.
    if (shared_engine) result.stats = trajectory_engine.stats();
  }
  return result;
}

PlanResult Planner::Plan(const PlanRequest& request,
                         const std::string& algorithm) const {
  std::string error;
  std::optional<PlanResult> result = TryPlan(request, algorithm, &error);
  if (!result.has_value()) {
    std::fprintf(stderr, "Planner::Plan: %s\n", error.c_str());
    FC_CHECK(result.has_value());
  }
  return std::move(*result);
}

}  // namespace factcheck
