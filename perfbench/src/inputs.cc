#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "data/problem_io.h"
#include "data/synthetic.h"
#include "serve/changelog.h"
#include "serve/json_value.h"
#include "util/json.h"

namespace perfbench {
namespace {

using factcheck::CleaningProblem;
using factcheck::JsonWriter;

ProblemInput MakeInput(const std::string& name, std::uint64_t seed, int size,
                       int max_support) {
  ProblemInput input;
  input.name = name;
  const CleaningProblem generated = factcheck::data::MakeSynthetic(
      factcheck::data::SyntheticFamily::kUniformRandom, seed,
      {.size = size, .min_support = 1, .max_support = max_support});
  input.csv = factcheck::data::ProblemToCsv(generated);
  input.problem = std::make_shared<CleaningProblem>(
      *factcheck::data::ProblemFromCsv(input.csv));
  std::vector<int> refs(size);
  for (int i = 0; i < size; ++i) refs[i] = i;
  input.query = std::make_shared<factcheck::LinearQueryFunction>(
      refs, std::vector<double>(size, 1.0));
  return input;
}

// A MaxPr threshold of half the bias standard deviation, rounded so the
// request line stays short.
double TauFor(const CleaningProblem& problem) {
  double variance = 0.0;
  for (double v : problem.Variances()) variance += v;
  return std::max(1.0, std::round(0.5 * std::sqrt(variance)));
}

std::string PlanLine(const std::string& problem, const PlanSpec& spec) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("op").String("plan")
      .Key("problem").String(problem)
      .Key("algo").String(spec.algo)
      .Key("budget_frac").Number(spec.budget_frac);
  if (spec.tau.has_value()) writer.Key("tau").Number(*spec.tau);
  if (spec.mc_samples.has_value()) writer.Key("mc_samples").Int(*spec.mc_samples);
  writer.EndObject();
  return writer.str();
}

void AddSpec(PlanPool& pool, const std::vector<ProblemInput>& problems,
             PlanSpec spec) {
  spec.line = PlanLine(problems[spec.problem].name, spec);
  if (pool.by_class.size() <= static_cast<size_t>(spec.klass)) {
    pool.by_class.resize(spec.klass + 1);
  }
  pool.by_class[spec.klass].push_back(static_cast<int>(pool.specs.size()));
  pool.specs.push_back(std::move(spec));
}

constexpr double kFractions[] = {0.05, 0.1, 0.2};

}  // namespace

std::string ProblemInput::RegisterLine() const {
  JsonWriter writer;
  writer.BeginObject()
      .Key("op").String("register")
      .Key("problem").String(name)
      .Key("csv").String(csv)
      .EndObject();
  return writer.str();
}

factcheck::PlanRequest PlanSpec::OneShot(
    const CleaningProblem& problem,
    const factcheck::LinearQueryFunction& query) const {
  factcheck::PlanRequest request;
  request.problem = &problem;
  request.query = &query;
  request.linear_query = &query;
  request.objective = tau.has_value() ? factcheck::ObjectiveKind::kMaxPr
                                      : factcheck::ObjectiveKind::kMinVar;
  request.tau = tau.value_or(0.0);
  if (mc_samples.has_value()) request.engine.mc_samples = *mc_samples;
  request.budget = budget_frac * problem.TotalCost();
  return request;
}

std::vector<ProblemInput> WarmProblems(std::uint64_t seed) {
  std::vector<ProblemInput> problems;
  for (int i = 0; i < 13; ++i) {
    problems.push_back(MakeInput("w" + std::to_string(i), DeriveSeed(seed, i),
                                 100 + 75 * i, 6));
  }
  for (int i = 0; i < 3; ++i) {
    problems.push_back(MakeInput("x" + std::to_string(i),
                                 DeriveSeed(seed, 20 + i), 6 + i, 4));
  }
  return problems;
}

// Classes: 0 greedy_minvar_linear, 1 greedy_maxpr_normal,
// 2 knapsack_dp_minvar, 3 exact greedy_minvar, 4 exact greedy_maxpr,
// 5 mc_greedy_maxpr.  The weights keep the expensive classes rare so the
// median request is a memo-served one and the p99 a DP or exact one.
PlanPool WarmPool(const std::vector<ProblemInput>& problems) {
  PlanPool pool;
  pool.class_weights = {0.50, 0.28, 0.03, 0.08, 0.08, 0.03};
  for (int p = 0; p < static_cast<int>(problems.size()); ++p) {
    const CleaningProblem& problem = *problems[p].problem;
    const bool exact = problem.size() <= 8;
    const double tau = TauFor(problem);
    for (double frac : kFractions) {
      if (!exact) {
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_minvar_linear",
                                 .klass = 0, .budget_frac = frac});
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_maxpr_normal",
                                 .klass = 1, .budget_frac = frac, .tau = tau});
      } else {
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_minvar",
                                 .klass = 3, .budget_frac = frac + 0.2});
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_maxpr",
                                 .klass = 4, .budget_frac = frac + 0.2,
                                 .tau = tau});
      }
    }
    if (!exact && problem.size() <= 400) {
      for (double frac : kFractions) {
        AddSpec(pool, problems, {.problem = p, .algo = "knapsack_dp_minvar",
                                 .klass = 2, .budget_frac = frac});
      }
    }
    if (exact) {
      AddSpec(pool, problems, {.problem = p, .algo = "mc_greedy_maxpr",
                               .klass = 5, .budget_frac = 0.3, .tau = tau,
                               .mc_samples = 16});
    }
  }
  return pool;
}

int PlanStream::Next() {
  const int klass = rng_.Weighted(pool_->class_weights);
  const std::vector<int>& members = pool_->by_class[klass];
  return members[rng_.UniformInt(0, static_cast<int>(members.size()) - 1)];
}

ProblemInput SideProblem(std::uint64_t seed) {
  return MakeInput("side", DeriveSeed(seed, 40), 200, 6);
}

std::vector<ProblemInput> ChurnProblems(std::uint64_t seed) {
  std::vector<ProblemInput> problems;
  for (int i = 0; i < 12; ++i) {
    problems.push_back(MakeInput("c" + std::to_string(i),
                                 DeriveSeed(seed, 200 + i), 150 + 50 * i, 6));
  }
  problems.push_back(MakeInput("cx", DeriveSeed(seed, 212), 8, 4));
  return problems;
}

// Classes: 0 greedy_minvar_linear, 1 greedy_maxpr_normal, 2 exact
// greedy_minvar, 3 exact greedy_maxpr.  The exact plans run on the
// session engines, whose memos the updates evict.
PlanPool ChurnPool(const std::vector<ProblemInput>& problems) {
  PlanPool pool;
  pool.class_weights = {0.80, 0.12, 0.04, 0.04};
  for (int p = 0; p < static_cast<int>(problems.size()); ++p) {
    const double tau = TauFor(*problems[p].problem);
    const bool exact = problems[p].problem->size() <= 8;
    for (double frac : kFractions) {
      if (exact) {
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_minvar",
                                 .klass = 2, .budget_frac = frac + 0.2});
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_maxpr",
                                 .klass = 3, .budget_frac = frac + 0.2,
                                 .tau = tau});
      } else {
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_minvar_linear",
                                 .klass = 0, .budget_frac = frac});
        AddSpec(pool, problems, {.problem = p, .algo = "greedy_maxpr_normal",
                                 .klass = 1, .budget_frac = frac, .tau = tau});
      }
    }
  }
  return pool;
}

std::string UpdateDeltasJson(StreamRng& rng, int objects, int max_deltas,
                             int max_support) {
  JsonWriter writer;
  writer.BeginArray();
  const int count = rng.UniformInt(1, max_deltas);
  for (int d = 0; d < count; ++d) {
    const int object = rng.UniformInt(0, objects - 1);
    const int kind = rng.UniformInt(0, 2);
    factcheck::ProblemDelta delta;
    if (kind == 0) {
      const int support = rng.UniformInt(1, max_support);
      std::vector<double> values, probs;
      for (int s = 0; s < support; ++s) {
        values.push_back(static_cast<double>(rng.UniformInt(1, 100)));
        probs.push_back(static_cast<double>(rng.UniformInt(1, 9)));
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      probs.resize(values.size());
      double total = 0.0;
      for (double p : probs) total += p;
      for (double& p : probs) p /= total;
      delta = factcheck::ProblemDelta::ReplaceDistribution(
          object, factcheck::DiscreteDistribution(values, probs));
    } else if (kind == 1) {
      delta = factcheck::ProblemDelta::SetCost(object, rng.UniformInt(1, 10));
    } else {
      delta = factcheck::ProblemDelta::SetCurrentValue(object,
                                                       rng.UniformInt(1, 100));
    }
    factcheck::serve::WriteDeltaJson(delta, writer);
  }
  writer.EndArray();
  return writer.str();
}

std::string UpdateLine(const std::string& problem, const std::string& deltas,
                       std::int64_t idempotency_seq) {
  return "{\"op\":\"update\",\"problem\":\"" + problem +
         "\",\"deltas\":" + deltas +
         ",\"idempotency_seq\":" + std::to_string(idempotency_seq) + "}";
}

std::vector<factcheck::ProblemDelta> ParseDeltas(const std::string& deltas) {
  std::vector<factcheck::ProblemDelta> out;
  std::optional<factcheck::serve::JsonValue> json =
      factcheck::serve::JsonValue::Parse(deltas);
  if (!json.has_value() || !json->is_array()) return out;
  for (const factcheck::serve::JsonValue& item : json->array()) {
    factcheck::ProblemDelta delta;
    if (!factcheck::serve::DeltaFromJson(item, &delta, nullptr)) return {};
    out.push_back(std::move(delta));
  }
  return out;
}

ChurnSchedule MakeChurnSchedule(std::uint64_t seed, double seconds,
                                const std::vector<ProblemInput>& problems) {
  ChurnSchedule schedule;
  schedule.batches.resize(problems.size());
  const double horizon_ms = seconds * 1e3;
  auto arrivals = [&](std::uint64_t stream, double rate) {
    StreamRng rng(DeriveSeed(seed, stream));
    std::vector<double> due;
    for (double t = rng.Exponential(rate) * 1e3; t < horizon_ms;
         t += rng.Exponential(rate) * 1e3) {
      due.push_back(t);
    }
    return due;
  };
  StreamRng writes(DeriveSeed(seed, 72));
  std::vector<std::int64_t> next_seq(problems.size(), 1);
  for (double due : arrivals(73, kChurnUpdateRate)) {
    ChurnOp op{.kind = OpKind::kUpdate, .due_ms = due};
    op.problem = writes.UniformInt(0, static_cast<int>(problems.size()) - 1);
    const std::string deltas =
        UpdateDeltasJson(writes, problems[op.problem].problem->size(), 8,
                         problems[op.problem].problem->size() <= 8 ? 3 : 6);
    auto& batches = schedule.batches[op.problem];
    op.batch = static_cast<int>(batches.size());
    batches.push_back(deltas);
    op.line = UpdateLine(problems[op.problem].name, deltas,
                         next_seq[op.problem]);
    next_seq[op.problem] +=
        static_cast<std::int64_t>(ParseDeltas(deltas).size());
    schedule.ops.push_back(std::move(op));
  }
  for (double due : arrivals(74, kChurnStatsRate)) {
    schedule.ops.push_back(
        {.kind = OpKind::kStats, .due_ms = due, .line = "{\"op\":\"stats\"}"});
  }
  std::stable_sort(schedule.ops.begin(), schedule.ops.end(),
                   [](const ChurnOp& a, const ChurnOp& b) {
                     return a.due_ms < b.due_ms;
                   });
  return schedule;
}

}  // namespace perfbench
