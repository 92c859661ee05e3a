#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/ev.h"
#include "core/maxpr.h"
#include "core/plan_result.h"
#include "core/registry.h"
#include "data/problem_io.h"
#include "serve/json_value.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace factcheck {
namespace serve {
namespace {

std::string ErrorResponse(const std::string& message) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("ok")
      .Bool(false)
      .Key("error")
      .String(message)
      .EndObject();
  return writer.str();
}

// Reads an optional finite number; false (with a diagnostic) on a
// present-but-wrong-typed member.
bool ReadNumber(const JsonValue& request, const std::string& key, bool* found,
                double* out, std::string* error) {
  const JsonValue* value = request.Find(key);
  *found = value != nullptr;
  if (value == nullptr) return true;
  if (!value->is_number()) {
    *error = "\"" + key + "\" must be a number";
    return false;
  }
  *out = value->number();
  return true;
}

// Converts an integral JSON number in [min, max] (bounds within ±2^53, so
// the comparisons are exact); false (with a diagnostic naming `what`) on a
// non-number, a fraction, or an out-of-range value — a cast would be
// undefined behaviour there.
bool ToInteger(const JsonValue& value, const std::string& what,
               std::int64_t min, std::int64_t max, std::int64_t* out,
               std::string* error) {
  const double x = value.is_number()
                       ? value.number()
                       : std::numeric_limits<double>::quiet_NaN();
  if (!(x >= static_cast<double>(min) && x <= static_cast<double>(max)) ||
      x != std::floor(x)) {
    *error = "\"" + what + "\" must be an integer in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = static_cast<std::int64_t>(x);
  return true;
}

// Reads an optional integer member in [min, max] (see ToInteger).
bool ReadInteger(const JsonValue& request, const std::string& key,
                 std::int64_t min, std::int64_t max, bool* found,
                 std::int64_t* out, std::string* error) {
  const JsonValue* value = request.Find(key);
  *found = value != nullptr;
  return value == nullptr || ToInteger(*value, key, min, max, out, error);
}

bool ReadBool(const JsonValue& request, const std::string& key,
              bool default_value, bool* out, std::string* error) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr) {
    *out = default_value;
    return true;
  }
  if (!value->is_bool()) {
    *error = "\"" + key + "\" must be a boolean";
    return false;
  }
  *out = value->boolean();
  return true;
}

bool ReadString(const JsonValue& request, const std::string& key,
                std::string* out, std::string* error) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr || !value->is_string()) {
    *error = "\"" + key + "\" (string) is required";
    return false;
  }
  *out = value->string();
  return true;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Optional "deadline_ms" -> a DeadlineToken born at parse time (so the
// budget covers queueing on the run mutex too).  False on a wrong-typed
// member.
bool ReadDeadline(const JsonValue& request,
                  std::optional<DeadlineToken>* token, std::string* error) {
  bool found = false;
  double deadline_ms = 0.0;
  if (!ReadNumber(request, "deadline_ms", &found, &deadline_ms, error)) {
    return false;
  }
  if (found) token->emplace(deadline_ms);
  return true;
}

}  // namespace

bool PlanningService::RegisterProblem(const std::string& name,
                                      const std::string& csv,
                                      std::vector<int> refs,
                                      std::vector<double> coeffs,
                                      std::string* error) {
  if (name.empty()) {
    if (error != nullptr) *error = "problem name must be non-empty";
    return false;
  }
  std::optional<CleaningProblem> problem = data::ProblemFromCsv(csv, error);
  if (!problem.has_value()) return false;
  const int n = problem->size();
  // Default query: the all-ones sum, as factcheck_cli run does.
  if (refs.empty()) {
    refs.reserve(n);
    for (int i = 0; i < n; ++i) refs.push_back(i);
  }
  for (int ref : refs) {
    if (ref < 0 || ref >= n) {
      if (error != nullptr) {
        *error = "query ref " + std::to_string(ref) +
                 " out of range (problem has " + std::to_string(n) +
                 " objects)";
      }
      return false;
    }
  }
  if (coeffs.empty()) coeffs.assign(refs.size(), 1.0);
  if (coeffs.size() != refs.size()) {
    if (error != nullptr) *error = "refs and coeffs must have the same length";
    return false;
  }
  auto entry = std::make_unique<ProblemEntry>(
      name, std::move(*problem), std::move(refs), std::move(coeffs));
  // Held to the insert, so the name checked free here is still free
  // there; the snapshot write in between blocks no request.
  fc::MutexLock register_lock(&register_mutex_);
  if (HasProblem(name)) {
    return Fail(error,
                "problem \"" + name +
                    "\" is already registered (re-registration would orphan "
                    "its engines' memos)");
  }
  if (store_ != nullptr && !ChangelogStore::ValidName(name)) {
    return Fail(error,
                "with persistence enabled, problem names must match "
                "[A-Za-z0-9_.-] and not start with '.'");
  }
  std::string snapshot;
  {
    fc::MutexLock run_lock(&entry->run_mutex);
    entry->Publish();
    if (store_ != nullptr) {
      snapshot = EncodeSnapshot(entry->problem, entry->query.References(),
                                entry->query.coefficients(), entry->last_seq);
    }
  }
  // Persist the initial state as a snapshot at sequence 0, so the problem
  // survives a restart even before its first update.  A persistence
  // failure leaves the problem unregistered — a problem the changelog
  // can't restore must not accept updates it would forget.
  std::string store_error;
  if (store_ != nullptr &&
      !store_->SaveSnapshot(name, snapshot, &store_error)) {
    return Fail(error, store_error);
  }
  fc::MutexLock lock(&registry_mutex_);
  problems_.emplace(name, std::move(entry));
  return true;
}

bool PlanningService::EnablePersistence(const std::string& dir,
                                        std::string* error) {
  fc::MutexLock register_lock(&register_mutex_);
  auto store = std::make_unique<ChangelogStore>(dir);
  if (!store->Init(error)) return false;
  std::vector<ChangelogStore::LoadedProblem> loaded;
  if (!store->LoadAll(&loaded, error)) return false;
  for (ChangelogStore::LoadedProblem& persisted : loaded) {
    std::string detail;
    std::int64_t snapshot_seq = 0;
    std::string csv;
    std::vector<int> refs;
    std::vector<double> coeffs;
    if (!DecodeSnapshot(persisted.snapshot, &snapshot_seq, &csv, &refs,
                        &coeffs, &detail)) {
      return Fail(error, persisted.name + ".snapshot: " + detail);
    }
    std::optional<CleaningProblem> problem = data::ProblemFromCsv(csv, &detail);
    if (!problem.has_value()) {
      return Fail(error, persisted.name + ".snapshot: " + detail);
    }
    std::int64_t last_seq = snapshot_seq;
    if (!ReplayChangelog(persisted.log, snapshot_seq, &*problem, &last_seq,
                         &detail)) {
      return Fail(error, persisted.name + ": " + detail);
    }
    const int n = problem->size();
    if (coeffs.size() != refs.size()) {
      return Fail(error,
                  persisted.name + ".snapshot: refs/coeffs length mismatch");
    }
    for (int ref : refs) {
      if (ref < 0 || ref >= n) {
        return Fail(error, persisted.name + ": query ref " +
                               std::to_string(ref) +
                               " out of range after replay");
      }
    }
    auto entry = std::make_unique<ProblemEntry>(
        persisted.name, std::move(*problem), std::move(refs),
        std::move(coeffs));
    {
      fc::MutexLock run_lock(&entry->run_mutex);
      entry->last_seq = last_seq;
      entry->log_records = last_seq - snapshot_seq;
      entry->Publish();
    }
    fc::MutexLock lock(&registry_mutex_);
    auto [it, inserted] =
        problems_.try_emplace(persisted.name, std::move(entry));
    if (!inserted) {
      return Fail(error, "problem \"" + persisted.name +
                             "\" restored twice from " + dir);
    }
  }
  store_ = std::move(store);
  return true;
}

bool PlanningService::HasProblem(const std::string& name) const {
  fc::MutexLock lock(&registry_mutex_);
  return problems_.count(name) > 0;
}

PlanningService::ProblemEntry* PlanningService::FindEntry(
    const std::string& name) const {
  fc::MutexLock lock(&registry_mutex_);
  auto it = problems_.find(name);
  return it == problems_.end() ? nullptr : it->second.get();
}

std::vector<PlanningService::ProblemEntry*> PlanningService::Entries() const {
  fc::MutexLock lock(&registry_mutex_);
  std::vector<ProblemEntry*> entries;
  entries.reserve(problems_.size());
  for (const auto& kv : problems_) entries.push_back(kv.second.get());
  return entries;
}

void PlanningService::ProblemEntry::Publish() {
  const int objects = problem.size();
  const std::uint64_t epoch = problem.epoch();
  const std::int64_t rows_rebuilt = problem.plane_rows_rebuilt();
  fc::MutexLock lock(&published_mutex);
  published.objects = objects;
  published.epoch = epoch;
  published.plane_rows_rebuilt = rows_rebuilt;
  published.requests = requests;
  // Engines are only ever added, and the map is ordered by key, so a new
  // engine can shift later keys; copy a key only where it differs.
  published.engines.resize(engines.size());
  auto slot = published.engines.begin();
  for (const auto& [key, engine] : engines) {
    if (slot->first != key) slot->first = key;
    slot->second = engine->stats();
    ++slot;
  }
}

EvalEngine* PlanningService::EngineFor(ProblemEntry* entry, ObjectiveKind kind,
                                       double tau) {
  std::string key = kind == ObjectiveKind::kMinVar
                        ? "minvar"
                        : "maxpr@" + JsonNumber(tau);
  auto it = entry->engines.find(key);
  if (it == entry->engines.end()) {
    SetObjective objective =
        kind == ObjectiveKind::kMinVar
            ? MinVarObjective(entry->query, entry->problem)
            : MaxPrObjective(entry->query, entry->problem, tau);
    OptimizeDirection direction = kind == ObjectiveKind::kMinVar
                                      ? OptimizeDirection::kMinimize
                                      : OptimizeDirection::kMaximize;
    // No pool: service-side evaluation is serial per problem, so the
    // concurrency story stays one-dimensional (requests in parallel
    // across problems, single-writer per engine).
    it = entry->engines
             .emplace(std::move(key), std::make_unique<EvalEngine>(
                                          std::move(objective), direction))
             .first;
    // Bind exactly once, while the memo is empty: the bind stamps the
    // problem's current epoch, and from then on every engine call
    // downdates the memo by the mutations the update verb applied.  The
    // dependency policy follows the objective's structure — exact MaxPr
    // value(T) integrates only over T's own distributions, so a dist
    // change to object i evicts just the signatures containing i; exact
    // MinVar integrates over every UNCLEANED object too, so any dist
    // change flushes the memo.
    it->second->BindProblem(&entry->problem,
                            kind == ObjectiveKind::kMinVar
                                ? CacheDependency::kAllObjects
                                : CacheDependency::kCleanedSubset);
  }
  return it->second.get();
}

std::string PlanningService::HandleRegister(const JsonValue& request) {
  std::string error;
  std::string name, csv;
  if (!ReadString(request, "problem", &name, &error)) {
    return ErrorResponse(error);
  }
  if (!ReadString(request, "csv", &csv, &error)) return ErrorResponse(error);
  std::vector<int> refs;
  if (const JsonValue* value = request.Find("refs")) {
    if (!value->is_array()) return ErrorResponse("\"refs\" must be an array");
    for (const JsonValue& item : value->array()) {
      std::int64_t ref = 0;
      if (!ToInteger(item, "refs[" + std::to_string(refs.size()) + "]", 0,
                     std::numeric_limits<int>::max(), &ref, &error)) {
        return ErrorResponse(error);
      }
      refs.push_back(static_cast<int>(ref));
    }
  }
  std::vector<double> coeffs;
  if (const JsonValue* value = request.Find("coeffs")) {
    if (!value->is_array()) {
      return ErrorResponse("\"coeffs\" must be an array");
    }
    for (const JsonValue& item : value->array()) {
      if (!item.is_number()) {
        return ErrorResponse("\"coeffs\" must hold numbers");
      }
      coeffs.push_back(item.number());
    }
  }
  if (!RegisterProblem(name, csv, std::move(refs), std::move(coeffs),
                       &error)) {
    return ErrorResponse(error);
  }
  ProblemEntry* entry = FindEntry(name);
  int objects = 0;
  double total_cost = 0.0;
  {
    // An update may already be running on the new problem.
    fc::MutexLock lock(&entry->run_mutex);
    objects = entry->problem.size();
    total_cost = entry->problem.TotalCost();
  }
  JsonWriter writer;
  writer.BeginObject()
      .Key("ok")
      .Bool(true)
      .Key("op")
      .String("register")
      .Key("problem")
      .String(name)
      .Key("objects")
      .Int(objects)
      .Key("total_cost")
      .Number(total_cost)
      .EndObject();
  return writer.str();
}

std::string PlanningService::HandlePlan(const JsonValue& request) {
  std::string error;
  std::string name, algo_name;
  if (!ReadString(request, "problem", &name, &error)) {
    return ErrorResponse(error);
  }
  if (!ReadString(request, "algo", &algo_name, &error)) {
    return ErrorResponse(error);
  }
  ProblemEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    return ErrorResponse("unknown problem \"" + name + "\" (register first)");
  }
  const AlgorithmRegistry::Algorithm* algo =
      planner_.registry().Find(algo_name);
  if (algo == nullptr) {
    return ErrorResponse("unknown algorithm \"" + algo_name + "\"");
  }

  bool has_budget = false, has_frac = false;
  double budget = 0.0, budget_frac = 0.0;
  if (!ReadNumber(request, "budget", &has_budget, &budget, &error) ||
      !ReadNumber(request, "budget_frac", &has_frac, &budget_frac, &error)) {
    return ErrorResponse(error);
  }
  if (!has_budget && !has_frac) {
    return ErrorResponse("\"budget\" or \"budget_frac\" is required");
  }

  PlanRequest plan;
  plan.problem = &entry->problem;
  plan.query = &entry->query;
  plan.linear_query = &entry->query;

  // Objective defaulting mirrors the CLI: the algorithm's native kind,
  // minvar when it supports both.
  if (const JsonValue* value = request.Find("objective")) {
    if (!value->is_string()) {
      return ErrorResponse("\"objective\" must be \"minvar\" or \"maxpr\"");
    }
    std::optional<ObjectiveKind> kind = ParseObjectiveKind(value->string());
    if (!kind.has_value()) {
      return ErrorResponse("\"objective\" must be \"minvar\" or \"maxpr\"");
    }
    plan.objective = *kind;
  } else {
    plan.objective = algo->objective.value_or(ObjectiveKind::kMinVar);
  }

  bool found = false;
  double tau = 0.0;
  if (!ReadNumber(request, "tau", &found, &tau, &error)) {
    return ErrorResponse(error);
  }
  plan.tau = tau;
  std::int64_t seed = 0;
  if (!ReadInteger(request, "seed", 0, kMaxExactInteger, &found, &seed,
                   &error)) {
    return ErrorResponse(error);
  }
  if (found) plan.engine.seed = static_cast<std::uint64_t>(seed);
  std::int64_t mc_samples = 0;
  if (!ReadInteger(request, "mc_samples", 1, std::numeric_limits<int>::max(),
                   &found, &mc_samples, &error)) {
    return ErrorResponse(error);
  }
  if (found) plan.engine.mc_samples = static_cast<int>(mc_samples);
  if (!ReadBool(request, "lazy", false, &plan.engine.lazy, &error) ||
      !ReadBool(request, "with_trajectory", true, &plan.with_trajectory,
                &error)) {
    return ErrorResponse(error);
  }
  std::optional<DeadlineToken> deadline;
  if (!ReadDeadline(request, &deadline, &error)) return ErrorResponse(error);
  if (deadline.has_value()) plan.cancel = &*deadline;
  if (plan_cancel_for_test_ != nullptr) plan.cancel = plan_cancel_for_test_;

  // The serialized section: one plan at a time per problem, because the
  // session engine is single-writer.  Everything inside is deterministic
  // for a fixed request multiset, so the counters the bench gates on do
  // not depend on how client threads interleave.
  std::optional<PlanResult> result;
  std::int64_t requests_after = 0;
  std::uint64_t epoch = 0;
  {
    fc::MutexLock lock(&entry->run_mutex);
    // Budget resolution reads TotalCost inside the serialized section so
    // a concurrent update (which may change costs) can't race the read —
    // each plan prices against exactly the state it will be planned on.
    plan.budget =
        has_budget ? budget : budget_frac * entry->problem.TotalCost();
    plan.session_engine = EngineFor(entry, plan.objective, plan.tau);
    epoch = entry->problem.epoch();
    Stopwatch stopwatch;
    result = planner_.TryPlan(plan, algo_name, &error);
    double seconds = stopwatch.ElapsedSeconds();
    if (result.has_value()) {
      entry->latency.Record(seconds);
      requests_after = ++entry->requests;
      // Lifetime engine counters plus the service's own request count;
      // engine-free algorithms report the request count alone.
      result->stats.requests = requests_after;
    }
    // Failed and cancelled runs publish too: their evaluations are real.
    entry->Publish();
  }
  if (!result.has_value()) {
    if (plan.cancel != nullptr && plan.cancel->Cancelled()) {
      ++robustness_.deadline_exceeded;
    }
    return ErrorResponse(error);
  }

  JsonWriter writer;
  writer.BeginObject()
      .Key("ok")
      .Bool(true)
      .Key("op")
      .String("plan")
      .Key("problem")
      .String(name)
      .Key("requests")
      .Int(requests_after)
      .Key("epoch")
      .Int(static_cast<std::int64_t>(epoch))
      .Key("result");
  result->WriteJson(writer);
  writer.EndObject();
  return writer.str();
}

std::string PlanningService::HandleUpdate(const JsonValue& request) {
  std::string error;
  std::string name;
  if (!ReadString(request, "problem", &name, &error)) {
    return ErrorResponse(error);
  }
  ProblemEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    return ErrorResponse("unknown problem \"" + name + "\" (register first)");
  }
  const JsonValue* deltas_json = request.Find("deltas");
  if (deltas_json == nullptr || !deltas_json->is_array() ||
      deltas_json->array().empty()) {
    return ErrorResponse("\"deltas\" must be a non-empty array");
  }
  std::vector<ProblemDelta> deltas;
  deltas.reserve(deltas_json->array().size());
  for (size_t i = 0; i < deltas_json->array().size(); ++i) {
    ProblemDelta delta;
    if (!DeltaFromJson(deltas_json->array()[i], &delta, &error)) {
      return ErrorResponse("deltas[" + std::to_string(i) + "]: " + error);
    }
    deltas.push_back(std::move(delta));
  }
  // Sequence numbers start at 1 (see the protocol comment in service.h).
  bool has_idem = false;
  std::int64_t idem_seq = 0;
  if (!ReadInteger(request, "idempotency_seq", 1, kMaxExactInteger,
                   &has_idem, &idem_seq, &error)) {
    return ErrorResponse(error);
  }
  std::optional<DeadlineToken> deadline;
  if (!ReadDeadline(request, &deadline, &error)) return ErrorResponse(error);

  std::optional<std::int64_t> idempotency_seq;
  if (has_idem) idempotency_seq = idem_seq;
  ApplyOutcome outcome;
  {
    fc::MutexLock lock(&entry->run_mutex);
    outcome = ApplyUpdate(entry, deltas, idempotency_seq,
                          deadline.has_value() ? &*deadline : nullptr, &error);
    entry->Publish();
  }
  if (!outcome.ok) return ErrorResponse(error);

  JsonWriter writer;
  writer.BeginObject()
      .Key("ok")
      .Bool(true)
      .Key("op")
      .String("update")
      .Key("problem")
      .String(name)
      .Key("applied")
      .Int(outcome.replayed ? 0 : static_cast<std::int64_t>(deltas.size()));
  if (outcome.replayed) writer.Key("replayed").Bool(true);
  writer.Key("epoch")
      .Int(static_cast<std::int64_t>(outcome.epoch))
      .Key("objects")
      .Int(outcome.objects)
      .EndObject();
  return writer.str();
}

PlanningService::ApplyOutcome PlanningService::ApplyUpdate(
    ProblemEntry* entry, const std::vector<ProblemDelta>& deltas,
    std::optional<std::int64_t> idempotency_seq, const CancelToken* deadline,
    std::string* error) {
  ApplyOutcome outcome;
  if (deadline != nullptr && deadline->Cancelled()) {
    // Checked before the batch touches anything, so an expired update is
    // rejected whole — never applied in memory after the client already
    // gave up on it.
    ++robustness_.deadline_exceeded;
    Fail(error, "deadline exceeded");
    return outcome;
  }
  if (idempotency_seq.has_value()) {
    // The retry contract: S names the sequence the batch's FIRST record
    // would take.  Behind the cursor means a retried batch the changelog
    // already holds — acknowledge without re-applying.
    const std::int64_t seq = *idempotency_seq;
    if (seq <= entry->last_seq) {
      ++robustness_.idempotent_replays;
      outcome.ok = true;
      outcome.replayed = true;
      outcome.epoch = entry->problem.epoch();
      outcome.objects = entry->problem.size();
      return outcome;
    }
    if (seq != entry->last_seq + 1) {
      Fail(error, "idempotency_seq " + std::to_string(seq) +
                      " is ahead of the changelog (next is " +
                      std::to_string(entry->last_seq + 1) + ")");
      return outcome;
    }
  }
  {
    // All or nothing: the whole batch must validate against the running
    // object count (core/delta.h DeltaValidator) before the first delta
    // touches the live problem, so a reject midway never leaves a
    // half-applied state for the next plan.
    DeltaValidator shape(entry->problem.size());
    const std::vector<int>& refs = entry->query.References();
    for (size_t i = 0; i < deltas.size(); ++i) {
      const ProblemDelta& delta = deltas[i];
      if (delta.kind == DeltaKind::kRemoveObject &&
          std::binary_search(refs.begin(), refs.end(), delta.object)) {
        Fail(error, "deltas[" + std::to_string(i) + "]: object " +
                        std::to_string(delta.object) +
                        " is referenced by the registered query and cannot "
                        "be removed");
        return outcome;
      }
      std::string detail;
      if (!shape.Accept(delta, &detail)) {
        Fail(error, "deltas[" + std::to_string(i) + "]: " + detail);
        return outcome;
      }
    }
  }
  for (const ProblemDelta& delta : deltas) entry->problem.Apply(delta);
  // Sequence numbers are assigned at apply time, store or not: last_seq
  // is the idempotency cursor retried batches dedupe against, so it must
  // advance even when nothing is persisted.
  const std::int64_t first_seq = entry->last_seq + 1;
  entry->last_seq += static_cast<std::int64_t>(deltas.size());
  outcome.epoch = entry->problem.epoch();
  outcome.objects = entry->problem.size();
  if (store_ != nullptr && !PersistDeltas(entry, deltas, first_seq, error)) {
    return outcome;  // applied in memory; `error` explains the disk state
  }
  outcome.ok = true;
  return outcome;
}

bool PlanningService::PersistDeltas(ProblemEntry* entry,
                                    const std::vector<ProblemDelta>& deltas,
                                    std::int64_t first_seq,
                                    std::string* error) {
  std::vector<std::string> records;
  records.reserve(deltas.size());
  for (size_t i = 0; i < deltas.size(); ++i) {
    records.push_back(
        EncodeLogRecord(first_seq + static_cast<std::int64_t>(i), deltas[i]));
  }
  entry->log_records += static_cast<std::int64_t>(deltas.size());
  std::string io_error;
  // Group commit: one AppendRecords call writes the whole batch and — on
  // the batch fsync policy — pays one fsync for it instead of one per
  // record.
  bool append_failed = !store_->AppendRecords(entry->name, records, &io_error);
  // Compact on schedule — and immediately after an append failure, since
  // a fresh snapshot (which truncates the log) reconciles disk with the
  // already-applied in-memory state.
  if (append_failed || entry->log_records >= kCompactEvery) {
    const std::string snapshot =
        EncodeSnapshot(entry->problem, entry->query.References(),
                       entry->query.coefficients(), entry->last_seq);
    if (!store_->SaveSnapshot(entry->name, snapshot, &io_error)) {
      return Fail(error,
                  "update applied in memory, but persisting it failed: " +
                      io_error);
    }
    entry->log_records = 0;
  }
  return true;
}

std::string PlanningService::HandleLine(const std::string& line) {
  std::string error;
  std::optional<JsonValue> request = JsonValue::Parse(line, &error);
  if (!request.has_value()) return ErrorResponse(error);
  if (!request->is_object()) {
    return ErrorResponse("request must be a JSON object");
  }
  std::string op;
  if (!ReadString(*request, "op", &op, &error)) return ErrorResponse(error);
  if (op == "register") return HandleRegister(*request);
  if (op == "plan") return HandlePlan(*request);
  if (op == "update") return HandleUpdate(*request);
  if (op == "stats") {
    // StatsJson is a complete JSON object; splice it in as the "stats"
    // member value.
    return "{\"ok\":true,\"op\":\"stats\",\"stats\":" + StatsJson() + "}";
  }
  if (op == "ping") {
    return "{\"ok\":true,\"op\":\"ping\"}";
  }
  return ErrorResponse("unknown op \"" + op +
                       "\" (register | plan | update | stats | ping)");
}

std::string PlanningService::StatsJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("problems").BeginArray();
  std::int64_t total = 0;
  ProblemEntry::Published snapshot;
  for (ProblemEntry* entry : Entries()) {
    {
      fc::MutexLock lock(&entry->published_mutex);
      snapshot = entry->published;
    }
    total += snapshot.requests;
    writer.BeginObject()
        .Key("name")
        .String(entry->name)
        .Key("objects")
        .Int(snapshot.objects)
        .Key("epoch")
        .Int(static_cast<std::int64_t>(snapshot.epoch))
        .Key("plane_rows_rebuilt")
        .Int(snapshot.plane_rows_rebuilt)
        .Key("requests")
        .Int(snapshot.requests);
    writer.Key("latency")
        .BeginObject()
        .Key("count")
        .Int(entry->latency.count())
        .Key("p50_ms")
        .Number(entry->latency.p50() * 1e3)
        .Key("p99_ms")
        .Number(entry->latency.p99() * 1e3)
        .EndObject();
    writer.Key("engines").BeginArray();
    for (const auto& [key, stats] : snapshot.engines) {
      writer.BeginObject().Key("objective").String(key);
      for (const CounterSpec& counter : kEngineCounters) {
        if (counter.source != CounterSource::kEngine) continue;
        writer.Key(counter.name).Int(stats.*counter.field);
      }
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("total_requests").Int(total);
  writer.Key("robustness")
      .BeginObject()
      .Key("sheds")
      .Int(robustness_.sheds.load())
      .Key("deadline_exceeded")
      .Int(robustness_.deadline_exceeded.load())
      .Key("idempotent_replays")
      .Int(robustness_.idempotent_replays.load())
      .Key("retries")
      .Int(robustness_.retries.load())
      .Key("reconnects")
      .Int(robustness_.reconnects.load())
      .Key("faults_injected")
      .Int(fault::InjectedCount())
      .Key("fsyncs")
      .Int(store_ != nullptr ? store_->fsyncs() : 0)
      .EndObject();
  writer.EndObject();
  return writer.str();
}

std::int64_t PlanningService::total_requests() const {
  std::int64_t total = 0;
  for (ProblemEntry* entry : Entries()) {
    fc::MutexLock lock(&entry->published_mutex);
    total += entry->published.requests;
  }
  return total;
}

}  // namespace serve
}  // namespace factcheck
