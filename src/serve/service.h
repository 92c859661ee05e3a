// PlanningService: the long-lived planning core behind factcheck_serve.
//
// Every CLI entry point is one-shot — each plan re-parses the problem,
// rebuilds the distribution planes, and starts a cold EvalEngine.  The
// service inverts that: a problem is registered once (CSV + linear query
// spec, the same convention as `factcheck_cli run`), and the service
// keeps its CleaningProblem, lazily built DistPlanes, and one persistent
// EvalEngine per objective hot, so the set-signature memo built by one
// request answers the next one's probes from cache.
//
// Requests are single JSON objects, one per line (see HandleLine).
// Supported operations:
//
//   {"op":"register","problem":NAME,"csv":CSV,
//    "refs":[i,...]?, "coeffs":[a,...]?}
//       -> {"ok":true,"op":"register","problem":NAME,"objects":n,
//           "total_cost":C}
//     refs items must be integers in [0, 2^31-1] naming objects of the
//     problem.  refs/coeffs default to all objects with coefficient 1,
//     exactly as the CLI does; re-registering a name is an error (a
//     replaced problem would silently invalidate its engines' memos).
//
//   {"op":"plan","problem":NAME,"algo":ALGO,
//    "budget":B | "budget_frac":F,
//    "objective":"minvar"|"maxpr"?, "tau":T?, "lazy":BOOL?,
//    "seed":N?, "mc_samples":N?, "with_trajectory":BOOL?,
//    "deadline_ms":D?}
//       -> {"ok":true,"op":"plan","problem":NAME,"requests":N,
//           "epoch":E,"result":{...PlanResult JSON...}}
//     `epoch` is the problem's mutation epoch the plan ran against (the
//     same counter update and /stats report); it sits outside `result`
//     so the result stays the one-shot document.  Defaults mirror the
//     CLI (`objective` falls back to the algorithm's native kind,
//     trajectory on), so a plan response's `result` is bit-identical to
//     the equivalent one-shot `factcheck_cli run --json` — the
//     equivalence suite in tests/serve_test.cc pins this.  A positive
//     deadline_ms is a cooperative wall-clock budget: it is polled at
//     greedy-round boundaries, an expired request comes back as
//     {"ok":false,"error":"deadline exceeded"}, its partial selection is
//     discarded, and the session engine's memo stays consistent — the
//     next plan is bit-identical to one on a never-deadlined service.
//     deadline_ms <= 0 is born expired (deterministic shed knob).
//     The result's "stats" holds one integer per kEngineCounters row
//     (core/engine.h).  For an algorithm that ran on the session engine
//     they are that engine's lifetime counters as of the end of this
//     request, trajectory lookups included, so they equal the engine's
//     counters in the next /stats; "requests" is the problem's plan
//     count.  seed must be an integer in [0, 2^53] and mc_samples one in
//     [1, 2^31-1].
//
//   {"op":"update","problem":NAME,"deltas":[{...},...],
//    "idempotency_seq":S?, "deadline_ms":D?}
//       -> {"ok":true,"op":"update","problem":NAME,"applied":k,
//           "epoch":E,"objects":n}
//     Applies a batch of typed ProblemDeltas (serve/changelog.h JSON
//     encoding; core/delta.h semantics) to a registered problem, all or
//     nothing: every delta is validated against the running object count
//     (core/delta.h DeltaValidator, O(batch) whatever the problem size)
//     before the first one touches the live problem, and a delta that
//     would remove a query-referenced object is rejected.  Runs under the
//     problem's run mutex, so concurrent plans see either the old or the
//     new state, never a half-applied batch.  Session engines are NOT
//     discarded — they downdate their memos via the problem's mutation
//     epoch (core/engine.h BindProblem), so the next plan re-evaluates
//     exactly the signatures the change invalidated.  With persistence
//     enabled the batch is appended to the problem's changelog before
//     the response is sent.
//
//     idempotency_seq is the retry-safety contract for updates (the
//     non-idempotent verb): a client that never learned whether its
//     batch landed resends it with S = last_seq_before + 1.  S ==
//     last_seq+1 applies normally; S <= last_seq means the changelog
//     already holds the batch — the service acknowledges with
//     "replayed":true and the CURRENT epoch/objects without re-applying;
//     S > last_seq+1 is a sequence gap and is rejected.  Updates without
//     the field are applied unconditionally (and are unsafe to retry).
//     S must be an integer in [1, 2^53]: sequences start at 1, and a
//     fraction or an out-of-range value is rejected, never rounded.
//
//   {"op":"stats"} -> {"ok":true,"op":"stats","stats":{...}}   (StatsJson)
//   {"op":"ping"}  -> {"ok":true,"op":"ping"}
//
// Errors come back as {"ok":false,"error":DIAGNOSTIC}; the connection
// stays usable.
//
// Concurrency: HandleLine is safe to call from any number of threads.
// The registry map takes a short registry mutex; each problem owns a run
// mutex that serializes plan execution on it, because the persistent
// engines are single-writer by design (core/engine.h — the engine aborts
// on concurrent API calls rather than corrupt its memo).  Distinct
// problems plan fully in parallel.  Within one problem the serialization
// is also what makes the counters deterministic: for a fixed request
// multiset, total evaluations equal the number of distinct sets probed
// and cache_hits equal probes minus that, independent of arrival order —
// the service_scaling bench gates on exactly those counters.
//
// /stats never waits behind a plan: every run-mutex section (plan on
// success, error and deadline paths; update on every return path;
// register; changelog restore) ends by publishing the problem's counters
// into a snapshot under a leaf lock, and StatsJson reads only those
// snapshots.  Publishing happens before the response is built, so a
// client that got a plan or update answer sees it in its next /stats
// (read-your-writes).  Registrations serialize on their own mutex, so a
// snapshot write to disk never holds the registry mutex either.

#ifndef FACTCHECK_SERVE_SERVICE_H_
#define FACTCHECK_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "core/query_function.h"
#include "serve/changelog.h"
#include "serve/counters.h"
#include "serve/stats.h"
#include "util/annotations.h"

namespace factcheck {
namespace serve {

class JsonValue;

class PlanningService {
 public:
  PlanningService() = default;
  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  // Turns on changelog persistence under `dir` AND restores every problem
  // persisted there (snapshot + fail-closed log replay, serve/changelog.h).
  // Must be called before the service accepts traffic.  After this,
  // register writes an initial snapshot and update appends to the log
  // (with snapshot compaction every kCompactEvery records), so a
  // restarted service reconstructs bit-identical problem state.  False +
  // diagnostic if the directory is unusable or any persisted problem
  // fails to load — a corrupt changelog refuses to load rather than
  // serving a half-applied problem.
  bool EnablePersistence(const std::string& dir, std::string* error);

  // Whether `name` is registered (tool hook: lets --problem preloads skip
  // names EnablePersistence already restored).
  bool HasProblem(const std::string& name) const;

  // Registers `csv` (data/problem_io.h format) under `name` with a linear
  // query over `refs`/`coeffs` (empty: all objects / all ones).  Returns
  // false and a diagnostic on malformed CSV, bad refs, or a duplicate
  // name.
  bool RegisterProblem(const std::string& name, const std::string& csv,
                       std::vector<int> refs, std::vector<double> coeffs,
                       std::string* error);

  // Handles one line of the request protocol and returns the one-line
  // JSON response (never throws, never aborts on malformed input).
  std::string HandleLine(const std::string& line);

  // The /stats document, built from the snapshots each problem publishes
  // at the end of every run-mutex section; it takes no run mutex, so it
  // answers while plans run and shows each problem as of its last
  // completed request:
  //   {"problems":[{"name":..,"objects":..,"epoch":..,
  //     "plane_rows_rebuilt":..,"requests":..,
  //     "latency":{"count":..,"p50_ms":..,"p99_ms":..},
  //     "engines":[{"objective":..,COUNTER:..,...}]}],
  //    "total_requests":..,
  //    "robustness":{"sheds":..,"deadline_exceeded":..,
  //      "idempotent_replays":..,"retries":..,"reconnects":..,
  //      "faults_injected":..,"fsyncs":..}}
  // Each engine object carries one integer per kEngineCounters row the
  // engine increments itself (CounterSource::kEngine in core/engine.h),
  // in table order: evaluations, cache_hits, probes, commits,
  // key_bytes_hashed, cache_evictions, full_rebuilds.
  std::string StatsJson() const;

  // Total successful plan requests across all problems (test hook; reads
  // the published snapshots, like StatsJson).
  std::int64_t total_requests() const;

  // Test seam: when non-null, every plan polls `token` as its deadline
  // instead of the request's deadline_ms, so a test can cancel a run at an
  // exact poll or park it inside its run-mutex section.  Set it before
  // traffic starts; `token` must outlive its use.
  void SetPlanCancelForTest(CancelToken* token) {
    plan_cancel_for_test_ = token;
  }

  // Failure-path telemetry (serve/counters.h).  The transport calls
  // CountShed per refused connection; an in-process RequestSession can
  // mirror its retry/reconnect counts into robustness() so the bench
  // reads one document.
  void CountShed() { ++robustness_.sheds; }
  RobustnessCounters& robustness() { return robustness_; }

  // The changelog store once EnablePersistence succeeded (tool hook:
  // factcheck_serve points --fsync at it); null otherwise.
  ChangelogStore* store() { return store_.get(); }

 private:
  struct ProblemEntry {
    std::string name;
    // `query` is immutable after registration.  `problem` is mutated
    // ONLY by the update verb, under run_mutex; plan execution holds the
    // same mutex, so within the serialized sections the engines'
    // objectives (which hold references into both) always see a fully
    // applied state, and the mutation epoch tells their caches what
    // changed.
    CleaningProblem problem;
    LinearQueryFunction query;
    // Serializes plan execution and updates on this problem: the
    // persistent engines below are single-writer, `problem` is
    // single-mutator, and the serialized section is also where the
    // request counter and latency histogram are updated and where the
    // section's last step publishes the /stats snapshot below.
    fc::Mutex run_mutex;
    // One engine per objective — "minvar", or "maxpr@<tau>" since the
    // MaxPr objective bakes in the threshold.  The engine's retained
    // objective captures `problem` and `query` by reference; entries are
    // heap-allocated and never destroyed while serving, so the
    // references stay valid for the service's lifetime.
    std::map<std::string, std::unique_ptr<EvalEngine>> engines
        FC_GUARDED_BY(run_mutex);
    std::int64_t requests FC_GUARDED_BY(run_mutex) = 0;
    // Sequence bookkeeping: last_seq advances by one per applied delta
    // whether or not persistence is on — it is also the idempotency
    // cursor the update verb dedupes retried batches against.
    // log_records (how many records the current log file holds past its
    // snapshot) is meaningful only with persistence enabled.
    std::int64_t last_seq FC_GUARDED_BY(run_mutex) = 0;
    std::int64_t log_records FC_GUARDED_BY(run_mutex) = 0;
    LatencyHistogram latency;  // internally synchronized (serve/stats.h)

    // What /stats reports for this problem, as of the end of the last
    // run-mutex section.
    struct Published {
      int objects = 0;
      std::uint64_t epoch = 0;
      std::int64_t plane_rows_rebuilt = 0;
      std::int64_t requests = 0;
      std::vector<std::pair<std::string, EngineStats>> engines;  // by key
    };
    // Leaf lock: taken after run_mutex by Publish and alone by readers,
    // and never held across anything that blocks.
    fc::Mutex published_mutex FC_ACQUIRED_AFTER(run_mutex);
    Published published FC_GUARDED_BY(published_mutex);

    // Copies the guarded counters into `published`.  Every run-mutex
    // section calls it before its response is built.  Steady state
    // allocates nothing: a key is copied only when the engine set changed.
    void Publish() FC_REQUIRES(run_mutex);

    ProblemEntry(std::string name_in, CleaningProblem problem_in,
                 std::vector<int> refs, std::vector<double> coeffs)
        : name(std::move(name_in)),
          problem(std::move(problem_in)),
          query(std::move(refs), std::move(coeffs)) {}
  };

  ProblemEntry* FindEntry(const std::string& name) const
      FC_EXCLUDES(registry_mutex_);
  // Every registered entry in name order, copied under the registry mutex
  // (entries are never removed, so the pointers stay valid).
  std::vector<ProblemEntry*> Entries() const FC_EXCLUDES(registry_mutex_);
  EvalEngine* EngineFor(ProblemEntry* entry, ObjectiveKind kind, double tau)
      FC_REQUIRES(entry->run_mutex);

  std::string HandleRegister(const JsonValue& request);
  std::string HandlePlan(const JsonValue& request);
  std::string HandleUpdate(const JsonValue& request);

  struct ApplyOutcome {
    bool ok = false;
    bool replayed = false;
    std::uint64_t epoch = 0;
    int objects = 0;
  };
  // The update verb's run-mutex section.  Rejects an expired `deadline`
  // and an `idempotency_seq` ahead of the cursor, acknowledges one behind
  // it as a replay, and otherwise validates `deltas` all-or-nothing
  // against the running object count plus the query's references, applies
  // them to the live problem, advances the sequence cursor, and persists
  // when a store is attached.  ok=false + diagnostic on a reject (nothing
  // applied) or a persistence failure (applied in memory; the diagnostic
  // says so).
  ApplyOutcome ApplyUpdate(ProblemEntry* entry,
                           const std::vector<ProblemDelta>& deltas,
                           std::optional<std::int64_t> idempotency_seq,
                           const CancelToken* deadline, std::string* error)
      FC_REQUIRES(entry->run_mutex);

  // Appends `deltas` (already applied in memory, already assigned
  // sequence numbers first_seq..first_seq+k-1 by the caller) to the
  // problem's log as one group-committed batch and compacts every
  // kCompactEvery records.  False + diagnostic on I/O failure after
  // attempting a reconciling snapshot.
  bool PersistDeltas(ProblemEntry* entry,
                     const std::vector<ProblemDelta>& deltas,
                     std::int64_t first_seq, std::string* error)
      FC_REQUIRES(entry->run_mutex);

  // Compaction threshold: a snapshot replaces the log once it accumulates
  // this many records past the previous snapshot.
  static constexpr std::int64_t kCompactEvery = 64;

  Planner planner_;
  // Guards problems_ (the map only — entries are stable unique_ptrs, so a
  // ProblemEntry* stays valid after the lock drops).
  mutable fc::Mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<ProblemEntry>> problems_
      FC_GUARDED_BY(registry_mutex_);
  // Serializes every insertion into problems_ (RegisterProblem and the
  // EnablePersistence restore), so a name checked free under the registry
  // mutex is still free at the insert while the snapshot write in between
  // holds only this mutex.
  fc::Mutex register_mutex_ FC_ACQUIRED_BEFORE(registry_mutex_);
  // Non-null once EnablePersistence succeeds; never reset while serving.
  std::unique_ptr<ChangelogStore> store_;
  RobustnessCounters robustness_;
  CancelToken* plan_cancel_for_test_ = nullptr;
};

}  // namespace serve
}  // namespace factcheck

#endif  // FACTCHECK_SERVE_SERVICE_H_
