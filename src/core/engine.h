// EvalEngine: the shared scenario-evaluation engine behind every adaptive
// selection algorithm (greedy, MaxPr, Monte Carlo greedy, adaptive
// policies).  It centralizes the concerns the algorithms used to
// reimplement privately:
//
//   * memoization — EV / surprise-probability values are cached keyed by a
//     64-bit incremental set signature (a commutative per-element hash, so
//     extending a set by one object updates the signature in O(1) with no
//     canonical-sort or full-key rehash); the canonical (sorted,
//     duplicate-free) key is stored alongside the value and verified on
//     every hit, with an exact-key side table as the fallback when two
//     distinct sets collide on the signature — the memo is sound for any
//     hash behaviour;
//   * batch evaluation — each greedy round's candidate sets are evaluated
//     as one batch, optionally spread across a fixed-size ThreadPool.
//     Candidate sets are described as extensions of the round's base set
//     (base ∪ {i}), so the hot loop allocates nothing: the engine keeps
//     reusable scratch buffers (one per pending miss slot, each owned by
//     exactly one pool task) and only materializes a key when a new cache
//     entry is created.  Every objective value is computed entirely inside
//     one task and the batch is reduced in candidate-index order, so
//     results are bit-identical for any pool size (including none);
//   * lazy (CELF) greedy — a max-heap of stale upper bounds on the
//     benefit-per-cost score; a candidate is only re-evaluated when it
//     reaches the top of the heap, which on submodular objectives selects
//     exactly the plain greedy's set with far fewer evaluations;
//   * incremental objectives — when GreedyOptions::incremental attaches an
//     IncrementalObjective (core/incremental.h), both greedy drivers
//     switch from batch probes to the O(Δ) protocol:
//
//       Reset({})      once per selection (counted as one evaluation),
//       ProbeGain(i)   per candidate probe (counted in stats().probes),
//       Commit(i)      per pick            (counted in stats().commits),
//       Value()        the running objective, consistent with the batch
//                      SetObjective,
//
//     selecting the same set, in the same order, as the batch path — the
//     incremental-equivalence suite pins this across thread counts and
//     lazy modes.  The final single-item check reuses the first round's
//     singleton probes, so the incremental path performs no batch
//     evaluation at all.  Without an attached incremental objective the
//     drivers run the batch path unchanged (bit-identical to the
//     pre-incremental engine).
//
// The engine itself is single-writer at the API level: exactly one thread
// may be inside a public evaluation/greedy call at a time (nested calls
// from that thread — the greedy drivers call the batch entry points — are
// fine).  This is ENFORCED: every public entry point asserts via an
// atomic owner-thread guard and aborts with a diagnostic on concurrent
// use, so a serving layer that shares one memo-warm engine across
// requests (serve/service.h holds a per-session mutex) can never
// silently corrupt the memo/overflow tables.  The objective must
// tolerate concurrent invocations when a pool is attached (the exact
// evaluators are pure, and the Monte Carlo objectives re-seed a local Rng
// per call, so all shipped objectives do).  Incremental objectives are
// never invoked from the pool.  brute_force stays off the engine on
// purpose: it is the oracle the equivalence tests compare against.
//
// An engine may outlive a single selection: a long-lived holder (the
// planning service) reuses one instance across requests on the same
// problem+objective, so the memo — keyed only by the cleaned set — serves
// later requests from cache.  Stats accumulate monotonically across the
// engine's lifetime.
//
// Long-lived engines over MUTABLE problems bind to the problem via
// BindProblem: every public entry point then compares the problem's
// mutation epoch (CleaningProblem::epoch) against the last one this
// engine synchronized with and *downdates* the memo before doing any
// work — evicting exactly the entries the intervening changes could have
// altered (per the declared CacheDependency) instead of serving stale
// values or discarding a warm memo wholesale.  Unbound engines skip the
// check entirely and behave exactly as before.

#ifndef FACTCHECK_CORE_ENGINE_H_
#define FACTCHECK_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/greedy.h"
#include "core/incremental.h"
#include "util/thread_pool.h"

namespace factcheck {

class CleaningProblem;

// Whether the driver seeks the smallest (MinVar) or largest (MaxPr)
// objective value.  Maximize mode stops early once no candidate improves
// the objective, matching AdaptiveGreedyMaximize.
enum class OptimizeDirection { kMinimize, kMaximize };

// What a bound engine's cached values depend on, i.e. how much of the
// memo a distribution change can invalidate:
//   * kCleanedSubset — value(T) depends only on the distributions of the
//     objects IN T (plus every current value).  Exact MaxPr is the model:
//     Pr[f(X) < f(u) − τ | X_{O∖T} = u_{O∖T}] integrates only over T's
//     distributions.  A dist change to object i evicts exactly the
//     entries whose set contains i.
//   * kAllObjects — value(T) reads every object's distribution (exact
//     MinVar: the outer expectation runs over the uncleaned objects too),
//     so any dist change flushes the whole memo.
// Value or structural changes flush everything under either policy; pure
// cost changes never touch objective values and evict nothing.
enum class CacheDependency { kAllObjects, kCleanedSubset };

// Every work counter the engine and its holders report, as one named set.
// The fields carry no documentation of their own: each is declared once
// more, with its meaning and its bench-gate policy, as a row of
// kEngineCounters below, and every serializer, parser and delta loops
// that table.  Adding a counter means one field here, one row there, and
// the code that increments it.
struct EngineStats {
  std::int64_t evaluations = 0;
  std::int64_t cache_hits = 0;
  std::int64_t probes = 0;
  std::int64_t commits = 0;
  std::int64_t key_bytes_hashed = 0;
  std::int64_t kernel_calls = 0;
  std::int64_t kernel_atoms = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t plane_rows_rebuilt = 0;
  std::int64_t requests = 0;
  std::int64_t full_rebuilds = 0;
  std::int64_t sheds = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t retries = 0;
  std::int64_t faults_injected = 0;
};

// How tools/compare_bench.py gates a counter of a bench cell against the
// baseline's (the policy travels in each bench document's
// "counter_gates"):
//   * kMonotone — any increase is a regression, a decrease an improvement;
//   * kExact    — any drift, either direction, is a regression;
//   * kInfo     — recorded, never gated.
enum class CounterGate { kMonotone, kExact, kInfo };

// "monotone" / "exact" / "info", as bench documents spell the gate.
constexpr const char* CounterGateName(CounterGate gate) {
  return gate == CounterGate::kMonotone ? "monotone"
         : gate == CounterGate::kExact  ? "exact"
                                        : "info";
}

// Who increments a counter: the EvalEngine itself (kEngine; /stats
// reports these per engine), or the code holding it (kHolder: the claims
// evaluator's kernel counters, the service's request count, the serving
// workloads' robustness counts), which fills them into the EngineStats it
// returns.
enum class CounterSource { kEngine, kHolder };

struct CounterSpec {
  const char* name;  // JSON key in plan results, /stats and bench cells
  CounterGate gate;
  CounterSource source;
  std::int64_t EngineStats::*field;
};

inline constexpr CounterSpec kEngineCounters[] = {
    // Full-objective invocations (cache misses; an incremental Reset
    // counts as one).
    {"evaluations", CounterGate::kMonotone, CounterSource::kEngine,
     &EngineStats::evaluations},
    // Lookups served from the memo table.  Exact: fewer hits means lost
    // cross-request reuse, more under identical evaluations means the
    // workload changed shape.
    {"cache_hits", CounterGate::kExact, CounterSource::kEngine,
     &EngineStats::cache_hits},
    // Incremental marginal-gain probes.
    {"probes", CounterGate::kMonotone, CounterSource::kEngine,
     &EngineStats::probes},
    // Incremental set extensions committed.
    {"commits", CounterGate::kInfo, CounterSource::kEngine,
     &EngineStats::commits},
    // Bytes of canonical-key data fed through a hash function (full-key
    // FNV-1a for the exact-key fallback, per-element mixing for the
    // incremental signature).  The batch hot loop hashes 4 bytes per
    // probe plus one base pass per round; the pre-signature engine hashed
    // the whole key per probe.
    {"key_bytes_hashed", CounterGate::kInfo, CounterSource::kEngine,
     &EngineStats::key_bytes_hashed},
    // SoA convolution-kernel work (dist/kernels.h): flat-kernel
    // invocations and the atoms they wrote.  Deterministic and
    // machine-independent; zero on paths that never touch the kernels
    // (e.g. knapsack algorithms).
    {"kernel_calls", CounterGate::kMonotone, CounterSource::kHolder,
     &EngineStats::kernel_calls},
    {"kernel_atoms", CounterGate::kMonotone, CounterSource::kHolder,
     &EngineStats::kernel_atoms},
    // Memo entries evicted by the epoch downdating of a bound engine (see
    // BindProblem); selective evictions and full flushes both count every
    // dropped entry.  Zero on unbound engines.  Exact: more means coarser
    // downdating, fewer means entries survived that should not have.
    {"cache_evictions", CounterGate::kExact, CounterSource::kEngine,
     &EngineStats::cache_evictions},
    // Distribution-plane rows repacked by the problem this engine ran
    // against (CleaningProblem::plane_rows_rebuilt): the partial-rebuild
    // meter of the streaming-delta path, pinned to the number of mutated
    // rows.
    {"plane_rows_rebuilt", CounterGate::kExact, CounterSource::kHolder,
     &EngineStats::plane_rows_rebuilt},
    // Plan requests served by a serve::PlanningService session (the
    // service's plan responses and the serving workloads).  Zero outside
    // the serving path.
    {"requests", CounterGate::kExact, CounterSource::kHolder,
     &EngineStats::requests},
    // Journal-overrun fallbacks: how many times SyncEpoch found the bound
    // problem's delta journal no longer reaching this engine's stamp and
    // fell back to a full memo flush.  Selective downdates do not count.
    {"full_rebuilds", CounterGate::kInfo, CounterSource::kEngine,
     &EngineStats::full_rebuilds},
    // Robustness counters of the serving failure paths (the
    // degraded_scaling workload reports them): shed connections,
    // deadline-cancelled requests, client-session retries and
    // deterministic injected faults (util/fault.h).  Exact for a fixed
    // fault schedule.
    {"sheds", CounterGate::kExact, CounterSource::kHolder, &EngineStats::sheds},
    {"deadline_exceeded", CounterGate::kExact, CounterSource::kHolder,
     &EngineStats::deadline_exceeded},
    {"retries", CounterGate::kExact, CounterSource::kHolder,
     &EngineStats::retries},
    {"faults_injected", CounterGate::kExact, CounterSource::kHolder,
     &EngineStats::faults_injected},
};

// A field without a row would be silently dropped by every loop.
static_assert(sizeof(EngineStats) ==
                  sizeof(kEngineCounters) / sizeof(kEngineCounters[0]) *
                      sizeof(std::int64_t),
              "every EngineStats field needs a kEngineCounters row");

// Counter-wise `after - before`: the work done between two snapshots of
// one engine's lifetime stats.
inline EngineStats operator-(EngineStats after, const EngineStats& before) {
  for (const CounterSpec& counter : kEngineCounters) {
    after.*counter.field -= before.*counter.field;
  }
  return after;
}

class EvalEngine {
 public:
  // `objective` maps a canonical cleaned set to the objective value; it is
  // retained for the engine's lifetime.  `pool` (optional, not owned) must
  // outlive the engine.
  EvalEngine(SetObjective objective, OptimizeDirection direction,
             ThreadPool* pool = nullptr);

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  // Binds this engine to the problem its objective reads, stamping the
  // problem's current epoch.  From then on every public entry point
  // resynchronizes first: if the problem mutated since the stamp, the
  // memo is downdated per `dependency` (see CacheDependency) before any
  // lookup, so a mutation between two requests can never serve a value
  // computed against the old state.  `problem` is borrowed and must
  // outlive the binding (rebind or pass nullptr to sever); the caller
  // must serialize mutations of the problem against this engine's calls
  // (the service's per-problem run mutex does).  Binding does not clear
  // an existing memo — entries are presumed consistent with the problem's
  // state as of this call.
  void BindProblem(const CleaningProblem* problem, CacheDependency dependency);

  // Memoized objective value of `cleaned` (any order, duplicates ok).
  double Evaluate(const std::vector<int>& cleaned);

  // Memoized values for a batch of candidate sets; duplicates within the
  // batch are computed once.  With a pool attached, uncached candidates
  // are evaluated concurrently; the result vector is always in candidate
  // order and bit-identical to the serial evaluation.
  std::vector<double> EvaluateBatch(
      const std::vector<std::vector<int>>& candidates);

  // Memoized values of base ∪ {e} for every e in `extras` — the greedy
  // hot path.  `base` must be sorted and duplicate-free and contain no
  // extra; `extras` must be distinct.  Equivalent to EvaluateBatch over
  // the materialized unions (same memo, same stats, same pooling) without
  // building a candidate vector per probe.
  void EvaluateExtensions(const std::vector<int>& base,
                          const std::vector<int>& extras,
                          std::vector<double>* out);

  // The Algorithm-1 adaptive greedy, evaluating every remaining candidate
  // each round (as one engine batch, or as one incremental probe sweep
  // when options.incremental is set).  Behaviourally identical to the
  // pre-engine private loops.
  Selection PlainGreedy(const std::vector<double>& costs, double budget,
                        const GreedyOptions& options = {});

  // CELF lazy greedy: seeds the heap with every candidate's first-round
  // benefit (one pooled batch), then only refreshes the entries whose
  // stale bound reaches the top.  Refreshes are one-at-a-time by
  // construction, so the pool accelerates the seeding round only; the
  // lazy win itself is the drop in evaluation count.  Selects the same
  // set as PlainGreedy whenever marginal benefits are non-increasing in
  // the growing cleaned set (submodularity; the property suite checks
  // the paper's instance families).
  Selection LazyGreedy(const std::vector<double>& costs, double budget,
                       const GreedyOptions& options = {});

  const EngineStats& stats() const { return stats_; }
  ThreadPool* pool() const { return pool_; }
  OptimizeDirection direction() const { return direction_; }

  // Test hook: makes every element hash to the same signature so all sets
  // collide and the exact-key fallback carries the whole cache.  The
  // collision-path tests drive the engine through this to prove the memo
  // stays sound under the worst possible hash.
  void UseDegenerateSignatureForTest() { degenerate_signature_ = true; }

  // Structural audit of the memo tables, used by the robustness suite to
  // prove a cancelled / faulted run left the cache consistent: every
  // primary entry's stored key must be canonical (sorted, duplicate-free)
  // and re-hash to exactly the signature it is filed under, and every
  // overflow key must be canonical and collide with a live primary entry
  // of the same signature (overflow entries only exist for sets whose
  // signature slot is taken).  Pure read — no stats, no mutation.
  // Returns false (with a diagnostic) on the first violation.
  bool CheckMemoInvariants(std::string* error = nullptr) const;

 private:
  // RAII single-writer assertion taken by every public entry point: the
  // first frame claims the engine for its thread, nested frames from the
  // same thread pass through, and a second thread aborts immediately via
  // FC_CHECK instead of racing on the memo tables.  Cheap enough to stay
  // on in release builds (one relaxed-ish atomic CAS per public call).
  class ApiGuard {
   public:
    explicit ApiGuard(EvalEngine* engine);
    ~ApiGuard();
    ApiGuard(const ApiGuard&) = delete;
    ApiGuard& operator=(const ApiGuard&) = delete;

   private:
    EvalEngine* engine_;
    bool nested_ = false;
  };

  struct KeyHash {
    std::size_t operator()(const std::vector<int>& key) const;
  };
  // One memo slot: the canonical key (verified on every signature hit)
  // and its objective value.
  struct CacheEntry {
    std::vector<int> key;
    double value = 0.0;
  };

  Selection Greedy(const std::vector<double>& costs, double budget,
                   const GreedyOptions& options, bool lazy);
  Selection GreedyIncremental(const std::vector<double>& costs, double budget,
                              const GreedyOptions& options, bool lazy);

  // Epoch resynchronization against the bound problem (no-op when
  // unbound or already current) — called by every public entry point
  // before touching the memo.
  void SyncEpoch();
  // Evicts every memo entry whose key intersects `changed` (ascending,
  // duplicate-free) / every entry.  Both count into
  // stats_.cache_evictions.
  void InvalidateObjects(const std::vector<int>& changed);
  void InvalidateAll();

  // Commutative per-element signature hash (identical for any insertion
  // order of the same set).
  std::uint64_t HashElement(int x);
  std::uint64_t SignatureOf(const std::vector<int>& sorted_key);

  // Memo lookup for the canonical set `key` under signature `sig`;
  // returns true and fills `*value` on a hit (counted by the caller).
  bool Lookup(std::uint64_t sig, const std::vector<int>& key, double* value);
  // Inserts a freshly evaluated (sig, key, value); routes to the exact-key
  // side table when the signature slot is already taken by another set.
  void Store(std::uint64_t sig, const std::vector<int>& key, double value);

  // Shared core of EvaluateBatch / EvaluateExtensions: the keys of the
  // batch are miss_keys_[0..count), classification already done by the
  // caller; evaluates the misses (pooled when possible) and commits them
  // to the memo.
  void EvaluateMisses(int count);

  SetObjective objective_;
  OptimizeDirection direction_;
  ThreadPool* pool_;

  // Epoch binding (BindProblem): the problem whose mutations invalidate
  // this memo, the eviction policy, and the last epoch synchronized with.
  const CleaningProblem* bound_problem_ = nullptr;
  CacheDependency dependency_ = CacheDependency::kAllObjects;
  std::uint64_t seen_epoch_ = 0;

  // Primary memo keyed by the 64-bit set signature; `overflow_` holds the
  // sets whose signature slot was already taken by a different set.
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::unordered_map<std::vector<int>, double, KeyHash> overflow_;
  bool degenerate_signature_ = false;

  // Owner thread of the in-flight public API call (default id = free).
  std::atomic<std::thread::id> api_owner_{};

  // Reusable scratch: one canonicalization buffer, plus per-miss-slot key
  // buffers (each owned by exactly one pool task during a batch) and their
  // signatures/values.  Capacity persists across rounds, so the steady
  // state of the greedy hot loop performs no allocation.
  std::vector<int> scratch_key_;
  std::vector<int> miss_slot_;
  std::vector<std::vector<int>> miss_keys_;
  std::vector<std::uint64_t> miss_sigs_;
  std::vector<double> miss_values_;

  EngineStats stats_;
};

}  // namespace factcheck

#endif  // FACTCHECK_CORE_ENGINE_H_
