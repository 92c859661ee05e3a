// CleaningProblem: the shared instance description consumed by every
// selection algorithm — n uncertain objects with independent error
// distributions (the correlated case is handled by dist/mvn plus the
// dependency-aware algorithms in core/greedy).

#ifndef FACTCHECK_CORE_PROBLEM_H_
#define FACTCHECK_CORE_PROBLEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/delta.h"
#include "core/object.h"
#include "util/annotations.h"

namespace factcheck {

class DistPlanes;

// An instance of the data-cleaning selection problem (without the budget,
// which varies per experiment).
//
// Thread-safety contract (the serving layer shares const problems across
// requests):
//   * Const reads — object()/objects()/the column views/planes()/
//     planes_ptr()/epoch()/ChangesSince() — are safe to call concurrently
//     from any number of threads, including the lazy first build of the
//     planes cache, which is guarded by a per-instance mutex.
//   * Mutations — set_current_value, Clean, ReplaceDistribution, Apply,
//     and the assignment operators — require external exclusivity: no
//     other thread may be reading or writing this instance while one
//     runs.  The mutations still take the planes mutex internally when
//     touching the cache, so a stale DistPlanes snapshot obtained through
//     planes_ptr() before the mutation stays valid and fully built; what
//     the lock does NOT make safe is reading the object rows themselves
//     (objects()/Means()/...) concurrently with a mutation.
//
// Mutation epoch + change journal: every mutation advances a monotone
// epoch counter and appends a record of what it touched to a bounded
// journal.  A cache holder stamps the epoch it last synchronized with
// and, when the instance has moved on, asks ChangesSince(stamp) for the
// union of changes in between — which lets it *downdate* (evict only the
// state that intersects changed objects) instead of discarding
// everything.  When the journal no longer reaches back to the stamp
// (too many mutations, or the whole instance was replaced by
// assignment), ChangesSince returns false and the holder must rebuild
// from scratch.  EvalEngine::BindProblem, the lazily rebuilt planes
// cache below, and ClaimEvEvaluator all run on this protocol.
class CleaningProblem {
 public:
  // The per-epoch union of changes reported by ChangesSince.
  struct ProblemChanges {
    // Objects whose error distribution changed (ReplaceDistribution,
    // Clean); ascending, duplicate-free.
    std::vector<int> dist_changed;
    bool values_changed = false;  // any current_value changed (incl. Clean)
    bool costs_changed = false;
    bool structure_changed = false;  // an object was added or removed
  };

  CleaningProblem() = default;
  explicit CleaningProblem(std::vector<UncertainObject> objects);

  // Copies share the planes-cache snapshot (cheap and correct: a mutation
  // resets only the mutated instance's pointer).  The per-instance mutex
  // is not copied; the source's mutex is taken while snapshotting its
  // cache so copying from a const problem is safe concurrently with other
  // const readers.  Copy/move ASSIGNMENT additionally advances the
  // target's epoch and truncates its journal: the instance's whole state
  // was replaced, so holders synchronized with the old state must fully
  // rebuild.
  CleaningProblem(const CleaningProblem& other);
  CleaningProblem& operator=(const CleaningProblem& other);
  CleaningProblem(CleaningProblem&& other) noexcept;
  CleaningProblem& operator=(CleaningProblem&& other) noexcept;

  int size() const { return static_cast<int>(objects_.size()); }
  const UncertainObject& object(int i) const;
  const std::vector<UncertainObject>& objects() const { return objects_; }

  // Column views used throughout the algorithms.
  std::vector<double> CurrentValues() const;  // u
  std::vector<double> Means() const;          // E[X_i]
  std::vector<double> Variances() const;      // Var[X_i]
  std::vector<double> Costs() const;          // c_i
  double TotalCost() const;

  // Replaces the current value of object i (used by in-action simulations
  // where cleaning reveals a hidden truth).
  void set_current_value(int i, double v);

  // Collapses object i's distribution to a point mass at `v` — the state of
  // the world after o_i has been cleaned and its true value observed.
  void Clean(int i, double v);

  // Swaps in a new error distribution for object i (partial cleaning,
  // re-quantization).
  void ReplaceDistribution(int i, DiscreteDistribution dist);

  // Folds one streaming delta (core/delta.h) into the instance in
  // O(changed objects): one journal record, one dirty plane row (or a
  // structural invalidation for add/remove).  Aborts on an invalid delta
  // — untrusted callers gate through DeltaValidator (core/delta.h) first.
  void Apply(const ProblemDelta& delta);

  // The monotone mutation counter: starts at 0, advanced by every
  // mutation (including whole-instance assignment).  Cache holders stamp
  // this and compare on their next use.
  std::uint64_t epoch() const { return epoch_; }

  // Union of the changes between epoch `since` and epoch(): true and
  // fills `*out` when the journal still covers that range, false when it
  // was compacted past `since` (the holder must rebuild from scratch).
  // ChangesSince(epoch()) trivially succeeds with an empty summary.
  bool ChangesSince(std::uint64_t since, ProblemChanges* out) const;

  // Shared SoA view of every object's atoms (dist/planes.h), built lazily
  // on first use and reused by all evaluators of this problem instance —
  // the columnar layout the convolution kernels read.  A distribution
  // mutation (Clean, ReplaceDistribution, Apply) marks the mutated row
  // dirty; the next call rebuilds ONLY the dirty rows into a fresh
  // snapshot (structural changes rebuild fully).  The returned reference
  // is valid until the next such mutation.  Thread-safe to call
  // concurrently on a const problem.
  const DistPlanes& planes() const;
  // Same snapshot with shared ownership, for holders that must outlive
  // later mutations of this problem (e.g. ClaimEvEvaluator).
  std::shared_ptr<const DistPlanes> planes_ptr() const
      FC_EXCLUDES(planes_mutex_);

  // Lifetime count of plane rows (re)built for this instance — the
  // partial-rebuild work meter gated by the replan_scaling bench (a
  // one-object delta must cost one row, not n).  Full builds (the lazy
  // first build, structural changes) count every row.
  std::int64_t plane_rows_rebuilt() const FC_EXCLUDES(planes_mutex_);

 private:
  // One journal record per mutation: record j describes the mutation
  // that advanced the epoch from journal_base_ + j to journal_base_ +
  // j + 1.
  struct JournalRecord {
    std::uint8_t flags = 0;  // kDistBit | kValueBit | kCostBit | kStructBit
    int object = -1;
  };
  static constexpr std::uint8_t kDistBit = 1;
  static constexpr std::uint8_t kValueBit = 2;
  static constexpr std::uint8_t kCostBit = 4;
  static constexpr std::uint8_t kStructBit = 8;
  // Journal length cap; older records are dropped (holders further back
  // than the cap rebuild fully, which is what they would do anyway after
  // that many changes).
  static constexpr std::size_t kJournalCapacity = 256;

  void RecordMutation(std::uint8_t flags, int object);
  // The planes-cache half of every copy and move: installs `other`'s
  // cache state here, sharing its snapshot (copy) or taking it over
  // (`steal`, for moves; the members are mutable, so a const reference
  // suffices).
  void AdoptPlanesCache(const CleaningProblem& other, bool steal)
      FC_EXCLUDES(planes_mutex_);
  void MarkPlanesRowDirty(int i) FC_EXCLUDES(planes_mutex_);
  void MarkPlanesStructureDirty() FC_EXCLUDES(planes_mutex_);

  std::vector<UncertainObject> objects_;

  // Mutation epoch + journal (same exclusivity contract as objects_:
  // mutations are externally serialized, const reads are free).
  std::uint64_t epoch_ = 0;
  std::uint64_t journal_base_ = 0;  // epoch of the first journal record
  std::deque<JournalRecord> journal_;

  // Guards the planes cache state — lazy build on const instances shared
  // across threads, and the dirty-marking in the mutations.  Per
  // instance, so unrelated problems never serialize on each other's
  // builds.
  mutable fc::Mutex planes_mutex_;
  // Copies share the cache snapshot (cheap, correct: snapshots are
  // immutable; mutation only redirects the mutated instance's pointer).
  // When planes_stale_ is set the snapshot is the REUSABLE PREVIOUS
  // build: the next planes_ptr() repacks only planes_dirty_rows_ from it
  // (unless planes_structure_dirty_ forces a full rebuild).
  mutable std::shared_ptr<const DistPlanes> planes_cache_
      FC_GUARDED_BY(planes_mutex_);
  mutable bool planes_stale_ FC_GUARDED_BY(planes_mutex_) = false;
  mutable bool planes_structure_dirty_ FC_GUARDED_BY(planes_mutex_) = false;
  mutable std::vector<int> planes_dirty_rows_ FC_GUARDED_BY(planes_mutex_);
  mutable std::int64_t plane_rows_rebuilt_ FC_GUARDED_BY(planes_mutex_) = 0;
};

}  // namespace factcheck

#endif  // FACTCHECK_CORE_PROBLEM_H_
