#include "core/problem.h"

#include <algorithm>
#include <utility>

#include "dist/planes.h"
#include "util/check.h"

namespace factcheck {

CleaningProblem::CleaningProblem(std::vector<UncertainObject> objects)
    : objects_(std::move(objects)) {
  for (const auto& o : objects_) {
    FC_CHECK_GT(o.cost, 0.0);
    FC_CHECK_GE(o.dist.support_size(), 1);
  }
}

CleaningProblem::CleaningProblem(const CleaningProblem& other)
    : objects_(other.objects_),
      epoch_(other.epoch_),
      journal_base_(other.journal_base_),
      journal_(other.journal_) {
  AdoptPlanesCache(other, /*steal=*/false);
}

CleaningProblem& CleaningProblem::operator=(const CleaningProblem& other) {
  if (this == &other) return *this;
  objects_ = other.objects_;
  // Assignment replaces this instance's whole state: holders stamped
  // against OUR old epochs must fully rebuild, so advance the epoch and
  // start an empty journal at it (ChangesSince for any earlier stamp now
  // reports "compacted past you").
  epoch_ += 1;
  journal_base_ = epoch_;
  journal_.clear();
  AdoptPlanesCache(other, /*steal=*/false);
  return *this;
}

CleaningProblem::CleaningProblem(CleaningProblem&& other) noexcept
    : objects_(std::move(other.objects_)),
      epoch_(other.epoch_),
      journal_base_(other.journal_base_),
      journal_(std::move(other.journal_)) {
  AdoptPlanesCache(other, /*steal=*/true);
}

CleaningProblem& CleaningProblem::operator=(CleaningProblem&& other) noexcept {
  if (this == &other) return *this;
  objects_ = std::move(other.objects_);
  // Same contract as copy assignment: the instance's state was replaced
  // wholesale, so stamped holders must rebuild.
  epoch_ += 1;
  journal_base_ = epoch_;
  journal_.clear();
  AdoptPlanesCache(other, /*steal=*/true);
  return *this;
}

void CleaningProblem::AdoptPlanesCache(const CleaningProblem& other,
                                       bool steal) {
  // Snapshot the source's cache under its mutex: copying from a const
  // problem must be safe concurrently with other const readers (who may
  // be publishing the lazily built planes right now).  A copy shares the
  // snapshot — cheap and correct, since a later mutation redirects only
  // the mutated instance's pointer.  A move requires external exclusivity
  // on `other` (it is being gutted), so its mutex is uncontended.  Our own
  // mutex is uncontended too (nobody else can see an instance being
  // constructed or assigned), but both are taken so the handoff satisfies
  // the same machine-checked discipline as every other planes_cache_
  // access.
  std::shared_ptr<const DistPlanes> snapshot;
  bool stale = false;
  bool structure_dirty = false;
  std::vector<int> dirty_rows;
  {
    fc::MutexLock lock(&other.planes_mutex_);
    if (steal) {
      snapshot = std::move(other.planes_cache_);
      dirty_rows = std::move(other.planes_dirty_rows_);
    } else {
      snapshot = other.planes_cache_;
      dirty_rows = other.planes_dirty_rows_;
    }
    stale = other.planes_stale_;
    structure_dirty = other.planes_structure_dirty_;
  }
  fc::MutexLock self_lock(&planes_mutex_);
  planes_cache_ = std::move(snapshot);
  planes_stale_ = stale;
  planes_structure_dirty_ = structure_dirty;
  planes_dirty_rows_ = std::move(dirty_rows);
}

const UncertainObject& CleaningProblem::object(int i) const {
  FC_CHECK_GE(i, 0);
  FC_CHECK_LT(i, size());
  return objects_[i];
}

std::vector<double> CleaningProblem::CurrentValues() const {
  std::vector<double> u(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) u[i] = objects_[i].current_value;
  return u;
}

std::vector<double> CleaningProblem::Means() const {
  std::vector<double> m(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) m[i] = objects_[i].dist.Mean();
  return m;
}

std::vector<double> CleaningProblem::Variances() const {
  std::vector<double> v(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) {
    v[i] = objects_[i].dist.Variance();
  }
  return v;
}

std::vector<double> CleaningProblem::Costs() const {
  std::vector<double> c(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) c[i] = objects_[i].cost;
  return c;
}

double CleaningProblem::TotalCost() const {
  double acc = 0.0;
  for (const auto& o : objects_) acc += o.cost;
  return acc;
}

void CleaningProblem::RecordMutation(std::uint8_t flags, int object) {
  epoch_ += 1;
  journal_.push_back(JournalRecord{flags, object});
  while (journal_.size() > kJournalCapacity) {
    journal_.pop_front();
    journal_base_ += 1;
  }
}

void CleaningProblem::MarkPlanesRowDirty(int i) {
  fc::MutexLock lock(&planes_mutex_);
  if (planes_cache_ == nullptr) return;  // nothing built yet — nothing stale
  planes_stale_ = true;
  planes_dirty_rows_.push_back(i);
}

void CleaningProblem::MarkPlanesStructureDirty() {
  fc::MutexLock lock(&planes_mutex_);
  if (planes_cache_ == nullptr) return;
  planes_stale_ = true;
  planes_structure_dirty_ = true;
  planes_dirty_rows_.clear();
}

void CleaningProblem::set_current_value(int i, double v) {
  FC_CHECK_GE(i, 0);
  FC_CHECK_LT(i, size());
  objects_[i].current_value = v;
  RecordMutation(kValueBit, i);
}

void CleaningProblem::Clean(int i, double v) {
  FC_CHECK_GE(i, 0);
  FC_CHECK_LT(i, size());
  objects_[i].current_value = v;
  objects_[i].dist = DiscreteDistribution::PointMass(v);
  RecordMutation(kValueBit | kDistBit, i);
  MarkPlanesRowDirty(i);
}

void CleaningProblem::ReplaceDistribution(int i, DiscreteDistribution dist) {
  FC_CHECK_GE(i, 0);
  FC_CHECK_LT(i, size());
  objects_[i].dist = std::move(dist);
  RecordMutation(kDistBit, i);
  MarkPlanesRowDirty(i);
}

void CleaningProblem::Apply(const ProblemDelta& delta) {
  switch (delta.kind) {
    case DeltaKind::kReplaceDistribution:
      ReplaceDistribution(delta.object, delta.dist);
      return;
    case DeltaKind::kAddObject:
      FC_CHECK_GT(delta.added.cost, 0.0);
      FC_CHECK_GE(delta.added.dist.support_size(), 1);
      objects_.push_back(delta.added);
      RecordMutation(kStructBit, size() - 1);
      MarkPlanesStructureDirty();
      return;
    case DeltaKind::kRemoveObject:
      // Tail-only by contract (see core/delta.h): interior removal would
      // renumber every later object under cached references.
      FC_CHECK_GT(size(), 0);
      FC_CHECK_EQ(delta.object, size() - 1);
      objects_.pop_back();
      RecordMutation(kStructBit, delta.object);
      MarkPlanesStructureDirty();
      return;
    case DeltaKind::kSetCost:
      FC_CHECK_GE(delta.object, 0);
      FC_CHECK_LT(delta.object, size());
      FC_CHECK_GT(delta.value, 0.0);
      objects_[delta.object].cost = delta.value;
      RecordMutation(kCostBit, delta.object);
      return;
    case DeltaKind::kSetCurrentValue:
      set_current_value(delta.object, delta.value);
      return;
    case DeltaKind::kClean:
      Clean(delta.object, delta.value);
      return;
  }
  FC_CHECK(false && "unknown delta kind");
}

bool CleaningProblem::ChangesSince(std::uint64_t since,
                                   ProblemChanges* out) const {
  FC_CHECK(out != nullptr);
  *out = ProblemChanges{};
  if (since == epoch_) return true;
  if (since > epoch_ || since < journal_base_) return false;
  // Record j covers the mutation from epoch journal_base_ + j to
  // journal_base_ + j + 1, so the range (since, epoch_] is records
  // [since - journal_base_, journal_.size()).
  for (std::size_t j = static_cast<std::size_t>(since - journal_base_);
       j < journal_.size(); ++j) {
    const JournalRecord& rec = journal_[j];
    if ((rec.flags & kDistBit) != 0) out->dist_changed.push_back(rec.object);
    if ((rec.flags & kValueBit) != 0) out->values_changed = true;
    if ((rec.flags & kCostBit) != 0) out->costs_changed = true;
    if ((rec.flags & kStructBit) != 0) out->structure_changed = true;
  }
  std::sort(out->dist_changed.begin(), out->dist_changed.end());
  out->dist_changed.erase(
      std::unique(out->dist_changed.begin(), out->dist_changed.end()),
      out->dist_changed.end());
  return true;
}

std::shared_ptr<const DistPlanes> CleaningProblem::planes_ptr() const {
  // Per-instance build lock: the accessor must be safe on a const problem
  // shared across threads (unrelated problems never contend).  Publishing
  // through the shared_ptr under the lock keeps readers from observing a
  // half-built store; the same lock orders the dirty-marking in the
  // mutation paths.  A snapshot is never mutated in place — a rebuild
  // (full or partial) always publishes a NEW DistPlanes, so holders of
  // the previous shared_ptr keep a valid, fully built view.
  fc::MutexLock lock(&planes_mutex_);
  if (planes_cache_ != nullptr && !planes_stale_) return planes_cache_;
  std::vector<const DiscreteDistribution*> dists;
  dists.reserve(objects_.size());
  for (const UncertainObject& o : objects_) dists.push_back(&o.dist);
  if (planes_cache_ != nullptr && !planes_structure_dirty_) {
    // Downdate path: repack only the mutated rows, copying everything
    // else from the stale-but-reusable previous snapshot.
    std::sort(planes_dirty_rows_.begin(), planes_dirty_rows_.end());
    planes_dirty_rows_.erase(
        std::unique(planes_dirty_rows_.begin(), planes_dirty_rows_.end()),
        planes_dirty_rows_.end());
    planes_cache_ = std::make_shared<const DistPlanes>(dists, *planes_cache_,
                                                       planes_dirty_rows_);
  } else {
    planes_cache_ = std::make_shared<const DistPlanes>(dists);
  }
  plane_rows_rebuilt_ += planes_cache_->rows_rebuilt();
  planes_stale_ = false;
  planes_structure_dirty_ = false;
  planes_dirty_rows_.clear();
  return planes_cache_;
}

const DistPlanes& CleaningProblem::planes() const { return *planes_ptr(); }

std::int64_t CleaningProblem::plane_rows_rebuilt() const {
  fc::MutexLock lock(&planes_mutex_);
  return plane_rows_rebuilt_;
}

}  // namespace factcheck
