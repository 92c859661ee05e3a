// ProblemDelta: the typed streaming-update unit of the delta subsystem.
//
// Production problems are not static — source tables get corrected
// (replace-distribution), rows appear and retire (add/remove object), and
// cleaning prices change (set-cost).  A ProblemDelta captures exactly one
// such change; CleaningProblem::Apply folds it into the instance in
// O(changed objects), bumps the instance's monotone mutation epoch, and
// records the change in a bounded journal so downstream caches (engine
// memos, distribution planes, claim-term caches) can *downdate* —
// re-derive only the state the change touched — instead of rebuilding
// from scratch.  See CleaningProblem::epoch() / ChangesSince().
//
// Index stability contract: objects are addressed by dense index
// everywhere (query refs, claim components, cached set keys), so removal
// is TAIL-ONLY — only the last object may be removed.  Interior removal
// would renumber every later object and silently re-aim every cached
// reference; DeltaValidator rejects it and Apply aborts on it.
//
// Apply aborts (FC_CHECK) on an invalid delta; callers handling untrusted
// input (the serving `update` verb, changelog replay) must gate each
// delta through DeltaValidator (or ValidateDelta) first, which reports a
// diagnostic instead.
//
// Validity depends ONLY on the object count of the problem the delta will
// be applied to (index range, tail-only removal) and on the delta's own
// payload (positive cost, non-empty distribution).  That is what lets a
// batch be validated all-or-nothing in O(batch): DeltaValidator carries
// the count forward across the batch instead of applying each delta to a
// copy of the problem.  A future check that needs more of the problem's
// state must extend that running shape, not read the live problem.

#ifndef FACTCHECK_CORE_DELTA_H_
#define FACTCHECK_CORE_DELTA_H_

#include <string>

#include "core/object.h"
#include "dist/discrete.h"

namespace factcheck {

class CleaningProblem;

enum class DeltaKind {
  kReplaceDistribution,  // swap object's error distribution (dist payload)
  kAddObject,            // append `added` as the new last object
  kRemoveObject,         // drop the LAST object (object must be size-1)
  kSetCost,              // object's cleaning cost := value (> 0)
  kSetCurrentValue,      // object's current value := value
  kClean,                // observe truth `value`: point-mass dist + value
};

const char* DeltaKindName(DeltaKind kind);

struct ProblemDelta {
  DeltaKind kind = DeltaKind::kSetCost;
  int object = -1;   // target index; unused by kAddObject
  double value = 0.0;  // kSetCost / kSetCurrentValue / kClean payload
  DiscreteDistribution dist;  // kReplaceDistribution payload
  UncertainObject added;      // kAddObject payload

  static ProblemDelta ReplaceDistribution(int object,
                                          DiscreteDistribution dist);
  static ProblemDelta AddObject(UncertainObject object);
  static ProblemDelta RemoveObject(int object);  // must be the last index
  static ProblemDelta SetCost(int object, double cost);
  static ProblemDelta SetCurrentValue(int object, double value);
  static ProblemDelta Clean(int object, double value);
};

// The running shape a batch (or a changelog) is validated against: the
// object count after every delta accepted so far.  Accept(d) answers
// whether d can be applied to a problem of that shape — exactly what
// Apply would accept — and on success advances the count as Apply would
// (+1 for add_object, -1 for remove_object), so the next delta is checked
// against the state its predecessors leave behind.
class DeltaValidator {
 public:
  explicit DeltaValidator(int objects) : objects_(objects) {}

  // On failure fills `*error` (when non-null), leaves the shape as it
  // was, and returns false; never aborts.
  bool Accept(const ProblemDelta& delta, std::string* error);

 private:
  int objects_;
};

// Whether `delta` can be applied to `problem` in its current state: index
// in range, positive cost, tail-only removal, positive added cost.  On
// failure fills `*error` (when non-null) and returns false; never aborts.
// One-delta form of DeltaValidator.
bool ValidateDelta(const CleaningProblem& problem, const ProblemDelta& delta,
                   std::string* error);

}  // namespace factcheck

#endif  // FACTCHECK_CORE_DELTA_H_
