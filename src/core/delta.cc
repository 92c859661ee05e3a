#include "core/delta.h"

#include <utility>

#include "core/problem.h"

namespace factcheck {

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kReplaceDistribution:
      return "replace_dist";
    case DeltaKind::kAddObject:
      return "add_object";
    case DeltaKind::kRemoveObject:
      return "remove_object";
    case DeltaKind::kSetCost:
      return "set_cost";
    case DeltaKind::kSetCurrentValue:
      return "set_value";
    case DeltaKind::kClean:
      return "clean";
  }
  return "unknown";
}

ProblemDelta ProblemDelta::ReplaceDistribution(int object,
                                               DiscreteDistribution dist) {
  ProblemDelta delta;
  delta.kind = DeltaKind::kReplaceDistribution;
  delta.object = object;
  delta.dist = std::move(dist);
  return delta;
}

ProblemDelta ProblemDelta::AddObject(UncertainObject object) {
  ProblemDelta delta;
  delta.kind = DeltaKind::kAddObject;
  delta.added = std::move(object);
  return delta;
}

ProblemDelta ProblemDelta::RemoveObject(int object) {
  ProblemDelta delta;
  delta.kind = DeltaKind::kRemoveObject;
  delta.object = object;
  return delta;
}

ProblemDelta ProblemDelta::SetCost(int object, double cost) {
  ProblemDelta delta;
  delta.kind = DeltaKind::kSetCost;
  delta.object = object;
  delta.value = cost;
  return delta;
}

ProblemDelta ProblemDelta::SetCurrentValue(int object, double value) {
  ProblemDelta delta;
  delta.kind = DeltaKind::kSetCurrentValue;
  delta.object = object;
  delta.value = value;
  return delta;
}

ProblemDelta ProblemDelta::Clean(int object, double value) {
  ProblemDelta delta;
  delta.kind = DeltaKind::kClean;
  delta.object = object;
  delta.value = value;
  return delta;
}

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool DeltaValidator::Accept(const ProblemDelta& delta, std::string* error) {
  const int n = objects_;
  switch (delta.kind) {
    case DeltaKind::kAddObject:
      if (!(delta.added.cost > 0.0)) {
        return Fail(error, "add_object: cost must be > 0");
      }
      if (delta.added.dist.support_size() < 1) {
        return Fail(error, "add_object: distribution must be non-empty");
      }
      objects_ += 1;
      return true;
    case DeltaKind::kRemoveObject:
      if (n == 0) return Fail(error, "remove_object: problem is empty");
      if (delta.object != n - 1) {
        return Fail(error, "remove_object: only the last object (index " +
                               std::to_string(n - 1) +
                               ") may be removed — interior removal would "
                               "renumber cached references");
      }
      objects_ -= 1;
      return true;
    case DeltaKind::kReplaceDistribution:
    case DeltaKind::kSetCost:
    case DeltaKind::kSetCurrentValue:
    case DeltaKind::kClean:
      if (delta.object < 0 || delta.object >= n) {
        return Fail(error, std::string(DeltaKindName(delta.kind)) +
                               ": object " + std::to_string(delta.object) +
                               " out of range (problem has " +
                               std::to_string(n) + " objects)");
      }
      if (delta.kind == DeltaKind::kSetCost && !(delta.value > 0.0)) {
        return Fail(error, "set_cost: cost must be > 0");
      }
      if (delta.kind == DeltaKind::kReplaceDistribution &&
          delta.dist.support_size() < 1) {
        return Fail(error, "replace_dist: distribution must be non-empty");
      }
      return true;
  }
  return Fail(error, "unknown delta kind");
}

bool ValidateDelta(const CleaningProblem& problem, const ProblemDelta& delta,
                   std::string* error) {
  return DeltaValidator(problem.size()).Accept(delta, error);
}

}  // namespace factcheck
