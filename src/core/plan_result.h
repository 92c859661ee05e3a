// PlanResult: the structured outcome every Planner-driven selection run
// returns — the selection itself, the per-round objective trajectory, the
// evaluation-engine counters, and wall-clock timing — with a stable JSON
// serialization so experiments can be logged, diffed, and replayed.

#ifndef FACTCHECK_CORE_PLAN_RESULT_H_
#define FACTCHECK_CORE_PLAN_RESULT_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/greedy.h"

namespace factcheck {

class JsonWriter;

struct PlanResult {
  std::string algorithm;  // registry name that produced this result
  std::string objective;  // "minvar" or "maxpr"

  Selection selection;
  // Labels of the cleaned objects, parallel to selection.cleaned.
  std::vector<std::string> labels;

  // Objective value after each pick in selection.order; trajectory[0] is
  // the empty set.  Empty when the request disabled it or when exact
  // re-evaluation is infeasible (see Planner::kTrajectoryScenarioLimit).
  std::vector<double> trajectory;
  // Objective of the final selection (= trajectory.back() when the
  // trajectory was computed); valid iff has_objective_value.
  double objective_value = 0.0;
  bool has_objective_value = false;

  // Engine counters for the engine-backed algorithms; zero otherwise.
  EngineStats stats;
  double wall_seconds = 0.0;

  // Single JSON object:
  //   {"algorithm":..,"objective":..,
  //    "selection":{"cleaned":[..],"order":[..],"labels":[..],"cost":..},
  //    "objective_value":..|null,"trajectory":[..],
  //    "stats":{COUNTER:..,...},"wall_ms":..}
  // where the stats object holds one integer per kEngineCounters row
  // (core/engine.h), in table order.
  std::string ToJson() const;

  // Streams the same object into an open writer (for aggregating many
  // results into one JSON array).
  void WriteJson(JsonWriter& writer) const;
};

}  // namespace factcheck

#endif  // FACTCHECK_CORE_PLAN_RESULT_H_
