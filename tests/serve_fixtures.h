// Fixtures shared by the serving, robustness, changelog and delta suites:
// two small deterministic problems, the protocol's request lines, and
// readers for its responses.

#ifndef FACTCHECK_TESTS_SERVE_FIXTURES_H_
#define FACTCHECK_TESTS_SERVE_FIXTURES_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta.h"
#include "core/object.h"
#include "core/problem.h"
#include "dist/discrete.h"
#include "serve/changelog.h"
#include "serve/json_value.h"
#include "util/json.h"

namespace factcheck {

// Mixed costs, 3-atom supports whose upper atom spreads with the index.
inline CleaningProblem MakeProblem(int n = 6) {
  std::vector<UncertainObject> objects;
  objects.reserve(n);
  for (int i = 0; i < n; ++i) {
    UncertainObject object;
    object.label = "o" + std::to_string(i);
    object.current_value = 10.0 + i;
    object.cost = 1.0 + 0.25 * (i % 3);
    double mid = 10.0 + i;
    object.dist = DiscreteDistribution({mid - 1.0, mid, mid + 2.0 + 0.5 * i},
                                       {0.25, 0.5, 0.25});
    objects.push_back(std::move(object));
  }
  return CleaningProblem(std::move(objects));
}

// Alternating costs, one support shape shifted by the index.
inline CleaningProblem MakeShiftedProblem(int n = 5) {
  std::vector<UncertainObject> objects;
  objects.reserve(n);
  for (int i = 0; i < n; ++i) {
    UncertainObject object;
    object.label = "o" + std::to_string(i);
    object.current_value = 10.0 + i;
    object.cost = 1.0 + 0.5 * (i % 2);
    double mid = 10.0 + i;
    object.dist =
        DiscreteDistribution({mid - 1.0, mid, mid + 1.5}, {0.25, 0.5, 0.25});
    objects.push_back(std::move(object));
  }
  return CleaningProblem(std::move(objects));
}

inline std::string DeltaJson(const ProblemDelta& delta) {
  JsonWriter writer;
  serve::WriteDeltaJson(delta, writer);
  return writer.str();
}

inline std::string UpdateLine(const std::string& name,
                              const std::string& deltas_array) {
  return "{\"op\":\"update\",\"problem\":\"" + name +
         "\",\"deltas\":" + deltas_array + "}";
}

inline std::string RegisterLine(const std::string& name,
                                const std::string& csv) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("op")
      .String("register")
      .Key("problem")
      .String(name)
      .Key("csv")
      .String(csv)
      .EndObject();
  return writer.str();
}

inline std::string PlanLine(const std::string& name, const std::string& algo,
                            double budget) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("op")
      .String("plan")
      .Key("problem")
      .String(name)
      .Key("algo")
      .String(algo)
      .Key("budget")
      .Number(budget)
      .EndObject();
  return writer.str();
}

inline std::string PlanLine(const std::string& name, double budget) {
  return PlanLine(name, "greedy_minvar", budget);
}

// Parses a response and expects it to be {"ok":true,...}.
inline serve::JsonValue ParseOk(const std::string& response) {
  std::string error;
  std::optional<serve::JsonValue> value =
      serve::JsonValue::Parse(response, &error);
  EXPECT_TRUE(value.has_value()) << error << " in " << response;
  EXPECT_TRUE(value->Find("ok") != nullptr && value->Find("ok")->boolean())
      << response;
  return std::move(*value);
}

inline std::vector<int> CleanedOf(const serve::JsonValue& plan_response) {
  const serve::JsonValue* cleaned =
      plan_response.Find("result")->Find("selection")->Find("cleaned");
  std::vector<int> out;
  for (const serve::JsonValue& item : cleaned->array()) {
    out.push_back(static_cast<int>(item.number()));
  }
  return out;
}

}  // namespace factcheck

#endif  // FACTCHECK_TESTS_SERVE_FIXTURES_H_
