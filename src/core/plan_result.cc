#include "core/plan_result.h"

#include "util/json.h"

namespace factcheck {

void PlanResult::WriteJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.Key("algorithm").String(algorithm);
  writer.Key("objective").String(objective);
  writer.Key("selection").BeginObject();
  writer.Key("cleaned").BeginArray();
  for (int i : selection.cleaned) writer.Int(i);
  writer.EndArray();
  writer.Key("order").BeginArray();
  for (int i : selection.order) writer.Int(i);
  writer.EndArray();
  writer.Key("labels").BeginArray();
  for (const std::string& label : labels) writer.String(label);
  writer.EndArray();
  writer.Key("cost").Number(selection.cost);
  writer.EndObject();
  writer.Key("objective_value");
  if (has_objective_value) {
    writer.Number(objective_value);
  } else {
    writer.Null();
  }
  writer.Key("trajectory").BeginArray();
  for (double v : trajectory) writer.Number(v);
  writer.EndArray();
  writer.Key("stats").BeginObject();
  for (const CounterSpec& counter : kEngineCounters) {
    writer.Key(counter.name).Int(stats.*counter.field);
  }
  writer.EndObject();
  writer.Key("wall_ms").Number(wall_seconds * 1e3);
  writer.EndObject();
}

std::string PlanResult::ToJson() const {
  JsonWriter writer;
  WriteJson(writer);
  return writer.str();
}

}  // namespace factcheck
