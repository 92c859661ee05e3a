// Fuzz harness for PlanningService::HandleLine (serve/service.h) — the
// full request surface a connected client controls, one JSON line at a
// time.  The contract under fuzzing: HandleLine never crashes, never
// aborts, and ALWAYS returns exactly one well-formed JSON object with a
// boolean "ok" member — malformed requests, unknown ops, bad deltas,
// out-of-range budgets, deadline/idempotency fields included.  And any
// request answered ok:false leaves the problem's epoch and object count
// as they were: an update is all or nothing, and this service has no
// changelog store, so ok:false can never mean "applied in memory but not
// persisted".
//
// Each input runs against a fresh service with one small registered
// problem ("p"), so deep plan/update paths are reachable and no state
// leaks between inputs.  Expensive knobs an attacker-controlled line
// could turn (mc_samples) are capped before dispatch — the harness
// bounds runtime, not behaviour.
//
// Build modes match json_value_fuzz.cc: libFuzzer under Clang with
// FACTCHECK_FUZZ_LIBFUZZER, otherwise the shared deterministic
// corpus-replay driver in standalone_driver.h.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "serve/json_value.h"
#include "serve/service.h"

namespace {

constexpr char kCsv[] =
    "label,current,cost,support,probs\n"
    "a,10,1,9;10;12,0.25;0.5;0.25\n"
    "b,11,1.5,10;11;13,0.25;0.5;0.25\n"
    "c,12,2,11;12;14,0.25;0.5;0.25\n"
    "d,13,1.25,12;13;15,0.25;0.5;0.25\n";

// Skip inputs that would merely be slow (huge Monte Carlo sample counts),
// not interesting: runtime bounding, orthogonal to the crash contract.
bool TooExpensive(const std::string& line) {
  std::string error;
  std::optional<factcheck::serve::JsonValue> json =
      factcheck::serve::JsonValue::Parse(line, &error);
  if (!json.has_value() || !json->is_object()) return false;
  const factcheck::serve::JsonValue* samples = json->Find("mc_samples");
  return samples != nullptr && samples->is_number() &&
         samples->number() > 1024;
}

// The registered problem's {epoch, objects}, read from /stats.
std::pair<double, double> Shape(factcheck::serve::PlanningService& service) {
  std::optional<factcheck::serve::JsonValue> stats =
      factcheck::serve::JsonValue::Parse(service.StatsJson());
  if (!stats.has_value()) __builtin_trap();
  const factcheck::serve::JsonValue& problem =
      stats->Find("problems")->array().at(0);
  return {problem.Find("epoch")->number(), problem.Find("objects")->number()};
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 12)) return 0;  // bound parse cost, not protocol logic
  std::string line(reinterpret_cast<const char*>(data), size);
  if (TooExpensive(line)) return 0;

  factcheck::serve::PlanningService service;
  std::string error;
  if (!service.RegisterProblem("p", kCsv, {}, {}, &error)) __builtin_trap();

  const std::pair<double, double> before = Shape(service);
  const std::string response = service.HandleLine(line);
  if (response.empty()) __builtin_trap();
  std::string parse_error;
  std::optional<factcheck::serve::JsonValue> json =
      factcheck::serve::JsonValue::Parse(response, &parse_error);
  if (!json.has_value()) __builtin_trap();  // responses are always JSON
  if (!json->is_object()) __builtin_trap();
  const factcheck::serve::JsonValue* ok = json->Find("ok");
  if (ok == nullptr || !ok->is_bool()) __builtin_trap();
  if (!ok->boolean() && Shape(service) != before) __builtin_trap();
  return 0;
}

#ifndef FACTCHECK_FUZZ_LIBFUZZER

#include "standalone_driver.h"

int main(int argc, char** argv) {
  return factcheck_fuzz::StandaloneMain(
      argc, argv, "handle_line_fuzz",
      "{}[]\",:0123456789.-\nopplanupdate");
}

#endif  // FACTCHECK_FUZZ_LIBFUZZER
