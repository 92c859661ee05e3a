// Seed-pure inputs of the serving workloads: the problems (as the CSV the
// daemon receives), the finite plan-request pools, the closed-loop request
// streams of serve_warm and the open-loop schedule of serve_churn.  The
// program under test sees nothing but these generated bytes.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/planner.h"
#include "core/problem.h"
#include "core/query_function.h"
#include "harness.h"

namespace perfbench {

// A problem as registered over the socket, plus the benchmark's own parse of
// the same CSV (the oracle plans on exactly what the daemon parsed).
struct ProblemInput {
  std::string name;
  std::string csv;
  std::shared_ptr<factcheck::CleaningProblem> problem;
  std::shared_ptr<factcheck::LinearQueryFunction> query;  // all-ones sum

  std::string RegisterLine() const;
};

// One distinct plan request of a pool.
struct PlanSpec {
  int problem = 0;  // index into the workload's problems
  std::string algo;
  int klass = 0;  // index into the pool's class weights
  double budget_frac = 0.1;
  std::optional<double> tau = std::nullopt;
  std::optional<int> mc_samples = std::nullopt;
  std::string line = {};  // the request line sent to the daemon

  // The equivalent one-shot request on `problem` (the oracle).
  factcheck::PlanRequest OneShot(const factcheck::CleaningProblem& problem,
                                 const factcheck::LinearQueryFunction& query)
      const;
};

struct PlanPool {
  std::vector<PlanSpec> specs;
  std::vector<double> class_weights;
  std::vector<std::vector<int>> by_class;  // spec indices per class
};

// serve_warm: 13 linear URx problems with n from 100 to 1000 and three
// exact problems with n <= 8.
std::vector<ProblemInput> WarmProblems(std::uint64_t seed);
PlanPool WarmPool(const std::vector<ProblemInput>& problems);
// Closed-loop draw: the next pool index of connection `conn` (a class by
// the pool's weights, then a member uniformly).
class PlanStream {
 public:
  PlanStream(std::uint64_t seed, int conn, const PlanPool* pool)
      : rng_(DeriveSeed(seed, 100 + conn)), pool_(pool) {}
  int Next();

 private:
  StreamRng rng_;
  const PlanPool* pool_;
};

// The side problem every workload sends its update/stats probes to when
// the workload itself has no writes (never planned on, so the plan mix
// stays warm).
ProblemInput SideProblem(std::uint64_t seed);

// serve_churn: twelve linear URx problems, n = 150..700, and one exact
// problem with n = 8.
std::vector<ProblemInput> ChurnProblems(std::uint64_t seed);
PlanPool ChurnPool(const std::vector<ProblemInput>& problems);

// A seeded update batch of 1..max_deltas typed deltas (replace_dist with
// at most `max_support` atoms / set_cost / set_value) against a problem
// with `objects` objects, as its JSON array.
std::string UpdateDeltasJson(StreamRng& rng, int objects, int max_deltas,
                             int max_support);
std::string UpdateLine(const std::string& problem, const std::string& deltas,
                       std::int64_t idempotency_seq);
// Parses a deltas array back (what the daemon applies).
std::vector<factcheck::ProblemDelta> ParseDeltas(const std::string& deltas);

enum class OpKind { kPlan, kUpdate, kStats };

// One open-loop write-side op of serve_churn.
struct ChurnOp {
  OpKind kind = OpKind::kUpdate;
  double due_ms = 0.0;   // from the start of the timed phase
  int problem = -1;      // kUpdate
  int batch = -1;        // kUpdate: index into that problem's batches
  std::string line = {};
};

struct ChurnSchedule {
  std::vector<ChurnOp> ops;  // ascending due time
  // Per problem, the delta batches in send order (JSON arrays).
  std::vector<std::vector<std::string>> batches;
};

// Fixed arrival rates (per second) of serve_churn's open loop, set from
// measurements on a 4-core VM.  With the closed-loop planner running,
// connection 0 sending a 1:1 mix of update batches and stats polls back to
// back completes 6,100-6,700 ops/s (three seeds), so the open loop's 200
// ops/s is about 3% of that connection's capacity.  Higher rates made the
// run-to-run spread wider than the benchmark's bounds: each update batch
// adds 1-8 changelog records, every 64 records of a problem compact into a
// snapshot written within the update, and the polls queued behind those
// updates on connection 0 set stats_ms_p90.  Over the same five seeds,
// interleaved, stats_ms_p90 spread 0.90 of its median at 200 updates and
// 200 polls per second against 0.26 at 100 and 100 (and 0.93 at 500 and
// 250 with two planners).
constexpr double kChurnUpdateRate = 100.0;
constexpr double kChurnStatsRate = 100.0;
// Load connections of the serve workloads, and the daemon's --threads.
// Each busy connection keeps two threads runnable (the benchmark's and the
// daemon's handler), so two connections fill the 4-core VM's cores without
// queueing threads on them.  Over five seeds, interleaved, three
// connections against two widened the spread of serve_churn's plans_per_s
// from 0.14 to 0.28 and of serve_warm's plan_ms_p99 from 0.17 to 0.37.
constexpr int kConnections = 2;

// Poisson arrivals of update batches and stats polls over `seconds`, all
// sent on one connection: at most one update is in flight per problem
// and each problem's idempotency_seq stays contiguous.
ChurnSchedule MakeChurnSchedule(std::uint64_t seed, double seconds,
                                const std::vector<ProblemInput>& problems);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
