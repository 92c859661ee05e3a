// The three benchmark workloads.  Each runs its set-up, its timed phase
// and its oracles, counts every operation in `result`, and fills
// `values` with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) by catalogue name.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {

using Values = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

void RunClaimsCold(const RunOptions& options, Tracer& tracer, Result& result,
                   Values& values);
void RunServeWarm(const RunOptions& options, Tracer& tracer, Result& result,
                  Values& values);
void RunServeChurn(const RunOptions& options, Tracer& tracer, Result& result,
                   Values& values);

// The update/stats probes of the workloads without writes of their own:
// update batches go to the side problem (never planned on) with a
// contiguous idempotency_seq, stats polls read the whole service.
class SideProbe {
 public:
  explicit SideProbe(std::uint64_t seed)
      : input_(SideProblem(seed)), rng_(DeriveSeed(seed, 41)) {}
  const ProblemInput& input() const { return input_; }
  // The next update request line; its deltas are appended to batches().
  std::string NextUpdate();
  const std::vector<std::string>& batches() const { return batches_; }

 private:
  ProblemInput input_;
  StreamRng rng_;
  std::int64_t next_seq_ = 1;
  std::vector<std::string> batches_;
};

// Per-layer timings of the update path, replayed in-process on a copy of
// `base` with the given delta batches: the scratch copy every update
// makes, ValidateDelta and Apply per batch, and JSON parsing of the
// request lines.
void MeasureUpdatePath(const factcheck::CleaningProblem& base,
                       const std::vector<std::string>& batches,
                       const std::vector<std::string>& lines, Tracer& tracer,
                       Values& values);

// Mean cost of recording one span, as a share of `traced_seconds`.
double TraceOverheadFrac(std::size_t spans, double traced_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
