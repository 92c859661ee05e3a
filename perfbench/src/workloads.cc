#include "workloads.h"

#include "core/delta.h"
#include "serve/json_value.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"plans_per_s", "1/s"},     {"plan_ms_p50", "ms"},
      {"plan_ms_p99", "ms"},      {"update_ms_p50", "ms"},
      {"stats_ms_p90", "ms"},     {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"serve.transport.ping_us_p50", "us"},
      {"serve.transport.self_us_p50", "us"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.response_bytes_mean", "bytes"},
      {"serve.update_ms_p90", "ms"},
      {"serve.handle_line_us_p50.plan", "us"},
      {"serve.handle_line_us_p50.update", "us"},
      {"serve.handle_line_us_p50.stats", "us"},
      {"serve.service.self_us_p50", "us"},
      {"serve.json.parse_us_p50", "us"},
      {"core.plan_result.to_json_us_p50", "us"},
      {"core.planner.try_plan_ms_p50.claims_greedy_minvar", "ms"},
      {"core.planner.try_plan_ms_p50.greedy_minvar_linear", "ms"},
      {"core.planner.try_plan_ms_p50.greedy_maxpr_normal", "ms"},
      {"core.planner.try_plan_ms_p50.knapsack_dp_minvar", "ms"},
      {"core.planner.try_plan_ms_p50.greedy_minvar", "ms"},
      {"core.planner.try_plan_ms_p50.greedy_maxpr", "ms"},
      {"core.planner.try_plan_ms_p50.mc_greedy_maxpr", "ms"},
      {"core.planner.trajectory_frac", "frac"},
      {"core.engine.evaluations", "count"},
      {"core.engine.cache_hits", "count"},
      {"core.engine.hit_ratio", "frac"},
      {"core.engine.probes", "count"},
      {"core.engine.commits", "count"},
      {"core.engine.cache_evictions", "count"},
      {"core.engine.full_rebuilds", "count"},
      {"core.problem.copy_us_p50", "us"},
      {"core.delta.validate_us_p50", "us"},
      {"core.delta.apply_us_p50", "us"},
      {"serve.changelog.append_us_p50", "us"},
      {"serve.changelog.append_us_p99", "us"},
      {"serve.changelog.snapshot_ms_p50", "ms"},
      {"serve.changelog.fsyncs_per_update", "count"},
      {"serve.changelog.bytes_per_update", "bytes"},
      {"data.csv_parse_ms", "ms"},
      {"claims.evaluator_build_ms_p50", "ms"},
      {"claims.plan_ms_p50.window", "ms"},
      {"claims.plan_ms_p50.overlap", "ms"},
      {"claims.term_evaluations", "count"},
      {"claims.probes", "count"},
      {"claims.oracle_unreferenced_picks", "count"},
      {"dist.kernels.calls", "count"},
      {"dist.kernels.atoms", "count"},
      {"dist.kernels.ns_per_atom.sum1d", "ns"},
      {"dist.kernels.ns_per_atom.sum2d", "ns"},
      {"dist.kernels.est_share", "frac"},
      {"dist.planes.build_ms", "ms"},
      {"dist.planes.arena_bytes", "bytes"},
      {"bench.sched_lag_ms_p99", "ms"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.ops_failed_frac", "frac"},
      {"bench.replay_mismatches", "count"},
  };
  return kMetrics;
}

std::string SideProbe::NextUpdate() {
  const std::string deltas =
      UpdateDeltasJson(rng_, input_.problem->size(), 4, 6);
  const std::string line = UpdateLine(input_.name, deltas, next_seq_);
  next_seq_ += static_cast<std::int64_t>(ParseDeltas(deltas).size());
  batches_.push_back(deltas);
  return line;
}

void MeasureUpdatePath(const factcheck::CleaningProblem& base,
                       const std::vector<std::string>& batches,
                       const std::vector<std::string>& lines, Tracer& tracer,
                       Values& values) {
  factcheck::CleaningProblem live = base;
  Samples copy_us, validate_us, apply_us;
  for (const std::string& batch : batches) {
    const std::vector<factcheck::ProblemDelta> deltas = ParseDeltas(batch);
    Clock::time_point t0 = Clock::now();
    factcheck::CleaningProblem scratch = live;
    Clock::time_point t1 = Clock::now();
    double validate_ms = 0.0;
    for (const factcheck::ProblemDelta& delta : deltas) {
      Clock::time_point v0 = Clock::now();
      factcheck::ValidateDelta(scratch, delta, nullptr);
      validate_ms += MillisBetween(v0, Clock::now());
      scratch.Apply(delta);
    }
    Clock::time_point a0 = Clock::now();
    for (const factcheck::ProblemDelta& delta : deltas) live.Apply(delta);
    Clock::time_point a1 = Clock::now();
    copy_us.Add(MillisBetween(t0, t1) * 1e3);
    validate_us.Add(validate_ms * 1e3);
    apply_us.Add(MillisBetween(a0, a1) * 1e3);
  }
  for (const std::string& line : lines) {
    ScopedSpan span(tracer, "serve.json.parse");
    factcheck::serve::JsonValue::Parse(line);
  }
  values["core.problem.copy_us_p50"] = copy_us.P(0.5);
  values["core.delta.validate_us_p50"] = validate_us.P(0.5);
  values["core.delta.apply_us_p50"] = apply_us.P(0.5);
  values["serve.json.parse_us_p50"] =
      tracer.Durations("serve.json.parse").P(0.5);
}

double TraceOverheadFrac(std::size_t spans, double traced_seconds) {
  if (traced_seconds <= 0.0) return 0.0;
  Tracer probe(true);
  const int kSpans = 20000;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.End(probe.Begin("probe"));
  const double per_span_s = SecondsSince(start) / kSpans;
  return per_span_s * static_cast<double>(spans) / traced_seconds;
}

}  // namespace perfbench
