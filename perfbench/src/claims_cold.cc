// claims_cold: one-shot claim-quality MinVar plans through Planner::TryPlan
// with the exp registry's claims_greedy_minvar entry, which builds a fresh
// Theorem-3.8 evaluator per run (the Fig. 10 timing semantics).  The
// claims evaluator and the dist kernels do the work; there is no daemon.
//
// Two claim shapes: non-overlapping width-4 window sums on URx n=7680
// (the Fig. 10 shape) and overlapping stride-2 width-6 windows on URx
// n=48 (the dist_kernels claim context, which drives ConvolveSum2Flat).
// One window plan (~40 ms) runs per three overlap plans (~10 ms), so the
// window plans set plans_per_s and the p99 and the overlap plans the p50.
// The overlap instances fix every support size at 3: a 2-D convolution
// expands the product of eight support sizes, so the registry's 3..5
// draw would make an instance's plan cost and term-cache memory swing by
// several times from seed to seed.  The overlap plans cycle over
// kOverlapInstances instances; budget fractions cycle through
// {0.05, 0.1, 0.2} within each shape.  The p50 is an overlap plan, and
// with 8 instances it followed the seed's instances: two seeds' overlap
// p50s stood 2.9 ms apart in repeated runs, and the ten-seed spread of
// plan_ms_p50 reached 0.23 of its median; 32 instances average that out.
#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>

#include "claims/ev_fast.h"
#include "core/planner.h"
#include "data/synthetic.h"
#include "dist/kernels.h"
#include "dist/planes.h"
#include "exp/workloads.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using factcheck::exp::Workload;

constexpr double kFractions[] = {0.05, 0.1, 0.2};
constexpr int kWindowSize = 7680;
constexpr int kOverlapSize = 48;
constexpr int kOverlapInstances = 32;

// One set-up: the claim shapes (the Fig. 10 window workload first, then
// the overlap instances) and the in-process service of the side problem.
struct Instance {
  std::vector<Workload> shapes;
  std::unique_ptr<factcheck::serve::PlanningService> side_service;
};

// The dist_kernels claim context (exp/workloads.cc BuildDistKernels):
// fragility of sliding width-6, stride-2 window sums, sensibility decay
// 1.05, Gamma at the median perturbation value.
Workload OverlapWorkload(std::uint64_t seed) {
  auto problem = std::make_shared<const factcheck::CleaningProblem>(
      factcheck::data::MakeSynthetic(
          factcheck::data::SyntheticFamily::kUniformRandom, seed,
          {.size = kOverlapSize, .min_support = 3, .max_support = 3}));
  const int width = 6, stride = 2;
  factcheck::PerturbationSet context;
  context.original = factcheck::MakeWindowSumClaim(0, width);
  std::vector<double> distances;
  for (int start = stride; start + width <= kOverlapSize; start += stride) {
    context.perturbations.push_back(factcheck::MakeWindowSumClaim(start, width));
    distances.push_back(start / static_cast<double>(stride));
  }
  context.sensibilities = factcheck::ExponentialSensibilities(distances, 1.05);
  auto context_ptr =
      std::make_shared<const factcheck::PerturbationSet>(std::move(context));
  const double gamma =
      factcheck::exp::MedianPerturbationValue(*problem, *context_ptr);
  return factcheck::exp::MakeClaimsWorkload(
      "overlap", problem, context_ptr, factcheck::QualityMeasure::kFragility,
      gamma, factcheck::StrengthDirection::kHigherIsStronger);
}

Instance BuildInstance(std::uint64_t seed, const SideProbe& side) {
  Instance instance;
  auto& registry = factcheck::exp::WorkloadRegistry::Global();
  instance.shapes.push_back(registry.Build(
      "urx_scaling", {.seed = DeriveSeed(seed, 1), .size = kWindowSize}));
  for (int i = 0; i < kOverlapInstances; ++i) {
    instance.shapes.push_back(OverlapWorkload(DeriveSeed(seed, 2 + i)));
  }
  for (const Workload& shape : instance.shapes) shape.problem->planes();
  instance.side_service =
      std::make_unique<factcheck::serve::PlanningService>();
  instance.side_service->HandleLine(side.input().RegisterLine());
  return instance;
}

double Budget(const Workload& w, int frac) {
  return kFractions[frac] * w.TotalCost();
}

// Nanoseconds-per-atom probes of the two flat kernels on the workload's
// own DistPlanes rows: every claim window for the 1-D sum, every pair of
// adjacent overlapping windows for the 2-D sum.
double KernelNsPerAtom(const Workload& w, int width, int stride, bool joint) {
  const factcheck::DistPlanes& planes = w.problem->planes();
  const int n = planes.num_objects();
  factcheck::ConvolutionWorkspace ws1;
  factcheck::ConvolutionWorkspace2 ws2;
  factcheck::KernelCounters counters;
  Clock::time_point start = Clock::now();
  do {
    for (int s = 0; s + width + (joint ? stride : 0) <= n; s += stride) {
      if (!joint) {
        std::vector<factcheck::FlatTerm> terms;
        for (int i = s; i < s + width; ++i) {
          terms.push_back({planes.values(i), planes.probs(i),
                           planes.support_size(i), 1.0});
        }
        factcheck::ConvolveSumFlat(terms.data(), static_cast<int>(terms.size()),
                                   ws1, &counters);
      } else {
        std::vector<factcheck::FlatTerm2> terms;
        for (int i = s; i < s + width + stride; ++i) {
          terms.push_back({planes.values(i), planes.probs(i),
                           planes.support_size(i), i < s + width ? 1.0 : 0.0,
                           i >= s + stride ? 1.0 : 0.0});
        }
        factcheck::ConvolveSum2Flat(terms.data(),
                                    static_cast<int>(terms.size()), ws2,
                                    &counters);
      }
    }
  } while (SecondsSince(start) < 0.1);
  const double ns = SecondsSince(start) * 1e9;
  return counters.atoms > 0 ? ns / static_cast<double>(counters.atoms) : 0.0;
}

}  // namespace

void RunClaimsCold(const RunOptions& options, Tracer& tracer, Result& result,
                   Values& values) {
  SideProbe side(options.seed);
  // Set-up is a few milliseconds of allocation-heavy work, and on a shared
  // machine its speed moves in phases of a fraction of a second to
  // seconds: a run's set-ups taken back to back all land in one phase.
  // So the instance is built kSetups times before the timed phase and
  // rebuilt after every kRebuildEvery-th plan, and setup_s is the median
  // of all builds, sampled across the run like the plan metrics.  The
  // rebuilds are taken off the timed phase's clock.
  constexpr int kSetups = 9;
  constexpr int kRebuildEvery = 32;
  constexpr int kProbeEvery = 16;
  constexpr int kProbeBurst = 32;
  Samples setup_s;
  std::optional<Instance> instance;
  auto build = [&] {
    // One instance in memory at a time; the side service keeps its state.
    std::unique_ptr<factcheck::serve::PlanningService> service;
    if (instance.has_value()) service = std::move(instance->side_service);
    instance.reset();
    const Clock::time_point t0 = Clock::now();
    instance.emplace(BuildInstance(options.seed, side));
    setup_s.Add(SecondsSince(t0));
    if (service != nullptr) instance->side_service = std::move(service);
  };
  for (int i = 0; i < kSetups; ++i) build();

  // Oracle (outside set-up): the engine's non-lazy incremental
  // greedy_minvar must select exactly what claims_greedy_minvar selects.
  // The two differ by design in one place: claims_greedy_minvar never
  // considers an object that no claim references (its gain is zero by
  // Theorem 3.8's locality), while the engine keeps buying zero-gain
  // objects when minimizing as long as the budget allows.  The overlap
  // shape leaves objects 0 and 1 in the original claim only, so the engine
  // can end its order with them.  Those trailing unreferenced picks are
  // dropped from the expected order and counted; any other difference, an
  // unreferenced pick before a referenced one included, is a mismatch.  The
  // expected selection's EV must equal the engine selection's bit for bit,
  // or the dropped picks were not free and the oracle fails.
  // expected[s][f]: shape s at budget fraction f.
  struct Expected {
    std::vector<int> order, cleaned;
  };
  std::vector<std::vector<Expected>> expected;
  std::int64_t unreferenced_picks = 0;
  for (const Workload& shape : instance->shapes) {
    const factcheck::Planner planner(shape.registry());
    const factcheck::ClaimEvEvaluator evaluator(
        shape.problem.get(), shape.claims.get(), shape.measure,
        shape.reference, shape.direction);
    expected.emplace_back();
    for (int f = 0; f < 3; ++f) {
      std::string error;
      std::optional<factcheck::PlanResult> plan = planner.TryPlan(
          shape.MakeRequest(Budget(shape, f)), "greedy_minvar", &error);
      if (!plan.has_value()) {
        result.MarkIncorrect("oracle greedy_minvar failed: " + error);
        return;
      }
      Expected e{.order = plan->selection.order};
      while (!e.order.empty() &&
             evaluator.NumClaimsReferencing(e.order.back()) == 0) {
        e.order.pop_back();
        ++unreferenced_picks;
      }
      e.cleaned = e.order;
      std::sort(e.cleaned.begin(), e.cleaned.end());
      if (evaluator.EV(e.cleaned) != evaluator.EV(plan->selection.cleaned)) {
        result.MarkIncorrect("oracle greedy_minvar's unreferenced picks "
                             "change EV");
        return;
      }
      expected.back().push_back(std::move(e));
    }
  }

  // The peak resident set of the timed phase alone: set-up and the oracle
  // runs above are not what a planning user holds in memory.
  std::ofstream("/proc/self/clear_refs") << "5";
  TimedSamples plan_ms, update_ms, stats_ms;
  std::int64_t plans_ok = 0;
  Samples shape_ms[2];
  Samples term_evaluations, probes, commits, cache_hits, kernel_calls,
      kernel_atoms;
  double kernel_atoms_total = 0.0, plan_ms_total = 0.0;
  std::vector<int> next_frac(instance->shapes.size(), 0);
  int next_overlap = 0;
  const Clock::time_point start = Clock::now();
  double rebuild_s = 0.0;
  const double timed_start_spans = static_cast<double>(tracer.size());
  for (std::int64_t op = 0; SecondsSince(start) < options.seconds; ++op) {
    const int s = op % 4 == 0 ? 0 : 1 + next_overlap++ % kOverlapInstances;
    if (op > 0 && op % kRebuildEvery == 0) {
      const Clock::time_point r0 = Clock::now();
      build();
      rebuild_s += SecondsSince(r0);
    }
    const Workload& shape = instance->shapes[s];
    const int f = next_frac[s]++ % 3;
    const factcheck::Planner planner(shape.registry());
    const factcheck::PlanRequest request =
        shape.MakeRequest(Budget(shape, f));
    std::string error;
    Clock::time_point t0 = Clock::now();
    std::optional<factcheck::PlanResult> plan;
    {
      ScopedSpan span(tracer, "core.planner.try_plan");
      plan = planner.TryPlan(request, "claims_greedy_minvar", &error);
    }
    const double ms = MillisBetween(t0, Clock::now());
    const Expected& e = expected[s][f];
    const bool ok = plan.has_value() && plan->selection.order == e.order &&
                    plan->selection.cleaned == e.cleaned;
    result.CountOp(!ok);
    plans_ok += ok ? 1 : 0;
    if (plan.has_value()) {
      plan_ms.Add(MillisBetween(start, Clock::now()), ms);
      shape_ms[s == 0 ? 0 : 1].Add(ms);
      plan_ms_total += ms;
      term_evaluations.Add(static_cast<double>(plan->stats.evaluations));
      probes.Add(static_cast<double>(plan->stats.probes));
      commits.Add(static_cast<double>(plan->stats.commits));
      cache_hits.Add(static_cast<double>(plan->stats.cache_hits));
      kernel_calls.Add(static_cast<double>(plan->stats.kernel_calls));
      kernel_atoms.Add(static_cast<double>(plan->stats.kernel_atoms));
      kernel_atoms_total += static_cast<double>(plan->stats.kernel_atoms);
    }
    // In-process update/stats probes on the side problem, in bursts of
    // kProbeBurst (alternating) after every kProbeEvery-th plan.  Timed
    // right after a 10-40 ms plan, a 20-60 us handler measured mostly the
    // cache refill, whose cost on a shared 4-core VM swung stats_ms_p90 by
    // 0.29 of its median over ten seeds; within a burst the handler runs
    // on a warm path.  About 2,000 of each per 30-second run at under 1%
    // of the run's time.
    if (op % kProbeEvery != kProbeEvery - 1) continue;
    for (int i = 0; i < kProbeBurst; ++i) {
      const bool update = i % 2 == 0;
      const std::string line =
          update ? side.NextUpdate() : "{\"op\":\"stats\"}";
      Clock::time_point p0 = Clock::now();
      std::string response;
      {
        ScopedSpan span(tracer, update ? "serve.handle_line.update"
                                       : "serve.handle_line.stats");
        response = instance->side_service->HandleLine(line);
      }
      const double probe_ms = MillisBetween(p0, Clock::now());
      const bool probe_ok = ClassifyResponse(response, "") == Outcome::kOk;
      result.CountOp(!probe_ok);
      if (probe_ok) {
        (update ? update_ms : stats_ms)
            .Add(MillisBetween(start, Clock::now()), probe_ms);
      }
    }
  }
  const double elapsed = SecondsSince(start) - rebuild_s;
  values["setup_s"] = setup_s.P(0.5);

  if (!options.trace) {
    values["plans_per_s"] = static_cast<double>(plans_ok) / elapsed;
    values["plan_ms_p50"] = plan_ms.P(0.5);
    values["plan_ms_p99"] = plan_ms.WindowedP(0.99);
    values["update_ms_p50"] = update_ms.P(0.5);
    values["stats_ms_p90"] = stats_ms.WindowedP(0.9);
    values["peak_rss_mb"] = PeakRssMbOf("self");
    return;
  }

  // --- Per-layer metrics (traced run) ---
  const double traced_spans = static_cast<double>(tracer.size()) -
                              timed_start_spans;
  values["core.planner.try_plan_ms_p50.claims_greedy_minvar"] =
      tracer.Durations("core.planner.try_plan").P(0.5) / 1e3;
  values["serve.update_ms_p90"] = update_ms.WindowedP(0.9);
  values["claims.plan_ms_p50.window"] = shape_ms[0].P(0.5);
  values["claims.plan_ms_p50.overlap"] = shape_ms[1].P(0.5);
  values["claims.term_evaluations"] = term_evaluations.Mean();
  values["claims.probes"] = probes.Mean();
  values["claims.oracle_unreferenced_picks"] =
      static_cast<double>(unreferenced_picks);
  values["core.engine.evaluations"] = term_evaluations.Mean();
  values["core.engine.cache_hits"] = cache_hits.Mean();
  const double lookups = cache_hits.Sum() + term_evaluations.Sum();
  values["core.engine.hit_ratio"] =
      lookups > 0 ? cache_hits.Sum() / lookups : 0.0;
  values["core.engine.probes"] = probes.Mean();
  values["core.engine.commits"] = commits.Mean();
  values["dist.kernels.calls"] = kernel_calls.Mean();
  values["dist.kernels.atoms"] = kernel_atoms.Mean();
  values["serve.handle_line_us_p50.update"] =
      tracer.Durations("serve.handle_line.update").P(0.5);
  values["serve.handle_line_us_p50.stats"] =
      tracer.Durations("serve.handle_line.stats").P(0.5);
  values["bench.trace_overhead_frac"] =
      TraceOverheadFrac(static_cast<std::size_t>(traced_spans), elapsed);

  const Workload& window = instance->shapes[0];
  const Workload& overlap = instance->shapes[1];
  Samples build_ms;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(tracer, "claims.evaluator_build");
    factcheck::ClaimEvEvaluator evaluator(
        window.problem.get(), window.claims.get(), window.measure,
        window.reference, window.direction);
  }
  values["claims.evaluator_build_ms_p50"] =
      tracer.Durations("claims.evaluator_build").P(0.5) / 1e3;

  const double ns_sum1d = KernelNsPerAtom(window, 4, 4, false);
  values["dist.kernels.ns_per_atom.sum1d"] = ns_sum1d;
  values["dist.kernels.ns_per_atom.sum2d"] =
      KernelNsPerAtom(overlap, 6, 2, true);
  values["dist.kernels.est_share"] =
      plan_ms_total > 0 ? kernel_atoms_total * ns_sum1d / (plan_ms_total * 1e6)
                        : 0.0;

  std::vector<const factcheck::DiscreteDistribution*> dists;
  for (const auto& object : window.problem->objects()) {
    dists.push_back(&object.dist);
  }
  double arena_bytes = 0.0;
  {
    ScopedSpan span(tracer, "dist.planes.build");
    factcheck::DistPlanes planes(dists);
    arena_bytes += static_cast<double>(planes.arena_bytes());
  }
  for (size_t i = 1; i < instance->shapes.size(); ++i) {
    arena_bytes += static_cast<double>(
        instance->shapes[i].problem->planes().arena_bytes());
  }
  values["dist.planes.build_ms"] =
      tracer.Durations("dist.planes.build").P(0.5) / 1e3;
  values["dist.planes.arena_bytes"] = arena_bytes;

  std::vector<std::string> update_lines;
  {
    SideProbe replay(options.seed);
    for (size_t i = 0; i < side.batches().size(); ++i) {
      update_lines.push_back(replay.NextUpdate());
    }
  }
  MeasureUpdatePath(*side.input().problem, side.batches(), update_lines,
                    tracer, values);
}

}  // namespace perfbench
