// serve_warm and serve_churn: factcheck_serve as a child process, driven
// over its Unix socket from one process with kConnections connections;
// the daemon runs with --threads kConnections.
//
// serve_warm is read-only and closed-loop over warm engines: transport,
// JSON, service dispatch, engine memo hits and incremental probes do the
// work, no kernel runs.  serve_churn is open-loop with writes beside the
// reads: delta validation and apply, memo evictions, changelog append,
// fsync and compaction, and contention on the per-problem run mutex.
#include <sched.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "core/engine.h"
#include "core/ev.h"
#include "core/maxpr.h"
#include "core/plan_result.h"
#include "data/problem_io.h"
#include "serve/changelog.h"
#include "serve/json_value.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using factcheck::serve::JsonValue;
using factcheck::serve::LineClient;

// Engine and durability counters summed over every problem of a /stats
// document, plus each problem's mutation epoch.
struct StatsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> epochs;
};

constexpr const char* kEngineCounters[] = {
    "evaluations", "cache_hits", "probes", "commits", "cache_evictions",
    "full_rebuilds"};

bool ParseStats(const std::string& stats_json, StatsSnapshot* out) {
  std::optional<JsonValue> doc = JsonValue::Parse(stats_json);
  if (!doc.has_value() || !doc->is_object()) return false;
  const JsonValue* stats = doc->Find("stats");
  if (stats == nullptr) stats = &*doc;  // a bare StatsJson document
  const JsonValue* problems = stats->Find("problems");
  const JsonValue* robustness = stats->Find("robustness");
  if (problems == nullptr || !problems->is_array() || robustness == nullptr) {
    return false;
  }
  *out = StatsSnapshot();
  for (const char* name : kEngineCounters) out->counters[name] = 0;
  for (const JsonValue& problem : problems->array()) {
    out->epochs[problem.Find("name")->string()] =
        static_cast<std::int64_t>(problem.Find("epoch")->number());
    for (const JsonValue& engine : problem.Find("engines")->array()) {
      for (const char* name : kEngineCounters) {
        out->counters[name] +=
            static_cast<std::int64_t>(engine.Find(name)->number());
      }
    }
  }
  out->counters["fsyncs"] =
      static_cast<std::int64_t>(robustness->Find("fsyncs")->number());
  return true;
}

std::map<std::string, std::int64_t> Delta(const StatsSnapshot& before,
                                          const StatsSnapshot& after) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : after.counters) {
    out[name] = value - before.counters.at(name);
  }
  return out;
}

bool Call(LineClient& client, const std::string& line, std::string* response) {
  std::string error;
  return client.Call(line, response, &error);
}

// Each daemon handler thread serves one connection for its whole life, so
// the benchmark never holds a connection beyond its kConnections load
// connections open across the timed phase.
bool FetchStats(const std::string& socket, StatsSnapshot* out) {
  LineClient client;
  std::string error, response;
  return client.Connect(socket, &error) &&
         Call(client, "{\"op\":\"stats\"}", &response) &&
         ParseStats(response, out);
}

// One-shot oracle prefixes for every pool spec on the given problems.
std::vector<std::string> OraclePrefixes(
    const PlanPool& pool, const std::vector<ProblemInput>& problems,
    Result& result) {
  const factcheck::Planner planner;
  std::vector<std::string> prefixes;
  for (const PlanSpec& spec : pool.specs) {
    const ProblemInput& input = problems[spec.problem];
    std::string error;
    std::optional<factcheck::PlanResult> plan = planner.TryPlan(
        spec.OneShot(*input.problem, *input.query), spec.algo, &error);
    if (!plan.has_value()) {
      result.MarkIncorrect("oracle " + spec.line + ": " + error);
      prefixes.push_back("\x01");
    } else {
      prefixes.push_back(ResultPrefix(plan->ToJson()));
    }
  }
  return prefixes;
}

// Starts the daemon, registers `problems` (and the side problem when
// given), then runs every pool spec once in pool order (the warm pass).
// Returns false after marking the result incorrect.
bool StartAndWarm(Daemon& daemon, const RunOptions& options,
                  const std::vector<std::string>& extra_args,
                  const std::string& socket, const std::string& tag,
                  const std::vector<ProblemInput>& problems,
                  const ProblemInput* side, const PlanPool& pool,
                  const std::vector<std::string>& expected, Result& result) {
  std::vector<std::string> args = {"--socket", socket, "--threads",
                                   std::to_string(kConnections)};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::string error;
  if (!daemon.Start(options.serve_binary, args, socket,
                    options.work_dir + "/" + tag + ".log", &error)) {
    result.MarkIncorrect(error);
    return false;
  }
  LineClient client;
  if (!client.Connect(socket, &error)) {
    result.MarkIncorrect(error);
    return false;
  }
  std::string response;
  for (const ProblemInput& problem : problems) {
    if (!Call(client, problem.RegisterLine(), &response) ||
        ClassifyResponse(response, "") != Outcome::kOk) {
      result.MarkIncorrect("register " + problem.name + ": " + response);
      return false;
    }
  }
  if (side != nullptr && (!Call(client, side->RegisterLine(), &response) ||
                          ClassifyResponse(response, "") != Outcome::kOk)) {
    result.MarkIncorrect("register side: " + response);
    return false;
  }
  for (size_t i = 0; i < pool.specs.size(); ++i) {
    if (!Call(client, pool.specs[i].line, &response) ||
        ClassifyResponse(response, expected[i]) != Outcome::kOk) {
      result.MarkIncorrect("warm pass " + pool.specs[i].line + ": " +
                           response.substr(0, 200));
      return false;
    }
  }
  return true;
}

// In-process mirror of the daemon's state: the same registrations and
// the same warm pass through PlanningService::HandleLine.
std::unique_ptr<factcheck::serve::PlanningService> MakeMirror(
    const std::vector<ProblemInput>& problems, const ProblemInput* side,
    const PlanPool& pool) {
  auto mirror = std::make_unique<factcheck::serve::PlanningService>();
  for (const ProblemInput& problem : problems) {
    mirror->HandleLine(problem.RegisterLine());
  }
  if (side != nullptr) mirror->HandleLine(side->RegisterLine());
  for (const PlanSpec& spec : pool.specs) mirror->HandleLine(spec.line);
  return mirror;
}

// Session engines of the replay, keyed like PlanningService::EngineFor
// (one per problem and objective, bound to the problem's epoch), so a
// replayed TryPlan is timed against a memo as warm as the daemon's.
class ReplayEngines {
 public:
  factcheck::EvalEngine* For(const ProblemInput& input, const PlanSpec& spec) {
    const std::string key =
        input.name + (spec.tau.has_value()
                          ? "/maxpr@" + std::to_string(*spec.tau)
                          : "/minvar");
    auto it = engines_.find(key);
    if (it == engines_.end()) {
      const bool maxpr = spec.tau.has_value();
      auto engine = std::make_unique<factcheck::EvalEngine>(
          maxpr ? factcheck::MaxPrObjective(*input.query, *input.problem,
                                            *spec.tau)
                : factcheck::MinVarObjective(*input.query, *input.problem),
          maxpr ? factcheck::OptimizeDirection::kMaximize
                : factcheck::OptimizeDirection::kMinimize);
      engine->BindProblem(input.problem.get(),
                          maxpr ? factcheck::CacheDependency::kCleanedSubset
                                : factcheck::CacheDependency::kAllObjects);
      it = engines_.emplace(key, std::move(engine)).first;
    }
    return it->second.get();
  }
  factcheck::EngineStats Total() const {
    factcheck::EngineStats total;
    for (const auto& [key, engine] : engines_) {
      total.kernel_calls += engine->stats().kernel_calls;
      total.kernel_atoms += engine->stats().kernel_atoms;
    }
    return total;
  }

 private:
  std::map<std::string, std::unique_ptr<factcheck::EvalEngine>> engines_;
};

double PingUsP50(const std::string& socket, int pings) {
  LineClient client;
  std::string error, response;
  if (!client.Connect(socket, &error)) return 0.0;
  Samples us;
  for (int i = 0; i < pings; ++i) {
    Clock::time_point t0 = Clock::now();
    if (!Call(client, "{\"op\":\"ping\"}", &response)) break;
    us.Add(MillisBetween(t0, Clock::now()) * 1e3);
  }
  return us.P(0.5);
}

// Per-connection record of a closed- or open-loop phase.
struct ConnLog {
  TimedSamples plan_ms, update_ms, stats_ms;
  Samples lag_ms;
  std::vector<std::pair<int, double>> plan_latency;  // (spec, ms)
  std::vector<std::int64_t> spec_count;
  std::int64_t attempted = 0, failed = 0, plans_ok = 0;
  double plan_bytes = 0.0;
  Clock::time_point last_done{};
};

void Record(ConnLog& log, OpKind kind, int spec, Outcome outcome,
            double done_ms, double ms, std::size_t bytes) {
  ++log.attempted;
  if (outcome != Outcome::kOk) {
    ++log.failed;
    return;
  }
  if (kind == OpKind::kPlan) {
    ++log.plans_ok;
    log.plan_ms.Add(done_ms, ms);
    log.plan_latency.emplace_back(spec, ms);
    log.plan_bytes += static_cast<double>(bytes);
  } else {
    (kind == OpKind::kUpdate ? log.update_ms : log.stats_ms).Add(done_ms, ms);
  }
}

// All connections' records in one log; their op counts go to `result`.
ConnLog MergeLogs(const std::vector<ConnLog>& logs, std::size_t specs,
                  Result& result) {
  ConnLog m;
  m.spec_count.assign(specs, 0);
  for (const ConnLog& log : logs) {
    m.plan_ms.Append(log.plan_ms);
    m.update_ms.Append(log.update_ms);
    m.stats_ms.Append(log.stats_ms);
    m.lag_ms.Append(log.lag_ms);
    m.plan_latency.insert(m.plan_latency.end(), log.plan_latency.begin(),
                          log.plan_latency.end());
    for (size_t i = 0; i < log.spec_count.size(); ++i) {
      m.spec_count[i] += log.spec_count[i];
    }
    m.plans_ok += log.plans_ok;
    m.plan_bytes += log.plan_bytes;
    m.last_done = std::max(m.last_done, log.last_done);
    result.AddOps(log.attempted, log.failed);
  }
  return m;
}

void EndToEnd(const ConnLog& m, double elapsed, double setup_s, double rss_mb,
              Values& values) {
  values["plans_per_s"] = static_cast<double>(m.plans_ok) / elapsed;
  values["plan_ms_p50"] = m.plan_ms.P(0.5);
  values["plan_ms_p99"] = m.plan_ms.WindowedP(0.99);
  values["update_ms_p50"] = m.update_ms.P(0.5);
  values["stats_ms_p90"] = m.stats_ms.WindowedP(0.9);
  values["setup_s"] = setup_s;
  values["peak_rss_mb"] = rss_mb;
}

void EngineLayer(const std::map<std::string, std::int64_t>& delta,
                 std::int64_t plans, Values& values) {
  const double n = static_cast<double>(std::max<std::int64_t>(plans, 1));
  for (const char* name : kEngineCounters) {
    values[std::string("core.engine.") + name] =
        static_cast<double>(delta.at(name)) / n;
  }
  const double lookups =
      static_cast<double>(delta.at("cache_hits") + delta.at("evaluations"));
  values["core.engine.hit_ratio"] =
      lookups > 0 ? static_cast<double>(delta.at("cache_hits")) / lookups : 0.0;
}

// Queue wait of each timed plan: its latency minus the single-thread
// HandleLine time of its request minus the transport floor.
double QueueWaitP99(const std::vector<std::pair<int, double>>& plan_latency,
                    const std::map<int, Samples>& handle_us_by_spec,
                    double all_handle_us_p50, double ping_us) {
  std::map<int, double> median_us;
  for (const auto& [spec, samples] : handle_us_by_spec) {
    median_us[spec] = samples.P(0.5);
  }
  Samples wait_ms;
  for (const auto& [spec, ms] : plan_latency) {
    auto it = median_us.find(spec);
    const double handle_us = it == median_us.end() ? all_handle_us_p50
                                                   : it->second;
    wait_ms.Add(ms - (handle_us + ping_us) / 1e3);
  }
  return wait_ms.P(0.99);
}

// Pins the calling thread, and so every thread it starts and the daemon
// it forks, to the highest-numbered CPU it may run on.  serve_churn's
// closed-loop planner and open-loop writer leave most of a 4-core VM idle,
// and a request handed to a halted virtual CPU waits for the host to run
// it again.  Unpinned, 4-9% of the VM's CPU time was stolen during a run,
// and over four seeds, interleaved, plans_per_s and stats_ms_p90 spread
// 0.35 and 0.95 of their medians; pinned, under 1% was stolen and they
// spread 0.08 and 0.15.  serve_warm stays unpinned: on one CPU its DP and
// exact plans on one connection take the CPU from the other, and its
// plans_per_s spread 0.28-0.30 against 0.13-0.18 unpinned.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

// Daemon set-ups per run: kSetupsBefore before the timed phase and, on
// untraced runs, kSetupsAfter after it; setup_s is the median of all of
// them.  A set-up takes 0.1-0.2 s, and on a shared machine its speed
// moves in phases of seconds, so set-ups taken back to back all land in
// one phase; the two ends of a run sample two.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 6;

std::string FreshDir(const RunOptions& options, const std::string& name) {
  const std::string dir = options.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

void RunServeWarm(const RunOptions& options, Tracer& tracer, Result& result,
                  Values& values) {
  const std::vector<ProblemInput> problems = WarmProblems(options.seed);
  const PlanPool pool = WarmPool(problems);
  SideProbe side(options.seed);
  const std::vector<std::string> expected =
      OraclePrefixes(pool, problems, result);
  const std::string socket = options.work_dir + "/warm.sock";

  Daemon daemon;
  bool ready = false;
  Samples setup_s;
  auto set_up = [&] {
    daemon.Stop();
    Clock::time_point start = Clock::now();
    ready = StartAndWarm(daemon, options, {}, socket, "serve_warm", problems,
                         &side.input(), pool, expected, result);
    setup_s.Add(SecondsSince(start));
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();
  if (!ready) return;
  StatsSnapshot before, after;
  std::string error;
  if (!FetchStats(socket, &before)) {
    result.MarkIncorrect("stats before the timed phase");
    return;
  }

  // Closed loop: each connection sends its next request when the previous
  // one is answered.  Connection 0 follows every plan with an update (side
  // problem) or a stats poll, alternately: the probes then wait behind the
  // read load of the other connection, and they come to about one op in
  // four (some 8,000 of each in a 30-second run), enough for a steady
  // windowed p90 while three ops in four stay plans.
  std::vector<ConnLog> logs(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[c];
      log.spec_count.assign(pool.specs.size(), 0);
      LineClient client;
      std::string conn_error, response;
      if (!client.Connect(socket, &conn_error)) {
        ++log.attempted;
        ++log.failed;
        return;
      }
      PlanStream stream(options.seed, c, &pool);
      for (std::int64_t op = 0; Clock::now() < deadline; ++op) {
        OpKind kind = OpKind::kPlan;
        int spec = -1;
        std::string line;
        if (c == 0 && op % 2 == 1) {
          kind = op % 4 == 1 ? OpKind::kUpdate : OpKind::kStats;
          line = kind == OpKind::kUpdate ? side.NextUpdate()
                                         : "{\"op\":\"stats\"}";
        } else {
          spec = stream.Next();
          line = pool.specs[spec].line;
          ++log.spec_count[spec];
        }
        const Clock::time_point t0 = Clock::now();
        const bool sent = Call(client, line, &response);
        log.last_done = Clock::now();
        const Outcome outcome =
            !sent ? Outcome::kError
                  : ClassifyResponse(response,
                                     spec >= 0 ? expected[spec] : "");
        Record(log, kind, spec, outcome, MillisBetween(start, log.last_done),
               MillisBetween(t0, log.last_done), response.size());
        if (!sent && !client.Connect(socket, &conn_error)) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ConnLog merged = MergeLogs(logs, pool.specs.size(), result);
  const double elapsed = MillisBetween(start, merged.last_done) / 1e3;
  if (!FetchStats(socket, &after)) {
    result.MarkIncorrect("stats after the timed phase");
    return;
  }

  if (!options.trace) {
    const double rss_mb = daemon.PeakRssMb();
    for (int i = 0; i < kSetupsAfter && ready; ++i) set_up();
    EndToEnd(merged, elapsed, setup_s.P(0.5), rss_mb, values);
    daemon.Stop();
    return;
  }

  // --- Per-layer metrics (traced run) ---
  const std::map<std::string, std::int64_t> daemon_delta = Delta(before, after);
  EngineLayer(daemon_delta, merged.plans_ok, values);
  values["serve.response_bytes_mean"] =
      merged.plans_ok > 0 ? merged.plan_bytes / merged.plans_ok : 0.0;
  values["serve.update_ms_p90"] = merged.update_ms.WindowedP(0.9);
  const double ping_us = PingUsP50(socket, 2000);
  values["serve.transport.ping_us_p50"] = ping_us;
  const Clock::time_point replay_start = Clock::now();
  const std::size_t replay_spans = tracer.size();

  {
    double csv_ms = 0.0;
    for (const ProblemInput& problem : problems) {
      ScopedSpan span(tracer, "data.csv_parse");
      Clock::time_point t0 = Clock::now();
      factcheck::data::ProblemFromCsv(problem.csv);
      csv_ms += MillisBetween(t0, Clock::now());
    }
    values["data.csv_parse_ms"] = csv_ms;
  }

  // Self-check: a repeat of a warm request adds the same counters every
  // time, so the mirror's per-request deltas times the timed phase's
  // request counts must equal the daemon's /stats deltas exactly.
  auto mirror = MakeMirror(problems, &side.input(), pool);
  std::map<std::string, std::int64_t> predicted;
  for (const char* name : kEngineCounters) predicted[name] = 0;
  int mismatches = 0;
  for (size_t s = 0; s < pool.specs.size(); ++s) {
    if (merged.spec_count[s] == 0) continue;
    StatsSnapshot s0, s1, s2;
    ParseStats(mirror->StatsJson(), &s0);
    mirror->HandleLine(pool.specs[s].line);
    ParseStats(mirror->StatsJson(), &s1);
    mirror->HandleLine(pool.specs[s].line);
    ParseStats(mirror->StatsJson(), &s2);
    const auto d1 = Delta(s0, s1), d2 = Delta(s1, s2);
    if (d1 != d2) ++mismatches;
    for (const char* name : kEngineCounters) {
      predicted[name] += merged.spec_count[s] * d1.at(name);
    }
  }
  for (const char* name : kEngineCounters) {
    if (predicted[name] != daemon_delta.at(name)) {
      ++mismatches;
      result.MarkIncorrect(std::string("replay self-check: ") + name +
                           " predicted " + std::to_string(predicted[name]) +
                           ", daemon " +
                           std::to_string(daemon_delta.at(name)));
    }
  }
  values["bench.replay_mismatches"] = mismatches;

  // Layer replay of a representative slice of the request stream.
  ReplayEngines engines;
  const factcheck::Planner planner;
  for (const PlanSpec& spec : pool.specs) {
    const ProblemInput& input = problems[spec.problem];
    factcheck::PlanRequest request = spec.OneShot(*input.problem, *input.query);
    request.session_engine = engines.For(input, spec);
    planner.TryPlan(request, spec.algo);
  }
  const factcheck::EngineStats kernels_before = engines.Total();
  PlanStream replay_stream(options.seed, 1, &pool);
  std::map<int, Samples> handle_us_by_spec;
  std::map<std::string, Samples> try_plan_ms_by_algo;
  Samples service_self_us, handle_plan_us;
  double with_ms = 0.0, without_ms = 0.0;
  std::vector<std::pair<int, double>> sample_handle_us;
  const int kReplay = 1500;
  for (int i = 0; i < kReplay; ++i) {
    const int s = replay_stream.Next();
    const PlanSpec& spec = pool.specs[s];
    const ProblemInput& input = problems[spec.problem];
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "serve.handle_line.plan");
      mirror->HandleLine(spec.line);
    }
    const double handle_us = MillisBetween(t0, Clock::now()) * 1e3;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "serve.json.parse");
      JsonValue::Parse(spec.line);
    }
    const double parse_us = MillisBetween(t0, Clock::now()) * 1e3;
    factcheck::PlanRequest request = spec.OneShot(*input.problem, *input.query);
    request.session_engine = engines.For(input, spec);
    std::optional<factcheck::PlanResult> plan;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "core.planner.try_plan");
      plan = planner.TryPlan(request, spec.algo);
    }
    const double try_us = MillisBetween(t0, Clock::now()) * 1e3;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "core.plan_result.to_json");
      if (plan.has_value()) plan->ToJson();
    }
    const double json_us = MillisBetween(t0, Clock::now()) * 1e3;
    request.with_trajectory = false;
    t0 = Clock::now();
    planner.TryPlan(request, spec.algo);
    without_ms += MillisBetween(t0, Clock::now());
    with_ms += try_us / 1e3;
    handle_us_by_spec[s].Add(handle_us);
    handle_plan_us.Add(handle_us);
    try_plan_ms_by_algo[spec.algo].Add(try_us / 1e3);
    service_self_us.Add(handle_us - parse_us - try_us - json_us);
    if (i < 500) sample_handle_us.emplace_back(s, handle_us);
  }
  const factcheck::EngineStats kernels_after = engines.Total();
  values["dist.kernels.calls"] =
      static_cast<double>(kernels_after.kernel_calls -
                          kernels_before.kernel_calls) / kReplay;
  values["dist.kernels.atoms"] =
      static_cast<double>(kernels_after.kernel_atoms -
                          kernels_before.kernel_atoms) / kReplay;
  values["serve.handle_line_us_p50.plan"] = handle_plan_us.P(0.5);
  values["serve.service.self_us_p50"] = service_self_us.P(0.5);
  values["core.plan_result.to_json_us_p50"] =
      tracer.Durations("core.plan_result.to_json").P(0.5);
  for (const auto& [algo, samples] : try_plan_ms_by_algo) {
    values["core.planner.try_plan_ms_p50." + algo] = samples.P(0.5);
  }
  values["core.planner.trajectory_frac"] =
      with_ms > 0 ? (with_ms - without_ms) / with_ms : 0.0;

  // Transport self time: an idle-daemon round trip of the same request
  // minus its in-process HandleLine.
  {
    LineClient client;
    std::string response;
    Samples self_us;
    if (client.Connect(socket, &error)) {
      for (const auto& [s, handle_us] : sample_handle_us) {
        Clock::time_point t0 = Clock::now();
        if (!Call(client, pool.specs[s].line, &response)) break;
        self_us.Add(MillisBetween(t0, Clock::now()) * 1e3 - handle_us);
      }
    }
    values["serve.transport.self_us_p50"] = self_us.P(0.5);
  }
  values["serve.queue_wait_ms_p99"] =
      QueueWaitP99(merged.plan_latency, handle_us_by_spec,
                   handle_plan_us.P(0.5), ping_us);

  // The update/stats probes, replayed in-process.
  std::vector<std::string> update_lines;
  {
    SideProbe replay(options.seed);
    for (size_t i = 0; i < side.batches().size(); ++i) {
      update_lines.push_back(replay.NextUpdate());
    }
  }
  for (const std::string& line : update_lines) {
    ScopedSpan span(tracer, "serve.handle_line.update");
    mirror->HandleLine(line);
  }
  for (int i = 0; i < 200; ++i) {
    ScopedSpan span(tracer, "serve.handle_line.stats");
    mirror->HandleLine("{\"op\":\"stats\"}");
  }
  values["serve.handle_line_us_p50.update"] =
      tracer.Durations("serve.handle_line.update").P(0.5);
  values["serve.handle_line_us_p50.stats"] =
      tracer.Durations("serve.handle_line.stats").P(0.5);
  MeasureUpdatePath(*side.input().problem, side.batches(), update_lines,
                    tracer, values);
  values["bench.trace_overhead_frac"] = TraceOverheadFrac(
      tracer.size() - replay_spans, SecondsSince(replay_start));
  daemon.Stop();
}

void RunServeChurn(const RunOptions& options, Tracer& tracer, Result& result,
                   Values& values) {
  PinToOneCpu();
  const std::vector<ProblemInput> problems = ChurnProblems(options.seed);
  const PlanPool pool = ChurnPool(problems);
  const ChurnSchedule schedule =
      MakeChurnSchedule(options.seed, options.seconds, problems);
  const std::vector<std::string> initial_expected =
      OraclePrefixes(pool, problems, result);
  const std::string socket = options.work_dir + "/churn.sock";

  Daemon daemon;
  bool ready = false;
  int attempt = 0;
  Samples setup_s;
  auto set_up = [&] {
    daemon.Stop();
    const std::string changelog =
        FreshDir(options, "changelog-" + std::to_string(attempt++));
    Clock::time_point start = Clock::now();
    ready = StartAndWarm(daemon, options,
                         {"--changelog", changelog, "--fsync", "off"}, socket,
                         "serve_churn", problems, nullptr, pool,
                         initial_expected, result);
    setup_s.Add(SecondsSince(start));
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();
  if (!ready) return;
  StatsSnapshot before, after;
  std::string error;
  if (!FetchStats(socket, &before)) {
    result.MarkIncorrect("stats before the timed phase");
    return;
  }

  // Connection 0 is the open loop: each update batch and stats poll is
  // sent at its due time (or as soon as the connection is free) and timed
  // from the due time.  Connection 1 plans in a closed loop.
  struct OpRecord {
    bool ok = false;
    double sent_ms = 0.0, done_ms = 0.0;
    std::string response;  // updates only
  };
  struct PlanRecord {
    int spec = -1;
    bool ok = false;
    double sent_ms = 0.0, done_ms = 0.0;
    std::string response = {};  // sampled plans only
  };
  std::vector<OpRecord> records(schedule.ops.size());
  std::vector<std::vector<PlanRecord>> plan_records(kConnections);
  std::vector<ConnLog> logs(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[c];
      log.spec_count.assign(pool.specs.size(), 0);
      LineClient client;
      std::string conn_error, response;
      bool connected = client.Connect(socket, &conn_error);
      if (c > 0) {
        PlanStream stream(options.seed, c, &pool);
        StreamRng sample(DeriveSeed(options.seed, 90 + c));
        while (Clock::now() < deadline) {
          PlanRecord record{.spec = stream.Next()};
          record.sent_ms = MillisBetween(start, Clock::now());
          const bool sent =
              connected && Call(client, pool.specs[record.spec].line, &response);
          record.done_ms = MillisBetween(start, Clock::now());
          log.last_done = Clock::now();
          const Outcome outcome =
              sent ? ClassifyResponse(response, "") : Outcome::kError;
          ++log.spec_count[record.spec];
          Record(log, OpKind::kPlan, record.spec, outcome, record.done_ms,
                 record.done_ms - record.sent_ms, response.size());
          record.ok = outcome == Outcome::kOk;
          if (sample.UniformInt(0, 255) == 0) record.response = response;
          plan_records[c].push_back(std::move(record));
          if (!sent) connected = client.Connect(socket, &conn_error);
        }
        return;
      }
      for (size_t i = 0; i < schedule.ops.size(); ++i) {
        const ChurnOp& op = schedule.ops[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(op.due_ms));
        // Sleep to just before the due time, then spin: a sleeping thread
        // wakes tens of microseconds late, which would read as lag.
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        const double sent_ms = MillisBetween(start, Clock::now());
        const bool sent = connected && Call(client, op.line, &response);
        const Clock::time_point done = Clock::now();
        log.last_done = done;
        const double done_ms = MillisBetween(start, done);
        const OpenLoopTiming timing =
            OpenLoopTimes(op.due_ms, sent_ms, done_ms);
        log.lag_ms.Add(timing.lag_ms);
        const Outcome outcome =
            sent ? ClassifyResponse(response, "") : Outcome::kError;
        Record(log, op.kind, -1, outcome, done_ms, timing.latency_ms,
               response.size());
        OpRecord& record = records[i];
        record.ok = outcome == Outcome::kOk;
        record.sent_ms = sent_ms;
        record.done_ms = done_ms;
        if (op.kind == OpKind::kUpdate) record.response = response;
        if (!sent) connected = client.Connect(socket, &conn_error);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ConnLog merged = MergeLogs(logs, pool.specs.size(), result);
  const double elapsed = MillisBetween(start, merged.last_done) / 1e3;
  if (!FetchStats(socket, &after)) {
    result.MarkIncorrect("stats after the timed phase");
    return;
  }
  // Quiescent plans: every pool request once more, after the last write.
  std::vector<std::string> final_responses;
  {
    LineClient control;
    control.Connect(socket, &error);
    for (const PlanSpec& spec : pool.specs) {
      std::string response;
      Call(control, spec.line, &response);
      final_responses.push_back(response);
    }
  }
  const double rss_mb = daemon.PeakRssMb();
  daemon.Stop();

  // --- Oracle: replay the acknowledged updates on an in-process mirror.
  // A sampled plan must match the one-shot plan at some state inside its
  // real-time window: at least every update acknowledged before it was
  // sent, at most every update sent before it was answered.
  std::vector<std::vector<double>> acked_ms(problems.size()),
      sent_update_ms(problems.size());
  std::vector<std::vector<std::size_t>> update_op(problems.size());
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const ChurnOp& op = schedule.ops[i];
    if (op.kind != OpKind::kUpdate) continue;
    acked_ms[op.problem].push_back(records[i].ok ? records[i].done_ms : 1e300);
    sent_update_ms[op.problem].push_back(records[i].sent_ms);
    update_op[op.problem].push_back(i);
  }
  struct Check {
    const PlanRecord* plan;
    int lo, hi;
    bool matched = false;
  };
  std::vector<std::vector<Check>> checks(problems.size());
  for (const auto& per_conn : plan_records) {
    for (const PlanRecord& plan : per_conn) {
      if (plan.response.empty() || !plan.ok) continue;
      const int p = pool.specs[plan.spec].problem;
      int lo = 0, hi = 0;
      for (double t : acked_ms[p]) lo += t <= plan.sent_ms ? 1 : 0;
      for (double t : sent_update_ms[p]) hi += t <= plan.done_ms ? 1 : 0;
      checks[p].push_back({&plan, lo, std::max(lo, hi)});
    }
  }
  const factcheck::Planner planner;
  std::int64_t oracle_ops = 0, oracle_failed = 0;
  std::vector<std::shared_ptr<factcheck::CleaningProblem>> finals;
  for (size_t p = 0; p < problems.size(); ++p) {
    auto state = std::make_shared<factcheck::CleaningProblem>(
        *factcheck::data::ProblemFromCsv(problems[p].csv));
    const int batches = static_cast<int>(update_op[p].size());
    for (int k = 0; k <= batches; ++k) {
      for (Check& check : checks[p]) {
        if (k < check.lo || k > check.hi || check.matched) continue;
        const PlanSpec& spec = pool.specs[check.plan->spec];
        std::optional<factcheck::PlanResult> plan = planner.TryPlan(
            spec.OneShot(*state, *problems[p].query), spec.algo);
        check.matched = plan.has_value() &&
                        ClassifyResponse(check.plan->response,
                                         ResultPrefix(plan->ToJson())) ==
                            Outcome::kOk;
      }
      if (k == batches) break;
      // Only acknowledged batches reached the daemon's state; each ack
      // reports the epoch the mirror must reach.
      const OpRecord& update = records[update_op[p][k]];
      if (!update.ok) continue;
      for (const factcheck::ProblemDelta& delta :
           ParseDeltas(schedule.batches[p][k])) {
        state->Apply(delta);
      }
      const std::string marker =
          "\"epoch\":" + std::to_string(state->epoch()) + ",";
      if (update.response.find(marker) == std::string::npos) {
        result.MarkIncorrect("update ack epoch differs from the mirror: " +
                             update.response);
      }
    }
    for (const Check& check : checks[p]) {
      ++oracle_ops;
      if (!check.matched) {
        ++oracle_failed;
        result.MarkIncorrect("sampled plan matches no state in its window: " +
                             pool.specs[check.plan->spec].line);
      }
    }
    if (after.epochs[problems[p].name] !=
        static_cast<std::int64_t>(state->epoch())) {
      result.MarkIncorrect("final epoch of " + problems[p].name +
                           " differs from the mirror");
    }
    finals.push_back(state);
  }
  for (size_t s = 0; s < pool.specs.size(); ++s) {
    const PlanSpec& spec = pool.specs[s];
    std::optional<factcheck::PlanResult> plan = planner.TryPlan(
        spec.OneShot(*finals[spec.problem], *problems[spec.problem].query),
        spec.algo);
    ++oracle_ops;
    if (!plan.has_value() ||
        ClassifyResponse(final_responses[s], ResultPrefix(plan->ToJson())) !=
            Outcome::kOk) {
      ++oracle_failed;
      result.MarkIncorrect("quiescent plan differs from the oracle: " +
                           spec.line);
    }
  }
  result.AddOps(oracle_ops, oracle_failed);

  if (!options.trace) {
    for (int i = 0; i < kSetupsAfter && ready; ++i) set_up();
    daemon.Stop();
    EndToEnd(merged, elapsed, setup_s.P(0.5), rss_mb, values);
    return;
  }

  // --- Per-layer metrics (traced run) ---
  const std::map<std::string, std::int64_t> daemon_delta = Delta(before, after);
  EngineLayer(daemon_delta, merged.plans_ok, values);
  values["serve.response_bytes_mean"] =
      merged.plans_ok > 0 ? merged.plan_bytes / merged.plans_ok : 0.0;
  values["serve.update_ms_p90"] = merged.update_ms.WindowedP(0.9);
  values["bench.sched_lag_ms_p99"] = merged.lag_ms.P(0.99);

  const Clock::time_point replay_start = Clock::now();
  const std::size_t replay_spans = tracer.size();
  // Changelog append and snapshot on the same filesystem under the batch
  // fsync policy (one fsync per appended batch), over the run's own delta
  // batches.
  {
    factcheck::serve::ChangelogStore store(FreshDir(options, "changelog-probe"));
    store.set_fsync_policy(factcheck::serve::FsyncPolicy::kBatch);
    std::string store_error;
    store.Init(&store_error);
    Samples append_us, bytes;
    std::vector<std::int64_t> seq(problems.size(), 0);
    for (size_t p = 0; p < problems.size(); ++p) {
      store.SaveSnapshot(problems[p].name,
                         factcheck::serve::EncodeSnapshot(
                             *problems[p].problem,
                             problems[p].query->References(),
                             problems[p].query->coefficients(), 0),
                         &store_error);
    }
    const std::int64_t fsyncs_before = store.fsyncs();
    int appended = 0;
    for (const ChurnOp& op : schedule.ops) {
      if (op.kind != OpKind::kUpdate || appended >= 400) continue;
      ++appended;
      std::vector<std::string> lines;
      double batch_bytes = 0.0;
      for (const factcheck::ProblemDelta& delta :
           ParseDeltas(schedule.batches[op.problem][op.batch])) {
        lines.push_back(
            factcheck::serve::EncodeLogRecord(++seq[op.problem], delta));
        batch_bytes += static_cast<double>(lines.back().size() + 1);
      }
      Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "serve.changelog.append");
        store.AppendRecords(problems[op.problem].name, lines, &store_error);
      }
      append_us.Add(MillisBetween(t0, Clock::now()) * 1e3);
      bytes.Add(batch_bytes);
    }
    values["serve.changelog.append_us_p50"] = append_us.P(0.5);
    values["serve.changelog.append_us_p99"] = append_us.P(0.99);
    values["serve.changelog.bytes_per_update"] = bytes.Mean();
    values["serve.changelog.fsyncs_per_update"] =
        appended > 0
            ? static_cast<double>(store.fsyncs() - fsyncs_before) / appended
            : 0.0;
    const ProblemInput& largest = problems[problems.size() - 2];
    const std::string snapshot = factcheck::serve::EncodeSnapshot(
        *finals[problems.size() - 2], largest.query->References(),
        largest.query->coefficients(), 0);
    for (int i = 0; i < 10; ++i) {
      ScopedSpan span(tracer, "serve.changelog.snapshot");
      store.SaveSnapshot(largest.name, snapshot, &store_error);
    }
    values["serve.changelog.snapshot_ms_p50"] =
        tracer.Durations("serve.changelog.snapshot").P(0.5) / 1e3;
    std::filesystem::remove_all(store.dir());
  }

  // Single-threaded in-process replay of the run's first two seconds
  // (memory-only service, ops in send order): HandleLine per op kind and
  // per plan request.
  struct Replayed {
    double sent_ms;
    OpKind kind;
    int spec;
    const std::string* line;
  };
  std::vector<Replayed> replay;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    if (records[i].sent_ms <= 2000.0 && records[i].done_ms > 0.0) {
      replay.push_back({records[i].sent_ms, schedule.ops[i].kind, -1,
                        &schedule.ops[i].line});
    }
  }
  for (const auto& per_conn : plan_records) {
    for (const PlanRecord& plan : per_conn) {
      if (plan.sent_ms > 2000.0) break;
      replay.push_back({plan.sent_ms, OpKind::kPlan, plan.spec,
                        &pool.specs[plan.spec].line});
    }
  }
  std::stable_sort(replay.begin(), replay.end(),
                   [](const Replayed& a, const Replayed& b) {
                     return a.sent_ms < b.sent_ms;
                   });
  auto mirror = MakeMirror(problems, nullptr, pool);
  std::map<int, Samples> handle_us_by_spec;
  Samples handle_plan_us;
  std::vector<std::string> update_lines;
  for (const Replayed& op : replay) {
    const char* name = op.kind == OpKind::kPlan     ? "serve.handle_line.plan"
                       : op.kind == OpKind::kUpdate ? "serve.handle_line.update"
                                                    : "serve.handle_line.stats";
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, name);
      mirror->HandleLine(*op.line);
    }
    const double us = MillisBetween(t0, Clock::now()) * 1e3;
    if (op.kind == OpKind::kPlan) {
      handle_us_by_spec[op.spec].Add(us);
      handle_plan_us.Add(us);
    }
    if (op.kind == OpKind::kUpdate) update_lines.push_back(*op.line);
  }
  values["serve.handle_line_us_p50.plan"] = handle_plan_us.P(0.5);
  values["serve.handle_line_us_p50.update"] =
      tracer.Durations("serve.handle_line.update").P(0.5);
  values["serve.handle_line_us_p50.stats"] =
      tracer.Durations("serve.handle_line.stats").P(0.5);
  // The update path of the largest linear problem, over its own batches.
  const size_t largest = problems.size() - 2;
  MeasureUpdatePath(*problems[largest].problem, schedule.batches[largest],
                    update_lines, tracer, values);

  // The transport floor, on a fresh memory-only daemon.
  {
    Daemon idle;
    const std::string idle_socket = options.work_dir + "/churn-idle.sock";
    std::string idle_error;
    if (idle.Start(options.serve_binary,
                   {"--socket", idle_socket, "--threads",
                    std::to_string(kConnections)},
                   idle_socket, options.work_dir + "/churn-idle.log",
                   &idle_error)) {
      values["serve.transport.ping_us_p50"] = PingUsP50(idle_socket, 2000);
    }
    idle.Stop();
  }
  values["serve.queue_wait_ms_p99"] =
      QueueWaitP99(merged.plan_latency, handle_us_by_spec,
                   handle_plan_us.P(0.5),
                   values["serve.transport.ping_us_p50"]);
  values["bench.trace_overhead_frac"] = TraceOverheadFrac(
      tracer.size() - replay_spans, SecondsSince(replay_start));
}

}  // namespace perfbench
