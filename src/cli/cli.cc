#include "cli/cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "core/planner.h"
#include "core/registry.h"
#include "data/problem_io.h"
#include "exp/experiment.h"
#include "exp/workload_registry.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/table_printer.h"

namespace factcheck {
namespace cli {
namespace {

constexpr char kUsage[] =
    "usage:\n"
    "  factcheck_cli list-algos\n"
    "  factcheck_cli run --problem FILE.csv --algo NAME[,NAME...]|all\n"
    "                (--budget X | --budget-frac F) [options]\n"
    "  factcheck_cli bench list-workloads\n"
    "  factcheck_cli bench run --workload NAME [bench options]\n"
    "\n"
    "run options:\n"
    "  --objective minvar|maxpr  objective kind (default: the algorithm's\n"
    "                            native kind, minvar when it has none)\n"
    "  --tau X                   MaxPr surprise threshold (default 0)\n"
    "  --refs i,j,k              query references (default: all objects)\n"
    "  --coeffs a,b,c            linear coefficients (default: all 1)\n"
    "  --threads N               evaluation thread pool size (default 1)\n"
    "  --lazy                    CELF lazy greedy driver\n"
    "  --mc-samples N            Monte Carlo sample count (default 200)\n"
    "  --seed N                  RNG seed (default 2019)\n"
    "  --no-trajectory           skip the per-round objective trajectory\n"
    "  --json                    print PlanResult JSON instead of a table\n"
    "\n"
    "bench run options:\n"
    "  --workload NAME           registered workload (see list-workloads)\n"
    "  --algos a,b               registry algorithm names (default: the\n"
    "                            workload's defaults)\n"
    "  --budget-fracs f1,f2      budget sweep as fractions of total cost\n"
    "  --budgets b1,b2           absolute budget sweep (overrides fracs)\n"
    "  --seeds s1,s2             workload build + RNG seeds (default 2019)\n"
    "  --size N / --gamma X      workload knobs (synthetic families)\n"
    "  --reps N / --warmup N     timed / untimed runs per cell (default 1/0)\n"
    "  --threads N / --lazy      engine options, as for run\n"
    "  --mc-samples N            Monte Carlo sample count (default 200)\n"
    "  --no-objective            skip scoring the selected sets\n"
    "  --json FILE               write factcheck.bench.v2 JSON (\"-\" =\n"
    "                            stdout) instead of the TSV table\n";

struct RunArgs {
  std::string problem_path;
  std::vector<std::string> algos;  // empty after parse error; "all" expanded
  bool all_algos = false;
  double budget = -1.0;
  double budget_frac = -1.0;
  std::optional<ObjectiveKind> objective;  // unset: per-algorithm native
  double tau = 0.0;
  std::vector<int> refs;
  std::vector<double> coeffs;
  EngineOptions engine;
  bool with_trajectory = true;
  bool json = false;
};

bool Fail(const std::string& message) {
  std::fprintf(stderr, "factcheck_cli: %s\n", message.c_str());
  return false;
}

bool ParseRunArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 0; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return Fail(flag + " needs a value");
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (flag == "--problem") {
      if (!next(&args->problem_path)) return false;
    } else if (flag == "--algo") {
      if (!next(&value)) return false;
      // Last flag wins: an explicit list overrides an earlier "all" and
      // vice versa.
      args->all_algos = value == "all";
      args->algos = args->all_algos ? std::vector<std::string>()
                                    : Split(value, ',');
    } else if (flag == "--budget") {
      if (!next(&value) || !ParseFiniteDouble(value, &args->budget)) {
        return Fail("--budget needs a number");
      }
    } else if (flag == "--budget-frac") {
      if (!next(&value) || !ParseFiniteDouble(value, &args->budget_frac)) {
        return Fail("--budget-frac needs a number");
      }
    } else if (flag == "--objective") {
      if (!next(&value)) return false;
      args->objective = ParseObjectiveKind(value);
      if (!args->objective.has_value()) {
        return Fail("--objective must be minvar or maxpr");
      }
    } else if (flag == "--tau") {
      if (!next(&value) || !ParseFiniteDouble(value, &args->tau)) {
        return Fail("--tau needs a number");
      }
    } else if (flag == "--refs") {
      if (!next(&value)) return false;
      for (const std::string& cell : Split(value, ',')) {
        std::int64_t ref;
        if (!ParseInt64(cell, &ref) || ref < 0) {
          return Fail("--refs needs non-negative integers");
        }
        args->refs.push_back(static_cast<int>(ref));
      }
    } else if (flag == "--coeffs") {
      if (!next(&value)) return false;
      for (const std::string& cell : Split(value, ',')) {
        double coeff;
        if (!ParseFiniteDouble(cell, &coeff)) {
          return Fail("--coeffs needs numbers");
        }
        args->coeffs.push_back(coeff);
      }
    } else if (flag == "--threads") {
      std::int64_t threads;
      if (!next(&value) || !ParseInt64(value, &threads) || threads < 1 ||
          threads > std::numeric_limits<int>::max()) {
        return Fail("--threads needs a positive integer");
      }
      args->engine.threads = static_cast<int>(threads);
    } else if (flag == "--lazy") {
      args->engine.lazy = true;
    } else if (flag == "--mc-samples") {
      std::int64_t samples;
      if (!next(&value) || !ParseInt64(value, &samples) || samples < 1 ||
          samples > std::numeric_limits<int>::max()) {
        return Fail("--mc-samples needs a positive integer");
      }
      args->engine.mc_samples = static_cast<int>(samples);
    } else if (flag == "--seed") {
      std::int64_t seed;
      if (!next(&value) || !ParseInt64(value, &seed)) {
        return Fail("--seed needs an integer");
      }
      args->engine.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--no-trajectory") {
      args->with_trajectory = false;
    } else if (flag == "--json") {
      args->json = true;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  if (args->problem_path.empty()) return Fail("--problem is required");
  if (!args->all_algos && args->algos.empty()) {
    return Fail("--algo is required");
  }
  if (args->budget < 0.0 && args->budget_frac < 0.0) {
    return Fail("--budget or --budget-frac is required");
  }
  return true;
}

int RunCommand(int argc, char** argv) {
  RunArgs args;
  if (!ParseRunArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 1;
  }

  std::ifstream in(args.problem_path);
  if (!in) {
    Fail("cannot open " + args.problem_path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  std::optional<CleaningProblem> problem =
      data::ProblemFromCsv(buffer.str(), &error);
  if (!problem.has_value()) {
    Fail(args.problem_path + ": " + error);
    return 1;
  }
  const int n = problem->size();

  // The query: linear over --refs with --coeffs, default the sum of all
  // objects.  Kept affine so every registered algorithm is applicable.
  std::vector<int> refs = args.refs;
  if (refs.empty()) {
    for (int i = 0; i < n; ++i) refs.push_back(i);
  }
  for (int ref : refs) {
    if (ref >= n) {
      Fail("--refs index " + std::to_string(ref) + " out of range (n = " +
           std::to_string(n) + ")");
      return 1;
    }
  }
  std::vector<double> coeffs = args.coeffs;
  if (coeffs.empty()) coeffs.assign(refs.size(), 1.0);
  if (coeffs.size() != refs.size()) {
    Fail("--coeffs and --refs must have the same length");
    return 1;
  }
  LinearQueryFunction query(refs, coeffs);

  PlanRequest request;
  request.problem = &*problem;
  request.query = &query;
  request.linear_query = &query;
  request.budget = args.budget >= 0.0 ? args.budget
                                      : args.budget_frac * problem->TotalCost();
  request.tau = args.tau;
  request.engine = args.engine;
  request.with_trajectory = args.with_trajectory;

  Planner planner;
  std::vector<std::string> names = args.algos;
  if (args.all_algos) {
    names.clear();
    for (const auto* algo : planner.registry().Sorted()) {
      names.push_back(algo->name);
    }
  }

  std::vector<PlanResult> results;
  for (const std::string& name : names) {
    const AlgorithmRegistry::Algorithm* algo = planner.registry().Find(name);
    // Each algorithm runs under the requested kind, or its native one
    // (minvar when it supports both) if --objective was not given.
    request.objective = args.objective.value_or(
        algo != nullptr && algo->objective.has_value()
            ? *algo->objective
            : ObjectiveKind::kMinVar);
    std::optional<PlanResult> result = planner.TryPlan(request, name, &error);
    if (!result.has_value()) {
      if (args.all_algos) {
        std::fprintf(stderr, "factcheck_cli: skipping %s: %s\n", name.c_str(),
                     error.c_str());
        continue;
      }
      Fail(error);
      return 1;
    }
    results.push_back(std::move(*result));
  }

  if (args.json) {
    JsonWriter writer;
    if (results.size() == 1 && !args.all_algos) {
      results[0].WriteJson(writer);
    } else {
      writer.BeginArray();
      for (const PlanResult& result : results) result.WriteJson(writer);
      writer.EndArray();
    }
    std::printf("%s\n", writer.str().c_str());
    return 0;
  }

  std::printf("problem: %s (%d objects, total cost %s)\n",
              args.problem_path.c_str(), n,
              JsonNumber(problem->TotalCost()).c_str());
  std::printf("budget: %s\n\n", JsonNumber(request.budget).c_str());
  TablePrinter table({"algorithm", "objective", "picked", "cost",
                      "objective_value", "evaluations", "wall_ms"});
  for (const PlanResult& result : results) {
    table.AddCell(result.algorithm)
        .AddCell(result.objective)
        .AddCell(static_cast<int>(result.selection.cleaned.size()))
        .AddCell(result.selection.cost)
        .AddCell(result.has_objective_value ? FormatCell(result.objective_value)
                                            : std::string("-"))
        .AddCell(static_cast<long>(result.stats.evaluations))
        .AddCell(result.wall_seconds * 1e3);
    table.EndRow();
  }
  table.Print();
  for (const PlanResult& result : results) {
    std::printf("\n%s cleans:", result.algorithm.c_str());
    for (const std::string& label : result.labels) {
      std::printf(" [%s]", label.c_str());
    }
  }
  if (!results.empty()) std::printf("\n");
  return 0;
}

// --- bench: the experiment-subsystem driver -------------------------------

struct BenchRunArgs {
  std::string workload;
  exp::ExperimentSpec spec;
  std::string json_path;  // empty: TSV table; "-": JSON to stdout
  bool json = false;
};

bool ParseBenchRunArgs(int argc, char** argv, BenchRunArgs* args) {
  for (int i = 0; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return Fail(flag + " needs a value");
      *out = argv[++i];
      return true;
    };
    std::string value;
    auto parse_doubles = [&](std::vector<double>* out) {
      if (!next(&value)) return false;
      for (const std::string& cell : Split(value, ',')) {
        double parsed;
        if (!ParseFiniteDouble(cell, &parsed)) {
          return Fail(flag + " needs numbers");
        }
        out->push_back(parsed);
      }
      return true;
    };
    auto parse_positive_int = [&](int* out) {
      std::int64_t parsed;
      if (!next(&value) || !ParseInt64(value, &parsed) || parsed < 1 ||
          parsed > std::numeric_limits<int>::max()) {
        return Fail(flag + " needs a positive integer");
      }
      *out = static_cast<int>(parsed);
      return true;
    };
    if (flag == "--workload") {
      if (!next(&args->workload)) return false;
    } else if (flag == "--algos") {
      if (!next(&value)) return false;
      args->spec.algorithms = Split(value, ',');
    } else if (flag == "--budget-fracs") {
      if (!parse_doubles(&args->spec.budget_fractions)) return false;
    } else if (flag == "--budgets") {
      if (!parse_doubles(&args->spec.budgets)) return false;
    } else if (flag == "--seeds") {
      if (!next(&value)) return false;
      for (const std::string& cell : Split(value, ',')) {
        std::int64_t seed;
        if (!ParseInt64(cell, &seed)) return Fail("--seeds needs integers");
        args->spec.seeds.push_back(static_cast<std::uint64_t>(seed));
      }
    } else if (flag == "--size") {
      if (!parse_positive_int(&args->spec.options.size)) return false;
    } else if (flag == "--gamma") {
      if (!next(&value) ||
          !ParseFiniteDouble(value, &args->spec.options.gamma)) {
        return Fail("--gamma needs a number");
      }
    } else if (flag == "--reps") {
      if (!parse_positive_int(&args->spec.repetitions)) return false;
    } else if (flag == "--warmup") {
      std::int64_t warmup;
      if (!next(&value) || !ParseInt64(value, &warmup) || warmup < 0) {
        return Fail("--warmup needs a non-negative integer");
      }
      args->spec.warmup = static_cast<int>(warmup);
    } else if (flag == "--threads") {
      if (!parse_positive_int(&args->spec.engine.threads)) return false;
    } else if (flag == "--lazy") {
      args->spec.engine.lazy = true;
    } else if (flag == "--mc-samples") {
      if (!parse_positive_int(&args->spec.engine.mc_samples)) return false;
    } else if (flag == "--no-objective") {
      args->spec.with_objective = false;
    } else if (flag == "--json") {
      if (!next(&args->json_path)) return false;
      args->json = true;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  if (args->workload.empty()) return Fail("--workload is required");
  args->spec.workload = args->workload;
  return true;
}

int BenchRunCommand(int argc, char** argv) {
  BenchRunArgs args;
  if (!ParseBenchRunArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  exp::ExperimentRunner runner;
  std::string error;
  std::optional<std::vector<exp::ExperimentCell>> cells =
      runner.TryRun(args.spec, &error);
  if (!cells.has_value()) {
    Fail(error);
    return 1;
  }

  if (args.json) {
    std::string doc = exp::ExperimentJson(args.spec, *cells);
    if (args.json_path == "-") {
      std::printf("%s\n", doc.c_str());
    } else {
      std::FILE* out = std::fopen(args.json_path.c_str(), "w");
      if (out == nullptr) {
        Fail("cannot write " + args.json_path);
        return 1;
      }
      std::fprintf(out, "%s\n", doc.c_str());
      std::fclose(out);
      std::fprintf(stderr, "factcheck_cli: wrote %s (%d cells)\n",
                   args.json_path.c_str(), static_cast<int>(cells->size()));
    }
    return 0;
  }

  TablePrinter table({"workload", "algo", "seed", "budget_fraction",
                      "budget", "picked", "wall_ms", "evaluations",
                      "probes", "kernel_calls", "objective"});
  for (const exp::ExperimentCell& cell : *cells) {
    table.AddCell(cell.workload)
        .AddCell(cell.algo)
        .AddCell(static_cast<long>(cell.seed))
        .AddCell(cell.budget_fraction)
        .AddCell(cell.budget)
        .AddCell(static_cast<int>(cell.result.selection.cleaned.size()))
        .AddCell(cell.wall_ms)
        .AddCell(static_cast<long>(cell.result.stats.evaluations))
        .AddCell(static_cast<long>(cell.result.stats.probes))
        .AddCell(static_cast<long>(cell.result.stats.kernel_calls))
        .AddCell(cell.has_objective ? FormatCell(cell.objective)
                                    : std::string("-"));
    table.EndRow();
  }
  table.Print();
  return 0;
}

int BenchCommand(int argc, char** argv) {
  if (argc < 1) {
    Fail("bench needs a subcommand: list-workloads or run");
    std::fputs(kUsage, stderr);
    return 1;
  }
  std::string sub = argv[0];
  if (sub == "list-workloads") {
    std::fputs(ListWorkloadsText().c_str(), stdout);
    return 0;
  }
  if (sub == "run") {
    return BenchRunCommand(argc - 1, argv + 1);
  }
  Fail("unknown bench subcommand " + sub);
  std::fputs(kUsage, stderr);
  return 1;
}

}  // namespace

std::string ListAlgosText() {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %-9s %-8s %s\n", "algorithm",
                "objective", "needs", "summary");
  out += line;
  for (const auto* algo : AlgorithmRegistry::Global().Sorted()) {
    std::snprintf(line, sizeof(line), "%-24s %-9s %-8s %s\n",
                  algo->name.c_str(),
                  algo->objective.has_value()
                      ? ObjectiveKindName(*algo->objective)
                      : "either",
                  algo->needs_linear ? "linear" : "-", algo->summary.c_str());
    out += line;
  }
  return out;
}

std::string ListWorkloadsText() {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-26s %s\n", "workload", "summary");
  out += line;
  for (const auto* entry : exp::WorkloadRegistry::Global().Sorted()) {
    std::snprintf(line, sizeof(line), "%-26s %s\n", entry->name.c_str(),
                  entry->summary.c_str());
    out += line;
  }
  return out;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  std::string command = argv[1];
  if (command == "list-algos") {
    std::fputs(ListAlgosText().c_str(), stdout);
    return 0;
  }
  if (command == "run") {
    return RunCommand(argc - 2, argv + 2);
  }
  if (command == "bench") {
    return BenchCommand(argc - 2, argv + 2);
  }
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  Fail("unknown command " + command);
  std::fputs(kUsage, stderr);
  return 1;
}

}  // namespace cli
}  // namespace factcheck
