// Command-line driver logic behind tools/factcheck_cli.cc, kept in the
// library so the golden list-algos test and the smoke suite can exercise
// it without spawning processes.
//
//   factcheck_cli list-algos
//   factcheck_cli run --problem p.csv --algo greedy_minvar --budget 3
//   factcheck_cli run --problem p.csv --algo all --budget 3 --json
//   factcheck_cli bench list-workloads
//   factcheck_cli bench run --workload urx_uniqueness --json out.json
//
// `run` loads a CleaningProblem from the data/problem_io CSV format,
// states a linear query over it (--refs/--coeffs, default: the sum of all
// objects), and drives the named algorithm(s) through the Planner facade,
// printing a human table or the PlanResult JSON.
//
// `bench` drives the experiment subsystem (src/exp): `list-workloads`
// prints the registered workload catalogue, `run` sweeps one workload
// through the ExperimentRunner and prints a TSV table or writes the
// factcheck.bench.v2 JSON document (--json FILE, "-" for stdout).

#ifndef FACTCHECK_CLI_CLI_H_
#define FACTCHECK_CLI_CLI_H_

#include <string>

namespace factcheck {
namespace cli {

// The exact list-algos output: one fixed-width line per registered
// algorithm (sorted by name) with its objective, requirements, and
// summary.  Pinned by the golden test in tests/planner_test.cc.
std::string ListAlgosText();

// The exact `bench list-workloads` output: one fixed-width line per
// registered workload (sorted by name) with its summary.  Pinned by the
// golden test in tests/exp_test.cc.
std::string ListWorkloadsText();

// Full driver; returns the process exit code (0 success, 1 error).
int Main(int argc, char** argv);

}  // namespace cli
}  // namespace factcheck

#endif  // FACTCHECK_CLI_CLI_H_
