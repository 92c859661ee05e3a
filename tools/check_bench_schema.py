#!/usr/bin/env python3
"""Validates a factcheck.bench.v2 JSON document (CI bench-smoke gate).

Usage: check_bench_schema.py BENCH_file.json [...]

Fails (exit 1) on schema drift: a wrong/missing schema tag, a spec or
build block with other keys than the documented ones, counter gates
outside monotone / exact / info, an empty result set, or any cell whose
key set differs from the documented one or whose "counters" keys differ
from the document's "counter_gates" keys.  The counter names themselves
come from the document, which the library emits from the counter table
in src/core/engine.h; the other key lists must stay in sync with
exp::WriteExperimentJson / exp::WriteCellJson and the ExperimentJson
schema test in tests/exp_test.cc.
"""

import json
import sys

SCHEMA = "factcheck.bench.v2"
CELL_KEYS = {
    "workload", "algo", "seed", "budget", "budget_fraction", "threads",
    "lazy", "repetitions", "wall_ms", "wall_ms_min", "wall_ms_mean",
    "counters", "picked", "cost", "objective",
}
SPEC_KEYS = {
    "workload", "size", "gamma", "algorithms", "budget_fractions",
    "budgets", "seeds", "repetitions", "warmup", "threads", "lazy",
    "mc_samples",
}
BUILD_KEYS = {"fault_injection", "sanitizer", "ndebug"}
GATES = {"monotone", "exact", "info"}


def check_keys(path: str, what: str, got, want: set) -> None:
    if set(got) != want:
        raise SystemExit(f"{path}: {what} missing={sorted(want - set(got))} "
                         f"extra={sorted(set(got) - want)}")


def check(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: schema is {doc.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    check_keys(path, "spec keys", doc.get("spec", {}), SPEC_KEYS)
    check_keys(path, "build keys", doc.get("build", {}), BUILD_KEYS)
    gates = doc.get("counter_gates") or {}
    if not gates or not set(gates.values()) <= GATES:
        raise SystemExit(f"{path}: counter_gates {gates!r} must map each "
                         f"counter to one of {sorted(GATES)}")
    results = doc.get("results")
    if not results:
        raise SystemExit(f"{path}: no results")
    for i, cell in enumerate(results):
        check_keys(path, f"cell {i}", cell, CELL_KEYS)
        check_keys(path, f"cell {i} counters", cell["counters"], set(gates))
        if not isinstance(cell["wall_ms"], (int, float)):
            raise SystemExit(f"{path}: cell {i} wall_ms is not a number")
        if not all(isinstance(v, int) for v in cell["counters"].values()):
            raise SystemExit(f"{path}: cell {i} has a non-integer counter")
    return f"{path}: ok ({len(results)} cells)"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    for path in argv[1:]:
        print(check(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
