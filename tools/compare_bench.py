#!/usr/bin/env python3
"""Compares two factcheck.bench.v2 documents on deterministic counters.

Usage: compare_bench.py BASELINE.json CURRENT.json
       compare_bench.py --self-test

The CI perf-smoke gate: cells are matched on their identity axes
(workload, algo, seed, budget / budget_fraction, threads, lazy,
repetitions) and compared on their "counters", never on wall-clock,
which depends on the machine.  Each counter's gate comes from the
baseline document's "counter_gates", which the library emits from the
counter table in src/core/engine.h (kEngineCounters):

  monotone  any increase fails; a decrease is reported as an improvement
  exact     any drift, in either direction, fails
  info      recorded, never gated

A baseline cell with no matching current cell fails, as does a gated
counter the current cell lacks.  New cells are reported but pass.

Counters replay only against a baseline of the same build: fault
injection changes the failure counters, and a different build mode is
not the configuration the baseline pinned.  A baseline whose "build"
block (fault_injection, sanitizer, ndebug) differs from the current
document's is refused with one "wrong build" line and exit status 1.

Regenerate the checked-in baseline with the spec documented in README.md
("Perf baselines") whenever an intentional algorithmic change shifts the
counters, and say so in the commit message.
"""

import json
import sys

SCHEMA = "factcheck.bench.v2"
GATES = ("monotone", "exact", "info")


class BenchError(Exception):
    """A document pair that cannot be compared at all."""


def cell_key(cell):
    budget = cell.get("budget_fraction")
    if budget is None:  # absolute-budget sweep: fraction serializes as null
        budget = round(float(cell["budget"]), 9)
        kind = "abs"
    else:
        budget = round(float(budget), 9)
        kind = "frac"
    return (
        cell["workload"], cell["algo"], cell["seed"], kind, budget,
        cell["threads"], cell["lazy"], cell["repetitions"],
    )


def index(doc, name):
    if doc.get("schema") != SCHEMA:
        raise BenchError(f"{name}: schema is {doc.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    cells = {}
    for cell in doc.get("results", []):
        key = cell_key(cell)
        if key in cells:
            raise BenchError(f"{name}: duplicate cell {key}")
        cells[key] = cell
    if not cells:
        raise BenchError(f"{name}: no results")
    return cells


def compare(baseline, current, name="baseline"):
    """Returns (regressions, notes) for `current` against `baseline`;
    raises BenchError when the pair cannot be compared."""
    base_cells = index(baseline, name)
    cur_cells = index(current, "current")
    if baseline.get("build") != current.get("build"):
        raise BenchError(f"wrong build: {name} comes from "
                         f"{baseline.get('build')}, the current run from "
                         f"{current.get('build')}")
    gates = baseline.get("counter_gates") or {}
    unknown = sorted(set(gates.values()) - set(GATES))
    if not gates or unknown:
        raise BenchError(f"{name}: counter_gates must map counters to "
                         f"{'/'.join(GATES)} (got {gates!r})")
    regressions, notes = [], []
    for key, base_cell in sorted(base_cells.items()):
        cur_cell = cur_cells.get(key)
        if cur_cell is None:
            regressions.append(f"missing cell: {key}")
            continue
        for counter, gate in gates.items():
            if gate == "info":
                continue
            base = int(base_cell["counters"][counter])
            if counter not in cur_cell.get("counters", {}):
                regressions.append(f"{key}: {counter} missing from current")
                continue
            cur = int(cur_cell["counters"][counter])
            if gate == "exact" and cur != base:
                regressions.append(f"{key}: {counter} changed {base} -> {cur} "
                                   "(exact-match counter)")
            elif gate == "monotone" and cur > base:
                regressions.append(
                    f"{key}: {counter} regressed {base} -> {cur} "
                    f"(+{100.0 * (cur - base) / max(base, 1):.1f}%)")
            elif gate == "monotone" and cur < base:
                notes.append(f"improved  {key}: {counter} {base} -> {cur}")
    for key in sorted(set(cur_cells) - set(base_cells)):
        notes.append(f"new cell  {key} (not gated; add to the baseline)")
    return regressions, notes


def self_test():
    build = {"fault_injection": False, "sanitizer": "none", "ndebug": True}

    def doc(cells, doc_build=build):
        return {
            "schema": SCHEMA, "build": doc_build,
            "counter_gates": {"evaluations": "monotone",
                              "cache_hits": "exact", "commits": "info"},
            "results": [
                {"workload": "w", "algo": algo, "seed": 1, "budget": 1.0,
                 "budget_fraction": 0.5, "threads": 1, "lazy": False,
                 "repetitions": 1, "counters": counters}
                for algo, counters in cells.items()],
        }

    base = doc({"a": {"evaluations": 10, "cache_hits": 5, "commits": 3}})

    def run(cells, doc_build=build):
        try:
            regressions, _ = compare(base, doc(cells, doc_build))
        except BenchError as error:
            return str(error)
        return "fail" if regressions else "pass"

    def cell(evaluations=10, cache_hits=5, commits=3):
        return {"a": {"evaluations": evaluations, "cache_hits": cache_hits,
                      "commits": commits}}

    cases = [
        ("identical documents pass", run(cell()), "pass"),
        ("a monotone increase fails", run(cell(evaluations=11)), "fail"),
        ("a monotone decrease passes", run(cell(evaluations=9)), "pass"),
        ("an exact counter drifting up fails", run(cell(cache_hits=6)),
         "fail"),
        ("an exact counter drifting down fails", run(cell(cache_hits=4)),
         "fail"),
        ("an info counter never gates", run(cell(commits=300)), "pass"),
        ("a missing cell fails", run({"b": cell()["a"]}), "fail"),
        ("a gated counter missing from the current cell fails",
         run({"a": {"cache_hits": 5, "commits": 3}}), "fail"),
        ("a new cell passes", run({**cell(), "b": cell()["a"]}), "pass"),
        ("a build mismatch is refused",
         run(cell(), {**build, "fault_injection": True}).startswith(
             "wrong build:"), True),
    ]
    failures = [f"{name}: got {got!r}, expected {want!r}"
                for name, got, want in cases if got != want]
    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}")
        return 1
    print(f"compare_bench self-test: {len(cases)} cases hold")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        with open(argv[1], encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(argv[2], encoding="utf-8") as handle:
            current = json.load(handle)
        regressions, notes = compare(baseline, current, argv[1])
    except BenchError as error:
        print(f"compare_bench: {error}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    if regressions:
        for line in regressions:
            print(f"REGRESSION {line}", file=sys.stderr)
        print(f"compare_bench: {len(regressions)} regression(s) vs {argv[1]}",
              file=sys.stderr)
        return 1
    improved = sum(line.startswith("improved") for line in notes)
    print(f"compare_bench: ok — {len(index(baseline, argv[1]))} cells gated, "
          f"{improved} improved, {len(notes) - improved} new")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
