#!/usr/bin/env python3
"""Layer-share report over traced benchmark runs.

    python3 perfbench/report.py RUN_OUTPUT...       # stdout of run.py --trace 1
    python3 perfbench/report.py --run [--seed N] [--seconds S]

For each workload it splits the request the workload serves into the
layers the traced run measured, and prints each layer's share.
Informational only; see perfbench/METRICS.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("claims_cold", "serve_warm", "serve_churn")


def parse(text):
    """(workload, metric values) from the stdout of one traced run."""
    lines = [line for line in text.splitlines() if line.startswith("{")]
    workload = json.loads(lines[-2])["provenance"]["workload"]
    metrics = json.loads(lines[-1])["metrics"]
    return workload, {name: m["value"] for name, m in metrics.items()}


def split(workload, m):
    """[(layer, microseconds)] of one request, in the order it runs."""
    if workload == "claims_cold":
        plan_us = m["core.planner.try_plan_ms_p50.claims_greedy_minvar"] * 1e3
        kernels = m["dist.kernels.est_share"] * plan_us
        build = m["claims.evaluator_build_ms_p50"] * 1e3
        return [("claims evaluator build", build),
                ("dist kernels (estimated)", kernels),
                ("claims greedy and the rest", plan_us - build - kernels)]
    if workload == "serve_warm":
        handle = m["serve.handle_line_us_p50.plan"]
        parse_us = m["serve.json.parse_us_p50"]
        to_json = m["core.plan_result.to_json_us_p50"]
        service = m["serve.service.self_us_p50"]
        return [("transport (round trip - HandleLine)",
                 m["serve.transport.self_us_p50"]),
                ("json parse", parse_us),
                ("planner TryPlan", handle - parse_us - to_json - service),
                ("PlanResult ToJson", to_json),
                ("service dispatch (self)", service)]
    handle = m["serve.handle_line_us_p50.update"]
    parts = [("json parse", m["serve.json.parse_us_p50"]),
             ("problem scratch copy", m["core.problem.copy_us_p50"]),
             ("delta validate", m["core.delta.validate_us_p50"]),
             ("delta apply", m["core.delta.apply_us_p50"])]
    parts.append(("service and the rest",
                  handle - sum(us for _, us in parts)))
    parts.append(("changelog append (batch fsync, not in HandleLine above)",
                  m["serve.changelog.append_us_p50"]))
    return parts


def report(workload, m):
    request = {"claims_cold": "one claims plan (p50)",
               "serve_warm": "one warm plan, single thread (p50)",
               "serve_churn": "one update (p50)"}[workload]
    parts = split(workload, m)
    total = sum(max(us, 0.0) for _, us in parts)
    print(f"{workload}: {request}, {total:.1f} us")
    for layer, us in parts:
        share = max(us, 0.0) / total if total > 0 else 0.0
        print(f"  {layer:58s} {us:12.1f} us {share:7.1%}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("outputs", nargs="*")
    parser.add_argument("--run", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    texts = []
    for path in args.outputs:
        with open(path) as handle:
            texts.append(handle.read())
    if args.run:
        for workload in WORKLOADS:
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{workload}: run failed\n{run.stderr}", file=sys.stderr)
                return 1
            texts.append(run.stdout)
    if not texts:
        parser.error("give traced run outputs or --run")
    for text in texts:
        report(*parse(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
