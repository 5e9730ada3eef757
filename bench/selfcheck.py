"""Quick self-check of the benchmark's constructed answers and metric names.

Usage (from the root of a checkout): python3 bench/selfcheck.py

For the default seed and one held-out seed, runs every query of the first
rounds of each workload, untimed, and checks its answer.  It also checks
that the library's cyclic tables are the benchmark's own definition, and
that a short run of each workload prints exactly the metrics BENCHMARK.json
declares, untraced and traced.  Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

import run
import workloads
from state import TABLES, build_state, table_rows

HELD_OUT_SEED = 9973
ROUNDS = 2


def check_answers(sb, seed):
    failures = 0
    for workload in workloads.WORKLOADS:
        state = build_state(sb, workload)
        if workload == "envelope_orbit":
            for name in TABLES:
                if [list(row) for row in state[name].table] != table_rows(name):
                    print(f"table {name}: library and benchmark definitions differ")
                    failures += 1
        batches = workloads.rounds(workload, seed)
        queries = [q for _ in range(ROUNDS) for q in next(batches)]
        statuses = [run.run_query(sb, state, q)[1] for q in queries]
        bad = sum(1 for s in statuses if s != "ok")
        kinds = sorted({q.kind for q in queries})
        print(f"seed {seed} {workload}: {len(queries) - bad}/{len(queries)} answers hold ({', '.join(kinds)})")
        failures += bad
    return failures


def check_metric_names():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.WORKLOADS:
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            ok = printed == declared and result["correct"] and result["failed"] == 0
            print(f"trace {trace} {workload}: {len(printed)} metrics, "
                  f"{'match BENCHMARK.json' if ok else 'DO NOT match BENCHMARK.json or failed'}")
            failures += not ok
    return failures


def main():
    sb = run.import_library()
    run.install_query_cap()
    failures = sum(check_answers(sb, seed) for seed in (run.DEFAULT_SEED, HELD_OUT_SEED))
    failures += check_metric_names()
    print("self-check", "passed" if failures == 0 else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
