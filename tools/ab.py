"""In-process A/B timing of two source trees on one benchmark workload.

Usage: python tools/ab.py TREE_A TREE_B --workload NAME [--seed N] [--rounds R] [--passes P]

Each TREE is the root of a checkout, with the package under src/shrinkbraid.
Both packages are imported into this one process under distinct names
(``shrinkbraid_a``, ``shrinkbraid_b``), so the two trees run on the same
interpreter, warmed the same way.  The queries are the benchmark's own: the
first R seeded rounds of ``bench/workloads.py`` of this checkout, read and
not changed.  Every pass runs the same queries through both trees, A first
on even passes and B first on odd ones, and checks every answer; a wrong
answer or an exception stops the run with exit code 1.

A tree's throughput in a pass is the number of queries over the summed time
of the timed calls, as ``bench/run.py`` computes it.  The last line of
standard output is one JSON object: for each tree its median throughput,
the quartiles over the passes, its wins (passes in which it was faster) and
``us_per_query``, the median over the passes of its mean microseconds a
query for each query kind (on envelope_orbit for each kind and table, as
"orbit_yes C5") and ``tail_us``, the median over the passes of its latency
at the workload's tail percentile, ``TAIL_PERCENTILE`` of ``bench/run.py``,
in microseconds; the percentile itself; the median over the passes of
B's throughput over A's; and ``ratio_by_kind``, for each query kind B's
``us_per_query`` over A's, which shows the kinds a change moved.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from collections import Counter
from itertools import chain, islice
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.dont_write_bytecode = True  # leave no cache files in the benchmark's directory
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import TAIL_PERCENTILE, percentile  # noqa: E402
from state import build_state  # noqa: E402


def import_tree(root: Path, name: str):
    """The package under ``root``/src/shrinkbraid, imported as ``name``."""
    package = root / "src" / "shrinkbraid"
    init = package / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no shrinkbraid package under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def kind_of(workload: str, query) -> str:
    """The key ``us_per_query`` files ``query`` under."""
    return f"{query.kind} {query.args[0]}" if workload == "envelope_orbit" else query.kind


def timed_pass(sb, state, queries, kinds, tail) -> tuple[float, dict[str, float], float]:
    """Run every query once and check its answer; return queries per second,
    the mean microseconds a query of each kind, ``kinds`` naming the kind of
    each query, and the latency at percentile ``tail`` in microseconds."""
    gc.collect()
    spent, counts, latencies = Counter(), Counter(kinds), []
    for query, kind in zip(queries, kinds):
        start = time.perf_counter()
        result = query.call(sb, state, *query.args)
        latency = time.perf_counter() - start
        spent[kind] += latency
        latencies.append(latency)
        if not query.check(result, query.expected):
            sys.exit(f"error: {sb.__name__} answered {query.kind} {query.args!r} with {result!r}")
    costs = {kind: 1e6 * spent[kind] / counts[kind] for kind in counts}
    return len(queries) / sum(spent.values()), costs, 1e6 * percentile(sorted(latencies), tail)


def summary(root: Path, rates: list[float], costs: list[dict[str, float]], tails: list[float],
            wins: int) -> dict:
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    us_per_query = {kind: statistics.median(c[kind] for c in costs) for kind in sorted(costs[0])}
    return {"tree": str(root), "qps_median": median, "qps_q1": q1, "qps_q3": q3, "wins": wins,
            "us_per_query": us_per_query, "tail_us": statistics.median(tails)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--passes", type=int, default=11)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 2:
        parser.error("need --rounds >= 1 and --passes >= 2")

    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    packages = [import_tree(root, f"shrinkbraid_{side}") for root, side in zip(trees, "ab")]
    states = [build_state(sb, args.workload) for sb in packages]
    batches = islice(workloads.rounds(args.workload, args.seed), args.rounds)
    queries = list(chain.from_iterable(batches))
    kinds = [kind_of(args.workload, query) for query in queries]

    tail = TAIL_PERCENTILE[args.workload]
    rates: tuple[list[float], list[float]] = ([], [])
    costs: tuple[list[dict], list[dict]] = ([], [])
    tails: tuple[list[float], list[float]] = ([], [])
    for p in range(args.passes):
        for side in (0, 1) if p % 2 == 0 else (1, 0):
            rate, cost, tail_us = timed_pass(packages[side], states[side], queries, kinds, tail)
            rates[side].append(rate)
            costs[side].append(cost)
            tails[side].append(tail_us)
    wins_b = sum(b > a for a, b in zip(*rates))
    wins_a = sum(a > b for a, b in zip(*rates))
    side_a = summary(trees[0], rates[0], costs[0], tails[0], wins_a)
    side_b = summary(trees[1], rates[1], costs[1], tails[1], wins_b)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "passes": args.passes,
        "queries": len(queries),
        "tail_percentile": tail,
        "a": side_a,
        "b": side_b,
        "ratio_b_over_a": statistics.median(b / a for a, b in zip(*rates)),
        "ratio_by_kind": {kind: side_b["us_per_query"][kind] / us
                          for kind, us in side_a["us_per_query"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
