"""The shrinkbraid benchmark: one workload in one process, one client, closed loop.

Usage (from the root of a checkout):

    python3 bench/run.py --workload braid_queries --seed 1 --seconds 35 --trace 0

Workloads: braid_queries, ld_terms, envelope_orbit (see DESIGN.md).  The
library is imported from the checkout's src/ directory; without it the
benchmark exits with a non-zero code and prints no result.

With --trace 0 the run measures the end-to-end metrics in this process,
and times the set-up in SETUP_PROBES fresh processes spread over the run.
With --trace 1 it runs the same queries twice in this process, untraced and
then traced, reports the per-layer metrics of the traced pass and the
tracing overhead, and writes the spans to bench/out/.  Every run writes its results file to bench/out/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from itertools import chain

import workloads
from state import build_state
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
QUERY_CAP_S = 10.0
# Set-up is timed in this many fresh processes, one before each of as many
# equal slices of the untraced run, so that its median samples the host over
# the whole run, as the query metrics do, and not over one second of it.
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 20
# Probes stop once they have taken this long together; a set-up this slow
# is a regression that one probe already shows.
PROBE_BUDGET_S = 40
# The tail percentile of each workload, fixed so that runs of programs of
# different speed report the same percentile; each leaves well over ten
# samples beyond it in a 35 s run.  A run with fewer falls back to the
# highest lower percentile of TAIL_LADDER that has ten, and says so.
TAIL_PERCENTILE = {"braid_queries": 99.0, "ld_terms": 99.0, "envelope_orbit": 98.0}
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class QueryTimeout(BaseException):
    """Not an Exception, so that no ``except Exception`` in the library stops it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def install_query_cap():
    """Make the SIGALRM armed by run_query stop the query; main thread only."""
    signal.signal(signal.SIGALRM, _on_alarm)


def run_query(sb, state, query):
    """Run one query under the wall-time cap; return (seconds, status)."""
    start = None
    try:
        signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
        try:
            start = time.perf_counter()
            result = query.call(sb, state, *query.args)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        return QUERY_CAP_S, "timeout"
    except Exception:  # a raising query is a failed query; the run goes on
        print(f"query {query.kind}/{query.size} {query.args!r} raised:", file=sys.stderr)
        traceback.print_exc(limit=3, file=sys.stderr)
        return (time.perf_counter() - start if start else 0.0), "error"
    if not query.check(result, query.expected):
        print(f"query {query.kind}/{query.size} wrong: {query.args!r} gave {result!r}", file=sys.stderr)
        return elapsed, "wrong"
    return elapsed, "ok"


class Pass:
    """The outcome of running queries: compact, so it barely adds to peak RSS.

    A failed query's latency is recorded as the whole cap, so that it misses
    any latency limit.
    """

    def __init__(self):
        self.latencies = array("d")
        self.failures = []  # (query index, kind, size, status)
        self.queries = []  # the queries run, kept only when asked for

    def prefix(self, n):
        """The first `n` queries of this pass."""
        out = Pass()
        out.latencies = self.latencies[:n]
        out.failures = [f for f in self.failures if f[0] < n]
        return out


def measure(sb, state, queries, seconds, out, tracer=None, keep_queries=False):
    """Run queries into `out` until `seconds` of wall time have passed.

    The deadline is checked before every query, so a run ends at most one
    query cap late however many queries hit the cap.  The last round may be
    cut short; over hundreds of rounds that barely moves the mix.
    """
    deadline = time.perf_counter() + seconds
    for query in queries:
        if time.perf_counter() >= deadline:
            break
        index = len(out.latencies)
        if tracer is not None:
            tracer.begin_query(index, query.size)
        elapsed, status = run_query(sb, state, query)
        if tracer is not None:
            tracer.end_query()
        if status != "ok":
            out.failures.append((index, query.kind, query.size, status))
            elapsed = QUERY_CAP_S
        out.latencies.append(elapsed)
        if keep_queries:
            out.queries.append(query)
    return out


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    position = (len(sorted_values) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def tail(sorted_values, workload):
    """(percentile, value, samples beyond) for the workload's tail percentile."""
    wanted = TAIL_PERCENTILE[workload]
    for p in (q for q in TAIL_LADDER if q <= wanted):
        value = percentile(sorted_values, p)
        beyond = sum(1 for v in sorted_values if v > value)
        if beyond >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, value, beyond


def summarize(run, workload):
    latencies = sorted(run.latencies)
    answered = len(latencies) - len(run.failures)
    busy = sum(latencies)
    p, value, beyond = tail(latencies, workload)
    return {
        "throughput_qps": answered / busy if busy else 0.0,
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": value * 1e3,
        "answered_frac": answered / len(latencies),
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
    }


def probe_setup(workload):
    """Set-up time of the workload in one fresh process.

    The probe may write bytecode caches, as an installed package has them,
    so the first probe of a checkout compiles and later ones load the cache.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload],
        stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True, env=env,
    )
    return float(done.stdout.strip().splitlines()[-1])


def untraced_run(sb, state, queries, args):
    """Measure for --seconds in SETUP_PROBES slices with a set-up probe before each.

    Each slice runs until the run's measuring time reaches its share of
    --seconds, so a slice that ends late shortens the next ones.
    """
    run = Pass()
    setup_times = []
    probing = measuring = 0.0
    for i in range(SETUP_PROBES):
        if probing < PROBE_BUDGET_S:
            start = time.perf_counter()
            setup_times.append(probe_setup(args.workload))
            probing += time.perf_counter() - start
        start = time.perf_counter()
        measure(sb, state, queries, args.seconds * (i + 1) / SETUP_PROBES - measuring, run)
        measuring += time.perf_counter() - start
    return run, setup_times


def environment(args):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "query_cap_s": QUERY_CAP_S,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    if not os.path.isfile(os.path.join(SRC, "shrinkbraid", "__init__.py")):
        sys.exit(f"error: no shrinkbraid package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import shrinkbraid

    if not os.path.abspath(shrinkbraid.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: shrinkbraid was imported from {shrinkbraid.__file__}, not {SRC}")
    return shrinkbraid


def main(argv):
    args = parse_args(argv)
    sb = import_library()
    env = environment(args)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    state = build_state(sb, args.workload)
    install_query_cap()
    queries = chain.from_iterable(workloads.rounds(args.workload, args.seed))
    setup_times = []

    if args.trace:
        # Untraced for a third of the time, then the same queries traced for
        # the rest; the overhead compares the queries both passes ran.
        untraced = measure(sb, state, queries, args.seconds / 3, Pass(), keep_queries=True)
        tracer = Tracer(sb)
        tracer.install()
        try:
            traced = measure(sb, state, untraced.queries, args.seconds * 2 / 3, Pass(), tracer)
        finally:
            tracer.uninstall()
        passes = (untraced, traced)
        common = len(traced.latencies)
        base = summarize(untraced.prefix(common), args.workload)
        with_trace = summarize(traced, args.workload)
        layer = tracer.metrics()
        layer["tracing.throughput_ratio"] = (
            with_trace["throughput_qps"] / base["throughput_qps"] if base["throughput_qps"] else 0.0,
            "ratio",
        )
        tracer.write(stem + "-spans.jsonl")
        report = {"untraced": base, "traced": with_trace}
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
    else:
        run, setup_times = untraced_run(sb, state, queries, args)
        passes = (run,)
        report = {"run": summarize(run, args.workload)}
        metrics = {
            "throughput_qps": {"value": report["run"]["throughput_qps"], "unit": "1/s"},
            "latency_p50_ms": {"value": report["run"]["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": report["run"]["latency_tail_ms"], "unit": "ms"},
            "answered_frac": {"value": report["run"]["answered_frac"], "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    wrong = sum(1 for f in failures if f[3] != "timeout")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"environment": env, "setup_probe_s": setup_times, "report": report,
                   "failures": failures, "result": result}, f, indent=1)

    print(f"shrinkbraid benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  nproc {env['nproc']}, Python {env['python']}, CPU {env['cpu']}")
    print(f"  {attempted} queries, {len(failures)} failed ({wrong} wrong or raised)")
    for label, summary in report.items():
        print(f"  {label}: tail is p{summary['tail_percentile']:g} of {summary['samples']} samples,"
              f" {summary['tail_samples_beyond']} beyond it")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
