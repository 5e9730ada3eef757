"""tools/ab.py, the in-process A/B timing of two source trees, run on this checkout twice."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_ab(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--rounds", "1", "--passes", "2"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_checkout_against_itself():
    result = run_ab("braid_queries")
    assert result["workload"] == "braid_queries" and result["passes"] == 2
    assert result["queries"] > 0
    for side in ("a", "b"):
        tree = result[side]
        assert tree["tree"] == str(ROOT)
        assert 0 < tree["qps_q1"] <= tree["qps_median"] <= tree["qps_q3"]
        assert 0 <= tree["wins"] <= 2
        assert tree["us_per_query"] and all(us > 0 for us in tree["us_per_query"].values())
        assert not any(" " in kind for kind in tree["us_per_query"])
    assert result["a"]["us_per_query"].keys() == result["b"]["us_per_query"].keys()
    assert result["a"]["wins"] + result["b"]["wins"] <= 2
    assert result["ratio_b_over_a"] > 0
    a, b = result["a"]["us_per_query"], result["b"]["us_per_query"]
    ratios = result["ratio_by_kind"]
    assert ratios.keys() == a.keys() and {"color_eq", "eq_yes", "cmp_lt"} <= ratios.keys()
    for kind, ratio in ratios.items():
        assert ratio == pytest.approx(b[kind] / a[kind])


def test_envelope_costs_are_keyed_by_table():
    # Every round asks one Yes and one No pair per table and length; the
    # env_dot queries pick their tables at random.
    tables = ("C3", "C5", "C7", "A2", "A3")
    result = run_ab("envelope_orbit")
    for side in ("a", "b"):
        costs = result[side]["us_per_query"]
        assert {f"{kind} {table}" for kind in ("orbit_yes", "orbit_no") for table in tables} <= costs.keys()
        assert all(key.split(" ")[1] in tables and us > 0 for key, us in costs.items())


def test_wrong_tree_is_refused(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(tmp_path), str(ROOT),
         "--workload", "braid_queries", "--rounds", "1", "--passes", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "no shrinkbraid package" in done.stderr


def test_tail_latency_at_the_workload_percentile():
    # bench/run.py fixes the percentile per workload: 99 here, 98 on envelope_orbit.
    for workload, percentile in (("braid_queries", 99.0), ("envelope_orbit", 98.0)):
        result = run_ab(workload)
        assert result["tail_percentile"] == percentile
        for side in ("a", "b"):
            assert result[side]["tail_us"] > 0
