"""tools/ab.py, the in-process A/B timing of two source trees, run on this checkout twice."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "braid_queries", "--rounds", "1", "--passes", "2"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["workload"] == "braid_queries" and result["passes"] == 2
    assert result["queries"] > 0
    for side in ("a", "b"):
        tree = result[side]
        assert tree["tree"] == str(ROOT)
        assert 0 < tree["qps_q1"] <= tree["qps_median"] <= tree["qps_q3"]
        assert 0 <= tree["wins"] <= 2
    assert result["a"]["wins"] + result["b"]["wins"] <= 2
    assert result["ratio_b_over_a"] > 0


def test_wrong_tree_is_refused(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(tmp_path), str(ROOT),
         "--workload", "braid_queries", "--rounds", "1", "--passes", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "no shrinkbraid package" in done.stderr
