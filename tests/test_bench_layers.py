"""The benchmark under bench/ reads the library, so library changes can break it.

The per-layer tracer in bench/tracer.py names library functions as text: a
deleted or renamed function would otherwise surface only when a traced
benchmark run (``bench/run.py --trace 1``) fails to install its wrappers.
The answer checks in bench/workloads.py read results through public
attributes such as ``FWord.letters``: a changed contract would otherwise
surface only as failed queries in a benchmark run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import shrinkbraid

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"

# Run in a fresh process from bench/, so that its module names (run, state,
# workloads) are imported as the benchmark imports them and shadow nothing here.
ANSWER_CHECKS = """
import sys
import run
import selfcheck
sb = run.import_library()
run.install_query_cap()
sys.exit(sum(selfcheck.check_answers(sb, seed) for seed in (run.DEFAULT_SEED, selfcheck.HELD_OUT_SEED)))
"""


def traced_layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no LAYERS")


def test_every_traced_name_exists():
    layers = traced_layers()
    table_methods = vars(shrinkbraid.envelope.LDTable)
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not hasattr(getattr(shrinkbraid, module), name) and name not in table_methods
    ]
    assert layers
    assert missing == []


def test_benchmark_answer_checks_hold():
    done = subprocess.run(
        [sys.executable, "-c", ANSWER_CHECKS],
        cwd=BENCH, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("answers hold") == 6
