"""The per-layer tracer in bench/tracer.py names library functions as text.

A deleted or renamed function would otherwise surface only when a traced
benchmark run (``bench/run.py --trace 1``) fails to install its wrappers.
"""

import ast
from pathlib import Path

import shrinkbraid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
