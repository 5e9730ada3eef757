"""Importing shrinkbraid loads neither ``dataclasses`` nor ``inspect``.

``dataclasses`` imports ``inspect``, which pulls in ``dis``, ``ast`` and
``tokenize``: together most of the library's import time.  The immutable
value classes (``BElement``, ``ColoredMorphism``) are plain ``__slots__``
classes for that reason.  The guard imports the package from ``src/`` in a
fresh interpreter started with ``-S``, so that no site hook loads either
module first.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import shrinkbraid
print(shrinkbraid.__file__)
print(" ".join(name for name in ("dataclasses", "inspect") if name in sys.modules))
"""


def test_import_loads_no_dataclasses_or_inspect():
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    origin, loaded = result.stdout.split("\n")[:2]
    assert Path(origin).is_relative_to(SRC)
    assert loaded == ""
