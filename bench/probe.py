"""Time the set-up of one workload in a fresh process.

Usage: python3 bench/probe.py <workload>

Prints the seconds taken to import shrinkbraid from the checkout's src/
directory and to build the workload's program-side state.  Interpreter
start-up is not included; the benchmark's own modules are loaded before the
clock starts (``state`` imports nothing).
"""

import os
import sys
import time

import state

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
start = time.perf_counter()
import shrinkbraid  # noqa: E402

state.build_state(shrinkbraid, sys.argv[1])
print(repr(time.perf_counter() - start))
