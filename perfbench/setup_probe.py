"""Time one set-up in a fresh interpreter: import newtonkit, build inputs.

Usage: python setup_probe.py WORKLOAD_MODULE SEED   (src/ on PYTHONPATH)

Prints two numbers: the seconds spent importing newtonkit (first, so that
the standard modules it needs are counted) plus building the workload's
inputs, and the reference time measured right after.  Importing the
benchmark's own modules is not counted.
"""

import importlib
import sys
import time

start = time.perf_counter()
import newtonkit  # noqa: E402,F401

imported = time.perf_counter()
module = importlib.import_module(sys.argv[1])
loaded = time.perf_counter()
module.build(int(sys.argv[2]))
done = time.perf_counter()

from harness import reference_seconds  # noqa: E402

print(repr((imported - start) + (done - loaded)), repr(reference_seconds()))
