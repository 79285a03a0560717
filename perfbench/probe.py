"""Set-up probe, run in a fresh interpreter.

``probe.py OP_JSON`` imports ``curvgreen.cli``, runs that one op and
``probe.py --import MODULE`` only imports the module.  Either way the
last thing it does is print ``time.perf_counter()``.  That clock is
CLOCK_MONOTONIC, shared by all processes on Linux, so the parent takes
the time from just before it started this interpreter to that
printout.
"""

import sys
import time

if sys.argv[1] == "--import":
    __import__(sys.argv[2])
else:
    import json

    import curvgreen.cli  # noqa: F401  (the cold start a CLI user pays)
    import workloads
    try:
        workloads.make_runner()(tuple(json.loads(sys.argv[1])))
    except Exception:  # the op's outcome is checked in the timed run
        pass
print(repr(time.perf_counter()))
