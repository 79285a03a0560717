"""The workload process: runs one op list, timed, in one thread.

Protocol, one JSON document per line:

* stdin, first line: ``{"ops": [...], "trace": bool, "spans": path}``;
* then per chunk: stdin ``[lo, hi]``, stdout ``{"lat", "wall", "cpu",
  "outs"}`` for ops ``lo..hi-1``: per-op wall latency, wall and CPU time
  of the chunk, and the op outcomes (``workloads.summarize``);
* stdin ``null`` ends the run; stdout then carries ``peak_rss_kb`` of
  this process and, when tracing, the per-layer span totals.

The parent sends the next chunk only after it has checked the previous
one, so the chunks of a run are spread over its whole length and no
check runs while an op is timed.  One caller, closed loop.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def main() -> int:
    req = json.loads(sys.stdin.readline())
    ops = [tuple(op) for op in req["ops"]]
    run_op = workloads.make_runner()
    tracer = None
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        run_op = tracer.root(run_op)

    clock, cpu = time.perf_counter, time.process_time
    for line in sys.stdin:
        span = json.loads(line)
        if span is None:
            break
        lo, hi = span
        outs, lat = [], []
        w0, c0 = clock(), cpu()
        for op in ops[lo:hi]:
            t0 = clock()
            try:
                out = run_op(op)
            except Exception as e:
                # a CurvGreenError is a refusal, anything else a bug; the
                # parent counts both as failed ops
                out = e
            lat.append(clock() - t0)
            outs.append(out)
        c1, w1 = cpu(), clock()
        print(json.dumps({"lat": lat, "wall": w1 - w0, "cpu": c1 - c0,
                          "outs": [workloads.summarize(op, o)
                                   for op, o in zip(ops[lo:hi], outs)]}),
              flush=True)

    end = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        end["trace"] = tracer.aggregate()
        if req.get("spans"):
            tracer.dump(req["spans"])
    print(json.dumps(end), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
