"""Correctness checks of op outcomes, and the defects known at baseline.

An op fails if it raises (a ``CurvGreenError`` or anything else),
returns a non-finite value, or fails its check:

* ``green`` ops: relative error against the mpmath oracle
  (``oracle.py``) above ``REL_TOL``;
* ``expand`` ops: relative error of the series against the oracle's
  closed form above ``SERIES_TOL[d]``, the accuracy the library's
  acceptance gate states for its expansions;
* ``verify`` ops: exit code not 0, any FAIL row, or output that is not
  byte-identical to the first op's (the suite is deterministic).

Every failure is counted.  ``KNOWN_DEFECTS`` lists the failures the
library shows at the commit that defined this benchmark (README.md has
the measured rates); they make a run report ``failed > 0`` but not
``correct: false``.  Any other failure does, so a new defect is never
absorbed into the baseline.  A later fix shows as fewer failed ops.
"""

from __future__ import annotations

import json
import math
import re

from workloads import CANDIDATES

REL_TOL = 1e-9
SERIES_TOL = {2: 1e-7, 3: 1e-7, 4: 1e-6}

# (workload, variants, dimensions, outcome); outcome is "wrong" for a
# finite value off by more than its tolerance, or the exception's type
KNOWN_DEFECTS = (
    # Q_nu^mu(cosh rho) at large real degree and small rho; abs_err_est
    # often understates the error
    ("large_degree", ("H_PLUS",), (2, 3, 4), "wrong"),
    # d = 4 large-degree Ferrers/conical routes: errors of 1e-9 .. 1e-5
    ("large_degree", ("H_MINUS",) + CANDIDATES, (4,), "wrong"),
    # the quadrature of the large-degree Ferrers routes gives up after
    # 60000 panels (about 1.7 s per op)
    ("large_degree", CANDIDATES, (3, 4), "NoConvergenceError"),
)

_GAP = re.compile(r"relative gap ([0-9.eE+-]+)")


def known(workload: str, op, outcome: str) -> bool:
    return any(workload == w and op[1] in variants and op[2] in dims
               and outcome == out
               for w, variants, dims, out in KNOWN_DEFECTS)


def check(workload: str, ops, outs, refs) -> dict:
    """Check every outcome; ``refs[i]`` is the oracle value of op i."""
    res = {"attempted": len(ops), "failed": 0, "unexpected": [],
           "max_rel_err": 0.0, "green_checked": 0, "err_underestimated": 0,
           "checks": 0, "checks_failed": 0, "output_bytes": 0}
    first_text = None

    def fail(i, outcome, detail):
        res["failed"] += 1
        if not known(workload, ops[i], outcome):
            res["unexpected"].append([i, list(ops[i]), outcome, detail])

    for i, (op, out) in enumerate(zip(ops, outs)):
        if out[0] == "raise":
            fail(i, out[1], out[2])
            continue
        if op[0] == "verify":
            code, text = out[1], out[2]
            res["output_bytes"] += len(text.encode())
            doc = json.loads(text)
            rows = doc["rows"]
            res["checks"] += len(rows)
            bad = [r["check_id"] for r in rows if r["status"] != "PASS"]
            res["checks_failed"] += len(bad)
            for r in rows:
                m = _GAP.search(r["notes"])
                if m:
                    res["max_rel_err"] = max(res["max_rel_err"],
                                             float(m.group(1)))
            if first_text is None:
                first_text = text
            if code != 0 or bad or text != first_text:
                fail(i, "wrong", f"exit {code}, FAIL rows {bad}, "
                     f"identical to first: {text == first_text}")
            continue
        value = complex(out[1], out[2])
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            fail(i, "non-finite", repr(value))
            continue
        ref = refs[i]
        err = abs(value - ref)
        rel = err / abs(ref)
        if op[0] == "green":
            tol = REL_TOL
            res["green_checked"] += 1
            res["max_rel_err"] = max(res["max_rel_err"], rel)
            res["err_underestimated"] += err > out[3]
        else:  # expand: the series' own report against its closed form
            tol = SERIES_TOL[op[2]]
            res["max_rel_err"] = max(res["max_rel_err"], out[3])
        if rel > tol:
            fail(i, "wrong", f"relative error {rel:.3e}")
    return res
