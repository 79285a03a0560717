"""Time a git revision against this checkout, interleaved in one interpreter.

    python3 tools/abtime.py REV [--workload verify [points ...]]
                            [--rounds 30] [--seed 1] [--seconds 1]
                            [--by-cell]

Exports ``src/`` at REV with ``git archive`` into a temporary directory
and imports it and ``src/`` of this checkout as two packages under
distinct names, ``curvgreen_rev`` and ``curvgreen_src``, in this
interpreter, and builds a runner for each package from
``workloads.make_runner``.  For each workload named (``verify`` by
default), in turn, it builds one op list with
``perfbench/workloads.generate`` (this checkout's copy, imported
read-only, as ``tools/opdiff.py`` does); after one untimed pass per
side, each round runs the whole op list once per side, alternating
which side runs first, and takes the process CPU time of each pass.  A
refusal is an outcome, as in ``tools/opdiff.py``: it is caught and
timed.  Prints one JSON line per workload:

* ``rev``, ``workload``, ``seed``, ``ops`` and ``rounds``;
* ``rev_ms`` and ``src_ms``: each side's ``min`` and ``median`` CPU
  milliseconds per pass;
* ``ratio``: the ``median`` and the quartiles ``q1`` and ``q3`` of the
  per-round ratios src/rev (below 1: this checkout is faster);
* ``won``: the number of rounds in which src took less time than rev.

With ``--by-cell`` each pass runs the same ops in the same order but
reads the clock after each op and adds its time to its (variant, d)
cell's, so the workload line also carries one clock read per op.  Each
workload's line is then followed by one line per cell, sorted by cell:
``workload``, ``seed``, ``cell``, ``ops``, each side's
median CPU milliseconds per op of the cell (``rev_ms_per_op``,
``src_ms_per_op``) and the median of the per-round ratios src/rev
(``ratio``, None where no rev round took measurable time).
``verify`` has no cells.

Run it from the root of the checkout.  It writes nothing into the
repository; the temporary export is removed when it ends.  Both sides
share one process, so machine-wide swings hit both alike; a gain still
counts only from paired ``perfbench/run.py`` runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tools")]

import workloads  # noqa: E402
from pairs import export_src  # noqa: E402

PACKAGE = "curvgreen"


def load(name: str, src: str):
    """The package in src/curvgreen, imported as ``name``."""
    path = os.path.join(src, PACKAGE)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def make_runner(pkg):
    """``workloads.make_runner()`` bound to pkg: it imports
    ``curvgreen``, which for that call is pkg, its submodules loaded
    under pkg's own name first."""
    importlib.import_module(pkg.__name__ + ".cli")
    saved = sys.modules.get(PACKAGE)
    sys.modules[PACKAGE] = pkg
    try:
        return workloads.make_runner()
    finally:
        if saved is None:
            del sys.modules[PACKAGE]
        else:
            sys.modules[PACKAGE] = saved


def run_pass(run_op, ops, keys=None) -> list:
    """CPU seconds of one pass over ops, in their order: one figure, or
    with keys (each op's cell index) one per index, each op timed on its
    own and added to its cell's."""
    gc.collect()
    clock = time.process_time
    if keys is None:
        start = clock()
        for op in ops:
            try:
                run_op(op)
            except Exception:  # a refusal is an outcome, timed as such
                pass
        return [clock() - start]
    out = [0.0] * (max(keys) + 1)
    start = clock()
    for op, key in zip(ops, keys):
        try:
            run_op(op)
        except Exception:
            pass
        now = clock()
        out[key] += now - start
        start = now
    return out


def time_rounds(run_rev, run_src, ops, rounds: int, keys=None) -> tuple:
    """(rev, src): per round, each side's run_pass over ops, the first
    side alternating, after one untimed pass of each."""
    run_pass(run_rev, ops, keys)
    run_pass(run_src, ops, keys)
    rev, src = [], []
    for r in range(rounds):
        sides = [(run_rev, rev), (run_src, src)]
        for run_op, out in sides if r % 2 == 0 else sides[::-1]:
            out.append(run_pass(run_op, ops, keys))
    return rev, src


def cells(ops) -> dict:
    """The ops of each (variant, d) cell, keyed by cell, in op order."""
    out = {}
    for op in ops:
        if op[0] != "verify":
            out.setdefault((op[1], op[2]), []).append(op)
    return out


def cell_summary(ops: list, rev: list, src: list) -> dict:
    """One cell's fields of the module docstring from its per-round
    seconds; its ratio is None where no rev round took measurable
    time."""
    ratios = [s / r for r, s in zip(rev, src) if r]
    return {"ops": len(ops),
            "rev_ms_per_op": 1e3 * statistics.median(rev) / len(ops),
            "src_ms_per_op": 1e3 * statistics.median(src) / len(ops),
            "ratio": statistics.median(ratios) if ratios else None}


def summary(rev: list, src: list) -> dict:
    """The timing fields of the module docstring (two or more rounds)."""
    ratios = [s / r for r, s in zip(rev, src)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")

    def ms(times):
        return {"min": 1e3 * min(times),
                "median": 1e3 * statistics.median(times)}

    return {"rev_ms": ms(rev), "src_ms": ms(src),
            "ratio": {"median": median, "q1": q1, "q3": q3},
            "won": sum(s < r for r, s in zip(rev, src))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workload", nargs="+", default=["verify"],
                    choices=workloads.NAMES)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="run length the op list is generated for")
    ap.add_argument("--by-cell", action="store_true",
                    help="also time each (variant, d) cell apart")
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        run_rev = make_runner(load(PACKAGE + "_rev",
                                   export_src(args.rev, tmp)))
        run_src = make_runner(load(PACKAGE + "_src",
                                   os.path.join(ROOT, "src")))
        for name in args.workload:
            ops = [op for chunk in workloads.generate(name, args.seed,
                                                      args.seconds)
                   for op in chunk]
            by_cell = cells(ops) if args.by_cell else {}
            # each op's cell index in sorted order; one past the last for
            # an op of no cell
            index = {cell: i for i, cell in enumerate(sorted(by_cell))}
            keys = [index.get(op[1:3], len(index))
                    for op in ops] if index else None
            rev, src = time_rounds(run_rev, run_src, ops, args.rounds, keys)
            print(json.dumps({"rev": args.rev, "workload": name,
                              "seed": args.seed, "ops": len(ops),
                              "rounds": args.rounds,
                              **summary([sum(t) for t in rev],
                                        [sum(t) for t in src])}),
                  flush=True)
            for cell, i in index.items():
                print(json.dumps({
                    "workload": name, "seed": args.seed, "cell": cell,
                    **cell_summary(by_cell[cell], [t[i] for t in rev],
                                   [t[i] for t in src])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
