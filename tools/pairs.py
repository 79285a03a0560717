"""Alternating benchmark runs of a git revision and this checkout.

    python3 tools/pairs.py REV [--workload verify [points ...]]
                           [--pairs 10] [--seed 1] [--seconds 10]
                           [--out PATH]

Builds a temporary tree that holds ``src/`` at REV (from ``git archive``)
next to this checkout's ``perfbench/`` and ``BENCHMARK.json``, so both
sides run the same benchmark code.  For each workload named (``verify``
by default) it runs the benchmark's command (``BENCHMARK.json``) with
``--trace 0`` once in that tree (the parent side) and once in this
checkout (the change side) per pair, swapping which side runs first
from one pair to the next.  ``--seconds`` defaults to the benchmark's
``run_seconds``.  Prints one JSON line per workload:

* ``rev``, ``workload``, ``seed``, ``seconds`` and ``pairs``;
* ``correct`` and ``failed``: each side's ``correct`` flag (the run's
  outputs passed the benchmark's checks) and ``failed`` count, one per
  run;
* ``metrics``: for each end-to-end metric of ``BENCHMARK.json``, each
  side's ``runs`` and their ``median``, ``q1`` and ``q3``; ``won``, the
  number of pairs whose change run reads better (a tie counts for
  neither side); and a ``verdict``:

  - ``gain``: the change won at least 9/10 of the pairs and its median
    beats the parent's by more than the parent's interquartile range;
  - ``worse``: the change's median is worse than the parent's by more
    than the metric's bound, relative to the parent's median;
  - ``unresolved``: the parent's interquartile range, relative to its
    median, is wider than the bound, and not every change run reads
    better than every parent run;
  - ``unchanged``: none of these.

With ``--out PATH`` it also writes the lines' records, in workload
order, as one JSON list to PATH once every workload has run.

Run it from the root of the checkout.  It writes nothing into the
repository but PATH; the temporary tree is removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

WIN_SHARE = 0.9


def quartiles(xs: list) -> tuple:
    """(q1, median, q3) of one side's runs; one run is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """The metric's fields of the module docstring for paired runs;
    better is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if won >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1:
        word = "gain"
    elif sign * (pm - cm) > bound * abs(pm):
        word = "worse"
    elif p3 - p1 > bound * abs(pm) and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {"parent": {"runs": parent, "median": pm, "q1": p1, "q3": p3},
            "change": {"runs": change, "median": cm, "q1": c1, "q3": c3},
            "won": won, "verdict": word}


def export_src(rev: str, dest: str) -> str:
    """Extract ``src/`` at rev (``git archive``) into dest; return the
    path of the extracted ``src/``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)
    return os.path.join(dest, "src")


def parent_tree(rev: str, tmp: str) -> str:
    """tmp holding src/ at rev and this checkout's perfbench/ and
    BENCHMARK.json."""
    export_src(rev, tmp)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tmp, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    return tmp


def run_once(command: list, root: str, workload: str, seed: int,
             seconds: float) -> dict:
    """The result line of one benchmark run in root."""
    out = subprocess.run(command + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", str(seconds),
                                    "--trace", "0"],
                         cwd=root, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workload", nargs="+", default=["verify"],
                    choices=workloads.NAMES)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write the records to this JSON file")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": parent_tree(args.rev, tmp), "change": ROOT}
        for name in args.workload:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    runs[side].append(run_once(spec["command"], roots[side],
                                               name, args.seed,
                                               args.seconds))
            metrics = {
                m["name"]: verdict([r["metrics"][m["name"]]["value"]
                                    for r in runs["parent"]],
                                   [r["metrics"][m["name"]]["value"]
                                    for r in runs["change"]],
                                   m["better"], m["bound"])
                for m in spec["end_to_end"]}
            records.append({
                "rev": args.rev, "workload": name, "seed": args.seed,
                "seconds": args.seconds, "pairs": args.pairs,
                "correct": {side: [r["correct"] for r in runs[side]]
                            for side in runs},
                "failed": {side: [r["failed"] for r in runs[side]]
                           for side in runs},
                "metrics": metrics})
            print(json.dumps(records[-1]), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
