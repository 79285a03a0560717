"""Compare benchmark op outcomes between a git revision and this checkout.

    python3 tools/opdiff.py REV [--workload expand [large_degree ...]]
                            [--seeds 1 2 3] [--by-cell]

For each workload named (``expand`` by default) builds each seed's op
list with ``perfbench/workloads.generate`` (this checkout's copy,
imported read-only, at the benchmark's 10-second run length) and runs
it twice, each time in a fresh interpreter: through the
library at REV, exported with ``git archive`` into a temporary
directory, and through ``src/`` of this checkout.  For every workload
and seed it prints one JSON line:

* ``ops``, ``identical`` (bit-identical outcome), ``raise_to_value``,
  ``value_to_raise``, ``raise_changed`` (another exception type),
  ``terms_changed``, ``flags_changed`` and, for ``green`` ops,
  ``est_changed`` (another ``abs_err_est``), each a count, with the first
  few such ops listed under ``examples``;
* ``max_value_move``: the largest |new - old| / |old| over ops that
  return a value on both sides; for ``expand`` also ``max_rel_err_move``,
  the largest change of the series' reported ``rel_err``;
* against the mpmath oracle (``perfbench/oracle.py``, 30 digits):
  ``closer``, ``farther`` and ``unchanged`` counts of the ops that return
  a value on both sides; ``farther_2ulp``, the count of those whose
  relative error grew by more than 2 ulp (2 * 2**-52);
  ``max_farther``, the largest increase of the relative error;
  ``max_new_value_err``, the largest relative error of a
  ``raise_to_value`` op's new value; and ``err_over_est`` as [old, new],
  the counts of the ``green`` ops returning a value on both sides whose
  error exceeds their ``abs_err_est``.
  ``verify`` ops have no oracle value.

For ``verify`` each seed's line is followed by one line per verify row
whose outcome changed (any field of the row), for each distinct pair of
old and new outputs: ``check_id``, ``status`` and ``gap`` as [old,
new], the gap being |measured - target| (null for a row missing on one
side).

With ``--by-cell`` each seed's line is followed by one line per
(variant, d) cell of its ops, sorted by cell: ``workload``, ``seed``,
``cell`` and that cell's ``identical``, ``terms_changed``,
``flags_changed``, ``est_changed``, ``closer``, ``farther``,
``farther_2ulp``, ``max_farther`` and ``err_over_est``.

Run it from the root of the checkout.  It writes nothing into the
repository; the temporary export is removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "tools")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from pairs import export_src  # noqa: E402

SECONDS = 10
EXAMPLES = 5
TWO_ULP = 2.0 * 2.0 ** -52
ORACLE_WORKERS = 2
CELL_KEYS = ("identical", "terms_changed", "flags_changed", "est_changed",
             "closer", "farther", "farther_2ulp", "max_farther",
             "err_over_est")


def run_ops(ops) -> list:
    """Every op's ``workloads.summarize`` outcome, in this interpreter."""
    run_op = workloads.make_runner()
    outs = []
    for op in ops:
        try:
            out = run_op(op)
        except Exception as e:  # a refusal or a bug: both are outcomes
            out = e
        outs.append(workloads.summarize(op, out))
    return outs


def _run_at(src: str, ops) -> list:
    """run_ops in a fresh interpreter that imports the library from src."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--run"], input=json.dumps(ops), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _value(out):
    return complex(out[1], out[2]) if out[0] == "ok" else None


def compare(ops, old, new, refs) -> dict:
    """The counts and extremes that the module docstring lists."""
    res = {"ops": len(ops), "identical": 0, "raise_to_value": 0,
           "value_to_raise": 0, "raise_changed": 0, "terms_changed": 0,
           "flags_changed": 0, "est_changed": 0, "max_value_move": 0.0,
           "max_rel_err_move": 0.0, "closer": 0, "farther": 0,
           "unchanged": 0, "farther_2ulp": 0, "max_farther": 0.0,
           "max_new_value_err": 0.0, "err_over_est": [0, 0],
           "examples": []}

    def note(key, i):
        res[key] += 1
        if len(res["examples"]) < EXAMPLES:
            res["examples"].append([key, list(ops[i]), old[i], new[i]])

    for i, (a, b) in enumerate(zip(old, new)):
        if a == b:
            res["identical"] += 1
        if a[0] != b[0]:
            note("raise_to_value" if a[0] == "raise" else "value_to_raise",
                 i)
            if b[0] == "ok" and refs[i] is not None:
                res["max_new_value_err"] = max(
                    res["max_new_value_err"],
                    abs(_value(b) - refs[i]) / abs(refs[i]))
            continue
        if a[0] == "raise" and a[1] != b[1]:
            note("raise_changed", i)
            continue
        if a[0] == "raise" or ops[i][0] == "verify":
            continue
        if a[4] != b[4]:
            note("terms_changed", i)
        if a[5] != b[5]:
            note("flags_changed", i)
        if ops[i][0] == "green" and a[3] != b[3]:
            note("est_changed", i)
        va, vb = _value(a), _value(b)
        res["max_value_move"] = max(res["max_value_move"],
                                    abs(vb - va) / abs(va) if va else
                                    abs(vb))
        if ops[i][0] == "expand" and a[3] is not None and b[3] is not None:
            res["max_rel_err_move"] = max(res["max_rel_err_move"],
                                          abs(b[3] - a[3]))
        ref = refs[i]
        if ref is None:
            continue
        if ops[i][0] == "green":
            res["err_over_est"][0] += abs(va - ref) > a[3]
            res["err_over_est"][1] += abs(vb - ref) > b[3]
        ea, eb = abs(va - ref) / abs(ref), abs(vb - ref) / abs(ref)
        if eb < ea:
            res["closer"] += 1
        elif eb > ea:
            res["farther"] += 1
            res["farther_2ulp"] += eb - ea > TWO_ULP
            res["max_farther"] = max(res["max_farther"], eb - ea)
        else:
            res["unchanged"] += 1
    return res


def _print_cells(workload, seed, ops, old, new, refs) -> None:
    """compare's CELL_KEYS for each (variant, d) cell of the ops."""
    cells = {}
    for i, op in enumerate(ops):
        cells.setdefault(tuple(op[1:3]), []).append(i)
    for cell, idx in sorted(cells.items()):
        res = compare(*([seq[i] for i in idx] for seq in (ops, old, new,
                                                          refs)))
        print(json.dumps({"workload": workload, "seed": seed,
                          "cell": list(cell),
                          **{k: res[k] for k in CELL_KEYS}}), flush=True)


def verify_rows(old: str, new: str) -> list:
    """The changed rows of two ``verify --output json`` texts, as the
    module docstring lists them."""
    def rows(text):
        return {r["check_id"]: r for r in json.loads(text)["rows"]}

    def gap(r):
        return None if r is None else abs(r["measured"] - r["target"])

    a, b = rows(old), rows(new)
    return [{"check_id": cid,
             "status": [a.get(cid, {}).get("status"),
                        b.get(cid, {}).get("status")],
             "gap": [gap(a.get(cid)), gap(b.get(cid))]}
            for cid in [*a, *(c for c in b if c not in a)]
            if a.get(cid) != b.get(cid)]


def _print_verify_rows(seed, old, new) -> None:
    """verify_rows for each distinct pair of differing verify outputs."""
    pairs = {(a[2], b[2]) for a, b in zip(old, new)
             if a[0] == b[0] == "ok" and a != b}
    for a, b in sorted(pairs):
        for row in verify_rows(a, b):
            print(json.dumps({"seed": seed, **row}), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?")
    ap.add_argument("--workload", nargs="+", default=["expand"],
                    choices=workloads.NAMES)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--by-cell", action="store_true",
                    help="also print the counts of each (variant, d)")
    ap.add_argument("--run", action="store_true",
                    help="internal: run the op list on stdin, print outcomes")
    args = ap.parse_args()
    if args.run:
        print(json.dumps(run_ops([tuple(op) for op in json.load(sys.stdin)])))
        return 0
    if args.rev is None:
        ap.error("REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        old_src = export_src(args.rev, tmp)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(ORACLE_WORKERS) as pool:
            for workload in args.workload:
                for seed in args.seeds:
                    ops = [op for chunk in workloads.generate(
                        workload, seed, SECONDS) for op in chunk]
                    old = _run_at(old_src, ops)
                    new = _run_at(os.path.join(ROOT, "src"), ops)
                    refs = pool.map(oracle.reference, ops, chunksize=32)
                    res = compare(ops, old, new, refs)
                    print(json.dumps({"rev": args.rev, "workload": workload,
                                      "seed": seed, **res}), flush=True)
                    if workload == "verify":
                        _print_verify_rows(seed, old, new)
                    if args.by_cell:
                        _print_cells(workload, seed, ops, old, new, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
