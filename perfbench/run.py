"""curvgreen benchmark: run one workload with a seed, check it, report it.

    python3 perfbench/run.py --workload points --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One run:

1. generates the workload's fixed op list from the seed: equal chunks
   of about ``--seconds`` x a per-workload rate ops (``workloads.py``);
2. runs the chunks one after another in a separate workload process,
   one thread, one caller, closed loop (``child.py``).  Between two
   chunks, outside every timed region, it computes the mpmath oracle
   values of the last chunk (``oracle.py``, two worker processes) and
   now and then starts a set-up probe (``probe.py``): a fresh
   interpreter that imports ``curvgreen.cli`` and runs the first op.
   A run's timed chunks are thus spread over its whole length;
3. checks every outcome (``checks.py``);
4. prints a report, one JSON record with the provenance and every
   figure, and last the result line::

       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the op list runs in two processes in step, one untraced
and one under the outside-in tracer (``tracer.py``); the metrics are
the per-layer ones, the probes time ``import curvgreen.specfun``, and
the traced outcomes must be bit-identical to the untraced ones.
README.md explains the workloads, the metrics and the statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 7
# timings come from the quietest twentieth of the chunks (lowest time
# per op), as timeit takes the minimum of its repeats: the machine this
# runs on is shared, other tenants slow it by up to 1.7x for seconds at
# a time, and undisturbed windows are brief
QUIET_SHARE = 0.05
TAIL_BEYOND = 10
DEADLINE_S = 160
ORACLE_WORKERS = 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _probe(args) -> float:
    """Seconds from starting a fresh interpreter to its final printout."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                          *args], env=_env(), capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.split()[-1]) - t0


class _Worker:
    """A live helper process speaking one JSON document per line: the
    workload process (child.py) or an oracle worker (oracle.py)."""

    def __init__(self, script: str, first=None):
        self.script = script
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script)], env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if first is not None:
            self.send(first)

    def send(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def recv(self, deadline: float):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise RuntimeError(f"{self.script} failed or timed out "
                               "(its stderr is above)")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _measure(chunks, trace: bool, spans: str | None, probe_args) -> tuple:
    """Run the chunks (untraced and, with ``trace``, traced too, in step)
    with the oracle and the probes in between.  Returns ([results per
    workload process], oracle value of every op, probe times)."""
    ops = [op for chunk in chunks for op in chunk]
    deadline = time.monotonic() + DEADLINE_S
    probe_after = [len(chunks) * (2 * i + 1) // (2 * SETUP_RUNS)
                   for i in range(SETUP_RUNS)]
    _probe(probe_args)  # warm-up: byte-compiles the sources
    children, oracles, probes, refs = [], [], [], []
    try:
        children.append(_Worker("child.py", {"ops": ops, "trace": False}))
        if trace:
            children.append(_Worker("child.py", {"ops": ops, "trace": True,
                                                 "spans": spans}))
        if ops[0][0] != "verify":
            oracles = [_Worker("oracle.py") for _ in range(ORACLE_WORKERS)]
        results = [{"lat": [], "chunk_wall": [], "chunk_cpu": [],
                    "chunk_ops": [], "outs": []} for _ in children]
        lo = 0
        for k, chunk in enumerate(chunks):
            hi = lo + len(chunk)
            for child, res in zip(children, results):
                child.send([lo, hi])
                got = child.recv(deadline)
                res["lat"].append(got["lat"])
                res["outs"] += got["outs"]
                res["chunk_wall"].append(got["wall"])
                res["chunk_cpu"].append(got["cpu"])
                res["chunk_ops"].append(hi - lo)
            if oracles:
                for w, part in enumerate(oracles):
                    part.send(chunk[w::len(oracles)])
                parts = [part.recv(deadline) for part in oracles]
                raw = [parts[j % len(parts)][j // len(parts)]
                       for j in range(len(chunk))]
            else:
                raw = [None] * len(chunk)
            refs += [None if r is None else complex(*r) for r in raw]
            probes += [_probe(probe_args) for j in probe_after if j == k]
            lo = hi
        for child, res in zip(children, results):
            child.send(None)
            res.update(child.recv(deadline))
    finally:
        for proc in children + oracles:
            proc.close()
    return results, refs, probes


def _provenance(workload: str, seed: int, chunks, dig: str) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            sha = git.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "curvgreen"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    src.update(f.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "chunks": len(chunks),
            "ops": sum(len(c) for c in chunks), "inputs_sha256": dig,
            "git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count()}


def _timings(res: dict) -> dict:
    """Throughput, CPU time and median latency over the quietest
    QUIET_SHARE of the chunks; the tail latency over every op of the run.

    Every chunk holds the same mix of inputs, so the chunks with the
    lowest wall (CPU) time per op are the ones in which the machine
    delayed (slowed) the workload least.  The tail is about the slow
    ops, so it takes them all."""
    n = len(res["chunk_ops"])
    k = max(1, round(QUIET_SHARE * n))

    def quietest(times):
        per_op = [t / m for t, m in zip(times, res["chunk_ops"])]
        return sorted(range(n), key=per_op.__getitem__)[:k]

    by_wall, by_cpu = quietest(res["chunk_wall"]), quietest(res["chunk_cpu"])
    every = sorted(1e3 * x for chunk in res["lat"] for x in chunk)
    m = len(every)
    idx = m - 1 - TAIL_BEYOND
    collapsed = idx < (m - 1) / 2   # too few samples: the tail is the median
    return {
        "ops_per_s": (sum(res["chunk_ops"][i] for i in by_wall)
                      / sum(res["chunk_wall"][i] for i in by_wall)),
        "cpu_ms_per_op": (1e3 * sum(res["chunk_cpu"][i] for i in by_cpu)
                          / sum(res["chunk_ops"][i] for i in by_cpu)),
        "p50": statistics.median(1e3 * x for i in by_wall
                                 for x in res["lat"][i]),
        "tail": statistics.median(every) if collapsed else every[idx],
        "tail_pct": 50.0 if collapsed else 100.0 * (idx + 1) / m,
        "tail_beyond": m // 2 if collapsed else TAIL_BEYOND,
        "samples": m, "collapsed": collapsed,
        "chunks": f"{k} of {n}",
    }


def _end_to_end(t: dict, chk: dict, setup: list, peak_rss_kb: int) -> dict:
    return {
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "cpu_ms_per_op": (t["cpu_ms_per_op"], "ms"),
        "latency_p50_ms": (t["p50"], "ms"),
        "latency_tail_ms": (t["tail"], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "fail_rate": (chk["failed"] / chk["attempted"], "1"),
        "max_rel_err": (chk["max_rel_err"], "1"),
    }


def _per_layer(tr: dict, chk: dict, overhead: float, imports: list) -> dict:
    """Per-layer figures from the span totals of the whole traced run."""
    n = tr["ops"]
    lay = tr["layers"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, rec in lay.items():
        m[f"{name}.self_ms_per_op"] = (1e3 * rec["self_s"] / n, "ms")
        m[f"{name}.self_share"] = (100.0 * ratio(rec["self_s"], tr["op_s"]),
                                   "%")
    lg, qd, ex = lay["legendre"], lay["quadrature"], lay["expansions"]
    m.update({
        "specfun.calls_per_op": (lay["specfun"]["calls"] / n, "count"),
        "specfun.terms_per_2f1": (ratio(tr["terms_2f1"], tr["calls_2f1"]),
                                  "count"),
        "specfun.import_s": (statistics.median(imports), "s"),
        "legendre.calls_per_op": (lg["calls"] / n, "count"),
        "legendre.integral_share": (100.0 * ratio(lg["quad_child"],
                                                  lg["calls"]), "%"),
        "legendre.slow_convergence_share": (100.0 * ratio(lg["slow"],
                                                          lg["calls"]), "%"),
        "quadrature.calls_per_op": (qd["calls"] / n, "count"),
        "quadrature.panels_per_call": (ratio(qd["terms"], qd["with_terms"]),
                                       "count"),
        "quadrature.failed": (qd["no_convergence"], "count"),
        "greens.calls_per_op": (lay["greens"]["calls"] / n, "count"),
        "greens.wave_params_per_call": (ratio(tr["wave_params"],
                                              tr["green_value"]), "count"),
        "greens.err_underestimated_share": (
            100.0 * ratio(chk["err_underestimated"], chk["green_checked"]),
            "%"),
        "expansions.terms_per_series": (ratio(ex["terms"], ex["with_terms"]),
                                        "count"),
        "expansions.legendre_calls_per_term": (
            ratio(lg["child_of_expansions"], ex["terms"]), "count"),
        "verify.green_calls_per_check": (ratio(tr["green_under_verify"],
                                               chk["checks"]), "count"),
        "verify.checks_failed": (chk["checks_failed"], "count"),
        "cli.output_bytes": (chk["output_bytes"] / n, "count"),
        "trace.overhead": (overhead, "x"),
    })
    return m


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(args, prov, chk, figures, t, notes, layer_calls):
    print(f"# perfbench {args.workload} seed={args.seed} ops={prov['ops']} "
          f"chunks={prov['chunks']} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in figures.items():
        layer = name.split(".")[0]
        if layer_calls and layer_calls.get(layer) == 0 \
                and name.endswith(("_per_op", "_share", "_per_call",
                                   "_per_series", "_per_term",
                                   "_per_check")):
            print(f"{name:36s} {'-':>14s} {unit:6s} layer not run")
            continue
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"p{t['tail_pct']:.2f}: {t['tail_beyond']} of "
                     f"{t['samples']} samples beyond")
            if t["collapsed"]:
                extra += "; too few samples, collapsed to the median"
        elif name in ("ops_per_s", "cpu_ms_per_op", "latency_p50_ms"):
            extra = f"quietest {t['chunks']} chunks"
        elif name == "setup_s":
            extra = f"median of {SETUP_RUNS} fresh interpreters"
        print(f"{name:36s} {_fmt(value):>14s} {unit:6s} {extra}")
    print(f"# attempted {chk['attempted']}, failed {chk['failed']}, "
          f"unexpected failures {len(chk['unexpected'])}")
    for line in notes:
        print("# " + line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvgreen", "__init__.py")):
        print(f"error: no curvgreen sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    chunks = workloads.generate(args.workload, args.seed, args.seconds)
    ops = [op for chunk in chunks for op in chunk]
    prov = _provenance(args.workload, args.seed, chunks,
                       workloads.digest(ops))
    notes, spans = [], None
    if args.trace:
        probe_args = ["--import", "curvgreen.specfun"]
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        probe_args = [json.dumps(ops[0])]
    try:
        runs, refs, probes = _measure(chunks, bool(args.trace), spans,
                                      probe_args)
    except (subprocess.SubprocessError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    res, plain = runs[-1], runs[0]

    chk = checks.check(args.workload, ops, res["outs"], refs)
    correct = not chk["unexpected"]
    for i, op, outcome, detail in chk["unexpected"][:20]:
        notes.append(f"UNEXPECTED failure op {i} {op}: {outcome}: {detail}")
    t = _timings(res)
    if args.trace:
        identical = plain["outs"] == res["outs"]
        correct = correct and identical
        notes.append("traced outcomes bit-identical to untraced: "
                     f"{identical}")
        overhead = t["cpu_ms_per_op"] / _timings(plain)["cpu_ms_per_op"]
        figures = _per_layer(res["trace"], chk, overhead, probes)
        layer_calls = {k: v["calls"] for k, v in
                       res["trace"]["layers"].items() if k != "other"}
        if res["trace"]["missing"]:
            notes.append("not found, not traced: "
                         + ", ".join(res["trace"]["missing"]))
        wanted = spec["per_layer"]
    else:
        figures = _end_to_end(t, chk, probes, res["peak_rss_kb"])
        layer_calls, wanted = None, spec["end_to_end"]

    _report(args, prov, chk, figures, t, notes, layer_calls)
    print(json.dumps({"record": {
        "provenance": prov, "correct": correct,
        "attempted": chk["attempted"], "failed": chk["failed"],
        "unexpected": chk["unexpected"], "probes_s": probes,
        "timings": t, "figures": {k: {"value": v, "unit": u}
                                  for k, (v, u) in figures.items()}}}))
    print(json.dumps({
        "correct": correct, "attempted": chk["attempted"],
        "failed": chk["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]][0],
                                "unit": figures[m["name"]][1]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
