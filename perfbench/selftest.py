"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the library's own test run
(``pytest`` from the repository root) does not collect it: these tests
need mpmath and start many interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = ("ops_per_s", "cpu_ms_per_op", "latency_p50_ms",
              "latency_tail_ms", "fail_rate", "max_rel_err", "setup_s",
              "peak_rss_mb")


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = _run("--workload", workload, "--seed", "7", "--seconds", "0.05",
             "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    rows = {line.split()[0]: line.split()[1:] for line in lines
            if line and not line.startswith(("#", "{"))}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert m["unit"] in rows[m["name"]]
    if trace:
        assert "# traced outcomes bit-identical to untraced: True" in lines
    else:
        assert set(END_TO_END) <= set(rows)
        assert "samples beyond" in " ".join(rows["latency_tail_ms"])


def test_refuses_to_run_without_sources(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src, \
                    open(tmp_path / "perfbench" / name, "w") as dst:
                dst.write(src.read())
    with open(tmp_path / "BENCHMARK.json", "w") as fh:
        json.dump(SPEC, fh)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "points", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0 and p.stdout == ""


def test_inputs_are_a_function_of_the_seed():
    a = workloads.generate("large_degree", 3, 0.2)
    assert a == workloads.generate("large_degree", 3, 0.2)
    assert a != workloads.generate("large_degree", 4, 0.2)
    ops = [op for chunk in a for op in chunk]
    assert len(set(ops)) == len(ops)
    assert {(op[1], op[2]) for op in ops} == set(workloads.CELLS["points"])


def _clean_points():
    ops = workloads.generate("points", 3, 0.05)[0][:8]
    run_op = workloads.make_runner()
    outs = [workloads.summarize(op, run_op(op)) for op in ops]
    return ops, outs, [oracle.reference(op) for op in ops]


def test_oracle_accepts_library_values_and_rejects_a_perturbed_one():
    ops, outs, refs = _clean_points()
    assert checks.check("points", ops, outs, refs)["failed"] == 0
    bad = [list(o) for o in outs]
    bad[0][1] *= 1.0 + 1e-7
    bad[0][2] *= 1.0 + 1e-7
    res = checks.check("points", ops, bad, refs)
    assert res["failed"] == 1 and len(res["unexpected"]) == 1


def test_known_defect_is_counted_but_not_unexpected():
    # H_PLUS at large degree and small rho: relative error ~1e-7 here
    op = ("green", "H_PLUS", 3, 35.505541311716065, 0.2753456469746029)
    out = workloads.summarize(op, workloads.make_runner()(op))
    ref = oracle.reference(op)
    on_large = checks.check("large_degree", [op], [out], [ref])
    assert on_large["failed"] == 1 and not on_large["unexpected"]
    on_points = checks.check("points", [op], [out], [ref])
    assert on_points["failed"] == 1 and on_points["unexpected"]


def test_traced_outcomes_are_bit_identical_to_untraced():
    ops = ([op for op in workloads.generate("points", 5, 0.05)[0][:6]]
           + workloads.generate("expand", 5, 0.05)[0][:3] + [("verify",)])
    run_op = workloads.make_runner()
    plain = [workloads.summarize(op, run_op(op)) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced_op = tracer.root(run_op)
        traced = [workloads.summarize(op, traced_op(op)) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    agg = tracer.aggregate()
    assert agg["ops"] == len(ops) and not agg["missing"]
    assert all(agg["layers"][layer]["calls"] > 0 for layer in LAYERS)
    # uninstall restored every binding
    import curvgreen.verify
    assert curvgreen.verify.quad is curvgreen.quadrature.quad
    assert not hasattr(curvgreen.verify.quad, "__wrapped__")
