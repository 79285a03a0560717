"""tools/abtime.py: two copies of the library side by side, and a tiny run."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(__file__))
_PATH = os.path.join(_ROOT, "tools", "abtime.py")
_NAMES = ("curvgreen_test_a", "curvgreen_test_b")


@pytest.fixture(scope="module")
def abtime():
    spec = importlib.util.spec_from_file_location("abtime", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in list(sys.modules):
        if name.split(".")[0] in _NAMES:
            del sys.modules[name]


def test_each_runner_binds_its_own_package(abtime):
    before = sys.modules.get("curvgreen")
    src = os.path.join(_ROOT, "src")
    op = ("green", "H_PLUS", 4, 1.3, 0.7)
    outcomes = []
    for name in _NAMES:
        run_op = abtime.make_runner(abtime.load(name, src))
        for module in inspect.getclosurevars(run_op).nonlocals.values():
            if inspect.ismodule(module) and module.__name__ != "io":
                assert module.__name__.startswith(name + "."), module
        got = run_op(op)
        assert type(got).__module__ == name + ".result"
        outcomes.append((repr(got.value), repr(got.abs_err_est),
                         got.terms_used, sorted(got.flags)))
    assert outcomes[0] == outcomes[1]
    assert sys.modules.get("curvgreen") is before


def test_summary(abtime):
    rev, src = [1.0, 2.0, 1.0, 4.0], [0.5, 3.0, 0.9, 2.0]
    got = abtime.summary(rev, src)
    assert got["rev_ms"] == {"min": 1000.0, "median": 1500.0}
    assert got["src_ms"] == {"min": 500.0, "median": 1450.0}
    assert got["won"] == 3
    assert got["ratio"]["median"] == pytest.approx(0.7)
    assert got["ratio"]["q1"] == pytest.approx(0.5)
    assert got["ratio"]["q3"] == pytest.approx(1.05)


def test_tiny_run():
    """HEAD against this checkout on 24-op points and expand lists, two
    rounds each, in one command: one JSON line per workload."""
    head = subprocess.run(["git", "-C", _ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout")
    out = subprocess.run([sys.executable, _PATH, "HEAD", "--workload",
                          "points", "expand", "--rounds", "2", "--seconds",
                          "0.05"],
                         capture_output=True, text=True, check=True,
                         cwd=_ROOT)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [got["workload"] for got in lines] == ["points", "expand"]
    for got in lines:
        assert (got["rev"], got["rounds"]) == ("HEAD", 2)
        assert got["ops"] > 0
        assert 0 <= got["won"] <= 2
        for side in ("rev_ms", "src_ms"):
            assert 0.0 < got[side]["min"] <= got[side]["median"]
        ratio = got["ratio"]
        assert 0.0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert lines[0]["ops"] == 24


def test_cells_and_cell_summary(abtime):
    ops = [("green", "H_PLUS", 2, 20.0, 0.5), ("verify",),
           ("expand", "S_PLUS", 3, 1.0, 0.5, 1.2, 0.8),
           ("green", "H_PLUS", 2, 30.0, 0.7)]
    assert abtime.cells(ops) == {
        ("H_PLUS", 2): [ops[0], ops[3]], ("S_PLUS", 3): [ops[2]]}
    got = abtime.cell_summary(ops[:2], [0.004, 0.002, 0.006],
                              [0.002, 0.002, 0.003])
    assert got["ops"] == 2
    assert got["rev_ms_per_op"] == pytest.approx(2.0)
    assert got["src_ms_per_op"] == pytest.approx(1.0)
    assert got["ratio"] == pytest.approx(0.5)


def test_by_cell_run():
    """--by-cell: each workload's line, then one line per (variant, d)
    cell, sorted, whose ops add up to the workload's."""
    head = subprocess.run(["git", "-C", _ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout")
    out = subprocess.run([sys.executable, _PATH, "HEAD", "--workload",
                          "large_degree", "--rounds", "2", "--seconds",
                          "0.05", "--by-cell"],
                         capture_output=True, text=True, check=True,
                         cwd=_ROOT)
    first, *cells = [json.loads(line) for line in out.stdout.splitlines()]
    assert first["workload"] == "large_degree" and first["rounds"] == 2
    assert [c["cell"] for c in cells] == sorted(c["cell"] for c in cells)
    assert len(cells) == 24  # 8 variants x d = 2, 3, 4
    assert sum(c["ops"] for c in cells) == first["ops"]
    for c in cells:
        assert (c["workload"], c["seed"]) == ("large_degree", 1)
        assert c["rev_ms_per_op"] >= 0.0 and c["src_ms_per_op"] >= 0.0


def test_run_pass_by_cell_keeps_the_op_order(abtime):
    """With keys each op runs in its place in the list, and its time goes
    to its cell's figure."""
    seen = []

    def run_op(op):
        seen.append(op)
        if op == "b":
            raise ValueError("a refusal is timed too")

    ops, keys = ["a", "b", "c", "d"], [1, 0, 1, 2]
    got = abtime.run_pass(run_op, ops, keys)
    assert seen == ops and len(got) == 3 and min(got) >= 0.0
    seen.clear()
    assert len(abtime.run_pass(run_op, ops)) == 1 and seen == ops
