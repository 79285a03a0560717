"""tools/pairs.py: the verdict on synthetic runs, and a one-pair run."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(__file__))
_PATH = os.path.join(_ROOT, "tools", "pairs.py")


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [25.0, 26.0, 27.0, 25.5, 26.5, 24.5, 27.5, 26.0, 25.0, 27.0]


@pytest.mark.parametrize("change,better,word", [
    # every pair won, medians 12 apart against an IQR of 1.75
    ([p + 12.0 for p in PARENT], "higher", "gain"),
    # the same runs on a lower-is-better metric are a regression
    ([p + 12.0 for p in PARENT], "lower", "worse"),
    # 9 of 10 pairs won, by more than the IQR
    ([p + (2.0 if i else -1.0) for i, p in enumerate(PARENT)], "higher",
     "gain"),
    # 8 of 10 pairs won: not a gain, not worse by the bound
    ([p + (2.0 if i > 1 else -1.0) for i, p in enumerate(PARENT)],
     "higher", "unchanged"),
    # won every pair, but by less than the IQR
    ([p + 1.0 for p in PARENT], "higher", "unchanged"),
])
def test_verdict(pairs, change, better, word):
    got = pairs.verdict(PARENT, change, better, 0.25)
    assert got["verdict"] == word
    assert got["parent"] == {"runs": PARENT, "median": 26.0, "q1": 25.125,
                             "q3": 26.875}
    assert got["change"]["runs"] == change


def test_verdict_counts_ties_for_neither(pairs):
    got = pairs.verdict([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower", 0.25)
    assert got["won"] == 1


def test_verdict_unresolved(pairs):
    # the parent's IQR is 40 % of its median, wider than the 25 % bound
    parent = [6.0, 10.0, 14.0, 10.0, 6.0, 14.0]
    mixed = [7.0, 9.0, 15.0, 11.0, 5.0, 13.0]
    assert pairs.verdict(parent, mixed, "higher", 0.25)["verdict"] \
        == "unresolved"
    # unless every change run reads better than every parent run
    above = [15.0, 16.0, 17.0, 15.0, 16.0, 17.0]
    assert pairs.verdict(parent, above, "higher", 0.25)["verdict"] \
        == "unchanged"


def test_one_run_is_its_own_quartiles(pairs):
    got = pairs.verdict([2.0], [1.0], "lower", 0.25)
    assert got["parent"] == {"runs": [2.0], "median": 2.0, "q1": 2.0,
                             "q3": 2.0}
    assert got["won"] == 1


def test_one_pair_run(tmp_path):
    """HEAD against this checkout on verify, one 0.5 s pair; --out writes
    the printed records as one JSON list."""
    head = subprocess.run(["git", "-C", _ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout")
    doc = tmp_path / "pairs.json"
    out = subprocess.run([sys.executable, _PATH, "HEAD", "--workload",
                          "verify", "--pairs", "1", "--seconds", "0.5",
                          "--out", str(doc)],
                         capture_output=True, text=True, check=True,
                         cwd=_ROOT)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert json.loads(doc.read_text()) == lines
    assert len(lines) == 1
    got = lines[0]
    assert (got["rev"], got["workload"], got["pairs"]) == ("HEAD", "verify",
                                                         1)
    assert got["correct"] == {"parent": [True], "change": [True]}
    assert got["failed"] == {"parent": [0], "change": [0]}
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(got["metrics"]) == sorted(names)
    for metric in got["metrics"].values():
        assert metric["verdict"] in ("gain", "worse", "unresolved",
                                     "unchanged")
        for side in ("parent", "change"):
            q = metric[side]
            assert q["runs"] == [q["median"]]
            assert q["q1"] == q["median"] == q["q3"] > 0.0
