"""tools/opdiff.py classifies planted outcome changes correctly."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "opdiff.py")


@pytest.fixture(scope="module")
def opdiff():
    spec = importlib.util.spec_from_file_location("opdiff", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ULP = 2.0 ** -52
OP = ("green", "S_PLUS", 3, 1.0, 0.5)


def _ok(value, terms=5, flags=(), est=1e-15):
    return ["ok", value, 0.0, est, terms, list(flags)]


def _raise(name):
    return ["raise", name, "planted"]


# (old outcome, new outcome) of each planted change; the oracle value is
# 1 for every op
_PLANTED = {
    "identical": (_ok(1.0), _ok(1.0)),
    "one_ulp": (_ok(1.0), _ok(1.0 + ULP)),
    "wrong_value": (_ok(1.0), _ok(1.0 + 1e-9)),
    "closer": (_ok(1.0 + 1e-12), _ok(1.0)),
    "raise_to_value": (_raise("NoConvergenceError"), _ok(1.0 + 1e-10)),
    "value_to_raise": (_ok(1.0), _raise("NoConvergenceError")),
    "raise_changed": (_raise("NoConvergenceError"), _raise("RangeError")),
    "flags_changed": (_ok(1.0), _ok(1.0, flags=["NEAR_POLE"])),
    "terms_changed": (_ok(1.0), _ok(1.0, terms=6)),
}


def _compare(opdiff, *names):
    pairs = [_PLANTED[n] for n in names]
    return opdiff.compare([OP] * len(pairs), [p[0] for p in pairs],
                          [p[1] for p in pairs], [1.0 + 0.0j] * len(pairs))


def test_last_bit_move_is_farther_but_within_two_ulp(opdiff):
    res = _compare(opdiff, "one_ulp")
    assert (res["farther"], res["farther_2ulp"]) == (1, 0)
    assert res["max_farther"] == ULP
    assert res["identical"] == 0


def test_wrong_value_is_farther_by_more_than_two_ulp(opdiff):
    res = _compare(opdiff, "wrong_value")
    assert (res["farther"], res["farther_2ulp"]) == (1, 1)
    assert res["max_farther"] == pytest.approx(1e-9, rel=1e-6)
    assert res["max_value_move"] == pytest.approx(1e-9, rel=1e-6)


def test_outcome_changes_are_counted_by_kind(opdiff):
    names = tuple(_PLANTED)
    res = _compare(opdiff, *names)
    assert res["ops"] == len(names)
    for key in ("identical", "raise_to_value", "value_to_raise",
                "raise_changed", "flags_changed", "terms_changed",
                "closer"):
        assert res[key] == 1, key
    assert (res["farther"], res["farther_2ulp"]) == (2, 1)
    # identical, flags_changed and terms_changed keep their value
    assert res["unchanged"] == 3
    assert res["max_new_value_err"] == pytest.approx(1e-10, rel=1e-6)
    assert len(res["examples"]) == opdiff.EXAMPLES


def test_estimate_only_change_is_counted(opdiff):
    # the estimate covers the 1e-13 error only after the change; an expand
    # op's rel_err moving is neither est_changed nor err_over_est
    expand = ("expand", "S_PLUS", 3, 1.0, 0.5)
    old = [_ok(1.0 + 1e-13), _ok(1.0 + 1e-13)]
    new = [_ok(1.0 + 1e-13, est=1e-12), _ok(1.0 + 1e-13, est=1e-12)]
    res = opdiff.compare([OP, expand], old, new, [1.0 + 0.0j] * 2)
    assert res["est_changed"] == 1
    assert res["err_over_est"] == [1, 0]
    assert res["identical"] == 0
    for key in ("terms_changed", "flags_changed", "closer", "farther"):
        assert res[key] == 0, key
    assert res["unchanged"] == 2
    assert res["examples"] == [["est_changed", list(OP), old[0], new[0]]]


def test_cells_carry_their_own_counts(opdiff, capsys):
    # two cells: an estimate-only change in one, a term count and a flag
    # in the other
    other = ("green", "H_PLUS", 2, 1.0, 0.5)
    ops = [OP, OP, other]
    old = [_ok(1.0 + 1e-13), _ok(1.0), _ok(1.0)]
    new = [_ok(1.0 + 1e-13, est=1e-12), _ok(1.0),
           _ok(1.0, terms=6, flags=["NEAR_POLE"])]
    opdiff._print_cells("points", 1, ops, old, new, [1.0 + 0.0j] * 3)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [c["cell"] for c in lines] == [["H_PLUS", 2], ["S_PLUS", 3]]
    h, s = lines
    assert set(opdiff.CELL_KEYS) <= set(s)
    assert (s["est_changed"], s["err_over_est"], s["identical"]) \
        == (1, [1, 0], 1)
    assert (s["terms_changed"], s["flags_changed"]) == (0, 0)
    assert (h["terms_changed"], h["flags_changed"], h["est_changed"]) \
        == (1, 1, 0)
    assert h["err_over_est"] == [0, 0]


def test_verify_rows_name_the_one_changed_row(opdiff):
    rows = [{"check_id": "a", "status": "PASS", "measured": 1.0,
             "target": 1.0},
            {"check_id": "b", "status": "PASS", "measured": 2.0 + 1e-12,
             "target": 2.0}]
    old = json.dumps({"rows": rows})
    moved = dict(rows[1], measured=2.0 + 3e-9, status="FAIL")
    new = json.dumps({"rows": [rows[0], moved]})
    got = opdiff.verify_rows(old, new)
    assert len(got) == 1
    assert got[0]["check_id"] == "b"
    assert got[0]["status"] == ["PASS", "FAIL"]
    assert got[0]["gap"] == [pytest.approx(1e-12, rel=1e-3),
                             pytest.approx(3e-9, rel=1e-6)]
    assert opdiff.verify_rows(old, old) == []
