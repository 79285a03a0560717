"""EvalResult bookkeeping."""

import pickle

import pytest

from curvgreen.result import CANDIDATE, NEAR_POLE, EvalResult, merge_flags


def test_scaled_multiplies_value_and_estimate():
    r = EvalResult(2.0 - 1.0j, 1e-3, 7, frozenset({NEAR_POLE}))
    c = -3.0 + 4.0j
    got = r.scaled(c)
    assert got.value == c * (2.0 - 1.0j)
    assert got.abs_err_est == abs(c) * 1e-3
    assert got.terms_used == 7
    assert got.flags == frozenset({NEAR_POLE})
    # a real factor on a real value: the estimate takes |c|
    neg = EvalResult(1.5, 0.25).scaled(-2.0)
    assert neg.value == -3.0 and neg.abs_err_est == 0.5


@pytest.mark.parametrize("c", [-2.0, -0.0, -1e300, 3.0 - 4.0j, -1j,
                               complex(-0.0, -0.0)])
def test_scaled_keeps_the_estimate_nonnegative(c):
    got = EvalResult(1.5 - 0.5j, 0.25, 3).scaled(c)
    assert got.abs_err_est >= 0.0
    assert got.abs_err_est == abs(c) * 0.25
    assert type(got) is EvalResult


def test_scaled_rounded_adds_the_prefactors_share():
    r = EvalResult(2.0 - 1.0j, 1e-3, 7, frozenset({NEAR_POLE}))
    c = -3.0 + 4.0j
    got = r.scaled_rounded(c, 1e-14)
    assert got.value == r.scaled(c).value
    assert got.abs_err_est == abs(c) * 1e-3 + 1e-14 * abs(got.value)
    assert got[2:] == (7, frozenset({NEAR_POLE}))
    assert type(got) is EvalResult
    assert r.scaled_rounded(c, 0.0) == r.scaled(c)


class TestContract:
    """EvalResult is an immutable record: fields, defaults, the check on
    the estimate, repr, equality and hashing."""

    R = EvalResult(1.5 - 0.5j, 0.25, 3, frozenset({NEAR_POLE}))

    def test_fields_cannot_be_assigned(self):
        for name in ("value", "abs_err_est", "terms_used", "flags",
                     "other"):
            with pytest.raises(AttributeError):
                setattr(self.R, name, 0)
        assert self.R.value == 1.5 - 0.5j

    def test_negative_estimate_raises(self):
        with pytest.raises(ValueError, match="abs_err_est must be "
                           "nonnegative"):
            EvalResult(1.0, -1e-300)
        with pytest.raises(ValueError):
            EvalResult(value=1.0, abs_err_est=-1.0)

    def test_defaults(self):
        r = EvalResult(2.0)
        assert (r.value, r.abs_err_est, r.terms_used, r.flags) \
            == (2.0, 0.0, 0, frozenset())
        assert EvalResult(value=2.0, terms_used=4).terms_used == 4

    def test_repr(self):
        assert repr(self.R) == ("EvalResult(value=(1.5-0.5j), "
                                "abs_err_est=0.25, terms_used=3, "
                                "flags=frozenset({'NEAR_POLE'}))")
        assert repr(EvalResult(2.0)) == ("EvalResult(value=2.0, "
                                         "abs_err_est=0.0, terms_used=0, "
                                         "flags=frozenset())")

    def test_equal_records_compare_and_hash_equal(self):
        twin = EvalResult(1.5 - 0.5j, 0.25, 3, frozenset({NEAR_POLE}))
        assert twin == self.R and hash(twin) == hash(self.R)
        assert len({twin, self.R}) == 1
        assert EvalResult(1.5 - 0.5j, 0.25, 3) != self.R
        assert EvalResult(1.5 - 0.5j, 0.5, 3, self.R.flags) != self.R

    def test_parts_and_flags(self):
        assert (self.R.re, self.R.im) == (1.5, -0.5)
        assert (EvalResult(2.0).re, EvalResult(2.0).im) == (2.0, 0.0)
        more = self.R.with_flags(CANDIDATE)
        assert more.flags == frozenset({NEAR_POLE, CANDIDATE})
        assert more.value == self.R.value and self.R.flags == {NEAR_POLE}
        assert merge_flags(self.R, EvalResult(0.0, 0.0, 0,
                                              frozenset({CANDIDATE}))) \
            == more.flags
        assert merge_flags() == frozenset()

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.R)) == self.R
        assert type(pickle.loads(pickle.dumps(self.R))) is EvalResult
