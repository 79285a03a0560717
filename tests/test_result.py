"""EvalResult bookkeeping."""

from curvgreen.result import NEAR_POLE, EvalResult


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
