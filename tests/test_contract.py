"""Entry checks of the public numerical functions and of an expansion's
two-point config: a nan or infinite number in any position is refused
with DomainError, "<name> must be finite", before any work; a value
past the double range is RangeError, never inf or nan; and the work of
a call is bounded (``legendre_p`` at conical degrees)."""

import cmath
import functools
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvgreen.errors import CurvGreenError, DomainError, RangeError
from curvgreen.expansions import TwoPointConfig
from curvgreen.legendre import (ferrers_p, ferrers_q, gegenbauer_function,
                                half_odd_eval, legendre_p, legendre_q)
from curvgreen.specfun import (chebyshev_t, cyl, env_h, env_j, gamma,
                               gamma_ratio, gauss_2f1, gegenbauer_c,
                               pochhammer, regularized_2f1)

# name -> (function, its parameters' names, finite arguments it accepts)
_ENTRIES = {
    "legendre_p": (legendre_p, ("nu", "mu", "z"), (0.3, 0.5, 2.0)),
    "legendre_q": (legendre_q, ("nu", "mu", "z"), (0.3, 0.5, 2.0)),
    "ferrers_p": (ferrers_p, ("nu", "mu", "x"), (0.3, 0.3, 0.2)),
    "ferrers_q": (ferrers_q, ("nu", "mu", "x"), (0.3, 0.3, 0.2)),
    "half_odd_eval P": (functools.partial(half_odd_eval, "P"),
                        ("nu", "mu", "z"), (0.3, 1.5, 2.0)),
    "half_odd_eval FQ": (functools.partial(half_odd_eval, "FQ"),
                         ("nu", "mu", "x"), (0.3, 1.5, 0.2)),
    "gauss_2f1": (gauss_2f1, ("a", "b", "c", "z"), (0.3, 0.2, 1.5, 0.3)),
    "regularized_2f1": (regularized_2f1, ("a", "b", "c", "z"),
                        (0.3, 0.2, 1.5, 0.3)),
    "gegenbauer_function": (gegenbauer_function, ("lam", "mu", "gamma_angle"),
                            (0.3, 0.5, 1.0)),
    "gegenbauer_c": (gegenbauer_c, ("n", "mu", "x"), (3, 0.5, 0.2)),
    "pochhammer": (pochhammer, ("z", "n"), (0.3, 3)),
    "gamma": (gamma, ("z",), (0.3,)),
    "cyl J": (functools.partial(cyl, "J"), ("mu", "x"), (0.3, 1.0)),
    "chebyshev_t": (chebyshev_t, ("n", "x"), (3, 0.2)),
    "gamma_ratio": (gamma_ratio, ("p", "q"), (1.3, 0.7)),
    "env_j": (env_j, ("mu", "x"), (0.5, 1.0)),
    "env_h H1": (functools.partial(env_h, "H1"), ("mu", "x"), (0.5, 1.0)),
    # an expansion's two-point config, refused when it is built
    "TwoPointConfig": (TwoPointConfig, ("r1", "r2", "gamma"),
                       (0.5, 1.2, 0.8)),
}


def test_finite_arguments_are_accepted():
    for fn, _, args in _ENTRIES.values():
        fn(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,position", [
    (name, i) for name, (_, params, _) in _ENTRIES.items()
    for i in range(len(params))])
def test_non_finite_is_refused(name, position, bad):
    fn, params, args = _ENTRIES[name]
    args = list(args)
    args[position] = bad
    with pytest.raises(DomainError,
                       match=f"^{params[position]} must be finite$"):
        fn(*args)


# each call and its outcome: None for a RangeError
@pytest.mark.parametrize("call,want", [
    (lambda: chebyshev_t(2, 1e200), None),        # 2e400 - 1
    (lambda: chebyshev_t(3000, 1.5), None),       # past l = 739, inf - inf
    (lambda: gegenbauer_c(3, 1e200, 0.9), None),  # C_2 ~ 1e400
    # the pole's (m+1)! = 201!
    (lambda: regularized_2f1(1, 1, -200, 0.5), None),
    # the pole's prefactor (1e80)_4^2 z^4 / 4! is inf * 0
    (lambda: regularized_2f1(1e80, 1e80, -3, 1e-200), None),
    # (1e100)_4 overflows, but (0)_4 = 0 makes the value an exact 0
    (lambda: regularized_2f1(1e100, 0, -3, 1e-250),
     (0.0, 0.0, 1, frozenset())),
], ids=["T_2(1e200)", "T_3000(1.5)", "C_3^1e200(0.9)",
        "2F1~(1, 1; -200; 0.5)", "2F1~(1e80, 1e80; -3; 1e-200)",
        "2F1~(1e100, 0; -3; 1e-250)"])
def test_overflow_is_refused(call, want):
    """A value past the double range refuses, never inf or nan; at a pole
    of c a Pochhammer factor of 0 is an exact 0, never inf * 0."""
    if want is None:
        with pytest.raises(RangeError, match="leaves the double range"):
            call()
    else:
        assert call() == want


@settings(database=None, derandomize=True, deadline=None)
@given(st.floats(0.0, 1000.0), st.floats(-3.0, 3.0),
       st.floats(1.0 + 1e-6, 1e6))
# past its series P had spent 0.6-0.7 s in the hyperbolic Mehler
# integral before it refused
@example(25.0, -2.3, math.cosh(2.0))
def test_legendre_p_work_is_bounded(tau, mu, z):
    """legendre_p at a conical degree returns a finite value with a
    finite estimate, or refuses with a CurvGreenError, within 50 ms of
    process CPU."""
    start = time.process_time()
    try:
        out = legendre_p(complex(-0.5, tau), mu, z)
    except CurvGreenError:
        pass
    else:
        assert cmath.isfinite(out.value) and math.isfinite(out.abs_err_est)
    assert time.process_time() - start < 0.05
