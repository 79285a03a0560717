"""Entry checks of the public numerical functions and of an expansion's
two-point config: a nan or infinite number in any position is refused
with DomainError, "<name> must be finite", before any work."""

import functools
import math

import pytest

from curvgreen.errors import DomainError
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
