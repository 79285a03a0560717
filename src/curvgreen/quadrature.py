"""Adaptive Gauss-Kronrod quadrature with endpoint-singularity hints.

Global adaptive bisection on a (G7, K15) embedded pair.  The panel with
the largest error estimate is split first; ties break on insertion
order, so the subdivision sequence (and the result) is deterministic.
Complex-valued integrands are supported; error estimates use moduli.

Integrable algebraic endpoint singularities are handled by a
substitution declared through a hint:

    ``("left_alg", p)``  : integrand behaves like (x-a)^(-p) at a, p < 1
    ``("right_alg", p)`` : like (b-x)^(-p) at b
    ``None``             : no endpoint treatment

The map x = a + u^q with q = 1/(1-p) turns (x-a)^(-p) g(x) into
q g(a + u^q): the power itself is removed exactly, for negative p as
for positive p.  The mapped integrand is smooth only where q is an
integer (p = 0, 1/2, 2/3, ...); otherwise g(a + u^q) keeps non-integer
powers of u, which the adaptive refinement resolves at the cost of
extra panels and some digits.
"""

from __future__ import annotations

import heapq
import math

from .errors import DomainError, NoConvergenceError
from .result import EvalResult

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights sit
# on the odd-index abscissae.  Values from the standard QUADPACK tables.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _panel(f, a, b):
    """One (G7, K15) evaluation on [a, b] -> (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = []
    for i in range(7):
        x = half * _XK[i]
        fk.append(f(mid - x))
        fk.append(f(mid + x))
    fc = f(mid)
    k15 = _WK[7] * fc
    g7 = _WG[3] * fc
    for i in range(7):
        pair = fk[2 * i] + fk[2 * i + 1]
        k15 += _WK[i] * pair
        if i % 2 == 1:
            g7 += _WG[(i - 1) // 2] * pair
    k15 *= half
    g7 *= half
    err = abs(k15 - g7)
    # QUADPACK-style sharpening of the raw difference
    if err != 0.0:
        err = min(err, err * math.sqrt(err / (abs(k15) + err + 1e-300)) + 1e-300)
    return k15, err


def _substitute(f, a, b, hint):
    """Apply the endpoint substitution declared by `hint`."""
    if hint is None:
        return f, a, b
    kind, p = hint
    kind = kind.lower()
    if p >= 1.0:
        raise DomainError("algebraic singularity exponent must be < 1")
    if kind not in ("left_alg", "right_alg"):
        raise DomainError(f"unknown singularity hint {hint!r}")
    q = 1.0 / (1.0 - p)
    # x = a + u^q from the left end, x = b - u^q from the right
    end, sign = (a, 1.0) if kind == "left_alg" else (b, -1.0)

    def g(u, _f=f, _end=end, _sign=sign, _q=q):
        return _f(_end + _sign * u ** _q) * _q * u ** (_q - 1.0)

    return g, 0.0, (b - a) ** (1.0 / q)


def quad(f, a, b, tol=1e-10, rel_tol=0.0, hint=None, max_depth=60,
         max_panels=20000):
    """Adaptively integrate ``f`` over [a, b].

    Parameters
    ----------
    f : callable
        Real- or complex-valued integrand of one real variable.
    a, b : float
        Integration limits, a < b.
    tol : float
        Absolute error target.
    rel_tol : float
        Optional relative error target; iteration stops once the error
        estimate is below ``max(tol, rel_tol * |integral|)``.
    hint : None or (str, float)
        Endpoint singularity hint, see module docstring.
    max_depth : int
        Maximum bisection depth per panel.

    Returns
    -------
    EvalResult
        ``value`` is the integral, ``abs_err_est`` the accumulated
        error estimate, ``terms_used`` the number of K15 panels.
    """
    if not b > a:
        if b == a:
            return EvalResult(0.0, 0.0, 0)
        raise DomainError("quad requires a < b")
    g, ga, gb = _substitute(f, a, b, hint)

    val, err = _panel(g, ga, gb)
    # heap entries: (-err, insertion counter, a, b, val, err, depth)
    counter = 0
    heap = [(-err, counter, ga, gb, val, err, 0)]
    total_val = val
    total_err = err
    npanels = 1
    while total_err > max(tol, rel_tol * abs(total_val)):
        if npanels >= max_panels:
            raise NoConvergenceError(
                f"quadrature did not converge within {max_panels} panels "
                f"(err={total_err:.3e}, target={tol:.3e})")
        neg, _, pa, pb, pval, perr, depth = heapq.heappop(heap)
        if depth >= max_depth:
            raise NoConvergenceError(
                f"quadrature hit depth {max_depth} with residual error "
                f"{total_err:.3e} > {tol:.3e}")
        pm = 0.5 * (pa + pb)
        v1, e1 = _panel(g, pa, pm)
        v2, e2 = _panel(g, pm, pb)
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        counter += 1
        heapq.heappush(heap, (-e1, counter, pa, pm, v1, e1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, pm, pb, v2, e2, depth + 1))
        npanels += 2
    return EvalResult(total_val, abs(total_err), npanels)
