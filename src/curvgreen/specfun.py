"""Foundation special functions with error estimates.

Provides the scalar kernels everything else is built on:

* log-gamma and digamma in pure Python: Stirling's series and its
  derivative (DLMF 5.11.1, 5.11.2) from one Bernoulli table, after an
  upward shift; log-gamma reflects left of Re z = 1/2 near the real
  axis, real log-gamma is ``math.lgamma``; the difference
  log Gamma(z + d) - log Gamma(z) at large |z| as one Stirling
  difference (``_lgamma_gap``),
* one complex gamma function, ``math.gamma`` on the real axis and the
  exponential of that log-gamma off it, and pole-safe gamma ratios,
* Pochhammer symbols evaluated as exact products,
* the Gauss hypergeometric function 2F1 and its regularized variant,
  continued beyond the defining disk by the Pfaff z/(z-1) map and by
  the 1-z linear transformation, including the logarithmic case when
  the parameter combination c-a-b is an integer m: one body for both
  signs of m, the sums for m < 0 being those for m >= 0 at parameters
  shifted by Euler's transformation; on request (``defining=True``)
  the defining series at any |z| < 1, for a caller whose series cannot
  cancel,
* cylinder functions J, Y, I, K, H1, H2 at real order and the
  zero-free envelope functions used to normalize asymptotic errors, in
  pure Python by Temme's method: CF1 and Miller's recurrence for J and
  I, Temme's series (x < 2) or Steed's CF2 (x >= 2) for Y and K, the
  Wronskian between them, and reflection at negative orders,
* Chebyshev and Gegenbauer polynomials by three-term recurrence, in
  float at a real order with the bits of the complex recurrence
  (``_gegenbauer_terms``).

``gamma``, ``gamma_ratio``, ``pochhammer``, the 2F1 engine (its
parameters and its argument), ``cyl``, ``env_j``, ``env_h``,
``chebyshev_t`` and ``gegenbauer_c`` refuse a nan or infinite number
with DomainError ("<name> must be finite") at their entry.

Prepared 2F1.  ``Hyp2F1(a, b, c)`` is the engine at fixed parameters;
``gauss_2f1`` and ``regularized_2f1`` build one per call.  Its state is
its own (the module keeps none) and holds only work that does not depend
on z, each piece computed where the one-shot evaluation computes it, by
the same operations, and kept only if it did not raise.  So every call
returns the bits of the one-shot call and raises what it raises.  One
engine is not for concurrent calls from several threads.

Fast path of the 2F1 engine.  Where its values stay finite, its results
are bit-identical to the term-by-term complex evaluation (value, error
estimate, term count, flags and every exception), and it changes no
tolerance:

* Real a, b, c and z run the defining series in float, and real log-sum
  parameters and w = 1 - z the logarithmic case's log sum; other
  complex ones take complex bodies.  CPython's complex +, *, / and abs
  give, on operands whose imaginary parts are zero and whose parts stay
  finite, exactly the real part of the float operation (abs: x if
  x >= 0 else -x, as the float bodies write it).  A sum or estimate
  that leaves the double range, float or complex, is RangeError.
* Conjugate a, b at real c and z (conical degrees) run the defining
  series in float too, as their product (a + n)(b + n) is real; those
  values are the float loop's own, not the complex loop's bits.
* The NEAR_POLE test |(c+n)(n+1)| < 1e-8 can hold only at the n nearest
  -Re c, so the series evaluates it there alone.
* Each parameter is checked against the poles once per engine, and the
  snapped a and b are passed down to the series with their polynomial's
  degree N, which caps it at N + 2 steps.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .errors import (DomainError, NoConvergenceError, ParamPoleError,
                     PoleError, RangeError)
from .result import ASYMPTOTIC_REGIME, NEAR_POLE, EvalResult

_EPS = 2.220446049250313e-16
_LOG_MAX = 709.0

# B_2, B_4, ..., B_22: Stirling's series for log Gamma takes
# B_2k/(2k(2k-1)) z^(1-2k), its derivative for psi -B_2k/(2k) z^(-2k).
# Eleven terms reach below a quarter ulp of either at |z| >= _ASYM_MIN.
# A smaller _ASYM_MIN needs more terms; a larger one more shift steps,
# and log-gamma then loses digits to the cancellation in
# (z - 1/2) log z - z.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
              -174611.0 / 330.0, 854513.0 / 138.0)
_STIRLING = tuple(b / ((2 * k) * (2 * k - 1))
                  for k, b in enumerate(_BERNOULLI, 1))
_PSI_ASYM = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))
_ASYM_MIN = 7.0
_LOG_PI = 1.1447298858494002
_LOG_SQRT_2PI = 0.91893853320467274178
_EULER = 0.57721566490153286061

_MAX_TERMS = 6000
_LOG_RANGE = "2F1 logarithmic 1-z case leaves the double range"
_LOG_STALL = "2F1 logarithmic series did not converge"
_GAP_STEP = 8  # psi gaps computed at a time, ahead of the log sum


def _finite(name: str, z):
    """z, or DomainError "<name> must be finite" where z (a part of a
    complex z) is nan or infinite."""
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be finite")
    return z


def _real(z):
    """z's real part where its imaginary part is 0 (of either sign), else
    z: how a computed value enters the float arithmetic of the order
    recurrences and the Gegenbauer weights (legendre.order_sequence)."""
    return z if z.imag else z.real


def _near_nonpos_int(z, tol=1e-10):
    """Return (True, n) if z is within tol of a nonpositive integer -n."""
    z = complex(z)
    if z.real > 0.5 or abs(z.imag) > tol:
        return False, 0
    n = round(z.real)
    if n <= 0 and abs(z - n) <= tol:
        return True, -n
    return False, 0


def _cgamma(z) -> complex:
    """Complex gamma (internal, unchecked): ``math.gamma`` on the real
    axis, inf at its poles; exp(_lgamma(z)) off it.  OverflowError
    beyond the double range."""
    z = complex(z)
    if not z.imag:
        try:
            return complex(math.gamma(z.real))
        except ValueError:  # a nonpositive integer
            return complex(math.inf)
    return cmath.exp(_lgamma(z))


def _lgamma(z) -> complex:
    """log Gamma(z), with the imaginary part right modulo 2 pi only.

    Every caller exponentiates it, so the branch does not matter; it is
    not the principal log-gamma.  Real z: ``math.lgamma``, plus i pi
    where Gamma < 0; +inf at the poles.  Complex z near the real axis
    left of Re z = 1/2 reflects, Gamma(z) Gamma(1-z) = pi/sin(pi z),
    with the sine taken at z - n, n = round(Re z), which is exact; the
    rest shifts up to |z| >= 7 and sums Stirling's series (DLMF
    5.11.1).  Off the real axis at |Im z| >= 7 that series is accurate
    at any Re z, so no reflection is needed there.
    """
    if not z.imag:  # float, int or complex
        x = z.real
        if not -math.inf < x <= 0.0:  # x > 0, or nan or +-inf
            return complex(math.lgamma(x))
        n = math.floor(x)
        if x == n:
            return complex(math.inf)
        return complex(math.lgamma(x), math.pi if n % 2 else 0.0)
    if z.real < 0.5 and abs(z.imag) < _ASYM_MIN:
        n = round(z.real)
        return (_LOG_PI - cmath.log(cmath.sin(math.pi * (z - n)))
                - 1j * math.pi * n - _lgamma(1.0 - z))
    shift = 1.0
    if abs(z) < _ASYM_MIN:
        n = math.ceil(math.sqrt(_ASYM_MIN * _ASYM_MIN - z.imag * z.imag)
                      - z.real)
        for k in range(n):
            shift *= z + k
        z += n
    w = 1.0 / z
    out = ((z - 0.5) * cmath.log(z) - z + _LOG_SQRT_2PI
           + w * _asym_sum(_STIRLING, w * w))
    return out if shift == 1.0 else out - cmath.log(shift)


def _lgamma_gap(z, d) -> tuple:
    """(log Gamma(z + d) - log Gamma(z), the size of the parts it is
    summed from): its rounding is about eps times that size.

    Where z and z + d each lie right of the imaginary axis or at
    |Im| >= 7, |z|, |z + d| >= 7 (``_ASYM_MIN``) and |d| <= |z|/4, so
    that no branch of the logarithm is crossed between them, Stirling's
    series (DLMF 5.11.1) is taken as a difference,

        (z - 1/2) log(1 + d/z) + d log(z + d) - d
        + sum_k S_k ((z + d)^(1 - 2k) - z^(1 - 2k)),

    log(1 + u) = 2 atanh(u/(2 + u)) by its series, so the parts are of
    the size of d log z where the two log-gammas are of that of z log z.
    Elsewhere it is the difference of _lgamma (imaginary part modulo
    2 pi, as there).
    """
    z, d = complex(z), complex(d)
    zd = z + d
    if (min(abs(z), abs(zd)) >= _ASYM_MIN and abs(d) <= 0.25 * abs(z)
            and (z.real > 0.0 or abs(z.imag) >= _ASYM_MIN)
            and (zd.real > 0.0 or abs(zd.imag) >= _ASYM_MIN)):
        t = d / (2.0 * z + d)  # u/(2 + u), u = d/z
        t2, term, log1p = t * t, t, 0.0
        for k in range(1, 60, 2):
            log1p += term / k
            term *= t2
            if abs(term) < 1e-17 * abs(log1p):
                break
        a = (z - 0.5) * (2.0 * log1p)
        b = d * cmath.log(zd)
        w, v = 1.0 / zd, 1.0 / z
        corr = (w * _asym_sum(_STIRLING, w * w)
                - v * _asym_sum(_STIRLING, v * v))
        return a + b - d + corr, abs(a) + abs(b) + abs(d) + abs(corr)
    a, b = _lgamma(zd), _lgamma(z)
    return a - b, abs(a) + abs(b)


def _digamma(z):
    """psi(z) off the poles: a float at a float z, else complex.

    Shifts up to Re z >= 7 by psi(z) = psi(z + n) - sum 1/(z + k),
    then sums the asymptotic series (DLMF 5.11.2).  No reflection: in
    psi(1 - z) - pi cot(pi z) the rounding of pi z costs absolute
    accuracy near the poles, where the shift's 1/(z + k) is exact.  A
    float z gives the real part of the complex body's value bit for bit:
    cmath.log of a real >= 7 is math.log, and the other operations are
    the module docstring's.
    """
    log = math.log
    if type(z) is not float:
        z, log = complex(z), cmath.log
    acc = 0.0
    if z.real < _ASYM_MIN:
        n = math.ceil(_ASYM_MIN - z.real)
        for k in range(n):
            acc += 1.0 / (z + k)
        z += n
    w = 1.0 / z
    w2 = w * w
    return log(z) - 0.5 * w - w2 * _asym_sum(_PSI_ASYM, w2) - acc


def _trigamma(z) -> complex:
    """psi'(z) for complex z off the poles, shifted up as :func:`_digamma`
    is, then by its asymptotic series (DLMF 5.15.8)."""
    z = complex(z)
    acc = 0.0
    if z.real < _ASYM_MIN:
        n = math.ceil(_ASYM_MIN - z.real)
        for k in range(n):
            acc += 1.0 / ((z + k) * (z + k))
        z += n
    w = 1.0 / z
    w2 = w * w
    return w + 0.5 * w2 + w * w2 * _asym_sum(_BERNOULLI, w2) + acc


def _asym_sum(coef, w2):
    """sum_k coef[k] w2^k by Horner's rule."""
    s = 0.0
    for c in reversed(coef):
        s = s * w2 + c
    return s


def gamma(z) -> EvalResult:
    """Gamma function of a complex argument.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    RangeError
        If |Gamma(z)| exceeds the double range.
    DomainError
        If z is not finite.
    """
    hit, n = _near_nonpos_int(_finite("z", z), tol=1e-13)
    if hit:
        raise PoleError(f"gamma pole at z = -{n}")
    try:  # |v| itself may overflow where its parts do not
        v = _cgamma(z)
        err = 4e-15 * abs(v)
    except OverflowError:
        raise RangeError(f"gamma({z}) exceeds the double range") from None
    flags = frozenset()
    hit, _ = _near_nonpos_int(z, tol=1e-6)
    if hit:
        flags = frozenset({NEAR_POLE})
    return EvalResult(v, err, 0, flags)


def gamma_ratio(p, q) -> complex:
    """Gamma(p)/Gamma(q) with the both-arguments-at-poles limit.

    When p -> -n and q -> -m along a common perturbation the ratio tends
    to (-1)^(n-m) m!/n!; that limit is returned when both arguments sit
    on nonpositive integers.  A pole in the numerator alone yields inf,
    in the denominator alone 0.  A nan or infinite p or q is DomainError.
    """
    p_pole, n = _near_nonpos_int(_finite("p", p))
    q_pole, m = _near_nonpos_int(_finite("q", q))
    if p_pole and q_pole:
        sign = -1.0 if (n - m) % 2 else 1.0
        return sign * math.gamma(m + 1) / math.gamma(n + 1)
    if q_pole:
        return 0.0
    if p_pole:
        raise ParamPoleError(f"gamma ratio pole at p = {p}")
    if max(abs(complex(p)), abs(complex(q))) > 100.0:
        return cmath.exp(_lgamma(p) - _lgamma(q))
    return _cgamma(p) / _cgamma(q)


def pochhammer(z, n: int) -> complex:
    """Rising factorial (z)_n as an exact product; (z)_0 = 1."""
    if _finite("n", n) < 0:
        raise DomainError("pochhammer requires n >= 0")
    acc = 1.0 + 0.0j
    z = _finite("z", complex(z))
    for k in range(n):
        acc *= z + k
    return acc


# ----------------------------------------------------------------------
# Gauss hypergeometric engine
# ----------------------------------------------------------------------

def _series_2f1(a, b, c, z, steps=None):
    """Defining series, unregularized.

    Takes complex arguments.  The caller has snapped a and b onto the
    nonpositive integers within 1e-12 of them and ensures c is
    pole-free.  Real arguments run the loop in float (see the module
    docstring), and so do conjugate a, b at real c and z, whose product
    (a + n)(b + n) is real (``_series_conj``); other complex ones run in
    complex.  A sum of |terms| past the double range is RangeError
    either way.  steps, where given, caps the loop
    below _MAX_TERMS: N + 2 for a polynomial of degree N, whose term at
    n = N is exactly 0 while the sum is finite, so only a sum that has
    turned nan, and never exits on a zero term, reaches the cap.
    """
    # |(c+n)(n+1)| < 1e-8 needs |c+n| < 1e-8, so only the n nearest -Re c
    # can set NEAR_POLE, and only if the loop reaches it
    n0 = float(round(-c.real)) if -0.5 < -c.real < _MAX_TERMS else -1.0
    n_max = float(_MAX_TERMS if steps is None else min(steps, _MAX_TERMS))
    if a.imag and a == b.conjugate() and not (c.imag or z.imag):
        out = _series_conj(a.real, a.imag * a.imag, c.real, z.real, n0,
                           n_max)
    elif a.imag or b.imag or c.imag or z.imag:
        out = _series_complex(a, b, c, z, n0, n_max)
    else:
        out = _series_real(a.real, b.real, c.real, z.real, n0, n_max)
    if not math.isfinite(out[1]):
        raise RangeError("2F1 series leaves the double range")
    total, total_abs, term, terms_used, near = out
    if not terms_used:
        raise NoConvergenceError("2F1 series did not settle within budget")
    err = 2.0 * _EPS * total_abs + abs(term)
    flags = {NEAR_POLE} if near else set()
    if total_abs > 1e8 * max(abs(total), 1e-300):
        flags.add(NEAR_POLE)  # severe cancellation across the sum
    return complex(total), err, terms_used, frozenset(flags)


def _series_real(a, b, c, z, n0, n_max):
    """The loop of _series_2f1 in float, at most n_max (a float: float-float
    comparisons are the fast ones) steps: (total, sum of |terms|, last
    term, terms used or 0 if the budget ran out, whether the denominator
    at n0 fell below 1e-8)."""
    near = False
    term = total = total_abs = 1.0
    small = 0
    n = 0.0
    while n < n_max:
        denom = (c + n) * (n + 1.0)
        if n == n0:
            near = (denom if denom >= 0.0 else -denom) < 1e-8
        term = term * (a + n) * (b + n) / denom * z
        if term == 0.0:
            break  # terminating polynomial: count nonzero terms only
        mag = term if term >= 0.0 else -term
        total += term
        total_abs += mag
        n += 1.0
        if mag <= 1e-15 * (total if total >= 0.0 else -total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        return total, total_abs, term, 0, near
    return total, total_abs, term, int(n) + 1, near


def _series_conj(p, q2, c, z, n0, n_max):
    """_series_real at the conjugate parameters a, b = p -+ i q (conical
    degrees), q2 = q^2 > 0, with c and z real: (a + n)(b + n) is the
    real (p + n)^2 + q2, so the loop runs in float."""
    near = False
    term = total = total_abs = 1.0
    small = 0
    n = 0.0
    while n < n_max:
        denom = (c + n) * (n + 1.0)
        if n == n0:
            near = (denom if denom >= 0.0 else -denom) < 1e-8
        term = term * ((p + n) * (p + n) + q2) / denom * z
        if term == 0.0:
            break
        mag = term if term >= 0.0 else -term
        total += term
        total_abs += mag
        n += 1.0
        if mag <= 1e-15 * (total if total >= 0.0 else -total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        return total, total_abs, term, 0, near
    return total, total_abs, term, int(n) + 1, near


def _series_complex(a, b, c, z, n0, n_max):
    """_series_real in complex arithmetic."""
    near = False
    term = total = 1.0 + 0.0j
    total_abs = 1.0
    small = 0
    n = 0.0
    while n < n_max:
        denom = (c + n) * (n + 1.0)
        if n == n0:
            near = abs(denom) < 1e-8
        term = term * (a + n) * (b + n) / denom * z
        if term == 0.0:
            break
        mag = abs(term)
        total += term
        total_abs += mag
        n += 1.0
        if mag <= 1e-15 * abs(total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        return total, total_abs, term, 0, near
    return total, total_abs, term, int(n) + 1, near


def _coeff(num, den):
    """prod Gamma(num)/prod Gamma(den) via log-gamma; 0 if a den poles.

    The pole window matches the series snap tolerance (1e-12): a
    slightly-off-pole argument still multiplies diverging digamma
    factors in the logarithmic connection case, and their product is
    finite and significant, so it must not be zeroed prematurely.
    """
    for d in den:
        hit, _ = _near_nonpos_int(d, tol=1e-12)
        if hit:
            return 0.0
    for v in num:
        hit, _ = _near_nonpos_int(v, tol=1e-12)
        if hit:
            raise ParamPoleError("gamma pole in connection coefficient")
    acc = 0.0 + 0.0j
    for v in num:
        acc += _lgamma(v)
    for d in den:
        acc -= _lgamma(d)
    return cmath.exp(acc)


def _psi_gaps(gaps, a_s, b_s, m: int, n: int) -> int:
    """Extend the pair of lists gaps to at least n entries each and
    return the shorter length: psi(a_s + k) - psi(k + 1) and
    psi(b_s + k) - psi(k + m + 1) for k = 0, 1, ..., in the arithmetic
    of a_s and b_s (float or complex).

    Each run is one direct digamma less the harmonic sum
    psi(j + 1) = H_j - gamma, then gap(k + 1) = gap(k) + (j + 1 - x)/
    ((x + k)(k + j + 1)).  The recurrence carries the gap, which tends
    to 0, and not psi(x + k), which grows like log k, so its rounding
    stays at the gap's size.  A run that starts left of Re 1/2 may start
    at a pole's large value, whose rounding the recurrence would carry
    on, so its first term right of Re 1/2 is evaluated directly again.
    """
    for run, x, j in ((gaps[0], a_s, 0), (gaps[1], b_s, m)):
        for k in range(len(run), n):  # entry k from entry i = k - 1
            i = k - 1
            if not k or x.real + i < 0.5 <= x.real + k:
                gap = _digamma(x + k if k else x) - _psi_int(k + j + 1)
            else:
                gap = run[i] + (j + 1.0 - x) / ((x + i) * (i + j + 1.0))
            run.append(gap)
    return min(len(gaps[0]), len(gaps[1]))


def _psi_int(n: int) -> float:
    """psi(n) = H_{n-1} - gamma for an integer n >= 1."""
    return math.fsum([1.0 / i for i in range(1, n)]) - _EULER


def _log_sum(a_s, b_s, m, w, gaps):
    """sum_k (a_s)_k (b_s)_k / (k! (k+m)!) w^k * bracket(k), where
    bracket = log w - psi(k+1) - psi(k+m+1) + psi(a_s+k) + psi(b_s+k) is
    log w plus the :func:`_psi_gaps` of (a_s, 0) and (b_s, m), in the
    engine's float or complex pair of lists gaps[0] or gaps[1]: (sum,
    estimate, terms, the pair read).  The estimate charges 2 eps per term
    on the bracket's parts, |log w| + |gap_a| + |gap_b|, whose rounding
    outlives their cancellation in the bracket.  This is the float body,
    complex inputs go to :func:`_log_sum_complex`.  A nan sum and a spent
    budget are NoConvergenceError in either body; the caller refuses a
    sum or estimate past the double range.
    """
    if a_s.imag or b_s.imag or w.imag:
        return _log_sum_complex(a_s, b_s, m, w, gaps[1])
    p, q, x = a_s.real, b_s.real, w.real
    coef = 1.0 / math.gamma(m + 1)
    total = total_abs = 0.0
    small = have = 0
    logw = cmath.log(x).real
    alogw = logw if logw >= 0.0 else -logw
    ga, gb = gaps[0]
    for k in range(_MAX_TERMS):
        if k == have:
            if total != total:  # a nan sum never recovers
                break
            have = _psi_gaps(gaps[0], p, q, m, k + _GAP_STEP)
        gap_a, gap_b = ga[k], gb[k]
        term = coef * (logw + gap_a + gap_b)
        mag = term if term >= 0.0 else -term
        total += term
        total_abs += (coef if coef >= 0.0 else -coef) * (
            alogw + (gap_a if gap_a >= 0.0 else -gap_a)
            + (gap_b if gap_b >= 0.0 else -gap_b))
        size = total if total >= 0.0 else -total
        if mag <= 1e-16 * (1e-300 if size < 1e-300 else size):
            small += 1
            if small >= 3:
                return (complex(total), 2.0 * _EPS * total_abs + mag,
                        k + 1, gaps[0])
        else:
            small = 0
        coef = coef * (p + k) * (q + k) / ((k + 1.0) * (k + m + 1.0)) * x
    raise NoConvergenceError(_LOG_STALL)


def _log_sum_complex(a_s, b_s, m, w, gaps):
    """_log_sum in complex arithmetic, on the pair of lists gaps; a nan
    sum (coefficients past the double range) refuses at once."""
    coef = 1.0 / math.gamma(m + 1)
    total = 0.0 + 0.0j
    total_abs = 0.0
    small = have = 0
    logw = cmath.log(w)
    alogw = abs(logw)
    ga, gb = gaps
    for k in range(_MAX_TERMS):
        if k == have:
            if total != total:
                break
            have = _psi_gaps(gaps, a_s, b_s, m, k + _GAP_STEP)
        gap_a, gap_b = ga[k], gb[k]
        term = coef * (logw + gap_a + gap_b)
        mag = abs(term)
        total += term
        total_abs += abs(coef) * (alogw + abs(gap_a) + abs(gap_b))
        if mag <= 1e-16 * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total, 2.0 * _EPS * total_abs + mag, k + 1, gaps
        else:
            small = 0
        coef = coef * (a_s + k) * (b_s + k) / ((k + 1.0) * (k + m + 1.0)) * w
    raise NoConvergenceError(_LOG_STALL)


def _log_drop(m, lo, hi, w, n_fin, n_log, gaps):
    """The derivatives in s = c - a - b, at s = m, of the logarithmic
    case's finite and log sums over their first n_fin and n_log terms.

    Rounding s to m drops (s - m) (A' finite - (-1)^m B' log) plus
    O((s - m)^2), A' and B' the factors the case puts on its two sums.
    DLMF 15.8.4 writes F/Gamma(c) as pi/sin(pi s) D(s) with D(m) = 0, so
    that term is (-1)^m D''(m) (s - m)/2, and D'' is taken term by term.
    With (p, q) = lo, (a_s, b_s) = hi and j = max(0, -m), log-sum term k
    has (bracket^2 + 2 g bracket - t)/2 in place of its bracket, where
    g = psi(k + j + 1) - psi(a + m) - psi(b + m) and t = +-(psi'(k + 1)
    - psi'(k + |m| + 1)) - psi'(a_s + k) - psi'(b_s + k), + for m < 0.
    Finite-sum term k has psi(|m| - k) - psi(a + m) - psi(b + m) (m > 0)
    or log w + psi(p + k) - psi(p) + psi(q + k) - psi(q) - psi(|m| - k)
    (m < 0) in place of 1.
    """
    n = abs(m)
    logw = cmath.log(w)
    ha, hb = hi
    p, q = lo
    psi_m = 0.0  # psi(a + m) + psi(b + m): off the poles where it is used
    if n_log or (m > 0 and n_fin):
        pa, pb = hi if m >= 0 else lo
        psi_m = _digamma(pa) + _digamma(pb)
    fin = 0.0 + 0.0j
    coef = 1.0 + 0.0j
    psi_nk = _psi_int(n) if n else 0.0  # psi(n - k)
    shift = 0.0  # psi(p + k) - psi(p) + psi(q + k) - psi(q)
    for k in range(n_fin):
        fin += coef * (psi_nk - psi_m if m > 0 else logw + shift - psi_nk)
        if k == n - 1:
            break
        coef = coef * (p + k) * (q + k) / ((k + 1.0) * (k - n + 1.0)) * w
        if coef == 0.0:
            break  # p + k or q + k is 0: the rest vanish
        shift += 1.0 / (p + k) + 1.0 / (q + k)
        psi_nk -= 1.0 / (n - k - 1)
    if not n_log:
        return fin, 0.0
    total = 0.0 + 0.0j
    coef = 1.0 / math.gamma(n + 1)
    j = 0 if m >= 0 else n
    psi_k = _psi_int(j + 1)
    tri_h = math.fsum([1.0 / (i * i) for i in range(1, n + 1)])
    tri = _trigamma(ha) + _trigamma(hb)
    ga, gb = gaps
    for k in range(n_log):
        bracket = logw + ga[k] + gb[k]
        tau = (tri_h if m < 0 else -tri_h) - tri
        total += coef * (bracket * (bracket + 2.0 * (psi_k - psi_m)) - tau)
        coef = coef * (ha + k) * (hb + k) / ((k + 1.0) * (k + n + 1.0)) * w
        psi_k += 1.0 / (k + j + 1)
        tri_h += 1.0 / ((k + n + 1) * (k + n + 1)) - 1.0 / ((k + 1) * (k + 1))
        tri -= 1.0 / ((ha + k) * (ha + k)) + 1.0 / ((hb + k) * (hb + k))
    return fin, 0.5 * total


class Hyp2F1:
    """Gauss hypergeometric 2F1(a, b; c; .) at fixed parameters: called
    with z it is :func:`gauss_2f1`, ``.regularized(z)`` is
    :func:`regularized_2f1`.  The defining series is used for
    |z| <= 0.75; outside the disk the Pfaff transformation (Re z < 0 or
    |z/(z-1)| <= 0.75) or the 1-z connection formula.

    When c - a - b is within 1e-8 of an integer m the connection takes
    its logarithmic form, DLMF 15.8.10 for m >= 0 and 15.8.12 for m < 0,
    in one body: a finite sum of |m| terms and a log sum, whose
    parameters :meth:`_connect` picks once (see there), with (1-z)^m on
    the log sum for m >= 0 and on the finite sum for m < 0.  Its error
    estimate adds twice the term dropped by rounding c - a - b to m
    (:func:`_log_drop`).  It refuses |m| > 6000, the series' term
    budget, with NoConvergenceError before any sum, and a coefficient,
    1/|m|! or power of 1-z outside the double range with RangeError.
    """

    # kept by the first call that needs it: the snapped a and b with the
    # polynomial's step cap, 1/Gamma(c), the engines of the transformed
    # functions (one level down; at a pole of c the shifted one), the 1-z
    # connection's case and coefficients, and the psi gaps of the
    # logarithmic case's log sum, a float and a complex pair
    _snapped = _rgamma = _pfaff = _shifted = _connection = _gaps = None

    def __init__(self, a, b, c, depth: int = 0):
        self.a, self.b, self.c = (_finite("a", complex(a)),
                                  _finite("b", complex(b)),
                                  _finite("c", complex(c)))
        self.depth = depth
        self.c_pole = _near_nonpos_int(self.c)

    def __call__(self, z, defining: bool = False) -> EvalResult:
        """2F1 at z; defining=True sums the defining series at any
        |z| < 1, past the rule that takes |z| > 0.75 to a transformation
        (for a caller that knows the series converges within the term
        budget without cancelling), its estimate widened by sqrt(n) for
        the step rounding of its n terms."""
        return EvalResult(*self._core(_finite("z", complex(z)), defining))

    def regularized(self, z, defining: bool = False) -> EvalResult:
        """2F1(a, b; c; z)/Gamma(c), entire in c; for c = -m the series
        starts at n = m + 1 (the first m + 1 terms are annihilated by
        1/Gamma): (a)_{m+1} (b)_{m+1}/(m+1)! z^(m+1) times 2F1 at
        (a + m + 1, b + m + 1; m + 2).  Past m = 169, where (m+1)! leaves
        the double range, that is RangeError before the products.  That
        prefactor is an exact 0 where a Pochhammer product is 0, and
        RangeError where it is not finite.  defining as for a call."""
        z = _finite("z", complex(z))
        hit, m = self.c_pole
        if hit:
            if z == 0:
                return EvalResult(0.0, 0.0, 1, frozenset())
            try:
                fact = math.gamma(m + 2)  # first: it bounds the products
            except OverflowError:
                raise RangeError("regularized 2F1 at the pole c = "
                                 f"{-m}: (m+1)! leaves the double range"
                                 ) from None
            pa, pb = pochhammer(self.a, m + 1), pochhammer(self.b, m + 1)
            if pa == 0.0 or pb == 0.0:
                return EvalResult(0.0, 0.0, 1, frozenset())
            pref = (pa * pb / fact) * z ** (m + 1)
            if pref == 0.0:
                return EvalResult(0.0, 0.0, 1, frozenset())
            if not cmath.isfinite(pref):
                raise RangeError(f"regularized 2F1 at the pole c = {-m}: "
                                 "its prefactor leaves the double range")
            if self._shifted is None:
                self._shifted = Hyp2F1(self.a + m + 1.0, self.b + m + 1.0,
                                       m + 2.0)
            v, e, t, f = self._shifted._route(z, defining)
            return EvalResult(pref * v, abs(pref) * e, t, f)
        # c is more than 1e-10 (so more than 1/Gamma's 1e-13) from a pole
        v, e, t, f = self._route(z, defining)
        rg = self._rgamma
        if rg is None:
            if max(abs(self.c), abs(self.a), abs(self.b)) > 100.0:
                rg = cmath.exp(-_lgamma(self.c))
            else:
                rg = 1.0 / _cgamma(self.c)
            self._rgamma = rg
        return EvalResult(v * rg, e * abs(rg), t, f)

    def _core(self, z, defining=False):
        """2F1 at complex z: (value, err, terms, flags)."""
        if self.depth > 6:
            raise NoConvergenceError("2F1 transformation recursion too deep")
        if self.c_pole[0]:
            raise ParamPoleError("2F1 parameter c is a nonpositive integer; "
                                 "use regularized_2f1")
        return self._route(z, defining)

    def _route(self, z, defining=False):
        """_core past its checks: c pole-free."""
        if z == 0:
            return 1.0 + 0.0j, 0.0, 1, frozenset()
        # terminating polynomial works for any argument: a or b snapped
        # onto the nonpositive integer within 1e-12 of it, and the degree
        # N bounds the series at N + 2 steps
        snapped = self._snapped
        if snapped is None:
            ta, na = _near_nonpos_int(self.a, tol=1e-12)
            tb, nb = _near_nonpos_int(self.b, tol=1e-12)
            snapped = self._snapped = (
                (complex(-na) if ta else self.a,
                 complex(-nb) if tb else self.b,
                 min(n for t, n in ((ta, na), (tb, nb)) if t) + 2)
                if ta or tb else ())
        if snapped:
            a, b, steps = snapped
            return _series_2f1(a, b, self.c, z, steps)
        if defining:
            # a long run: its terms carry the rounding of every step's
            # ratio, which adds up like a random walk to about sqrt(n)
            # times the engine's 2 eps per term (18 eps at 166 terms);
            # past a thousand terms |z| is near 1, and the tail the stop
            # rule leaves, about |last term| |z|/(1 - |z|), outgrows that
            v, e, t, f = _series_2f1(self.a, self.b, self.c, z)
            tail = abs(z) / (1.0 - abs(z)) if t > 1000 else 0.0
            return v, e * (1.0 + math.sqrt(t) + tail), t, f
        if abs(z) <= 0.75:
            return _series_2f1(self.a, self.b, self.c, z)
        if z.real >= 1.0 and abs(z.imag) < 1e-14:
            raise NoConvergenceError("2F1 argument on the branch cut [1, inf)")
        w = z / (z - 1.0)
        if z.real < 0.0 or abs(w) <= 0.75:
            # Pfaff map: into (0, 1) from the left half-plane, into the
            # series disk near the imaginary axis
            pre = (1.0 - z) ** (-self.a)
            if self._pfaff is None:
                self._pfaff = Hyp2F1(self.a, self.c - self.b, self.c,
                                     self.depth + 1)
            v, e, t, f = self._pfaff._core(w)
            return pre * v, abs(pre) * e + 2 * _EPS * abs(pre * v), t, f
        if self._connection is None:
            self._connection = self._connect()
        m, *case = self._connection
        if m is None:
            return self._lin_1mz_generic(z, *case)
        try:  # 1/|m|! or a power of 1 - z
            return self._lin_1mz_log(z, m, *case)
        except OverflowError:
            raise RangeError(_LOG_RANGE) from None

    def _connect(self):
        """(m, lo, hi, A, B, s - m) if s = c - a - b is within 1e-8 of an
        integer m, else (None, s, c1, c2, f1, f2), f1 and f2 the engines
        of DLMF 15.8.4's two functions of 1 - z.  The logarithmic case's
        finite sum runs at lo, its log sum at hi = lo + |m|: (a, b) and
        (a + m, b + m) for m >= 0, (a - |m|, b - |m|) and (a, b) for
        m < 0, which is Euler's transformation of the first at the
        parameters.  A is Gamma(|m|) Gamma(c)/Gamma(hi), None at m = 0
        (Gamma(0) is a pole); B is Gamma(c)/Gamma(lo)."""
        a, b, c = self.a, self.b, self.c
        s = c - a - b
        if abs(s.imag) < 1e-10 and abs(s.real - round(s.real)) < 1e-8:
            m = round(s.real)
            n = abs(m)
            if n > _MAX_TERMS:
                raise NoConvergenceError(
                    "2F1 logarithmic 1-z case: |c - a - b| exceeds the "
                    "term budget")
            lo = (a, b) if m >= 0 else (a - n, b - n)
            hi = (a + n, b + n) if m >= 0 else (a, b)
            try:
                return (m, lo, hi, _coeff((n, c), hi) if n else None,
                        _coeff((c,), lo), s - m)
            except OverflowError:
                raise RangeError(_LOG_RANGE) from None
        return (None, s, _coeff((c, s), (c - a, c - b)),
                _coeff((c, -s), (a, b)),
                Hyp2F1(a, b, a + b - c + 1.0, self.depth + 1),
                Hyp2F1(c - a, c - b, s + 1.0, self.depth + 1))

    def _lin_1mz_generic(self, z, s, c1, c2, f1, f2):
        """DLMF 15.8.4 two-term connection, c-a-b not an integer."""
        w = 1.0 - z
        (v1, e1, t1, g1), (v2, e2, t2, g2) = [
            f._core(w) if cf != 0.0 else (0.0, 0.0, 0, frozenset())
            for cf, f in ((c1, f1), (c2, f2))]
        fl = set(g1 | g2)
        pw = w ** s
        p1 = c1 * v1
        p2 = c2 * pw * v2
        total = p1 + p2
        scale = abs(p1) + abs(p2)
        err = abs(c1) * e1 + abs(c2 * pw) * e2 + 4.0 * _EPS * scale
        if scale > 1e6 * max(abs(total), 1e-300):
            fl.add(NEAR_POLE)
        return total, err, t1 + t2, frozenset(fl)

    def _lin_1mz_log(self, z, m, lo, hi, A, B, delta):
        """1-z connection when c-a-b = m is an integer (DLMF
        15.8.10/15.8.12): A times the finite sum at lo, less (-1)^m B
        times the log sum at hi; w^m multiplies the log sum for m >= 0,
        the finite sum for m < 0."""
        n = abs(m)
        w = 1.0 - z
        finite = 0.0 + 0.0j
        fsize = 0.0  # the finite sum's terms before they cancel
        afac = 0.0  # the factor the finite sum carries: A, or A w^m
        if n and A != 0.0:
            p, q = lo
            coef = 1.0 + 0.0j
            for k in range(n):
                finite += coef
                fsize += abs(coef)
                if k < n - 1:  # the next step would divide by zero
                    coef = coef * (p + k) * (q + k) / ((k + 1.0) * (k - n + 1.0)) * w
            afac = A if m > 0 else A * w ** m
            finite *= afac
            fsize *= abs(afac)
        logsum = 0.0 + 0.0j
        lerr = 0.0
        lt, gaps = 0, None
        if B != 0.0:
            self._gaps = self._gaps or (([], []), ([], []))
            logsum, lerr, lt, gaps = _log_sum(*hi, n, w, self._gaps)
            if not (cmath.isfinite(logsum) and math.isfinite(lerr)):
                raise RangeError(_LOG_RANGE)
        lcoef, lscale = (-1.0 if n % 2 else 1.0) * B, abs(B)
        if m >= 0:
            lcoef, lscale = lcoef * (w ** m), lscale * abs(w) ** m
        total = finite - lcoef * logsum
        err = lscale * lerr + 4.0 * _EPS * (fsize + abs(B * logsum))
        if delta:  # twice the term dropped by rounding c - a - b to m
            dfin, dlog = _log_drop(m, lo, hi, w, n if afac else 0, lt, gaps)
            err += 2.0 * abs(delta) * (abs(afac * dfin) + abs(lcoef * dlog))
        scale = fsize + abs(total - finite)
        near = scale > 1e6 * max(abs(total), 1e-300)
        return total, err, lt + n, frozenset({NEAR_POLE} if near else ())


def gauss_2f1(a, b, c, z) -> EvalResult:
    """Gauss hypergeometric 2F1(a, b; c; z): ``Hyp2F1(a, b, c)(z)``.

    Raises
    ------
    ParamPoleError
        c is a nonpositive integer (use :func:`regularized_2f1`).
    NoConvergenceError
        z lies on the branch cut [1, inf) or no route converged.
    RangeError
        A float sum, a coefficient or a power leaves the double range.
    """
    return Hyp2F1(a, b, c)(z)


def regularized_2f1(a, b, c, z) -> EvalResult:
    """Regularized Gauss function 2F1(a, b; c; z)/Gamma(c):
    ``Hyp2F1(a, b, c).regularized(z)``."""
    return Hyp2F1(a, b, c).regularized(z)


# ----------------------------------------------------------------------
# Cylinder functions and envelopes
# ----------------------------------------------------------------------

# Taylor coefficients of 1/Gamma(1 + z) about z = 0 (DLMF 5.7.1), the
# even and the odd powers; the first omitted term is below 1e-21 at
# |z| = 1/2.
_RGAMMA_EVEN = (1.0, -0.6558780715202539, 0.16653861138229148,
                -0.009621971527876973, -0.0011651675918590652,
                0.0001280502823881162, -1.2504934821426706e-06,
                -2.056338416977607e-07, 5.002007644469223e-09,
                1.0434267116911005e-10, -3.696805618642206e-12,
                -2.0583260535665066e-14)
_RGAMMA_ODD = (0.5772156649015329, -0.04200263503409524,
               -0.04219773455554433, 0.0072189432466631,
               -0.00021524167411495098, -2.013485478078824e-05,
               1.133027231981696e-06, 6.116095104481416e-09,
               -1.18127457048702e-09, 7.782263439905071e-12,
               5.100370287454476e-13, -5.348122539423018e-15)
_TEMME_X = 2.0  # Temme's series below, Steed's CF2 at and above
_RESCALE = 1e250  # the Miller recurrence rescales beyond this size
_CYL_KINDS = ("J", "Y", "I", "K", "H1", "H2")
_CYL_REL = 5e-15  # cyl's estimate, relative to its envelope
# J and Y also lose up to about 0.25 x eps of their envelope: CF1
# rounds 2 (nu + k)/x at each of its about x levels, a phase error like
# that of perturbing x.  Their estimate grows by the factor 1 + x/40.
_CYL_PHASE = 1.0 / 40.0


def _cf_max(x):
    """Iteration budget of the continued fractions: CF1 needs about x."""
    return 10000 + 2 * int(x)


def _temme(mu, x, bessel_y):
    """(Y_mu, Y_mu+1) or (K_mu, K_mu+1) at |mu| <= 1/2, 0 < x < 2.

    Temme's series (J. Comput. Phys. 19 (1975); 21 (1976)) in the form
    of Numerical Recipes 6.7: sum_k c_k (f_k + r q_k) with c_k =
    (-/+ x^2/4)^k/k!, and its companion for the next order.  Gamma_1
    and Gamma_2 come from the Taylor series of 1/Gamma(1 + mu), which
    has no cancellation at mu = 0.
    """
    mu2 = mu * mu
    g1 = -_asym_sum(_RGAMMA_ODD, mu2)
    g2 = _asym_sum(_RGAMMA_EVEN, mu2)
    half = 0.5 * x
    pimu = math.pi * mu
    d = -math.log(half)
    e = mu * d
    f = ((pimu / math.sin(pimu) if mu else 1.0)
         * (g1 * math.cosh(e) + g2 * d * (math.sinh(e) / e if e else 1.0)))
    e = math.exp(e)
    p = 0.5 * e / (g2 - mu * g1)  # 1/(2 Gamma(1+mu)) (x/2)^-mu
    q = 0.5 / (e * (g2 + mu * g1))  # 1/(2 Gamma(1-mu)) (x/2)^mu
    if bessel_y:
        z = -half * half
        r = 2.0 * math.sin(0.5 * pimu) ** 2 / mu if mu else 0.0
    else:
        z, r = half * half, 0.0
    total = f + r * q
    total1 = p
    c = 1.0
    for i in range(1, 200):
        f = (i * f + p + q) / (i * i - mu2)
        c *= z / i
        p /= i - mu
        q /= i + mu
        t = c * (f + r * q)
        total += t
        total1 += c * p - i * t
        if abs(t) < _EPS * (1.0 + abs(total)):
            break
    if bessel_y:
        return -total / (0.5 * math.pi), -total1 / (0.25 * math.pi * x)
    return total, total1 / half


def _cf1(nu, x, s):
    """The ratio J_nu+1/J_nu (s = -1) or I_nu+1/I_nu (s = +1) from its
    continued fraction 1/(b_1 + s/(b_2 + s/(b_3 + ...))), b_k =
    2 (nu + k)/x, by modified Lentz, and the sign of J_nu: the last
    denominator B_n of the fraction carries it, and B_n is the product
    of the D_k that the iteration inverts (Numerical Recipes 6.7)."""
    tiny = 1e-300
    h = c = tiny
    d = 0.0
    sign = 1.0
    a = 1.0
    for k in range(1, _cf_max(x)):
        b = 2.0 * (nu + k) / x
        d = b + a * d
        c = b + a / c
        d = 1.0 / (d or tiny)
        c = c or tiny
        delta = c * d
        h *= delta
        if d < 0.0:
            sign = -sign
        a = s
        if abs(delta - 1.0) < _EPS:
            return h, sign
    raise NoConvergenceError(f"CF1 of the cylinder functions at x = {x}")


def _miller(nu, x, n, s):
    """Run the recurrence C_k-1 = (2k/x) C_k - s C_k+1 down n steps from
    order nu, started at the CF1 ratio: (C_nu, C_nu+1, C_m, C_m+1) at
    m = nu - n, all in one arbitrary scale, which the caller fixes by a
    Wronskian.  J is s = 1 with the sign of J_nu, I is s = -1."""
    ratio, sign = _cf1(nu, x, -s)
    top = (sign, sign * ratio)
    lo, hi = top
    for k in range(n):
        lo, hi = 2.0 * (nu - k) / x * lo - s * hi, lo
        if abs(lo) > _RESCALE:
            lo, hi, top = lo / _RESCALE, hi / _RESCALE, (
                top[0] / _RESCALE, top[1] / _RESCALE)
    return top[0], top[1], lo, hi


def _steed_jy(mu, x):
    """p + i q = H1_mu'/H1_mu at x >= 2 by Steed's continued fraction
    CF2 (Barnett et al., Comput. Phys. Commun. 8 (1974)):
    -1/(2x) + i + (i/x) a_1/(b_1 + a_2/(b_2 + ...)), a_k = (k - 1/2)^2
    - mu^2, b_k = 2 (x + k i), by modified Lentz."""
    h = complex(-0.5 / x, 1.0)
    c, d = h, 0.0
    for k in range(1, _cf_max(x)):
        a = (k - 0.5) ** 2 - mu * mu
        if k == 1:
            a *= 1j / x
        b = complex(2.0 * x, 2.0 * k)
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NoConvergenceError(f"CF2 of J and Y at x = {x}")


def _steed_k(mu, x):
    """(e^x K_mu, e^x K_mu+1) at x >= 2 by Steed's method for K
    (Temme, J. Comput. Phys. 21 (1976); Numerical Recipes 6.7): the
    continued fraction for K_mu+1/K_mu and the series s with
    K_mu = sqrt(pi/(2x)) e^-x / s, summed together."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _cf_max(x)):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        ds = q * delh
        s += ds
        if abs(ds) < _EPS * abs(s):
            k = math.sqrt(math.pi / (2.0 * x)) / s
            return k, k * (mu + x + 0.5 - a1 * h) / x
    raise NoConvergenceError(f"CF2 of K at x = {x}")


def _bessel_jy(nu, x):
    """(J_nu, Y_nu, J_nu+1, Y_nu+1) at nu >= 0, x > 0.

    Temme's method (Numerical Recipes 6.7 ``bessjy``): J by Miller's
    recurrence down from its CF1 ratio at nu to an order mu, where
    Temme's series (x < 2, |mu| <= 1/2) or Steed's CF2 (x >= 2, mu
    below about x) gives Y_mu, Y_mu+1 and, by the Wronskian
    J_mu+1 Y_mu - J_mu Y_mu+1 = 2/(pi x) (DLMF 10.5.5), the scale of
    J; Y then climbs from mu to nu, the direction in which it is
    dominant.
    """
    n = int(nu + 0.5) if x < _TEMME_X else max(0, int(nu - x + 1.5))
    mu = nu - n
    j, j1, jm, jm1 = _miller(nu, x, n, 1.0)
    w = 2.0 / (math.pi * x)
    if x < _TEMME_X:
        y, y1 = _temme(mu, x, True)
        scale = w / (jm1 * y - jm * y1)
    else:
        pq = _steed_jy(mu, x)
        p, q = pq.real, pq.imag
        g = p - (mu / x - jm1 / jm)  # p - J_mu'/J_mu
        scale = math.copysign(math.sqrt(w * q / (g * g + q * q)), jm) / jm
        y = g / q * jm * scale
        y1 = (mu / x - p) * y - q * jm * scale
    for k in range(n):
        y, y1 = y1, 2.0 * (mu + k + 1) / x * y1 - y
    return j * scale, y, j1 * scale, y1


def _bessel_ik(nu, x):
    """(I_nu, K_nu, I_nu+1, K_nu+1) at nu >= 0, x > 0.

    As :func:`_bessel_jy` (Numerical Recipes 6.7 ``bessik``): I by
    Miller's recurrence from its CF1 ratio down to |mu| <= 1/2, K_mu and
    K_mu+1 by Temme's series (x < 2) or Steed's method (x >= 2), the
    scale of I by I_mu K_mu+1 + I_mu+1 K_mu = 1/x (DLMF 10.28.2), and K
    up by its recurrence.  At x >= 2 the work runs on e^-x I and e^x K;
    I is inf beyond x = 709.
    """
    n = int(nu + 0.5)
    mu = nu - n
    i, i1, im, im1 = _miller(nu, x, n, -1.0)
    if x < _TEMME_X:
        k, k1 = _temme(mu, x, False)
        grow = shrink = 1.0
    else:
        k, k1 = _steed_k(mu, x)
        grow = math.exp(x) if x <= _LOG_MAX else math.inf
        shrink = math.exp(-x)
    scale = 1.0 / (x * (im * k1 + im1 * k))
    for m in range(n):
        k, k1 = k1, 2.0 * (mu + m + 1) / x * k1 + k
    return (i * scale * grow, k * shrink, i1 * scale * grow, k1 * shrink)


def _sincospi(t):
    """(sin pi t, cos pi t), exact at the integers and half-integers."""
    n = round(t)
    f = t - n
    s, c = ((math.copysign(1.0, f), 0.0) if abs(f) == 0.5
            else (math.sin(math.pi * f), math.cos(math.pi * f)))
    return (-s, -c) if n % 2 else (s, c)


def cyl(kind: str, mu: float, x: float) -> EvalResult:
    """Cylinder function of the given kind at real order mu, x >= 0.

    kind is one of 'J', 'Y', 'I', 'K', 'H1', 'H2'; see :func:`_cyl`
    for the evaluation.  The estimate is 5e-15 of a size that bounds
    the value: for J at mu >= 0 the zero-free envelope :func:`env_j`,
    for the other oscillating kinds :func:`env_h` (both at |mu|, times
    1 + x/40 for the phase error that grows with x); for K and I the
    value itself, for I at mu < 0 the sum of its two terms.
    ASYMPTOTIC_REGIME marks x >= max(12, 2|mu|).  Y and K at x = 0, and
    J and I there at a negative non-integer order, raise DomainError; a
    value or estimate that leaves the double range (I beyond x = 709,
    Y and K at small x and large order) raises RangeError.
    """
    kind = kind.upper()
    if kind not in _CYL_KINDS:
        raise DomainError(f"unknown cylinder kind {kind!r}")
    _finite("mu", mu)
    if _finite("x", x) < 0:
        raise DomainError("cylinder functions take x >= 0")
    if x == 0:
        if kind not in ("J", "I") or (mu < 0 and mu != round(mu)):
            raise DomainError(f"{kind}_{mu} is singular at x = 0")
        v = scale = 1.0 if mu == 0 else 0.0
    else:
        v, scale = _cyl(kind, mu, x)
    v = complex(v)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)
            and math.isfinite(scale)):
        raise RangeError(f"cyl({kind}, {mu}, {x}) overflows the double "
                         "range")
    flags = frozenset({ASYMPTOTIC_REGIME}) if x >= max(12.0, 2.0 * abs(mu)) \
        else frozenset()
    return EvalResult(v, _CYL_REL * scale, 0, flags)


def _cyl(kind, mu, x):
    """(value, size for the estimate) of cyl at x > 0, unchecked: inf or
    nan where the value leaves the double range.

    One kernel call at |mu| (:func:`_bessel_jy`, :func:`_bessel_ik`);
    H1 and H2 are J +/- iY, and a negative order reflects (DLMF
    10.4.7-8 and 10.27.2-3).
    """
    nu = abs(mu)
    if kind in ("I", "K"):
        i, k, _, _ = _bessel_ik(nu, x)
        if kind == "K":
            return k, k
        extra = 2.0 / math.pi * _sincospi(nu)[0] * k if mu < 0 else 0.0
        return i + extra, i + abs(extra)
    j, y, j1, y1 = _bessel_jy(nu, x)
    scale = (math.hypot(j, j1) if kind == "J" and mu >= 0
             else _hankel_env(j, y, j1, y1, x))
    if mu < 0:
        s, c = _sincospi(nu)
        j, y = c * j - s * y, s * j + c * y
    v = {"J": j, "Y": y, "H1": complex(j, y), "H2": complex(j, -y)}[kind]
    return v, scale * (1.0 + _CYL_PHASE * x)


def _hankel_env(j, y, j1, y1, x):
    """sqrt(|H_mu|^2 + min(1, x^2) |H_mu+1|^2) from J and Y at mu, mu+1;
    |H_mu| alone where Y_mu+1 overflows (x << mu: H_mu has no zero near)."""
    if not math.isfinite(y1):
        return math.hypot(j, y)
    m = min(1.0, x)
    return math.hypot(j, y, m * j1, m * y1)


def env_j(mu: float, x: float) -> float:
    """Zero-free envelope sqrt(J_mu^2 + J_mu+1^2) at mu >= 0; vanishes
    only at x = 0 when mu > 0."""
    if _finite("x", x) < 0 or _finite("mu", mu) < 0:
        raise DomainError("env_j takes mu >= 0 and x >= 0")
    if x == 0:
        return 1.0 if mu == 0 else 0.0
    j, _, j1, _ = _bessel_jy(mu, x)
    return math.hypot(j, j1)


def env_h(kind: str, mu: float, x: float) -> float:
    """Zero-free Hankel envelope sqrt(|H|^2 + min(1, x^2) |H_next|^2) at
    mu >= 0; H1 and H2 share it."""
    kind = kind.upper()
    if kind not in ("H1", "H2"):
        raise DomainError("env_h kind must be 'H1' or 'H2'")
    if _finite("x", x) <= 0 or _finite("mu", mu) < 0:
        raise DomainError("env_h takes mu >= 0 and x > 0")
    return _hankel_env(*_bessel_jy(mu, x), x)


# ----------------------------------------------------------------------
# Orthogonal polynomials
# ----------------------------------------------------------------------

def _gegenbauer_terms(mu, x):
    """Yield C_l^mu(x), l = 0, 1, ..., by the three-term recurrence; at
    mu = 0, where C_l^0 = 0 for l >= 1, the Chebyshev
    T_l(x) = (l/2) lim C_l^mu(x)/mu instead.  The first value that is
    not finite is RangeError.

    A real mu (imaginary part 0) runs in float on mu.real, a complex one
    in complex.  Every value is the complex recurrence's, bit for bit:
    on operands whose imaginary parts are 0 and whose parts stay finite,
    CPython's complex +, -, * and / give exactly the float operation on
    the real parts (a zero part's sign aside), and the expressions are
    the same."""
    mu = _real(complex(mu))
    c_prev, c = 1.0, x if mu == 0 else 2.0 * mu * x
    yield c_prev
    for k in itertools.count(2):
        if not cmath.isfinite(c):
            raise RangeError("Gegenbauer recurrence leaves the double "
                             f"range at l = {k - 1}")
        yield c
        c_prev, c = c, (2.0 * x * c - c_prev if mu == 0 else
                        (2.0 * x * (k + mu - 1.0) * c
                         - (k + 2.0 * mu - 2.0) * c_prev) / k)


def chebyshev_t(n: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, T_n(cos psi) = cos(n psi)."""
    if _finite("n", n) < 0:
        raise DomainError("chebyshev_t requires n >= 0")
    _finite("x", x)
    return next(itertools.islice(_gegenbauer_terms(0, x), n, None))


def gegenbauer_c(n: int, mu, x):
    """Gegenbauer polynomial C_n^mu(x) by three-term recurrence.

    Exact (up to roundoff) for any n; identically zero for n >= 1 when
    mu = 0, matching the orthogonal-polynomial normalization.
    """
    if _finite("n", n) < 0:
        raise DomainError("gegenbauer_c requires n >= 0")
    mu = _finite("mu", complex(mu))
    _finite("x", x)
    if abs(mu.imag) == 0.0 and mu.real <= -0.5:
        raise DomainError("gegenbauer_c requires mu > -1/2")
    if mu == 0:
        return float(n == 0)
    out = next(itertools.islice(_gegenbauer_terms(mu, x), n, None))
    if out.imag == 0.0:
        return out.real
    return out
