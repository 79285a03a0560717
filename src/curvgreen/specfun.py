"""Foundation special functions with error estimates.

Provides the scalar kernels everything else is built on:

* complex gamma function (Lanczos rational approximation, reflection in
  the left half-plane) and pole-safe gamma ratios,
* Pochhammer symbols evaluated as exact products,
* the Gauss hypergeometric function 2F1 and its regularized variant,
  continued beyond the defining disk by the Pfaff z/(z-1) map and by
  the 1-z linear transformation, including the logarithmic cases when
  the parameter combination c-a-b is an integer,
* cylinder functions J, Y, I, K, H1, H2 (scipy backend) and the
  zero-free envelope functions used to normalize asymptotic errors,
* Chebyshev and Gegenbauer polynomials by three-term recurrence,
* the leading large-|imaginary-shift| gamma-ratio asymptotic.

All functions are pure; coefficient tables are immutable module
constants, so every operation is safe to call concurrently.

Fast path of the 2F1 engine.  Its results are bit-identical to the
term-by-term complex evaluation (value, error estimate, term count,
flags and every exception), and it changes no tolerance:

* When a, b, c and z are finite with zero imaginary parts, the defining
  series runs in float.  CPython's complex +, *, / and abs give, on
  operands whose imaginary parts are zero and whose parts stay finite,
  exactly the real part the float operation gives, and the imaginary
  parts stay zero.  If a float term or sum overflows, the complex loop
  runs instead, because its inf/nan parts propagate differently.
* The NEAR_POLE test |(c+n)(n+1)| < 1e-8 can hold only at the n nearest
  -Re c, so the series evaluates it there alone.
* The logarithmic 1-z case takes each block of digamma values from one
  scipy ufunc call on complex arguments, which applies the scalar
  routine element by element.
* Each parameter is checked against the poles once per call, and the
  snapped a and b are passed down to the series.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as _sp

from .errors import (DomainError, NoConvergenceError, ParamPoleError,
                     PoleError)
from .result import ASYMPTOTIC_REGIME, NEAR_POLE, EvalResult

_EPS = 2.220446049250313e-16
_SQRT_2PI = 2.5066282746310005024
_LOG_MAX = 709.0

# Lanczos coefficients, g = 607/128, n = 15 (Godfrey's table); relative
# accuracy ~ 1e-15 on the right half-plane.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_MAX_TERMS = 6000


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
    """Complex gamma, Lanczos core + reflection (internal, unchecked)."""
    z = complex(z)
    if z.real < 0.5:
        # reflection formula; sin factor handles the poles
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            return complex("inf")
        return cmath.pi / (s * _cgamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 15):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * cmath.exp(-t) * acc


def _lgamma(z) -> complex:
    """Principal log-gamma (scipy backend, complex-capable)."""
    return complex(_sp.loggamma(complex(z)))


def gamma(z) -> EvalResult:
    """Gamma function of a complex argument.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    """
    hit, n = _near_nonpos_int(z, tol=1e-13)
    if hit:
        raise PoleError(f"gamma pole at z = -{n}")
    v = _cgamma(z)
    flags = frozenset()
    hit, _ = _near_nonpos_int(z, tol=1e-6)
    if hit:
        flags = frozenset({NEAR_POLE})
    return EvalResult(v, 4e-15 * abs(v), 0, flags)


def gamma_ratio(p, q) -> complex:
    """Gamma(p)/Gamma(q) with the both-arguments-at-poles limit.

    When p -> -n and q -> -m along a common perturbation the ratio tends
    to (-1)^(n-m) m!/n!; that limit is returned when both arguments sit
    on nonpositive integers.  A pole in the numerator alone yields inf,
    in the denominator alone 0.
    """
    p_pole, n = _near_nonpos_int(p)
    q_pole, m = _near_nonpos_int(q)
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
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    acc = 1.0 + 0.0j
    z = complex(z)
    for k in range(n):
        acc *= z + k
    return acc


def gamma_ratio_asymptotic(a, b, tau: float, sign: int = +1) -> complex:
    """Leading term of Gamma(a +/- i tau)/Gamma(b +/- i tau) as tau -> inf.

    Equals exp(+/- i pi (a-b)/2) * tau**(a-b) with the power on its
    principal branch; the neglected correction is O(1/tau).
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    d = complex(a) - complex(b)
    return cmath.exp(sign * 1j * cmath.pi * d / 2.0) * tau ** d


# ----------------------------------------------------------------------
# Gauss hypergeometric engine
# ----------------------------------------------------------------------

def _series_2f1(a, b, c, z, max_terms=_MAX_TERMS):
    """Defining series, unregularized.

    Takes complex arguments.  The caller has snapped a and b onto the
    nonpositive integers within 1e-12 of them and ensures c is
    pole-free.  Real finite arguments run the loop in float (see the
    module docstring); if that loop overflows, the complex loop runs.
    """
    out = None
    if (not (a.imag or b.imag or c.imag or z.imag)
            and math.isfinite(a.real + b.real + c.real + z.real)):
        out = _series_loop(a.real, b.real, c.real, z.real, 1.0, max_terms)
        if not math.isfinite(out[1]):
            out = None  # complex inf/nan parts propagate differently
    if out is None:
        out = _series_loop(a, b, c, z, 1.0 + 0.0j, max_terms)
    total, total_abs, term, terms_used, near = out
    if not terms_used:
        raise NoConvergenceError("2F1 series did not settle within budget")
    err = 2.0 * _EPS * total_abs + abs(term)
    flags = {NEAR_POLE} if near else set()
    if total_abs > 1e8 * max(abs(total), 1e-300):
        flags.add(NEAR_POLE)  # severe cancellation across the sum
    return complex(total), err, terms_used, frozenset(flags)


def _series_loop(a, b, c, z, one, max_terms):
    """The loop of _series_2f1 in the arithmetic of ``one`` (float or
    complex): (total, sum of |terms|, last term, terms used or 0 if the
    budget ran out, whether a denominator fell below 1e-8)."""
    # |(c+n)(n+1)| < 1e-8 needs |c+n| < 1e-8, so only the n nearest -Re c
    # can set NEAR_POLE, and only if the loop reaches it
    n0 = float(round(-c.real)) if -0.5 < -c.real < max_terms else -1.0
    n_max = float(max_terms)  # float-float comparisons are the fast ones
    near = False
    term = total = one
    total_abs = 1.0
    small = 0
    n = 0.0
    while n < n_max:
        denom = (c + n) * (n + 1.0)
        if n == n0:
            near = abs(denom) < 1e-8
        term = term * (a + n) * (b + n) / denom * z
        if term == 0.0:
            break  # terminating polynomial: count nonzero terms only
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


def _lin_1mz_generic(a, b, c, z, depth):
    """DLMF 15.8.4 two-term connection, c-a-b not an integer."""
    s = c - a - b
    w = 1.0 - z
    c1 = _coeff((c, s), (c - a, c - b))
    c2 = _coeff((c, -s), (a, b))
    v1 = e1 = 0.0
    t1 = 0
    fl = set()
    if c1 != 0.0:
        v1, e1, t1, f1 = _hyp2f1_core(a, b, a + b - c + 1.0, w, depth + 1)
        fl |= set(f1)
    v2 = e2 = 0.0
    t2 = 0
    if c2 != 0.0:
        v2, e2, t2, f2 = _hyp2f1_core(c - a, c - b, s + 1.0, w, depth + 1)
        fl |= set(f2)
    pw = w ** s if w != 0 else (0.0 if s.real > 0 else complex("inf"))
    p1 = c1 * v1
    p2 = c2 * pw * v2
    total = p1 + p2
    scale = abs(p1) + abs(p2)
    err = abs(c1) * e1 + abs(c2 * pw) * e2 + 4.0 * _EPS * scale
    if scale > 1e6 * max(abs(total), 1e-300):
        fl.add(NEAR_POLE)
    return total, err, t1 + t2, frozenset(fl)


def _psi_brackets(logw, m, psi_a, psi_b):
    """Yield log w - psi(k+1) - psi(k+m+1) + psi(psi_a+k) + psi(psi_b+k)
    for k = 0, 1, ... below _MAX_TERMS.

    Each block of terms takes one digamma ufunc call on complex
    arguments.  The ufunc applies the scalar routine element by element
    and the bracket is summed in the same order, so every bracket is
    bitwise the one computed term by term.
    """
    k0, size = 0, 32
    while k0 < _MAX_TERMS:
        size = min(size, _MAX_TERMS - k0)
        k = np.arange(k0, k0 + size, dtype=float)
        # psi(k+1) and psi(k+m+1) are windows of one integer run
        ints = np.arange(k0 + 1, k0 + size + m + 1, dtype=complex)
        psi = _sp.digamma(np.concatenate((ints, psi_a + k, psi_b + k)))
        j = size + m
        yield from (logw - psi[:size] - psi[m:j] + psi[j:j + size]
                    + psi[j + size:]).tolist()
        k0 += size
        size *= 2


def _log_sum(a_s, b_s, m, w, psi_shift_a, psi_shift_b):
    """sum_k (a_s)_k (b_s)_k / (k! (k+m)!) w^k * bracket(k), where
    bracket = log w - psi(k+1) - psi(k+m+1) + psi(a_psi+k) + psi(b_psi+k).
    """
    coef = 1.0 / math.gamma(m + 1)
    total = 0.0 + 0.0j
    total_abs = 0.0
    small = 0
    brackets = _psi_brackets(cmath.log(w), m, psi_shift_a, psi_shift_b)
    for k, bracket in enumerate(brackets):
        term = coef * bracket
        mag = abs(term)
        total += term
        total_abs += mag
        if mag <= 1e-16 * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total, 2.0 * _EPS * total_abs + mag, k + 1
        else:
            small = 0
        coef = coef * (a_s + k) * (b_s + k) / ((k + 1.0) * (k + m + 1.0)) * w
    raise NoConvergenceError("2F1 logarithmic series did not converge")


def _lin_1mz_log(a, b, c, m, z, depth):
    """1-z connection when c-a-b = m is an integer (DLMF 15.8.10/15.8.12)."""
    w = 1.0 - z
    fl = set()
    if m >= 0:
        # c = a + b + m
        finite = 0.0 + 0.0j
        if m > 0:
            A = _coeff((m, c), (a + m, b + m))
            if A != 0.0:
                coef = 1.0 + 0.0j
                for k in range(m):
                    finite += coef
                    if k < m - 1:
                        coef = coef * (a + k) * (b + k) / ((k + 1.0) * (k - m + 1.0)) * w
                finite *= A
        B = _coeff((c,), (a, b))
        logsum = 0.0 + 0.0j
        lerr = 0.0
        lt = 0
        if B != 0.0:
            logsum, lerr, lt = _log_sum(a + m, b + m, m, w, a + m, b + m)
        sign = -1.0 if m % 2 else 1.0
        total = finite - sign * B * (w ** m) * logsum
        err = abs(B) * abs(w) ** m * lerr + 4.0 * _EPS * (abs(finite) + abs(B * logsum))
    else:
        mm = -m  # c = a + b - mm
        finite = 0.0 + 0.0j
        A = _coeff((mm, c), (a, b))
        if A != 0.0:
            coef = 1.0 + 0.0j
            for k in range(mm):
                finite += coef
                if k < mm - 1:
                    coef = coef * (a - mm + k) * (b - mm + k) / ((k + 1.0) * (k - mm + 1.0)) * w
            finite *= A * w ** (-mm)
        B = _coeff((c,), (a - mm, b - mm))
        logsum = 0.0 + 0.0j
        lerr = 0.0
        lt = 0
        if B != 0.0:
            logsum, lerr, lt = _log_sum(a, b, mm, w, a, b)
        sign = -1.0 if mm % 2 else 1.0
        total = finite - sign * B * logsum
        err = abs(B) * lerr + 4.0 * _EPS * (abs(finite) + abs(B * logsum))
    scale = abs(finite) + abs(total - finite)
    if scale > 1e6 * max(abs(total), 1e-300):
        fl.add(NEAR_POLE)
    return total, err, lt + abs(m), frozenset(fl)


def _hyp2f1_core(a, b, c, z, depth=0):
    """Route a 2F1 evaluation; returns (value, err, terms, flags)."""
    if depth > 6:
        raise NoConvergenceError("2F1 transformation recursion too deep")
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    hit, _ = _near_nonpos_int(c)
    if hit:
        raise ParamPoleError("2F1 parameter c is a nonpositive integer; "
                             "use regularized_2f1")
    return _hyp2f1_route(a, b, c, z, depth)


def _hyp2f1_route(a, b, c, z, depth):
    """_hyp2f1_core past its checks: complex arguments, c pole-free."""
    if z == 0:
        return 1.0 + 0.0j, 0.0, 1, frozenset()
    # terminating polynomial works for any argument
    ta, na = _near_nonpos_int(a, tol=1e-12)
    tb, nb = _near_nonpos_int(b, tol=1e-12)
    if ta or tb:
        return _series_2f1(complex(-na) if ta else a,
                           complex(-nb) if tb else b, c, z)
    if abs(z) <= 0.75:
        return _series_2f1(a, b, c, z)
    if z.real < 0.0:
        # Pfaff map into (0, 1)
        w = z / (z - 1.0)
        pre = (1.0 - z) ** (-a)
        v, e, t, f = _hyp2f1_core(a, c - b, c, w, depth + 1)
        return pre * v, abs(pre) * e + 2 * _EPS * abs(pre * v), t, f
    if z.real >= 1.0 and abs(z.imag) < 1e-14:
        raise NoConvergenceError("2F1 argument on the branch cut [1, inf)")
    s = c - a - b
    if abs(s.imag) < 1e-10 and abs(s.real - round(s.real)) < 1e-8:
        return _lin_1mz_log(a, b, c, round(s.real), z, depth)
    return _lin_1mz_generic(a, b, c, z, depth)


def gauss_2f1(a, b, c, z) -> EvalResult:
    """Gauss hypergeometric 2F1(a, b; c; z).

    The defining series is used for |z| <= 0.75; outside the disk the
    evaluation is continued with the Pfaff transformation (Re z < 0)
    or the 1-z connection formula, whose integer-c-a-b logarithmic
    cases are handled explicitly.

    Raises
    ------
    ParamPoleError
        c is a nonpositive integer (use :func:`regularized_2f1`).
    NoConvergenceError
        z lies on the branch cut [1, inf) or no route converged.
    """
    v, e, t, f = _hyp2f1_core(a, b, c, z)
    return EvalResult(v, e, t, f)


def regularized_2f1(a, b, c, z) -> EvalResult:
    """Regularized Gauss function 2F1(a, b; c; z)/Gamma(c).

    Entire in c; for c = -m the series starts at n = m + 1 (the first
    m + 1 terms are annihilated by 1/Gamma).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    hit, m = _near_nonpos_int(c)
    if hit:
        if z == 0:
            return EvalResult(0.0, 0.0, 1, frozenset())
        pref = (pochhammer(a, m + 1) * pochhammer(b, m + 1)
                / math.gamma(m + 2)) * z ** (m + 1)
        if pref == 0.0:
            return EvalResult(0.0, 0.0, 1, frozenset())
        v, e, t, f = _hyp2f1_route(a + m + 1.0, b + m + 1.0,
                                   complex(m + 2.0), z, 0)
        return EvalResult(pref * v, abs(pref) * e, t, f)
    # c is more than 1e-10 (so more than 1/Gamma's 1e-13) from a pole
    v, e, t, f = _hyp2f1_route(a, b, c, z, 0)
    if max(abs(c), abs(a), abs(b)) > 100.0:
        rg = cmath.exp(-_lgamma(c))
    else:
        rg = 1.0 / _cgamma(c)
    return EvalResult(v * rg, e * abs(rg), t, f)


# ----------------------------------------------------------------------
# Cylinder functions and envelopes
# ----------------------------------------------------------------------

_CYL_BACKEND = {
    "J": _sp.jv,
    "Y": _sp.yv,
    "I": _sp.iv,
    "K": _sp.kv,
    "H1": _sp.hankel1,
    "H2": _sp.hankel2,
}


def cyl(kind: str, mu: float, x: float) -> EvalResult:
    """Cylinder function of the given kind at real order mu, x >= 0.

    kind is one of 'J', 'Y', 'I', 'K', 'H1', 'H2'.  H1/H2 satisfy
    H1 = J + iY and H2 = J - iY by construction of the backend.
    """
    kind = kind.upper()
    if kind not in _CYL_BACKEND:
        raise DomainError(f"unknown cylinder kind {kind!r}")
    if x < 0:
        raise DomainError("cylinder functions take x >= 0")
    if x == 0 and kind not in ("J", "I"):
        raise DomainError(f"{kind} is singular at x = 0")
    v = _CYL_BACKEND[kind](mu, x)
    v = complex(v)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise DomainError(f"cyl({kind}, {mu}, {x}) is not finite")
    if kind in ("J", "Y", "H1", "H2") and x > 0:
        scale = env_j(abs(mu), x) if kind == "J" else env_h("H1", abs(mu), x)
    else:
        scale = abs(v)
    flags = frozenset({ASYMPTOTIC_REGIME}) if x >= max(12.0, 2.0 * abs(mu)) \
        else frozenset()
    return EvalResult(v, 5e-15 * scale, 0, flags)


def env_j(mu: float, x: float) -> float:
    """Zero-free envelope sqrt(J_mu^2 + J_{mu+1}^2); vanishes only at
    x = 0 when mu > 0."""
    if x < 0:
        raise DomainError("env_j takes x >= 0")
    j0 = _sp.jv(mu, x)
    j1 = _sp.jv(mu + 1.0, x)
    return math.hypot(j0, j1)


def env_h(kind: str, mu: float, x: float) -> float:
    """Zero-free Hankel envelope sqrt(|H|^2 + min(1, x^2) |H_next|^2)."""
    kind = kind.upper()
    if kind not in ("H1", "H2"):
        raise DomainError("env_h kind must be 'H1' or 'H2'")
    if x <= 0:
        raise DomainError("env_h takes x > 0")
    fn = _sp.hankel1 if kind == "H1" else _sp.hankel2
    h0 = fn(mu, x)
    h1 = fn(mu + 1.0, x)
    return math.sqrt(abs(h0) ** 2 + min(1.0, x * x) * abs(h1) ** 2)


# ----------------------------------------------------------------------
# Orthogonal polynomials
# ----------------------------------------------------------------------

def chebyshev_t(n: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, T_n(cos psi) = cos(n psi)."""
    if n < 0:
        raise DomainError("chebyshev_t requires n >= 0")
    if n == 0:
        return 1.0
    tm, t = 1.0, x
    for _ in range(n - 1):
        tm, t = t, 2.0 * x * t - tm
    return t


def gegenbauer_c(n: int, mu, x):
    """Gegenbauer polynomial C_n^mu(x) by three-term recurrence.

    Exact (up to roundoff) for any n; identically zero for n >= 1 when
    mu = 0, matching the orthogonal-polynomial normalization.
    """
    if n < 0:
        raise DomainError("gegenbauer_c requires n >= 0")
    mu = complex(mu)
    if abs(mu.imag) == 0.0 and mu.real <= -0.5:
        raise DomainError("gegenbauer_c requires mu > -1/2")
    if n == 0:
        out = 1.0 + 0.0j
    elif n == 1:
        out = 2.0 * mu * x
    else:
        cm, cc = 1.0 + 0.0j, 2.0 * mu * x
        for k in range(2, n + 1):
            cm, cc = cc, (2.0 * x * (k + mu - 1.0) * cc
                          - (k + 2.0 * mu - 2.0) * cm) / k
        out = cc
    if out.imag == 0.0:
        return out.real
    return out
