"""Associated Legendre and Ferrers functions for general degree and order.

Evaluates, on the real intervals relevant to constant-curvature Green's
functions,

* ``P_nu^mu(z)``, ``Q_nu^mu(z)`` on z > 1 (Q carries the e^{i pi mu}
  phase of the classical second-kind function),
* Ferrers functions ``FP_nu^mu(x)``, ``FQ_nu^mu(x)`` on -1 < x < 1,
* the reflected first-kind function FP_nu^{-mu}(-x) through its
  numerically benign hypergeometric form,
* the odd combination f_nu^mu(x) = FP_nu^mu(-x) - FP_nu^mu(x),
* elementary closed forms for half-odd-integer orders lifted by the
  order recurrence (an evaluation path independent of the
  hypergeometric one),
* the Gegenbauer function of the first kind for non-integer degree.

Degrees may be complex; the conical family nu = -1/2 + i tau is fully
supported.  Hypergeometric series lose roughly 2|nu + 1/2| sqrt(|w|)
digits of precision at large degree (w the series argument), so above a
fixed loss threshold evaluation switches to the Mehler-Dirichlet
integral (first kind; one kernel for Legendre and Ferrers, with
sinh/cosh in place of sin/cos), a contour-rotated Laplace-type integral
(second kind, conical, |order| < 1/2), or the order connection
``_connect`` (DLMF 14.9), one routine that takes every kind from order
-mu to mu on top of those building blocks and of the half-odd forms.
The first-kind series is likewise one routine for both families.  A
value beyond the double range is refused with RangeError by every
public function, never returned as inf/nan.
All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import functools
import math

from . import quadrature
from .errors import (DomainError, NoConvergenceError, ParamPoleError,
                     RangeError, UndefinedError)
from .result import (NEAR_POLE, RECURRENCE_UNSTABLE, SLOW_CONVERGENCE,
                     EvalResult, merge_flags)
from .specfun import (_cgamma, _lgamma, _near_nonpos_int, gamma_ratio,
                      gauss_2f1, regularized_2f1)

_SQRT_PI = 1.7724538509055160273
# beyond this estimated digit-loss exponent (~5 digits) the series route
# is abandoned for an integral representation
_LOSS_MAX = 12.0
_QUAD_RTOL = 5e-13


def _check_hyperbolic(z: float) -> float:
    z = float(z)
    if not z > 1.0:
        raise DomainError("argument must satisfy z > 1 (z = cosh r, r > 0)")
    return z


def _check_ferrers(x: float) -> float:
    x = float(x)
    if not -1.0 < x < 1.0:
        raise DomainError("argument must lie in the open interval (-1, 1)")
    return x


def _halfodd_part(mu) -> int | None:
    """Return m with mu = m + 1/2 (m any integer) if mu is half-odd."""
    mu = complex(mu)
    if abs(mu.imag) > 1e-12:
        return None
    m = round(mu.real - 0.5)
    if abs(mu.real - (m + 0.5)) < 1e-12:
        return m
    return None


def _slow(out: EvalResult, floor: float) -> EvalResult:
    """out flagged SLOW_CONVERGENCE, its estimate raised to at least floor."""
    return EvalResult(out.value, max(out.abs_err_est, floor), out.terms_used,
                      out.flags | {SLOW_CONVERGENCE})


def _degree_loss(nu, sqrt_w: float) -> float:
    """Estimated exponent of peak-to-sum growth in the defining series."""
    return 2.0 * abs(complex(nu) + 0.5) * sqrt_w


# ----------------------------------------------------------------------
# Integral representations (large-degree backends)
# ----------------------------------------------------------------------

def _mehler_p(nu, m, angle: float, hyperbolic: bool) -> EvalResult:
    """FP_nu^{-m}(cos angle), or P_nu^{-m}(cosh angle) if hyperbolic, by
    the Mehler-Dirichlet integral (DLMF 14.12), Re m > -1/2.

    One integral on both geometries: sin/cos on the sphere, sinh/cosh
    on the hyperboloid, where the kernel cosh((nu + 1/2) t) oscillates
    for conical degrees and grows for real ones, matching the I/J
    character of the function.  Integrates in the distance h from the
    singular endpoint so that cos t - cos angle can be formed as
    2 sin(angle - h/2) sin(h/2).
    """
    nu = complex(nu)
    m = float(complex(m).real)
    sin, cos = (math.sinh, cmath.cosh) if hyperbolic else (math.sin, cmath.cos)
    kern = nu + 0.5

    def f(h):
        base = 2.0 * sin(angle - 0.5 * h) * sin(0.5 * h)
        return cos(kern * (angle - h)) * base ** (m - 0.5)

    q = quadrature.quad(f, 0.0, angle, tol=1e-260, rel_tol=_QUAD_RTOL,
                        hint=("left_alg", 0.5 - m), max_panels=60000)
    return q.scaled(math.sqrt(2.0 / math.pi) * sin(angle) ** (-m)
                    / _cgamma(m + 0.5))


def _conical_legendre_q_integral(nu, mu, xi: float) -> EvalResult:
    """Q_nu^mu(cosh xi) for conical nu = -1/2 + iT, Re mu < 1/2.

    Laplace-type integral over [xi, inf); the oscillatory tail is
    rotated onto the ray t = xi + delta -/+ i s where the kernel decays
    like exp(-|T| s).  Valid while the rotated path stays shorter than
    pi (enforced by the |T| >= 12 routing threshold).
    """
    nu = complex(nu)
    mu = complex(mu)
    T = (nu + 0.5).imag
    aT = abs(T)
    if aT < 12.0:
        raise DomainError("rotated integral route requires |Im nu| >= 12")
    chx = math.cosh(xi)
    p = mu + 0.5
    delta = min(1.0, 6.0 / aT)

    def f_end(h):
        base = 2.0 * math.sinh(xi + 0.5 * h) * math.sinh(0.5 * h)
        return cmath.exp(-(nu + 0.5) * (xi + h)) * base ** (-p)

    q1 = quadrature.quad(f_end, 0.0, delta, tol=1e-260,
                         rel_tol=_QUAD_RTOL, hint=("left_alg", p.real),
                         max_panels=60000)
    # vertical ray into the decaying half-plane
    direction = -1j if T > 0 else 1j
    t0 = xi + delta
    s_max = min(39.0 / aT, 0.97 * math.pi)

    def f_ray(s):
        t = t0 + direction * s
        return cmath.exp(-(nu + 0.5) * t) * (cmath.cosh(t) - chx) ** (-p)

    q2 = quadrature.quad(f_ray, 0.0, s_max, tol=1e-260, rel_tol=_QUAD_RTOL,
                         max_panels=60000)
    total = EvalResult(q1.value + direction * q2.value,
                       q1.abs_err_est + q2.abs_err_est,
                       q1.terms_used + q2.terms_used)
    return total.scaled(cmath.exp(1j * math.pi * mu) * math.sqrt(math.pi / 2.0)
                        * math.sinh(xi) ** mu / _cgamma(0.5 - mu))


# ----------------------------------------------------------------------
# Hypergeometric (series) routes
# ----------------------------------------------------------------------

def _p_series(nu, mu, t: float, ratio: float) -> EvalResult:
    """P_nu^mu(t) or FP_nu^mu(t) by the defining series
    ratio^{mu/2} 2F1~(-nu, nu + 1; 1 - mu; (1 - t)/2), with ratio
    (t + 1)/(t - 1) for Legendre and (1 + t)/(1 - t) for Ferrers."""
    pre = ratio ** (complex(mu) / 2.0)
    h = regularized_2f1(-nu, complex(nu) + 1.0, 1.0 - complex(mu),
                        (1.0 - t) / 2.0)
    return h.scaled(pre)


def _legendre_q_series(nu, mu, z: float) -> EvalResult:
    """Paper-convention Q via the 1/z^2 hypergeometric representation."""
    nu = complex(nu)
    mu = complex(mu)
    a = (nu + mu + 1.0) / 2.0
    b = (nu + mu + 2.0) / 2.0
    c = nu + 1.5
    w = 1.0 / (z * z)
    top_pole, _ = _near_nonpos_int(nu + mu + 1.0)
    if top_pole:
        raise ParamPoleError("Q_nu^mu pole: nu + mu is a negative integer")
    c_pole, _ = _near_nonpos_int(c)
    if c_pole:
        # anomalous degree: regularized engine absorbs the Gamma(c) pole
        h = regularized_2f1(a, b, c, w)
        pre = (_SQRT_PI * cmath.exp(1j * math.pi * mu)
               * (z * z - 1.0) ** (mu / 2.0) * _cgamma(nu + mu + 1.0)
               * 2.0 ** (-(nu + 1.0)) * z ** (-(nu + mu + 1.0)))
    else:
        h = gauss_2f1(a, b, c, w)
        # log-space prefactor keeps large real degrees inside double range
        lg = (_lgamma(nu + mu + 1.0) - _lgamma(c)
              - (nu + 1.0) * math.log(2.0) - (nu + mu + 1.0) * math.log(z))
        pre = (_SQRT_PI * cmath.exp(1j * math.pi * mu)
               * (z * z - 1.0) ** (mu / 2.0) * cmath.exp(lg))
    return h.scaled(pre)


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------

def _refuse_overflow(name):
    """The overflow check shared by the public functions, which take
    ``([kind,] nu, mu, arg)``: an OverflowError, or a non-finite value
    or estimate, becomes a RangeError that names the function (the kind
    argument names it where name is None)."""
    def wrap(fn):
        @functools.wraps(fn)
        def checked(*args):
            try:
                out = fn(*args)
                if (cmath.isfinite(out.value)
                        and math.isfinite(out.abs_err_est)):
                    return out
            except OverflowError:
                pass
            *kind, nu, mu, _ = args
            raise RangeError(f"{name or kind[0]}_nu^mu overflows the double "
                             f"range at nu = {complex(nu)}, "
                             f"mu = {complex(mu)}")
        return checked
    return wrap


def _connect(kind: str, nu, mu, at_neg) -> EvalResult:
    """kind (P, Q, FP or FQ) at order mu from at_neg(kind), its value at
    -mu (DLMF 14.9); with G = Gamma(nu + mu + 1)/Gamma(nu - mu + 1),
      P^mu = G [P^{-mu} + (2/pi) e^{i pi mu} sin(pi mu) Q^{-mu}],
      Q^mu = G e^{2 pi i mu} Q^{-mu},
      FP^mu = G [cos(pi mu) FP^{-mu} + (2/pi) sin(pi mu) FQ^{-mu}],
      FQ^mu = G [cos(pi mu) FQ^{-mu} - (pi/2) sin(pi mu) FP^{-mu}].
    G comes first, so a gamma pole is refused before any evaluation; at
    sin(pi mu) = 0 the partner term is not evaluated.  The partner term
    takes sin(pi |mu|) and the sign of mu, so no complex product negates
    a signed zero.  Estimate: |G| (first + |sin(pi mu)| partner).
    """
    gr = gamma_ratio(nu + mu + 1.0, nu - mu + 1.0)
    if kind == "Q":
        return at_neg("Q").scaled(cmath.exp(2j * math.pi * mu) * gr)
    same = at_neg(kind)
    up = complex(mu).real > 0
    a = mu if up else -mu
    if kind == "P":
        c, s = None, cmath.sin(math.pi * a)
    else:
        c, s = math.cos(math.pi * a.real), math.sin(math.pi * a.real)
    if abs(s) < 1e-12:
        return same.scaled(gr if c is None else gr * c)
    other = at_neg({"P": "Q", "FP": "FQ", "FQ": "FP"}[kind])
    if kind == "P":
        t = (2.0 / math.pi) * cmath.exp(1j * math.pi * mu) * s * other.value
    else:
        t = (2.0 / math.pi if kind == "FP" else math.pi / 2.0) * s * other.value
    first = same.value if c is None else c * same.value
    return EvalResult(first + t if up != (kind == "FQ") else first - t,
                      same.abs_err_est + abs(s) * other.abs_err_est,
                      same.terms_used + other.terms_used,
                      merge_flags(same, other)).scaled(gr)


@_refuse_overflow("P")
def legendre_p(nu, mu, z: float) -> EvalResult:
    """Associated Legendre function of the first kind P_nu^mu(z), z > 1.

    Integer orders are routed through the regularized hypergeometric
    function, so removable 1/Gamma(1-mu) singularities never appear.
    Large degrees switch to the cosine-kernel integral representation
    (negative/small orders) or to the connection formula built on it.
    """
    z = _check_hyperbolic(z)
    nu, mu = complex(nu), complex(mu)
    # only the oscillatory (conical) part of the degree causes series
    # cancellation for z > 1; real parts produce same-sign terms
    loss = 2.0 * abs(nu.imag) * math.sqrt((z - 1.0) / 2.0)
    if loss <= _LOSS_MAX:
        return _p_series(nu, mu, z, (z + 1.0) / (z - 1.0))
    xi = math.acosh(z)
    if abs(mu.imag) > 1e-12:
        out = _p_series(nu, mu, z, (z + 1.0) / (z - 1.0))
        return _slow(out, abs(out.value))
    if mu.real < 0.35:
        return _mehler_p(nu, -mu.real, xi, True)
    if _halfodd_part(mu) is not None:
        return half_odd_eval("P", nu, mu.real, z)
    return _connect("P", nu, mu, lambda kind: (
        _mehler_p(nu, mu.real, xi, True) if kind == "P"
        else legendre_q(nu, -mu, z)))


@_refuse_overflow("Q")
def legendre_q(nu, mu, z: float) -> EvalResult:
    """Associated Legendre function of the second kind Q_nu^mu(z), z > 1.

    Uses the 1/z^2 hypergeometric representation; arguments close to 1
    are continued through the 1-z connection inside the hypergeometric
    engine.  Carries the e^{i pi mu} factor of the classical function.
    Conical degrees with strong series cancellation are evaluated by a
    contour-rotated Laplace integral (|order| < 1/2) or half-odd-order
    closed forms.
    """
    z = _check_hyperbolic(z)
    nu, mu = complex(nu), complex(mu)
    nm_pole, _ = _near_nonpos_int(nu + mu + 1.0)
    anom, _ = _near_nonpos_int(nu + 1.5)
    if nm_pole:
        if not anom:
            raise ParamPoleError("Q_nu^mu undefined: nu + mu in -N")
        # anomalous degree: paired poles, resolved by degree perturbation
        d = 1e-6
        qp = _legendre_q_series(nu + d, mu, z)
        qm = _legendre_q_series(nu - d, mu, z)
        val = 0.5 * (qp.value + qm.value)
        err = qp.abs_err_est + qm.abs_err_est + abs(qp.value - qm.value)
        return EvalResult(val, err, qp.terms_used + qm.terms_used,
                          merge_flags(qp, qm) | {NEAR_POLE})
    loss = abs((nu + 0.5).imag) * 2.0 * math.atanh(1.0 / z)
    if loss <= _LOSS_MAX or abs((nu + 0.5).imag) < 12.0:
        out = _legendre_q_series(nu, mu, z)
        if loss > _LOSS_MAX:
            out = _slow(out, 10.0 ** (loss / math.log(10.0) - 16.0)
                        * abs(out.value))
        return out
    if _halfodd_part(mu) is not None:
        return half_odd_eval("Q", nu, mu.real, z)
    xi = math.acosh(z)
    if abs(mu.imag) < 1e-12 and mu.real < 0.35:
        # rotated-contour integral; valid for any order below 1/2
        return _conical_legendre_q_integral(nu, mu.real, xi)
    # no cancellation-free route for large-order strongly conical Q;
    # report the series value with an honest error estimate
    out = _legendre_q_series(nu, mu, z)
    return _slow(out, abs(out.value))


@_refuse_overflow("FP")
def ferrers_p(nu, mu, x: float) -> EvalResult:
    """Ferrers function of the first kind FP_nu^mu(x), -1 < x < 1."""
    x = _check_ferrers(x)
    nu, mu = complex(nu), complex(mu)
    theta = math.acos(x)
    loss = _degree_loss(nu, math.sin(theta / 2.0))
    if loss <= _LOSS_MAX:
        return _p_series(nu, mu, x, (1.0 + x) / (1.0 - x))
    if abs(mu.imag) > 1e-12:
        raise DomainError("large-degree route requires real order")
    if mu.real < 0.35:
        return _mehler_p(nu, -mu.real, theta, False)
    if _halfodd_part(mu) is not None:
        return half_odd_eval("FP", nu, mu.real, x)
    return _connect("FP", nu, mu, _ferrers_at_neg(nu, mu.real, theta))


def _ferrers_q_reflection(nu, m, theta: float) -> EvalResult:
    """FQ_nu^{-m}(cos theta) from first-kind values at +/- cos theta."""
    nu = complex(nu)
    s = cmath.sin(math.pi * (nu - m))
    if abs(s) < 1e-8:
        raise NoConvergenceError(
            "reflection route degenerate: sin(pi(nu - mu)) ~ 0")
    c = cmath.cos(math.pi * (nu - m))
    p1 = _mehler_p(nu, m, theta, False)
    p2 = _mehler_p(nu, m, math.pi - theta, False)
    val = (c * p1.value - p2.value) * math.pi / (2.0 * s)
    err = (abs(c) * p1.abs_err_est + p2.abs_err_est) * math.pi / (2.0 * abs(s))
    return EvalResult(val, err, p1.terms_used + p2.terms_used,
                      merge_flags(p1, p2))


def _ferrers_at_neg(nu, m, theta: float):
    """_connect's at_neg on the sphere: FP or FQ at order -m."""
    return lambda kind: (_mehler_p(nu, m, theta, False) if kind == "FP"
                         else _ferrers_q_reflection(nu, m, theta))


@_refuse_overflow("FQ")
def ferrers_q(nu, mu, x: float) -> EvalResult:
    """Ferrers function of the second kind FQ_nu^mu(x), -1 < x < 1.

    Evaluated from its two-hypergeometric-term definition.  Parameter
    combinations nu + mu in -N raise UndefinedError except for the
    anomalous degrees nu = -3/2, -5/2, ..., where the paired gamma
    poles are resolved by their exact ratio limit.  Cancellation
    between the two terms beyond six digits sets the NEAR_POLE flag.
    """
    x = _check_ferrers(x)
    nu, mu = complex(nu), complex(mu)
    theta = math.acos(x)
    loss = _degree_loss(nu, max(math.sin(theta / 2.0), math.cos(theta / 2.0)))
    if loss > _LOSS_MAX:
        if abs(mu.imag) > 1e-12:
            raise DomainError("large-degree route requires real order")
        if _halfodd_part(mu) is not None:
            return half_odd_eval("FQ", nu, mu.real, x)
        if mu.real < 0.35:
            return _ferrers_q_reflection(nu, -mu.real, theta)
        return _connect("FQ", nu, mu, _ferrers_at_neg(nu, mu.real, theta))

    spar = nu + mu
    x2 = x * x
    pre = (1.0 - x2) ** (-mu / 2.0)
    s_int = None
    if abs(spar.imag) < 1e-12 and abs(spar.real - round(spar.real)) < 1e-10:
        s_int = round(spar.real)

    def term(k, num, den, a, b, c, trig):
        # sqrt(pi) 2^(mu-k) x^(1-k) Gamma(num)/Gamma(den) trig(pi s/2)
        # 2F1(a, b; c; x^2); at integer s = nu + mu, trig(pi s/2) is 0 if
        # s - k is odd, else (-1)^((s-k)//2), and a pole of Gamma(num)
        # alone is undefined
        if s_int is not None:
            if (s_int - k) % 2:
                return EvalResult(0.0)
            hit, _ = _near_nonpos_int(num)
            dhit, _ = _near_nonpos_int(den)
            if hit and not dhit:
                raise UndefinedError("FQ undefined: nu + mu in -N")
        coef = gamma_ratio(num, den)
        if coef == 0.0:
            return EvalResult(0.0)
        h = gauss_2f1(a, b, c, x2)
        f = (trig((math.pi / 2.0) * spar) if s_int is None
             else float((-1) ** ((s_int - k) // 2)))
        w = _SQRT_PI * 2.0 ** (mu - k) * coef
        return h.scaled((w * x if k == 0 else w) * f)

    b1, b2 = (nu - mu + 2.0) / 2.0, (nu - mu + 1.0) / 2.0
    t1 = term(0, (spar + 2.0) / 2.0, b2, (1.0 - nu - mu) / 2.0, b1, 1.5,
              cmath.cos)
    t2 = term(1, (spar + 1.0) / 2.0, b1, (-nu - mu) / 2.0, b2, 0.5,
              cmath.sin)
    size = abs(t1.value) + abs(t2.value)
    out = EvalResult(t1.value - t2.value,
                     t1.abs_err_est + t2.abs_err_est + 4e-16 * size,
                     t1.terms_used + t2.terms_used, merge_flags(t1, t2))
    if size > 1e6 * max(abs(out.value), 1e-300):
        out = out.with_flags(NEAR_POLE)
    return out.scaled(pre)


@_refuse_overflow("reflected FP")
def ferrers_p_reflected(nu, mu, x: float) -> EvalResult:
    """FP_nu^{-mu}(-x) for Re mu > 0 via the (1+x)/2 hypergeometric form.

    Stable where the reflection connection would subtract two O(1)
    terms, i.e. near x = -1 where the value itself vanishes like
    (1 - x^2)^{mu/2}.
    """
    x = _check_ferrers(x)
    nu, mu = complex(nu), complex(mu)
    if not mu.real > 0:
        raise DomainError("ferrers_p_reflected requires Re mu > 0")
    theta = math.acos(x)
    loss = _degree_loss(nu, math.cos(theta / 2.0))
    if loss > _LOSS_MAX:
        if abs(mu.imag) > 1e-12:
            raise DomainError("large-degree route requires real order")
        return _mehler_p(nu, mu.real, math.pi - theta, False)
    pre = ((1.0 + x) / (1.0 - x)) ** (mu / 2.0)
    h = regularized_2f1(-nu, nu + 1.0, 1.0 + mu, (1.0 + x) / 2.0)
    return h.scaled(pre)


def odd_ferrers_f(nu, mu, x: float) -> EvalResult:
    """Odd Ferrers combination f_nu^mu(x) = FP_nu^mu(-x) - FP_nu^mu(x)."""
    x = _check_ferrers(x)
    if x == 0.0:
        return EvalResult(0.0, 0.0, 0)
    a = ferrers_p(nu, mu, -x)
    b = ferrers_p(nu, mu, x)
    return EvalResult(a.value - b.value, a.abs_err_est + b.abs_err_est,
                      a.terms_used + b.terms_used, merge_flags(a, b))


# ----------------------------------------------------------------------
# Half-odd-integer orders: elementary forms + order recurrence
# ----------------------------------------------------------------------

def _seed_halfodd(kind: str, nu, arg: float):
    """Closed forms at orders +1/2 and -1/2.

    Legendre seeds take z = cosh xi > 1, Ferrers seeds x = cos theta;
    the first kind is one form, with sinh/cosh in place of sin/cos.
    """
    nu = complex(nu)
    half = nu + 0.5
    hyperbolic = kind in ("P", "Q")
    angle = math.acosh(arg) if hyperbolic else math.acos(arg)
    sa = math.sinh(angle) if hyperbolic else math.sin(angle)
    if kind in ("P", "FP"):
        sin, cos = (cmath.sinh, cmath.cosh) if hyperbolic else \
            (cmath.sin, cmath.cos)
        plus = math.sqrt(2.0 / (math.pi * sa)) * cos(half * angle)
        minus = math.sqrt(2.0 / (math.pi * sa)) * sin(half * angle) / half
    elif kind == "Q":
        e = cmath.exp(-half * angle)
        plus = 1j * math.sqrt(math.pi / (2.0 * sa)) * e
        minus = -1j * math.sqrt(math.pi / (2.0 * sa)) * e / half
    else:
        plus = -math.sqrt(math.pi / (2.0 * sa)) * cmath.sin(half * angle)
        minus = math.sqrt(math.pi / (2.0 * sa)) * cmath.cos(half * angle) / half
    return plus, minus


@_refuse_overflow(None)
def half_odd_eval(kind: str, nu, mu: float, arg: float) -> EvalResult:
    """Evaluate P/Q/FP/FQ at half-odd-integer order mu = m + 1/2, m in Z.

    Upward order recurrence from the exact +/-1/2 elementary seeds;
    negative orders come from the positive-order values through the
    order-reflection connection formulas.  This path never touches the
    hypergeometric engine, so it serves as an independent oracle for
    it.  Sets RECURRENCE_UNSTABLE if more than six digits were lost to
    cancellation during the lift.
    """
    kind = kind.upper().replace("FERRERS_", "F")
    if kind not in ("P", "Q", "FP", "FQ"):
        raise DomainError("kind must be P, Q, FERRERS_P or FERRERS_Q")
    m = _halfodd_part(mu)
    if m is None:
        raise DomainError("half_odd_eval requires mu = m + 1/2, m integer")
    if kind in ("P", "Q"):
        arg = _check_hyperbolic(arg)
        xfac = arg / math.sqrt(arg * arg - 1.0)
        q_sign = +1.0  # Legendre recurrence: P^{mu+2} = -2(mu+1)x' P^{mu+1} + (nu-mu)(nu+mu+1) P^mu
    else:
        arg = _check_ferrers(arg)
        xfac = arg / math.sqrt(1.0 - arg * arg)
        q_sign = -1.0  # Ferrers recurrence has the opposite last sign
    nu = complex(nu)

    if mu < 0:
        return _connect(kind, nu, mu,
                        lambda k: half_odd_eval(k, nu, -mu, arg))

    plus, minus = _seed_halfodd(kind, nu, arg)
    if m == 0:
        return EvalResult(plus, 8e-16 * abs(plus), 1)
    # upward in order: v_{k+1/2} for k = -1/2, 1/2, ..., m + 1/2
    v_prev, v_cur = minus, plus
    worst = abs(v_cur)
    order = -0.5
    flags = set()
    for _ in range(m):
        t1 = -2.0 * (order + 1.0) * xfac * v_cur
        t2 = q_sign * (nu - order) * (nu + order + 1.0) * v_prev
        v_next = t1 + t2
        worst = max(worst, abs(t1), abs(t2))
        v_prev, v_cur = v_cur, v_next
        order += 1.0
    if abs(v_cur) < 1e-6 * worst:
        flags.add(RECURRENCE_UNSTABLE)
    err = 1e-15 * worst * (m + 1)
    return EvalResult(v_cur, err, m + 1, frozenset(flags))


@_refuse_overflow("C")
def gegenbauer_function(lam, mu, gamma_angle: float) -> EvalResult:
    """Gegenbauer function of the first kind C_lam^mu(cos gamma) for
    general complex degree, through its Ferrers representation."""
    if not 0.0 < gamma_angle < math.pi:
        raise DomainError("gegenbauer_function takes gamma in (0, pi)")
    lam, mu = complex(lam), complex(mu)
    for g in (2.0 * mu + lam, lam + 1.0, mu):
        hit, _ = _near_nonpos_int(g)
        if hit:
            raise ParamPoleError("gamma pole in Gegenbauer prefactor")
    sg = math.sin(gamma_angle)
    pre = (_SQRT_PI * gamma_ratio(2.0 * mu + lam, lam + 1.0)
           / (2.0 ** (mu - 0.5) * _cgamma(mu)) * sg ** (0.5 - mu))
    p = ferrers_p(mu + lam - 0.5, 0.5 - mu, math.cos(gamma_angle))
    return p.scaled(pre)
