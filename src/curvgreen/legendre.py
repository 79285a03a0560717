"""Associated Legendre and Ferrers functions for general degree and order.

Evaluates, on the real intervals relevant to constant-curvature Green's
functions,

* ``P_nu^mu(z)``, ``Q_nu^mu(z)`` on z > 1 (Q carries the e^{i pi mu}
  phase of the classical second-kind function),
* Ferrers functions ``FP_nu^mu(x)``, ``FQ_nu^mu(x)`` on -1 < x < 1,
* the reflected first-kind function FP_nu^{-mu}(-x), which is FP at
  -mu and -x,
* the odd combination f_nu^mu(x) = FP_nu^mu(-x) - FP_nu^mu(x),
* orders +-1/2 by their elementary closed forms at every degree, and
  the other half-odd-integer orders lifted from them by the order
  recurrence (a path independent of the hypergeometric one),
* the Gegenbauer function of the first kind for non-integer degree,
* a kind's values at the orders +-(mu + l), l = 0, 1, ..., carried by
  the order recurrence from two direct values (``order_sequence``, the
  radial factors of the expansions), in float at a real degree and
  order with the bits of complex arithmetic, the direct values from a
  caller's table of one degree's evaluators (``evaluator``).

Degrees may be complex; the conical family nu = -1/2 + i tau is fully
supported.  ``LegendreP``, ``LegendreQ``, ``FerrersP`` and ``FerrersQ``
are the kinds at a fixed (nu, mu), called with the argument (the public
functions build one per call; P and Q also take the distance rho,
z = cosh rho, where the caller has it).  All four run one route ladder
over their kind's row of ``ROUTES``: the argument check; orders +-1/2
by their closed forms; Q's paired poles; FP at a conical degree and a
real order below 1 by its defining series of positive terms while its
predicted term count is within _FP_TERMS (``_fp_conical``); the row's
series while its loss estimate is at most _LOSS_MAX (for P, FP and FQ
about 2|nu + 1/2| sqrt(|w|) digits at series argument w, P counting
only Im nu), and for Q at any loss while |Im nu| < 12; else the row's
``large`` rung.  Q's series is one form at every rho, in w = e^{-2 rho}
(``_legendre_q_w``), summed by its defining series or the engine's
1 - w connection (``_q_sum``), whose loss passes _LOSS_MAX only where
neither holds digits: |tau| rho > 4 below rho = 0.003.  P past its
series is two Q's, at nu and -nu - 1 (``_p_from_q``, DLMF 14.9).  Q, FP
and FQ take ``_large_degree``: a half-odd order by its closed form, an
order below 0.35 by the row's backend at -mu, any other order by the
order connection ``_connect`` from -mu; the backends are, for Q, a
contour-rotated Laplace-type integral, and for FP and FQ
(``_ferrers_at_neg``) the degree recurrence (DLMF 14.10.3) from series
seeds at a real degree 0 <= nu <= _DEGREE_MAX and |mu| <= 1, else the
Mehler integral (FQ from two).  Every public function refuses a nan or
infinite number with DomainError and a value beyond the double range
with RangeError, never returning inf/nan.  The module keeps no state.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import count
from typing import Callable, NamedTuple

from . import quadrature
from .errors import (DomainError, NoConvergenceError, ParamPoleError,
                     RangeError, UndefinedError)
from .result import NEAR_POLE, RECURRENCE_UNSTABLE, EvalResult, merge_flags
from .specfun import (_EPS, _MAX_TERMS, Hyp2F1, _cgamma, _finite, _lgamma,
                      _lgamma_gap, _near_nonpos_int, _real, gamma_ratio)

_SQRT_PI = 1.7724538509055160273
# beyond this estimated digit-loss exponent (~5 digits) the series route
# is abandoned for an integral representation
_LOSS_MAX = 12.0
_QUAD_RTOL = 5e-13
# the most orders Miller's algorithm recurs beyond the last one it returns
_MILLER_MAX = 100000
# the highest degree the degree recurrence climbs to (about 0.1 s)
_DEGREE_MAX = 100000.0
# Q sums its series in w = e^{-2 rho} by the defining series from this
# rho on (rho_0); below, only where the 1 - w connection loses (_q_sum)
_RHO_MIN = 0.1
# the most terms (predicted) of the conical FP series, where it meets
# the cost of the Mehler integral
_FP_TERMS = 500.0


def _check_hyperbolic(z: float) -> float:
    z = _finite("z", float(z))
    if not z > 1.0:
        raise DomainError("argument must satisfy z > 1 (z = cosh r, r > 0)")
    return z


def _check_ferrers(x: float) -> float:
    x = _finite("x", float(x))
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


# ----------------------------------------------------------------------
# Integral representations (large-degree backends)
# ----------------------------------------------------------------------

def _mehler_p(nu, m, angle: float) -> EvalResult:
    """FP_nu^{-m}(cos angle) by the Mehler-Dirichlet integral (DLMF
    14.12), Re m > -1/2: the kernel cos((nu + 1/2) t), in real arithmetic
    as cosh(tau t) at a conical degree, integrated in the distance h from
    the singular endpoint, cos t - cos angle formed as
    2 sin(angle - h/2) sin(h/2), whose power m - 1/2 the quadrature's
    endpoint map takes (u = sqrt(h) at an integer m, where the integrand
    is analytic in u).  A real degree from m = 3/2 on takes
    h = u^(1/(m + 1/2)), which removes the power: there the integrand
    cancels to well below its size, and the analytic map stopped on
    rounding-level estimates farther off (ferrers_q(25.3, 2, 0.921)
    1.4e-10 against 4.5e-11).  The estimate adds the rule's weight
    defect and the rounding of the phase, eps (4 + |nu + 1/2| angle),
    as shares of the value.
    """
    nu = complex(nu)
    m = float(complex(m).real)
    kern = nu + 0.5
    if kern.imag == 0.0:
        a, cos = kern.real, math.cos
    elif kern.real == 0.0:
        a, cos = kern.imag, math.cosh
    else:
        a, cos = kern, cmath.cos
    pre = math.sqrt(2.0 / math.pi) * math.sin(angle) ** (-m) / _cgamma(m + 0.5)

    def f(h):
        base = 2.0 * math.sin(angle - 0.5 * h) * math.sin(0.5 * h)
        return cos(a * (angle - h)) * base ** (m - 0.5)

    p = 0.5 - m
    g, top, hint = f, angle, ("left_alg", p)
    if kern.imag == 0.0 and m >= 1.5:
        k = 1.0 / (1.0 - p)
        g, top, hint = (lambda u: f(u ** k) * k * u ** (k - 1.0),
                        angle ** (1.0 / k), None)
    q = quadrature.quad(g, 0.0, top, tol=1e-260, rel_tol=_QUAD_RTOL,
                        hint=hint, max_panels=60000).scaled(pre)
    share = quadrature.K15_DEFECT + _EPS * (4.0 + abs(kern) * angle)
    return EvalResult(q.value, q.abs_err_est + share * abs(q.value),
                      q.terms_used)


def _conical_legendre_q_integral(nu, mu, xi: float) -> EvalResult:
    """Q_nu^mu(cosh xi) for conical nu = -1/2 + iT, Re mu < 1/2.

    Laplace-type integral over [xi, inf); the oscillatory tail is
    rotated onto the ray t = xi + delta -/+ i s where the kernel decays
    like exp(-|T| s).  Valid while the rotated path stays shorter than
    pi (enforced by the |T| >= 12 routing threshold).  The endpoint
    piece behaves like h^-(mu + 1/2) near h = t - xi = 0 and is taken in
    h = u^k: k = 2 at an integer order, where it is analytic in u, else
    the least integer k that leaves a power of u of at least 5.
    """
    nu = complex(nu)
    mu = complex(mu)
    T = (nu + 0.5).imag
    aT = abs(T)
    if aT < 12.0:
        raise DomainError("rotated integral route requires |Im nu| >= 12")
    kern = nu + 0.5
    p = mu + 0.5
    delta = min(1.0, 6.0 / aT)

    def f(h):
        # the integrand at t = xi + h over e^{-kern xi}, with cosh t -
        # cosh xi formed without cancellation
        base = 2.0 * cmath.sinh(xi + 0.5 * h) * cmath.sinh(0.5 * h)
        return cmath.exp(-kern * h) * base ** (-p)

    # h^-p dh = k u^(k (1 - p) - 1) du, and an integer k keeps the rest
    # of f analytic in u
    k = 2 if mu.real == round(mu.real) else math.ceil(6.0 / (1.0 - p.real))
    q1 = quadrature.quad(lambda u: k * u ** (k - 1) * f(u ** k), 0.0,
                         delta ** (1.0 / k), tol=1e-260, rel_tol=_QUAD_RTOL,
                         max_panels=60000)
    # vertical ray into the decaying half-plane
    direction = -1j if T > 0 else 1j
    q2 = quadrature.quad(lambda s: f(delta + direction * s), 0.0,
                         min(39.0 / aT, 0.97 * math.pi), tol=1e-260,
                         rel_tol=_QUAD_RTOL, max_panels=60000)
    total = EvalResult(q1.value + direction * q2.value,
                       q1.abs_err_est + q2.abs_err_est,
                       q1.terms_used + q2.terms_used)
    return total.scaled(cmath.exp(-kern * xi + 1j * math.pi * mu)
                        * math.sqrt(math.pi / 2.0) * math.sinh(xi) ** mu
                        / _cgamma(0.5 - mu))


# ----------------------------------------------------------------------
# Hypergeometric (series) routes
# ----------------------------------------------------------------------

def _p_series(f, t: float) -> EvalResult:
    """P_nu^mu(t) or FP_nu^mu(t) (f's) by the defining series
    |(1 + t)/(1 - t)|^{mu/2} 2F1~(-nu, nu + 1; 1 - mu; (1 - t)/2), f.h
    that 2F1 (the P and FP rows' engine)."""
    return f.h.regularized((1.0 - t) / 2.0).scaled(
        abs((1.0 + t) / (1.0 - t)) ** f.half_mu)


def _fp_conical(f, x: float) -> EvalResult | None:
    """FP_nu^mu(x) at a conical degree nu = -1/2 + i tau and a real order
    mu < 1 (f's) by the defining series of ``_p_series`` at any loss and
    any s = (1 - x)/2 < 1, or None at any other (nu, mu) or past the
    term gate.  Its terms are all positive, as
    (-nu + n)(nu + 1 + n) = (n + 1/2)^2 + tau^2 and
    c + n = 1 - mu + n are, so it cannot cancel, and the engine runs it
    in float.  It takes about g = tau sqrt(s/(1 - s)) terms to pass its
    peak and 37/|log s| more to settle (e^-37 is 1e-16); past _FP_TERMS
    of them the Mehler integral (``_large_degree``) is cheaper.
    Estimate: the engine's, plus eps (4 + g) of the value for the
    rounding of s, which moves log FP by about g eps."""
    if f.nu.real != -0.5 or f.mu.imag or f.mu.real >= 1.0:
        return None
    s = (1.0 - x) / 2.0
    g = abs(f.nu.imag) * math.sqrt(s / (1.0 - s))
    if g - 37.0 / math.log(s) > _FP_TERMS:
        return None
    if f.h is None:
        f.h = f.row.engine(f.nu, f.mu)
    return f.h.regularized(s, True).scaled_rounded(
        ((1.0 + x) / (1.0 - x)) ** f.half_mu, _EPS * (4.0 + g))


def _q_engine(nu, mu) -> tuple:
    """The (nu, mu) parts of ``_legendre_q_w``, kept as f.h: the 2F1
    engine; log Gamma(nu + mu + 1) - log Gamma(nu + 3/2) as one Stirling
    difference (``_lgamma_gap``), at an anomalous degree (a pole of c,
    which the regularized engine absorbs) the first alone; that sum's
    size plus 4; the phase sqrt(pi) e^{i pi mu}."""
    h = Hyp2F1(nu + mu + 1.0, mu + 0.5, nu + 1.5)
    if h.c_pole[0]:
        lg = _lgamma(nu + mu + 1.0)
        size = abs(lg)
    else:
        lg, size = _lgamma_gap(nu + 1.5, mu - 0.5)
    return h, lg, size + 4.0, _SQRT_PI * cmath.exp(1j * math.pi * mu)


def _q_sum(f, rho: float) -> tuple:
    """(defining, loss): Q's series in w at rho by its defining series,
    which loses nothing, or by the engine's 1 - w connection, which
    loses about (12 |Re nu + 1/2| + 3 |Im nu|) rho (two sums about
    e^{2 nu rho} larger than Q, with rounded log-gamma coefficients,
    cancel; at a conical degree each sum cancels within itself).  The
    first serves from rho_0 on, and below where that loss passes
    _LOSS_MAX and its (25 + 5 mu)/(1 - w) terms or so, counted as 32 +
    5 mu, fit _MAX_TERMS; factors fitted on a grid below rho_0."""
    if rho >= _RHO_MIN:
        return True, 0.0
    loss = (12.0 * abs(f.nu.real + 0.5) + 3.0 * abs(f.nu.imag)) * rho
    if (loss > _LOSS_MAX and (32.0 + 5.0 * max(f.mu.real, 0.0))
            <= _MAX_TERMS * -math.expm1(-2.0 * rho)):
        return True, 0.0
    return False, loss


def _legendre_q_w(f, z: float, rho: float | None) -> EvalResult:
    """Q_nu^mu(cosh rho) by its series in w = e^{-2 rho} (DLMF 14.3.7
    under a quadratic transformation of DLMF 15.8),

        sqrt(pi) e^{i pi mu} Gamma(nu + mu + 1)/Gamma(nu + 3/2)
        (1 - w)^mu e^{-(nu + 1) rho} F(nu + mu + 1, mu + 1/2; nu + 3/2; w),

    rho = acosh z where the caller has only z, f.h from ``_q_engine``, F
    summed as ``_q_sum`` chooses (at a real nu >= 0 and mu > -1/2 every
    term is positive; at a conical nu none outgrows the sum).  nu rho
    enters exactly (``_two_product``) and the whole exponent takes one
    exponential, its difference exact too (``_two_sum``), so the
    prefactor stays in range wherever Q does, where e^{-nu rho} and the
    rest apart need not.  Estimate: the engine's times |prefactor|, plus
    eps times the rest of the exponent's size, plus 4, plus eps |nu| rho
    for a rounding of nu itself; off the defining series also
    eps (1 + 2 |mu|) w/(1 - w) for the rounded w that the connection
    forms 1 - w from, and eps g e^{2 |Re nu + 1/2| rho} for its
    coefficients, g = 2 a (log(a + 1) + 1) about their log-gammas' size,
    a = |nu + 1|."""
    if rho is None:
        rho = math.acosh(z)
    nu, mu = f.nu, f.mu
    h, lg, size, phase = f.h
    w = math.exp(-2.0 * rho)
    defining = _q_sum(f, rho)[0]
    s = h.regularized(w, defining) if h.c_pole[0] else h(w, defining)
    # e^{x - nu rho} as e^e (1 + r - d), p + d = nu rho and e + r = x - p
    # exactly
    x = lg + mu * math.log(-math.expm1(-2.0 * rho)) - rho
    p_re, d_re = _two_product(nu.real, rho)
    p_im, d_im = _two_product(nu.imag, rho)
    e_re, r_re = _two_sum(x.real, -p_re)
    e_im, r_im = _two_sum(x.imag, -p_im)
    pre = (phase * cmath.exp(complex(e_re, e_im))
           * complex(1.0 + r_re - d_re, r_im - d_im))
    share = _EPS * (size + abs(x) + abs(nu) * rho)
    if not defining:
        a = abs(nu + 1.0)
        share += _EPS * ((1.0 + 2.0 * abs(mu)) * w / (1.0 - w)
                         + 2.0 * a * (math.log(a + 1.0) + 1.0)
                         * math.exp(2.0 * abs(nu.real + 0.5) * rho))
    return s.scaled_rounded(pre, share)


def _two_product(a: float, b: float) -> tuple:
    """(a b rounded, the rest of the exact product) by Dekker's splitting
    (Veltkamp's split at 2^27 + 1); the rest is 0 where a split would
    leave the double range."""
    p = a * b
    if abs(a) >= 1e290 or abs(b) >= 1e290:
        return p, 0.0
    c = 134217729.0 * a
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: float, b: float) -> tuple:
    """(a + b rounded, the rest of the exact sum) by Knuth's TwoSum."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------

def _overflow(name, nu, mu) -> RangeError:
    return RangeError(f"{name}_nu^mu overflows the double range at "
                      f"nu = {complex(nu)}, mu = {complex(mu)}")


def _refuse_overflow(name):
    """The overflow check of the public functions that take
    ``([kind,] nu, mu, arg)`` (``_Prepared.__call__`` makes its own): an
    OverflowError, a RangeError from inside, or a non-finite value or
    estimate, becomes a RangeError that names the function (the kind
    argument where name is None)."""
    def wrap(fn):
        @functools.wraps(fn)
        def checked(*args):
            try:
                out = fn(*args)
                if (cmath.isfinite(out.value)
                        and math.isfinite(out.abs_err_est)):
                    return out
            except (OverflowError, RangeError):
                pass
            *kind, nu, mu, _ = args
            raise _overflow(name or kind[0], nu, mu)
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
    a signed zero.  Estimate: |G| (first + |sin(pi mu)| partner), plus
    G's own error: rounding nu +- mu + 1 to p moves log G by up to
    eps p psi(p) < eps p log(p + 1).
    """
    gr = gamma_ratio(nu + mu + 1.0, nu - mu + 1.0)
    p = abs(complex(nu)) + abs(complex(mu)) + 1.0
    g_err = _EPS * p * math.log(p + 1.0)

    def scaled(out, factor, size=None):
        # out times factor, a multiple of G, the estimate widened by G's
        # error on size (on |out| by default)
        size = abs(out.value) if size is None else size
        return EvalResult(out.value, out.abs_err_est + g_err * size,
                          out.terms_used, out.flags).scaled(factor)

    if kind == "Q":
        return scaled(at_neg("Q"), cmath.exp(2j * math.pi * mu) * gr)
    same = at_neg(kind)
    up = complex(mu).real > 0
    a = mu if up else -mu
    if kind == "P":
        c, s = None, cmath.sin(math.pi * a)
    else:
        c, s = math.cos(math.pi * a.real), math.sin(math.pi * a.real)
    if abs(s) < 1e-12:
        return scaled(same, gr if c is None else gr * c)
    other = at_neg({"P": "Q", "FP": "FQ", "FQ": "FP"}[kind])
    if kind == "P":
        t = (2.0 / math.pi) * cmath.exp(1j * math.pi * mu) * s * other.value
    else:
        t = (2.0 / math.pi if kind == "FP" else math.pi / 2.0) * s * other.value
    first = same.value if c is None else c * same.value
    return scaled(EvalResult(first + t if up != (kind == "FQ") else first - t,
                             same.abs_err_est + abs(s) * other.abs_err_est,
                             same.terms_used + other.terms_used,
                             merge_flags(same, other)),
                  gr, abs(first) + abs(t))


def _large_degree(f, arg: float, at_neg) -> EvalResult:
    """f's kind (Q, FP or FQ) past its series: a complex order is refused
    (DomainError), a half-odd order takes ``half_odd_eval``, an order
    below 0.35 is at_neg(kind, nu, -mu, arg), the row's backend, and any
    other is connected (``_connect``) from at_neg at -mu."""
    kind, nu, mu = f.kind, f.nu, f.mu
    if abs(mu.imag) > 1e-12:
        raise DomainError("large-degree route requires real order")
    if _halfodd_part(mu) is not None:
        return half_odd_eval(kind, nu, mu.real, arg)
    if mu.real < 0.35:
        return at_neg(kind, nu, -mu.real, arg)
    return _connect(kind, nu, mu, lambda k: at_neg(k, nu, mu.real, arg))


def _p_from_q(f, z: float, rho: float | None) -> EvalResult:
    """P_nu^mu(z) past its series (f's) from Q at nu and -nu - 1, the same
    mu and rho (where the caller has it), by DLMF 14.9's
    pi e^{i pi mu} cos(nu pi) P = sin((nu + mu) pi) Q_nu
    - sin((nu - mu) pi) Q_{-nu-1}, each ratio taken as (tan(nu pi)
    cos(mu pi) +- sin(mu pi)) e^{-i pi mu}/pi, finite at any |Im nu|.
    Estimate: the Q estimates times the ratios, plus eps times the two
    products for the rounding of the ratios and of the difference."""
    nu, mu = f.nu, f.mu
    t = cmath.tan(math.pi * nu) * cmath.cos(math.pi * mu)
    s, phase = cmath.sin(math.pi * mu), cmath.exp(-1j * math.pi * mu) / math.pi
    q1 = LegendreQ(nu, mu)(z, rho).scaled_rounded((t + s) * phase, _EPS)
    q2 = LegendreQ(-nu - 1.0, mu)(z, rho).scaled_rounded((t - s) * phase, _EPS)
    return EvalResult(q1.value - q2.value, q1.abs_err_est + q2.abs_err_est,
                      q1.terms_used + q2.terms_used, merge_flags(q1, q2))


def _fq_undefined(nu, order) -> bool:
    """True if FQ_nu^order is undefined: nu + order in -N at a degree
    that is not anomalous (nu + 3/2 in -N0)."""
    hit, _ = _near_nonpos_int(complex(nu) + complex(order) + 1.0)
    return hit and not _near_nonpos_int(complex(nu) + 1.5)[0]


def evaluator(table: dict, kind: str, nu, order):
    """kind's evaluator (``LegendreP``, ``LegendreQ``, ``FerrersP`` or
    ``FerrersQ``) at (nu, order) from table, built on first use.

    A table holds the evaluators of one degree nu, keyed by
    (kind, order); an expansion makes one and hands it to each of its
    order_sequence calls and to its reference value, so each evaluator,
    and the 2F1 engine it keeps, is built once per expansion.  A shared
    evaluator returns the bits of a new one (``_Prepared``)."""
    f = table.get((kind, order))
    if f is None:
        f = table[kind, order] = _PREPARED[kind](nu, order)
    return f


def order_sequence(kind: str, nu, mu, arg: float, lowered: bool = False,
                   miller: int = 0, table: dict | None = None):
    """Yield kind (P, Q, FP or FQ) at the orders mu + l, or -(mu + l)
    if lowered, for l = 0, 1, ...

    Every kind obeys one three-term recurrence in the order (DLMF
    14.10.1, 14.10.6; Q carries e^{i pi mu}, so it obeys P's):

        F^{k+2} = -2 (k + 1) c F^{k+1} + s (nu - k)(nu + k + 1) F^k,

    with (c, s) from ``_order_factor``.  Two values come from the kind's
    evaluator (``evaluator``, from table, a new one where table is
    None), the rest from the recurrence, which never divides:

    * raised: forward from l = 0, 1; at mu = 1/2 the value at 3/2 is
      -c F^{1/2} + s (nu + 1/2)^2 F^{-1/2} from the two closed forms
      (``half_odd_eval``), as a series value there would start the
      recurrence with its own error;
    * lowered: forward on the weighted values (nu + mu + 1)_l (mu - nu)_l
      F^{-(mu+l)}, m = mu + l, by
      h_{l+2} = s (2 (m + 1) c h_{l+1} - (nu + m + 1)(m - nu) h_l);
      for FQ, h_1 = s (2 mu c FQ^{-mu} - FQ^{1-mu}) is the same rule
      one order up, so where a zero weight meets a pole of FQ (nu - mu
      in N0) no value is drawn at or near that pole; every kind takes it
      at mu = 1/2, where both are closed forms (a series value at -3/2
      would start the dominant solution with its own error);
    * miller = n > 0 (lowered P or FP at z > 1 or x > 0, unweighted):
      the first n values of the solution minimal in the order, by
      Miller's backward algorithm (Gil, Segura & Temme 2007, ch. 4; the
      start index is _miller's), normalized by one direct value, at
      whichever of l = 0, 1 the run makes larger, since either may sit
      near a zero.

    At a real degree and order (imaginary parts 0) the recurrences run
    in float on nu.real and mu.real, and a direct value whose imaginary
    part is 0 enters as its real part; conical degrees, and Q's complex
    values, stay complex.  The orders handed to the evaluators are the
    complex ones.  On operands whose imaginary parts are 0 and whose
    parts stay finite, CPython's complex +, -, * and / give exactly the
    float operation on the real parts (a zero part's sign aside), and
    every expression keeps its order, so each finite value has the bits
    of the same recurrence in complex arithmetic; a series refuses the
    first value that is not (RangeError).

    Forward recurrence is the caller's choice where an error growing
    like the dominant solution is harmless, as in a pair series whose
    other factor is minimal.  A raised FQ or a lowered weighted FQ is
    undefined at some l only where it is at l = 0, which ferrers_q
    refuses.
    """
    c, s = _order_factor(kind, arg)
    cnu, cmu = complex(nu), complex(mu)
    table = {} if table is None else table

    def direct(l):
        order = -(cmu + l) if lowered else cmu + l
        return evaluator(table, kind, cnu, order)(arg).value

    nu, mu = (cnu, cmu) if cnu.imag or cmu.imag else (cnu.real, cmu.real)
    if miller:
        if not (lowered and kind in ("P", "FP")):
            raise DomainError("Miller's algorithm serves lowered P and FP")
        yield from _miller(direct, nu, mu, c, s, miller,
                           (arg - 1.0) / (arg + 1.0) if s > 0.0
                           else (1.0 - arg) / (1.0 + arg))
        return
    a = _real(direct(0))
    yield a
    if lowered and (kind == "FQ" or mu == 0.5):
        b = s * (2.0 * mu * c * a - _real(direct(-1)))
    elif mu == 0.5:  # raised: order 3/2 from the two closed forms
        b = _real(half_odd_eval(kind, cnu, 1.5, arg).value)
    else:
        b = _real(direct(1)) * ((nu + mu + 1.0) * (mu - nu) if lowered
                                else 1.0)
    yield b
    # with k = mu + l - 2 both forward rules read
    # h = sign 2 (k + 1) c h_{l-1} - s (nu + k + 1)(k - nu) h_{l-2}
    sign = s if lowered else -1.0
    for l in count(2):
        k = mu + l - 2.0
        a, b = b, (sign * 2.0 * (k + 1.0) * c * b
                   - s * (nu + k + 1.0) * (k - nu) * a)
        yield b


def _order_factor(kind: str, arg: float) -> tuple:
    """(c, s) of kind's order recurrence at arg: z/sqrt(z^2 - 1), taken as
    1 from z = 2^27 on (z^2 - 1 rounds to z^2, which overflows past
    1.3e154), and 1 on z > 1; x/sqrt(1 - x^2) and -1 on (-1, 1)."""
    if kind in ("P", "Q"):
        return (1.0 if arg >= 2.0 ** 27
                else arg / math.sqrt(arg * arg - 1.0)), 1.0
    return arg / math.sqrt(1.0 - arg * arg), -1.0


def _miller(direct, nu, mu, c, s, n: int, t2: float) -> list:
    """The first n values g_l of order_sequence's minimal lowered
    solution: g_l = 2 (m + 1) c g_{l+1} + s (nu + m + 2)(nu - m - 1)
    g_{l+2}, m = mu + l, down from g_N = 1, g_{N+1} = 0, rescaled above
    1e200, then normalized by one direct value, at whichever of l = 0, 1
    has the larger |g_l|.  The run is the minimal solution up to one
    scale, so that is the larger direct value as well (up to rounding at
    a near-tie, where neither sits near a zero), and the other is never
    evaluated.

    N is where the product from l = n of the per-order separations of
    the minimal from the dominant solution falls below e^-40.  A step
    separates them by the ratio |M c - w|/|M c + w| of the recurrence's
    characteristic roots to leading order in M = m + 1, with
    w^2 = M^2 (c^2 - s) + s (nu + 1/2)^2, but never by more than its
    limit t^2 = (z - 1)/(z + 1) or (1 - x)/(1 + x).  Below the turning
    point M ~ |nu + 1/2| sinh r (conical degrees on z > 1, real degrees
    on (-1, 1)) the roots have one modulus and nothing separates, which
    a start index from t^2 alone would miss.  More than _MILLER_MAX
    orders beyond n (t^2 within about 4e-4 of 1) is NoConvergenceError.

    nu and mu are floats at a real degree and order (order_sequence's
    float arithmetic, with the same bits while they stay finite), complex
    otherwise.  (nu + 1/2)^2 is the product h * h, h = nu + 1/2, with the
    bits of the complex square (CPython's complex h ** 2 is 1 * (h * h);
    a float h ** 2 can differ).  A float w^2 >= 0 takes math.sqrt, which
    is CPython's complex square root of a nonnegative real bit for bit;
    below the turning point, and at complex degrees, w keeps the complex
    root, whose imaginary part there leaves |M c - w| = |M c + w|.
    """
    ln_t2 = math.log(t2)
    top, decay = n, 0.0
    cs, sh = c * c - s, s * ((nu + 0.5) * (nu + 0.5))  # w^2's fixed parts
    while decay > -40.0:
        big = mu + top + 1.0
        w2 = big * big * cs + sh
        w = (math.sqrt(w2) if type(w2) is float and w2 >= 0.0
             else cmath.sqrt(w2))
        bc = big * c
        near, far = abs(bc - w), abs(bc + w)
        decay += max(math.log(min(near, far) / max(near, far)), ln_t2) \
            if near and far else ln_t2
        top += 1
        if top - n > _MILLER_MAX:
            raise NoConvergenceError(
                "order recurrence: the minimal solution does not separate "
                f"within {_MILLER_MAX} orders")
    # only the first n values are kept; above them two carry the run
    g, g1, g2 = [0.0] * n, 1.0, 0.0
    for l in range(top - 1, -1, -1):
        m = mu + l
        g0 = (2.0 * (m + 1.0) * c * g1
              + s * (nu + m + 2.0) * (nu - m - 1.0) * g2)
        if abs(g0) > 1e200:
            g0, g1 = g0 * 1e-200, g1 * 1e-200
            g[l + 1:] = [v * 1e-200 for v in g[l + 1:]]
        if l < n:
            g[l] = g0
        g1, g2 = g0, g1
    l = 1 if n > 1 and abs(g[1]) > abs(g[0]) else 0
    scale = _real(direct(l) / g[l])
    return [v * scale for v in g]


def _ferrers_q_reflection(nu, m, theta: float) -> EvalResult:
    """FQ_nu^{-m}(cos theta) from first-kind values at +/- cos theta."""
    nu = complex(nu)
    s = cmath.sin(math.pi * (nu - m))
    if abs(s) < 1e-8:
        raise NoConvergenceError(
            "reflection route degenerate: sin(pi(nu - mu)) ~ 0")
    c = cmath.cos(math.pi * (nu - m))
    p1 = _mehler_p(nu, m, theta)
    p2 = _mehler_p(nu, m, math.pi - theta)
    val = (c * p1.value - p2.value) * math.pi / (2.0 * s)
    err = (abs(c) * p1.abs_err_est + p2.abs_err_est) * math.pi / (2.0 * abs(s))
    return EvalResult(val, err, p1.terms_used + p2.terms_used,
                      merge_flags(p1, p2))


def _degree_recurrence(kind: str, nu: float, m: float,
                       x: float) -> EvalResult:
    """FP or FQ (kind) at order -m and real degree nu >= 2 by the forward
    degree recurrence (DLMF 14.10.3) with mu = -m,

        (nu - mu + 1) F_{nu+1} = (2 nu + 1) x F_nu - (nu + mu) F_{nu-1},

    from the series values y_0, y_1 at nu0 = nu - floor(nu) and nu0 + 1,
    or one degree higher where FQ is undefined at nu0 (nu0 = 0, m = 1).
    For |m| <= 1 both Ferrers solutions oscillate above a few degrees,
    so neither dominates the other.

    Estimate: each error, a seed's or a step's rounding, times its
    first-order effect l_i = dy_N/dy_i on the last value y_N, which the
    adjoint recurrence l_i = a_i l_{i+1} - b_{i+1} l_{i+2} (for
    y_{i+1} = a_i y_i - b_i y_{i-1}) runs backward from l_N = 1.  A
    seed's error includes its argument's: FP's series takes 1 - x and
    FQ's x^2, whose rounding moves x by dx <= eps (1 - x) or eps |x|
    alike in both seeds, so y_N by dx (l_0 y_0' + l_1 y_1'), the slopes
    from DLMF 14.10.4-5.  Near x = -1 at mu = 0, FP's log singularity,
    that term outweighs the rest.
    """
    prepared = _PREPARED[kind]
    start = nu - math.floor(nu)
    if _fq_undefined(start, -m):
        start += 1.0
    a, b = prepared(start, -m)(x), prepared(start + 1.0, -m)(x)
    f0, f1 = a.value.real, b.value.real
    # (1 - x^2) y_0' and (1 - x^2) y_1'
    s0 = (start + 1.0) * x * f0 - (start + m + 1.0) * f1
    s1 = (start + 1.0 - m) * f0 - (start + 1.0) * x * f1
    rounding = []
    n = start + 1.0
    for _ in range(round(nu - start) - 1):
        t1 = (2.0 * n + 1.0) * x * f1
        t2 = (n - m) * f0
        d = n + m + 1.0
        f0, f1 = f1, (t1 - t2) / d
        rounding.append((abs(t1) + abs(t2)) / d)
        n += 1.0
    # l_i from i = N (n is y_N's degree) down to l_1, then l_0
    err, lam, lam1 = 0.0, 1.0, 0.0
    for r in reversed(rounding):
        err += abs(lam) * r
        lam, lam1 = ((2.0 * n - 1.0) * x * lam / (n + m)
                     - (n - m) / (n + m + 1.0) * lam1), lam
        n -= 1.0
    lam0 = -(start + 1.0 - m) / (start + m + 2.0) * lam1
    dx = _EPS * (1.0 - x if kind == "FP" else abs(x)) / (1.0 - x * x)
    err = (2.0 * _EPS * err + abs(lam0) * a.abs_err_est
           + abs(lam) * b.abs_err_est + dx * abs(lam0 * s0 + lam * s1))
    return EvalResult(complex(f1), err,
                      a.terms_used + b.terms_used + len(rounding))


def _fq_series(fq, x: float) -> EvalResult:
    """FQ_nu^mu(x) by its two-2F1 definition, fq.h the two 2F1s.  nu + mu
    in -N is UndefinedError except at the anomalous degrees nu = -3/2,
    -5/2, ..., where the paired gamma poles take their ratio limit.
    Cancellation of more than six digits between the terms sets
    NEAR_POLE."""
    nu, mu = fq.nu, fq.mu
    spar = nu + mu
    x2 = x * x
    pre = (1.0 - x2) ** (-mu / 2.0)
    s_int = None
    if abs(spar.imag) < 1e-12 and abs(spar.real - round(spar.real)) < 1e-10:
        s_int = round(spar.real)

    def term(k, num, den, engine, trig):
        # sqrt(pi) 2^(mu-k) x^(1-k) Gamma(num)/Gamma(den) trig(pi s/2)
        # engine(x^2); at integer s = nu + mu, trig(pi s/2) is 0 if s - k
        # is odd, else (-1)^((s-k)//2), and a pole of Gamma(num) alone is
        # undefined
        if s_int is not None:
            if (s_int - k) % 2:
                return EvalResult(0.0)
            if _near_nonpos_int(num)[0] and not _near_nonpos_int(den)[0]:
                raise UndefinedError("FQ undefined: nu + mu in -N")
        coef = gamma_ratio(num, den)
        if coef == 0.0:
            return EvalResult(0.0)
        h = engine(x2)
        f = (trig((math.pi / 2.0) * spar) if s_int is None
             else float((-1) ** ((s_int - k) // 2)))
        w = _SQRT_PI * 2.0 ** (mu - k) * coef
        return h.scaled((w * x if k == 0 else w) * f)

    b1, b2 = (nu - mu + 2.0) / 2.0, (nu - mu + 1.0) / 2.0
    t1 = term(0, (spar + 2.0) / 2.0, b2, fq.h[0], cmath.cos)
    t2 = term(1, (spar + 1.0) / 2.0, b1, fq.h[1], cmath.sin)
    size = abs(t1.value) + abs(t2.value)
    out = EvalResult(t1.value - t2.value,
                     t1.abs_err_est + t2.abs_err_est + 4e-16 * size,
                     t1.terms_used + t2.terms_used, merge_flags(t1, t2))
    if size > 1e6 * max(abs(out.value), 1e-300):
        out = out.with_flags(NEAR_POLE)
    return out.scaled(pre)


def _ferrers_at_neg(kind: str, nu, m, x: float) -> EvalResult:
    """FP or FQ (kind) at order -m: the degree recurrence at a real degree
    0 <= nu <= _DEGREE_MAX and |m| <= 1, else the Mehler integral (FQ
    from two, by reflection)."""
    if nu.imag == 0.0 and 0.0 <= nu.real <= _DEGREE_MAX and abs(m) <= 1.0:
        return _degree_recurrence(kind, nu.real, m, x)
    if kind == "FP":
        return _mehler_p(nu, m, math.acos(x))
    return _ferrers_q_reflection(nu, m, math.acos(x))


def _q_pole(z: float):
    raise ParamPoleError("Q_nu^mu undefined: nu + mu in -N")


def _q_setup(nu, mu):
    """Q's pole route, or None.  At paired poles of the series,
    nu + 3/2 = -n and nu + mu + 1 = -k, the order n - k + 1/2 is
    half-odd and its closed form (``half_odd_eval``) is the limit in nu,
    or ParamPoleError where Q has a pole (k >= 2n + 2); other nu + mu in
    -N is ParamPoleError."""
    nm_pole, k = _near_nonpos_int(nu + mu + 1.0)
    anom, n = _near_nonpos_int(nu + 1.5)
    return (functools.partial(half_odd_eval, "Q", nu, n - k + 0.5) if anom
            else _q_pole) if nm_pole else None


class _Route(NamedTuple):
    """A kind's row of ROUTES, the parts the route ladder reads."""
    check: Callable   # arg -> the checked float argument, or DomainError
    loss: Callable    # (f, arg) -> the series' estimated digit loss
    engine: Callable  # (nu, mu) -> the series' 2F1 engine(s), kept as f.h
    series: Callable  # (f, arg, rho) -> the series value (rho: Q's)
    large: Callable   # (f, arg, rho) -> the value past the series
    setup: Callable = None  # None, or (nu, mu) -> pole route or None
    # None, or (f, arg) -> the kind's series of positive terms, or None
    # where it does not serve (f's (nu, mu), arg)
    positive: Callable = None


ROUTES = {
    "P": _Route(
        _check_hyperbolic,
        # only the oscillatory (conical) part of the degree causes series
        # cancellation for z > 1; real parts produce same-sign terms
        lambda f, z: 2.0 * abs(f.nu.imag) * math.sqrt((z - 1.0) / 2.0),
        lambda nu, mu: Hyp2F1(-nu, nu + 1.0, 1.0 - mu),
        lambda f, z, rho: _p_series(f, z),
        lambda f, z, rho: _p_from_q(f, z, rho)),
    "Q": _Route(
        _check_hyperbolic,
        # the contour takes over only at |Im nu| >= 12
        lambda f, z: (_q_sum(f, math.acosh(z))[1]
                      if abs(f.nu.imag) >= 12.0 else 0.0),
        _q_engine,
        _legendre_q_w,
        lambda f, z, rho: _large_degree(
            f, z, lambda k, nu, m, z: _conical_legendre_q_integral(
                nu, -m, math.acosh(z))),
        _q_setup),
    "FP": _Route(
        _check_ferrers,
        lambda f, x: f.loss_scale * math.sin(math.acos(x) / 2.0),
        lambda nu, mu: Hyp2F1(-nu, nu + 1.0, 1.0 - mu),
        lambda f, x, rho: _p_series(f, x),
        lambda f, x, rho: _large_degree(f, x, _ferrers_at_neg),
        None, _fp_conical),
    "FQ": _Route(
        _check_ferrers,
        lambda f, x: f.loss_scale * max(
            math.sin(t := math.acos(x) / 2.0), math.cos(t)),
        lambda nu, mu: (
            Hyp2F1((1.0 - nu - mu) / 2.0, (nu - mu + 2.0) / 2.0, 1.5),
            Hyp2F1((-nu - mu) / 2.0, (nu - mu + 1.0) / 2.0, 0.5)),
        lambda f, x, rho: _fq_series(f, x),
        lambda f, x, rho: _large_degree(f, x, _ferrers_at_neg)),
}


class _Prepared:
    """A kind, fixed with its row of ROUTES by each subclass, at a fixed
    (nu, mu): the constructor does the work that depends only on (nu, mu),
    a call runs the route ladder (module docstring) on the argument."""

    kind = row = h = pole = None
    half = False

    def __init__(self, nu, mu):
        self.nu, self.mu = nu, mu = (_finite("nu", complex(nu)),
                                     _finite("mu", complex(mu)))
        # the FP and FQ loss factor 2 |nu + 1/2| and the P and FP
        # series' power mu/2
        self.loss_scale, self.half_mu = 2.0 * abs(nu + 0.5), mu / 2.0
        if mu == 0.5 or mu == -0.5:
            self.half = True
        elif self.row.setup:
            self.pole = self.row.setup(nu, mu)

    def __call__(self, arg: float, rho: float | None = None) -> EvalResult:
        """The kind at arg; an OverflowError, a RangeError from inside, or
        a non-finite value or estimate, is a RangeError that names the
        kind.  rho, arg = cosh rho, where the caller has it, is read in
        place of arg by Q's series, and so by P past its own."""
        row = self.row
        try:
            arg = row.check(arg)
            if self.half:
                out = _half_order(self.kind, self.nu, self.mu, arg)
            elif self.pole is not None:
                out = self.pole(arg)
            # the positive series where it serves, else the rest
            elif not (row.positive and (out := row.positive(self, arg))):
                if row.loss(self, arg) <= _LOSS_MAX:
                    if self.h is None:
                        self.h = row.engine(self.nu, self.mu)
                    out = row.series(self, arg, rho)
                else:
                    out = row.large(self, arg, rho)
            if cmath.isfinite(out.value) and math.isfinite(out.abs_err_est):
                return out
        except (OverflowError, RangeError):
            pass
        raise _overflow(self.kind, self.nu, self.mu)


class LegendreP(_Prepared):
    """P_nu^mu at a fixed (nu, mu), called with z > 1."""
    kind, row = "P", ROUTES["P"]


class LegendreQ(_Prepared):
    """Q_nu^mu at a fixed (nu, mu), called with z > 1."""
    kind, row = "Q", ROUTES["Q"]


class FerrersP(_Prepared):
    """FP_nu^mu at a fixed (nu, mu), called with x in (-1, 1)."""
    kind, row = "FP", ROUTES["FP"]

    def odd(self, x: float) -> EvalResult:
        """The odd combination f_nu^mu(x) = FP_nu^mu(-x) - FP_nu^mu(x)
        (``odd_ferrers_f``)."""
        x = _check_ferrers(x)
        if x == 0.0:
            return EvalResult(0.0, 0.0, 0)
        a = self(-x)
        b = self(x)
        return EvalResult(a.value - b.value, a.abs_err_est + b.abs_err_est,
                          a.terms_used + b.terms_used, merge_flags(a, b))


class FerrersQ(_Prepared):
    """FQ_nu^mu at a fixed (nu, mu), called with x in (-1, 1)."""
    kind, row = "FQ", ROUTES["FQ"]


_PREPARED = {c.kind: c for c in (LegendreP, LegendreQ, FerrersP, FerrersQ)}


def legendre_p(nu, mu, z: float) -> EvalResult:
    """Legendre function of the first kind P_nu^mu(z), z > 1."""
    return LegendreP(nu, mu)(z)


def legendre_q(nu, mu, z: float) -> EvalResult:
    """Legendre function of the second kind Q_nu^mu(z), z > 1, with the
    e^{i pi mu} factor of the classical function."""
    return LegendreQ(nu, mu)(z)


def ferrers_p(nu, mu, x: float) -> EvalResult:
    """Ferrers function of the first kind FP_nu^mu(x), -1 < x < 1."""
    return FerrersP(nu, mu)(x)


def ferrers_q(nu, mu, x: float) -> EvalResult:
    """Ferrers function of the second kind FQ_nu^mu(x), -1 < x < 1."""
    return FerrersQ(nu, mu)(x)


def ferrers_p_reflected(nu, mu, x: float) -> EvalResult:
    """FP_nu^{-mu}(-x) for Re mu > 0: ``ferrers_p(nu, -mu, -x)``, whose
    series at -x is the (1 + x)/2 hypergeometric form, stable near
    x = -1 where the value vanishes like (1 - x^2)^{mu/2}."""
    if not complex(mu).real > 0:
        raise DomainError("ferrers_p_reflected requires Re mu > 0")
    return ferrers_p(nu, -mu, -x)


def odd_ferrers_f(nu, mu, x: float) -> EvalResult:
    """Odd Ferrers combination f_nu^mu(x) = FP_nu^mu(-x) - FP_nu^mu(x):
    ``FerrersP(nu, mu).odd(x)``."""
    return FerrersP(nu, mu).odd(x)


# ----------------------------------------------------------------------
# Half-odd-integer orders: elementary forms + order recurrence
# ----------------------------------------------------------------------

def _seed_halfodd(kind: str, nu, arg: float):
    """Closed forms: the value at order +1/2 and (nu + 1/2) times the
    value at order -1/2; then their relative error, their envelope and
    the angle.

    The order -1/2 forms carry a factor 1/(nu + 1/2); the upward
    recurrence takes them only through (nu + 1/2)^2 v_{-1/2}, so the
    product is formed without that division and stays finite at
    nu = -1/2.  Legendre seeds take z = cosh xi > 1, Ferrers seeds
    x = cos theta; the first kind is one form, with sinh/cosh in place
    of sin/cos, and sinh xi or sin theta is sqrt|1 - arg| sqrt(1 + arg):
    precise near x = -1 as sin(acos x) is not, and finite at any z.  Each
    form is an amplitude times a trigonometric (or hyperbolic, or
    exponential) function of the phase (nu + 1/2) angle, whose size the
    envelope bounds; rounding nu + 1/2, the angle and their product
    moves the phase by up to 1.5 eps |phase|, so the error is
    eps (4 + 2 |phase|) relative to the envelope.
    """
    hyperbolic = kind in ("P", "Q")
    angle = math.acosh(arg) if hyperbolic else math.acos(arg)
    root = math.sqrt(math.sqrt(abs(1.0 - arg)) * math.sqrt(1.0 + arg))
    amp = math.sqrt(2.0 / math.pi if kind in ("P", "FP")
                    else math.pi / 2.0) / root
    phase = (complex(nu) + 0.5) * angle
    if kind in ("P", "FP"):
        sin, cos = (cmath.sinh, cmath.cosh) if hyperbolic else \
            (cmath.sin, cmath.cos)
        plus, minus = amp * cos(phase), amp * sin(phase)
    elif kind == "Q":
        plus = 1j * amp * cmath.exp(-phase)
        minus = -plus
    else:
        plus, minus = -amp * cmath.sin(phase), amp * cmath.cos(phase)
    env = abs(plus) if kind == "Q" else \
        amp * math.cosh(phase.real if hyperbolic else phase.imag)
    return plus, minus, _EPS * (4.0 + 2.0 * abs(phase)), env, angle


def _half_order(kind: str, nu, mu, arg: float):
    """kind (P, Q, FP or FQ) at order mu = +-1/2 by its elementary closed
    form (DLMF 14.5.11-17), at any degree; None at any other order.  At
    -1/2, _seed_halfodd's product over nu + 1/2, whose pole at nu = -1/2
    Q and FQ refuse as legendre_q and ferrers_q refuse nu + mu in -N.  FQ at
    1/2 and P and FP at -1/2 are a sine of the phase p (over nu + 1/2):
    below |p| = 1e-8 they take sin p = p (within p^3/6; a subnormal p
    would round), and their envelope takes the factor min(1, |p|), as a
    sine keeps its relative precision as p tends to 0.  The estimate is
    _seed_halfodd's on the envelope, over |nu + 1/2| at -1/2.
    """
    if mu not in (0.5, -0.5):
        return None
    plus, minus, rel, env, angle = _seed_halfodd(kind, nu, arg)
    half = complex(nu) + 0.5
    size, p = abs(half), abs(half) * angle
    if mu == 0.5 and kind != "FQ":
        return EvalResult(plus, rel * env, 1)
    if mu == 0.5:
        return EvalResult(-env * angle * half if p < 1e-8 else plus,
                          rel * env * min(1.0, p), 1)
    if kind in ("Q", "FQ"):
        if not size:
            raise (ParamPoleError if kind == "Q" else UndefinedError)(
                f"{'Q_nu^mu' if kind == 'Q' else 'FQ'} undefined: "
                "nu + mu in -N")
        return EvalResult(minus / half, rel * env / size, 1)
    return EvalResult(complex(env * angle) if p < 1e-8 else minus / half,
                      rel * env * (angle if p <= 1.0 else 1.0 / size), 1)


@_refuse_overflow(None)
def half_odd_eval(kind: str, nu, mu: float, arg: float) -> EvalResult:
    """Evaluate P/Q/FP/FQ at half-odd-integer order mu = m + 1/2, m in Z.

    Orders +-1/2 are their elementary closed forms (``_half_order``);
    higher orders take the upward order recurrence from them, and orders
    below -1/2 come from the positive-order values through the
    order-reflection connection formulas.  This path never touches the
    hypergeometric engine, so it serves as an independent oracle for
    it.  Sets RECURRENCE_UNSTABLE if more than six digits were lost to
    cancellation during the lift.
    """
    kind = kind.upper().replace("FERRERS_", "F")
    if kind not in ROUTES:
        raise DomainError("kind must be P, Q, FERRERS_P or FERRERS_Q")
    nu = _finite("nu", complex(nu))
    m = _halfodd_part(_finite("mu", complex(mu)))
    if m is None:
        raise DomainError("half_odd_eval requires mu = m + 1/2, m integer")
    arg = ROUTES[kind].check(arg)
    mu = complex(mu).real

    if (half := _half_order(kind, nu, m + 0.5, arg)) is not None:
        return half
    if mu < 0:
        return _connect(kind, nu, mu,
                        lambda k: half_odd_eval(k, nu, -mu, arg))

    plus, minus, rel, env, _ = _seed_halfodd(kind, nu, arg)
    xfac, q_sign = _order_factor(kind, arg)
    # upward in order: v_{k+1/2} for k = -1/2, 1/2, ..., m + 1/2; the
    # first step's (nu - order)(nu + order + 1) v_{-1/2} is
    # (nu + 1/2) minus
    v_prev, v_cur = minus, plus
    worst = abs(v_cur)
    order = -0.5
    coef = nu + 0.5
    flags = set()
    for _ in range(m):
        t1 = -2.0 * (order + 1.0) * xfac * v_cur
        t2 = q_sign * coef * v_prev
        v_next = t1 + t2
        worst = max(worst, abs(t1), abs(t2))
        v_prev, v_cur = v_cur, v_next
        order += 1.0
        coef = (nu - order) * (nu + order + 1.0)
    if abs(v_cur) < 1e-6 * worst:
        flags.add(RECURRENCE_UNSTABLE)
    err = (1e-15 * (m + 1) + rel) * max(worst, env)
    return EvalResult(v_cur, err, m + 1, frozenset(flags))


@_refuse_overflow("C")
def gegenbauer_function(lam, mu, gamma_angle: float) -> EvalResult:
    """Gegenbauer function of the first kind C_lam^mu(cos gamma) for
    general complex degree, through its Ferrers representation."""
    lam, mu = _finite("lam", complex(lam)), _finite("mu", complex(mu))
    if not 0.0 < _finite("gamma_angle", gamma_angle) < math.pi:
        raise DomainError("gegenbauer_function takes gamma in (0, pi)")
    for g in (2.0 * mu + lam, lam + 1.0, mu):
        if not cmath.isfinite(g):
            raise OverflowError  # past the double range: RangeError
        hit, _ = _near_nonpos_int(g)
        if hit:
            raise ParamPoleError("gamma pole in Gegenbauer prefactor")
    sg = math.sin(gamma_angle)
    pre = (_SQRT_PI * gamma_ratio(2.0 * mu + lam, lam + 1.0)
           / (2.0 ** (mu - 0.5) * _cgamma(mu)) * sg ** (0.5 - mu))
    p = ferrers_p(mu + lam - 0.5, 0.5 - mu, math.cos(gamma_angle))
    return p.scaled(pre)
