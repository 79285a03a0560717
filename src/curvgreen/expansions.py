"""Addition theorems and series expansions of the Green's functions.

Every series here is one sum, evaluated by one engine:

    const + prefactor * sum_{l < l_max} radial(l) w_l^mu(cos gamma).

* The angular basis is w_l^mu(x) = Gamma(mu) (l + mu) C_l^mu(x).  Its
  mu -> 0 limit is eps_l T_l(x) (DLMF 18.7), so the Chebyshev forms of
  the addition theorems and the d = 2 Fourier series are the mu = 0
  rows of the same sums, not separate bodies.
* The radial factor is a Legendre/Ferrers pair: P^{-(mu+l)} (or
  FP^{-(mu+l)}) at the smaller radius times a combination of functions
  at the larger one.  An unreflected function there carries (-1)^l and
  a reflected argument -x does not.  A lowered pair, whose larger-radius
  order is -(mu+l), also carries the Pochhammer weight
  (nu + mu + 1)_l (mu - nu)_l.  The flat-space Gegenbauer-Bessel
  expansion uses Bessel pairs in the same place.
* The prefactor and the reference value come from the kind's row.

The kinds are rows over that engine: the associated Legendre addition
theorems (P, Q) on cosh rho, the six Ferrers addition theorems on
cos Theta, the degree-equals-order and hyperbolic closed-form
corollaries, the Gegenbauer (d >= 3) and azimuthal Fourier (d = 2)
expansions of every Green's-function variant, and the Euclidean
comparison.  The only bespoke radial term is the elementary one of
log cot(Theta/2).  The basis and the Pochhammer weight are carried
along l by their recurrences and products.  The hypersphere rows check
the convergence-domain predicate tan(th</2) tan(th>/2) < 1 and report
its geometric tail-rate estimate.

Every series is reported through a SeriesReport holding the truncated
value, the directly evaluated closed-form reference and their relative
difference, so the comparison is honest: the composite argument is
always recomputed from the two-point formula, never passed in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import count

import scipy.special as _sp

from .errors import (DomainError, DomainViolationError, UndefinedError,
                     WrongCaseError)
from .geometry import composite_hyperbolic, composite_spherical
from .greens import (A_PLUS, FRAK_MINUS, H_MINUS, H_PLUS, MINUS, PLUS,
                     S_PLUS, SF_MINUS, WaveParams, euclidean_green,
                     green_value)
from .legendre import ferrers_p, ferrers_q, legendre_p, legendre_q
from .result import NONCONVERGENT
from .specfun import _cgamma, _near_nonpos_int

_TRUNC_REL = 1e-15
_TRUNC_RUN = 3
# the loosest accuracy the acceptance gate asks of a series
_CUT_REL = 1e-6


@dataclass(frozen=True)
class TwoPointConfig:
    """Radial pair plus separation angle of a two-point configuration.

    ``r1``/``r2`` are the radial coordinates (r, r' on the hyperboloid
    or in flat space, theta, theta' on the hypersphere) and ``gamma``
    the separation angle on the common S^{d-1}.
    """

    r1: float
    r2: float
    gamma: float

    @property
    def lt(self) -> float:
        return min(self.r1, self.r2)

    @property
    def gt(self) -> float:
        return max(self.r1, self.r2)

    @property
    def distinct(self) -> bool:
        return self.r1 != self.r2

    @property
    def cos_gamma(self) -> float:
        return math.cos(self.gamma)

    def rho_hyperbolic(self) -> float:
        return composite_hyperbolic(self.r1, self.r2, self.cos_gamma)

    def theta_spherical(self) -> float:
        return composite_spherical(self.r1, self.r2, self.cos_gamma)

    def euclidean_distance(self) -> float:
        return math.sqrt(max(self.r1 ** 2 + self.r2 ** 2
                             - 2.0 * self.r1 * self.r2 * self.cos_gamma,
                             0.0))


@dataclass(frozen=True)
class SeriesReport:
    """Truncated-series outcome with its convergence bookkeeping."""

    value: complex
    terms: int
    last_term_mag: float
    est_ratio: float
    domain_ok: bool
    reference_value: complex | None = None
    rel_err: float | None = None
    flags: frozenset = frozenset()


def convergence_domain(theta_lt: float, theta_gt: float,
                       needs_distinct: bool):
    """Predict convergence of the spherical addition theorems.

    Returns (domain_ok, est_ratio): the domain requires
    tan(th</2) tan(th>/2) < 1 and, for most kinds, th< != th>; the
    estimated geometric tail ratio is the larger of tan tan and
    (when distinctness is required) tan cot.
    """
    if not (0.0 < theta_lt < math.pi and 0.0 < theta_gt < math.pi):
        raise DomainError("angles must lie in (0, pi)")
    t_lt = math.tan(0.5 * theta_lt)
    t_gt = math.tan(0.5 * theta_gt)
    ratio = t_lt * t_gt
    # open condition with a one-ulp guard so the symbolic boundary
    # theta = theta' = pi/2 is rejected despite rounding below 1
    ok = ratio < 1.0 - 1e-12
    if needs_distinct:
        ratio = max(ratio, t_lt / t_gt)
        ok = ok and theta_lt != theta_gt
    return ok, ratio


# ----------------------------------------------------------------------
# The series engine
# ----------------------------------------------------------------------

def _basis(mu, x):
    """Yield w_l(x) = Gamma(mu) (l + mu) C_l^mu(x) for l = 0, 1, ...

    At mu = 0 this is the limit eps_l T_l(x).  C_l^mu and T_l are
    carried by the three-term recurrences of gegenbauer_c and
    chebyshev_t, and they reproduce those functions exactly.
    """
    if mu == 0:
        t_prev, t = 1.0, x
        yield 1.0
        while True:
            yield 2.0 * t
            t_prev, t = t, 2.0 * x * t - t_prev
    g, mu = _cgamma(mu), complex(mu)
    c_prev, c = 1.0 + 0.0j, 2.0 * mu * x
    yield g * mu
    for k in count(2):
        yield g * (k - 1 + mu) * c
        c_prev, c = c, (2.0 * x * (k + mu - 1.0) * c
                        - (k + 2.0 * mu - 2.0) * c_prev) / k


def _poch_undefined_check(nu, order) -> bool:
    """True if FQ_nu^{order} hits an undefined parameter combination."""
    s = complex(nu) + complex(order)
    hit, n = _near_nonpos_int(s + 1.0)
    if not hit:
        return False
    anom, _ = _near_nonpos_int(complex(nu) + 1.5)
    return not anom


def _at(fn, nu, x, lowered: bool):
    """The order function m -> fn(nu, -m or m, x).value of one side of a
    pair; a Ferrers Q refuses an undefined order before evaluating."""
    def value(m):
        order = -m if lowered else m
        if fn is ferrers_q and _poch_undefined_check(nu, order):
            raise UndefinedError("FQ undefined at an interior series order")
        return fn(nu, order, x).value
    return value


def _pairs(mu, small, parts, nu=None):
    """Yield the radial factors of a pair series for l = 0, 1, ...

    With m = mu + l the factor is small(m) times the sum of
    c * s**l * large(m) over ``parts`` = ((large, c, s), ...).  A
    lowered pair (``nu`` given) also carries the Pochhammer weight
    (nu + mu + 1)_l (mu - nu)_l.  A zero weight does not skip the
    pair: an FQ at such an order is a 0 * infinity limit and refuses.
    """
    weight = 1.0 + 0.0j
    for l in count():
        m = mu + l
        big = sum(c * s ** l * large(m) for large, c, s in parts)
        yield weight * big * small(m)
        if nu is not None:
            weight *= (nu + mu + 1.0 + l) * (mu - nu + l)


def _series(pre, mu, x, radial, n_max: int, reference, est_ratio,
            const=0.0) -> SeriesReport:
    """const + pre * sum of radial(l) w_l^mu(x) over at most n_max terms.

    The sum stops after _TRUNC_RUN consecutive terms below _TRUNC_REL of
    the running total.  The tail diagnostics go into the report;
    NONCONVERGENT marks a tail whose last terms do not decrease, or a
    sum cut off at n_max with its last term above _CUT_REL of the total.
    """
    if n_max < 1:
        raise DomainError(f"a series needs at least one term, got {n_max}")
    total = 0.0 + 0.0j
    mags = []
    small = 0
    for _, r, w in zip(range(n_max), radial, _basis(mu, x)):
        t = complex(r * w)
        total += t
        mags.append(abs(t))
        if abs(t) <= _TRUNC_REL * max(abs(total), 1e-300):
            small += 1
            if small >= _TRUNC_RUN:
                break
        else:
            small = 0
    flags = set()
    if len(mags) >= 5 and all(mags[-i] >= mags[-i - 1] * (1.0 - 1e-12)
                              for i in range(1, 5)) and mags[-1] > 0:
        flags.add(NONCONVERGENT)
    if small < _TRUNC_RUN and mags[-1] > _CUT_REL * abs(total):
        flags.add(NONCONVERGENT)
    value = const + pre * total
    rel = None
    if reference is not None:
        rel = abs(value - reference) / max(abs(reference), 1e-300)
    return SeriesReport(value, len(mags), abs(pre) * mags[-1],
                        float(est_ratio), True, reference, rel,
                        frozenset(flags))


def _hyperbolic(c, nu, mu, cfg: TwoPointConfig, large, reference,
                n_max: int) -> SeriesReport:
    """c (sinh r< sinh r>)^-mu times the pair series over
    P_nu^{-(mu+l)}(cosh r<) large_nu^{mu+l}(cosh r>) (-1)^l."""
    r_lt, r_gt = cfg.lt, cfg.gt
    pre = c / (math.sinh(r_lt) * math.sinh(r_gt)) ** mu
    radial = _pairs(mu, _at(legendre_p, nu, math.cosh(r_lt), True),
                    [(_at(large, nu, math.cosh(r_gt), False), 1.0, -1.0)])
    ratio = math.tanh(0.5 * r_lt) / math.tanh(0.5 * r_gt)
    return _series(pre, mu, cfg.cos_gamma, radial, n_max, reference, ratio)


def _spherical(c, nu, mu, cfg: TwoPointConfig, parts, reference, ratio,
               n_max: int, lowered: bool = False,
               const=0.0) -> SeriesReport:
    """c (sin th< sin th>)^-mu times the pair series over
    FP_nu^{-(mu+l)}(cos th<) and, for each (fn, reflected, coef) of
    ``parts``, coef fn_nu^{+-(mu+l)}(+-cos th>) with (-1)^l when not
    reflected; ``lowered`` takes the order -(mu+l) and the weight."""
    x_gt = math.cos(cfg.gt)
    pre = c / (math.sin(cfg.lt) * math.sin(cfg.gt)) ** mu
    large = [(_at(fn, nu, -x_gt if reflected else x_gt, lowered), coef,
              1.0 if reflected else -1.0) for fn, reflected, coef in parts]
    radial = _pairs(mu, _at(ferrers_p, nu, math.cos(cfg.lt), True), large,
                    nu if lowered else None)
    return _series(pre, mu, cfg.cos_gamma, radial, n_max, reference, ratio,
                   const)


# ----------------------------------------------------------------------
# Associated Legendre addition theorems (hyperboloid composite)
# ----------------------------------------------------------------------

def addition_legendre(kind: str, nu, mu, cfg: TwoPointConfig,
                      n_max: int = 60) -> SeriesReport:
    """Addition theorem for P_nu^mu(cosh rho)/sinh^mu rho (kind 'P') or
    Q_nu^mu(cosh rho)/sinh^mu rho (kind 'Q'), r != r'.

    mu = 0 gives the Chebyshev form with Neumann factors.  The
    reference value is the directly evaluated left-hand side at the
    recomputed composite rho.
    """
    if kind not in ("P", "Q"):
        raise DomainError("kind must be 'P' or 'Q'")
    if not (cfg.r1 > 0 and cfg.r2 > 0):
        raise DomainError("radial coordinates must be positive")
    if not cfg.distinct:
        raise DomainViolationError("addition theorem requires r != r'")
    hit, _ = _near_nonpos_int(complex(nu) + 1.0)
    if hit:
        raise DomainError("degree nu must avoid the negative integers")
    nu, mu = complex(nu), complex(mu)
    outer = legendre_p if kind == "P" else legendre_q
    rho = cfg.rho_hyperbolic()
    ref = outer(nu, mu, math.cosh(rho)).value / math.sinh(rho) ** mu
    return _hyperbolic(2.0 ** mu, nu, mu, cfg, outer, ref, n_max)


# ----------------------------------------------------------------------
# Ferrers addition theorems (hypersphere composite)
# ----------------------------------------------------------------------

# kind: (FQ rather than FP at the larger angle, lowered, reflected)
_FERRERS_KINDS = {
    "PmPp": (False, False, False),
    "PmQp": (True, False, False),
    "PmPm": (False, True, False),
    "PmQm": (True, True, False),
    "PmPmmx": (False, True, True),
    "QmPmmx": (True, True, True),
}


def addition_ferrers(kind: str, nu, mu, cfg: TwoPointConfig,
                     n_max: int = 80) -> SeriesReport:
    """The six Ferrers addition theorems on the composite cos Theta.

    Kinds name the left-hand side: 'PmPp' = FP^{+mu}(cos Theta) built
    from FP^{-(mu+n)} FP^{+(mu+n)} pairs, 'PmQp' the FQ^{+mu} analog,
    'PmPm'/'PmQm' the negative-order pair forms carrying Pochhammer
    weights, 'PmPmmx'/'QmPmmx' the reflected-argument forms.  Requires
    Re mu > -1/2; mu = 0 gives the Chebyshev limit forms.  The
    convergence predicate is evaluated first; all kinds except 'PmPm'
    also require theta != theta'.
    """
    if kind not in _FERRERS_KINDS:
        raise DomainError(f"kind must be one of {tuple(_FERRERS_KINDS)}")
    if not (0.0 < cfg.r1 < math.pi and 0.0 < cfg.r2 < math.pi):
        raise DomainError("angles must lie in (0, pi)")
    nu, mu = complex(nu), complex(mu)
    if mu.real <= -0.5:
        raise DomainError("requires Re mu > -1/2")
    hit, _ = _near_nonpos_int(nu + 1.0)
    if hit:
        raise DomainError("degree nu must avoid the negative integers")
    needs_distinct = kind != "PmPm"
    ok, ratio = convergence_domain(cfg.lt, cfg.gt, needs_distinct)
    if not ok:
        raise DomainViolationError(
            "outside the convergence domain: tan(th</2) tan(th>/2) >= 1"
            if math.tan(0.5 * cfg.lt) * math.tan(0.5 * cfg.gt) >= 1.0
            else "theta = theta' not allowed for this kind")
    second, lowered, reflected = _FERRERS_KINDS[kind]
    fn = ferrers_q if second else ferrers_p
    big_theta = cfg.theta_spherical()
    x_th = math.cos(big_theta)
    ref = (fn(nu, -mu if lowered else mu, -x_th if reflected else x_th).value
           / math.sin(big_theta) ** mu)

    if kind == "PmQm" and abs(nu - mu) < 1e-8:
        # removable term-by-term singularity: evaluate at perturbed
        # degrees (well outside this detection window) and average
        step = 1e-7 * (mu or 1.0)
        up = addition_ferrers(kind, mu + step, mu, cfg, n_max)
        dn = addition_ferrers(kind, mu - step, mu, cfg, n_max)
        val = 0.5 * (up.value + dn.value)
        return SeriesReport(val, up.terms + dn.terms, up.last_term_mag,
                            up.est_ratio, True, ref,
                            abs(val - ref) / max(abs(ref), 1e-300),
                            up.flags | dn.flags)

    return _spherical(2.0 ** mu, nu, mu, cfg, [(fn, reflected, 1.0)], ref,
                      ratio, n_max, lowered)


# ----------------------------------------------------------------------
# Degree-equals-order and other special-case series
# ----------------------------------------------------------------------

_SPECIAL_CASES = ("NU_EQ_MU_HALFINT", "NU_EQ_MU_INT", "LOGCOT", "Q_K_MK",
                  "Q_MH_MMH", "COSH_SINH_LEGENDRE")


def addition_special(case: str, params: dict, cfg: TwoPointConfig,
                     n_max: int = 80) -> SeriesReport:
    """Specialized addition-theorem corollaries with closed-form sides.

    case and its parameters:
      'NU_EQ_MU_HALFINT' {mu}: FQ_mu^{-mu} series over FP FQ pairs
          (valid except mu half-odd-integer),
      'NU_EQ_MU_INT'     {mu}: FQ_mu^{-mu} series over FP FP pairs
          (valid except mu integer),
      'LOGCOT'           {}:   expansion of log cot(Theta/2),
      'Q_K_MK'           {k}:  FQ_k^{-k} series, k a positive integer,
      'Q_MH_MMH'         {m}:  FQ_{m+1/2}^{-m-1/2} series, m >= 0,
      'COSH_SINH_LEGENDRE' {nu, form}: the hyperbolic closed forms
          cosh((nu+1/2) rho)/sinh rho (form='cosh') and
          exp(-(nu+1/2) rho)/sinh rho (form='exp').

    'Q_K_MK' and 'Q_MH_MMH' are the first and second FQ_mu^{-mu}
    series at integer and half-odd mu, where the constant term of the
    general forms vanishes.
    """
    if case not in _SPECIAL_CASES:
        raise WrongCaseError(f"case must be one of {_SPECIAL_CASES}")

    if case == "COSH_SINH_LEGENDRE":
        nu = complex(params["nu"])
        form = params.get("form", "cosh")
        if not (cfg.r1 > 0 and cfg.r2 > 0 and cfg.distinct):
            raise DomainViolationError("requires 0 < r != r'")
        rho = cfg.rho_hyperbolic()
        if form == "cosh":
            ref = cmath.cosh((nu + 0.5) * rho) / math.sinh(rho)
            c, large = math.sqrt(math.pi), legendre_p
        elif form == "exp":
            ref = cmath.exp(-(nu + 0.5) * rho) / math.sinh(rho)
            c, large = -2j / math.sqrt(math.pi), legendre_q
        else:
            raise WrongCaseError("form must be 'cosh' or 'exp'")
        return _hyperbolic(c, nu, 0.5, cfg, large, ref, n_max)

    # spherical cases below
    if not (0.0 < cfg.r1 < math.pi and 0.0 < cfg.r2 < math.pi):
        raise DomainError("angles must lie in (0, pi)")
    ok, ratio = convergence_domain(cfg.lt, cfg.gt, True)
    if not ok:
        raise DomainViolationError("outside the convergence domain")
    th_lt, th_gt = cfg.lt, cfg.gt
    big_theta = cfg.theta_spherical()

    if case == "LOGCOT":
        ref = math.log(1.0 / math.tan(0.5 * big_theta))
        base = math.log(1.0 / math.tan(0.5 * th_gt))
        c2, s2 = math.cos(0.5 * th_gt) ** 2, math.sin(0.5 * th_gt) ** 2
        tfac = math.tan(0.5 * th_lt) / math.sin(th_gt)
        # the elementary radial term; w_n^0 = 2 T_n carries the 2
        radial = (2.0 ** (n - 1) / n * tfac ** n
                  * (c2 ** n - (-1.0) ** n * s2 ** n) if n else base
                  for n in count())
        return _series(1.0, 0.0, cfg.cos_gamma, radial, n_max, ref, ratio)

    # degree = order: the first (FP FQ) and second (FP FP) forms, whose
    # constant term vanishes at the integer and half-odd mu of Q_K_MK
    # and Q_MH_MMH
    const = 0.0
    if case == "Q_K_MK":
        mu = int(params["k"])
        if mu < 1:
            raise WrongCaseError("k must be a positive integer")
    elif case == "Q_MH_MMH":
        m = int(params["m"])
        if m < 0:
            raise WrongCaseError("m must be a nonnegative integer")
        mu = m + 0.5
    else:
        mu = complex(params["mu"])
        if mu == 0 or mu.real <= -0.5:
            raise WrongCaseError("requires mu > -1/2, mu != 0")
        half = 2.0 * mu
        if case == "NU_EQ_MU_HALFINT" and abs(half.imag) < 1e-12 \
                and abs(half.real - round(half.real)) < 1e-10 \
                and round(half.real) % 2 == 1:
            raise WrongCaseError("first equality invalid at half-odd mu")
        if case == "NU_EQ_MU_INT" and abs(mu.imag) < 1e-12 \
                and abs(mu.real - round(mu.real)) < 1e-10:
            raise WrongCaseError("second equality invalid at integer mu")
        const = (math.pi * cmath.tan(math.pi * mu)
                 if case == "NU_EQ_MU_HALFINT"
                 else -math.pi / cmath.tan(math.pi * mu))
        const /= 2.0 ** (mu + 1.0) * _cgamma(mu + 1.0)
    if case in ("NU_EQ_MU_HALFINT", "Q_K_MK"):
        large = ferrers_q
        c = math.sqrt(math.pi) / (cmath.cos(math.pi * mu) * 2.0 ** mu)
    else:
        large = ferrers_p
        c = math.pi ** 1.5 / (cmath.sin(math.pi * mu) * 2.0 ** (mu + 1.0))
    c /= _cgamma(mu + 1.0) * _cgamma(mu + 0.5)
    ref = (ferrers_q(mu, -mu, math.cos(big_theta)).value
           / math.sin(big_theta) ** mu)
    return _spherical(c, mu, mu, cfg, [(large, False, 1.0)], ref, ratio,
                      n_max, const=const)


# ----------------------------------------------------------------------
# Gegenbauer (d >= 3) and Fourier (d = 2) expansions of the Green's
# functions
# ----------------------------------------------------------------------

_EXPANDABLE = (H_PLUS, H_MINUS, S_PLUS, A_PLUS, SF_MINUS, FRAK_MINUS)


def _green_series(variant: str, wp: WaveParams, cfg: TwoPointConfig,
                  l_max: int) -> SeriesReport:
    """The expansion of a Green's function in any d >= 2 (the Fourier
    series is its mu = 0 row)."""
    if not cfg.distinct:
        raise DomainViolationError("expansion requires distinct radii")
    m, mu, nu = wp.manifold, wp.mu, wp.nu
    norm = 1.0 / (2.0 * math.pi ** (0.5 * m.d) * m.R ** (m.d - 2))

    if variant in (H_PLUS, H_MINUS):
        if not (cfg.r1 > 0 and cfg.r2 > 0):
            raise DomainError("radial coordinates must be positive")
        ref = green_value(variant, m, wp.beta, cfg.rho_hyperbolic()).value
        return _hyperbolic(cmath.exp(-1j * math.pi * mu) * norm, nu, mu, cfg,
                           legendre_q, ref, l_max)

    # hypersphere variants
    ok, ratio = convergence_domain(cfg.lt, cfg.gt, True)
    if not ok:
        raise DomainViolationError("outside the convergence domain")
    ref = green_value(variant, m, wp.beta, cfg.theta_spherical()).value
    if variant == FRAK_MINUS:
        c = _cgamma(nu + mu + 1.0) / _cgamma(nu - mu + 1.0)
        parts = [(ferrers_q, False, 1.0), (ferrers_p, False, 0.5j * math.pi)]
    else:
        c = 0.5 * _cgamma(nu + mu + 1.0) * _cgamma(mu - nu)
        parts = [(ferrers_p, True, 1.0)]
        if variant == A_PLUS:
            # antipodal bracket: the unreflected parent series carries
            # (-1)^l, so odd orders add instead of subtract
            parts.append((ferrers_p, False, -1.0))
    return _spherical(norm * c, nu, mu, cfg, parts, ref, ratio, l_max,
                      lowered=True)


def green_expansion(variant: str, wp: WaveParams, cfg: TwoPointConfig,
                    l_max: int = 40) -> SeriesReport:
    """Gegenbauer expansion of a Green's function, d >= 3.

    The reference value is the closed form at the recomputed composite
    separation.  Sphere variants enforce the tan tan < 1 predicate and
    theta != theta'; hyperboloid variants require r != r'.
    """
    if variant not in _EXPANDABLE:
        raise DomainError(f"no Gegenbauer expansion for {variant!r}")
    if wp.manifold.d < 3:
        raise DomainError("Gegenbauer expansions require d >= 3; "
                          "use fourier_2d for d = 2")
    return _green_series(variant, wp, cfg, l_max)


def fourier_2d(variant: str, wp: WaveParams, cfg: TwoPointConfig,
               l_max: int = 40) -> SeriesReport:
    """Azimuthal Fourier expansion in d = 2; cfg.gamma is phi - phi'."""
    if variant not in _EXPANDABLE:
        raise DomainError(f"no Fourier expansion for {variant!r}")
    if wp.manifold.d != 2:
        raise DomainError("fourier_2d requires d = 2")
    return _green_series(variant, wp, cfg, l_max)


def euclidean_expansion(sign: str, d: int, beta: float, r: float,
                        r_prime: float, gamma_angle: float,
                        l_max: int = 40) -> SeriesReport:
    """Gegenbauer-Bessel expansion of the Euclidean Green's function.

    J H^(1) products for the minus sign, I K products for plus; the
    reference is the closed form at the law-of-cosines separation.
    """
    if sign not in (PLUS, MINUS):
        raise DomainError("sign must be 'plus' or 'minus'")
    if d < 2:
        raise DomainError("expansion requires d >= 2")
    if not (r > 0 and r_prime > 0):
        raise DomainError("radii must be positive")
    if r == r_prime:
        raise DomainViolationError("expansion requires r != r'")
    cfg = TwoPointConfig(r, r_prime, gamma_angle)
    dist = cfg.euclidean_distance()
    mu = 0.5 * d - 1.0
    ref = euclidean_green(sign, d, beta, dist).value
    if sign == PLUS:
        c, small, large = ((2.0 * math.pi) ** (-0.5 * d) * beta ** mu,
                           _sp.iv, _sp.kv)
    else:
        c, small, large = (0.25j * (beta / (2.0 * math.pi)) ** mu,
                           _sp.jv, _sp.hankel1)
    pre = c * 2.0 ** mu / (beta * r * r_prime) ** mu
    a, b = beta * cfg.lt, beta * cfg.gt
    radial = _pairs(mu, lambda m: small(m, a), [(lambda m: large(m, b),
                                                 1.0, 1.0)])
    return _series(pre, mu, cfg.cos_gamma, radial, l_max, complex(ref),
                   cfg.lt / cfg.gt)
