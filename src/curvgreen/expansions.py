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
* Each radial function is one sequence in l, carried by the order
  recurrence (``legendre.order_sequence``) from two direct values: the
  smaller-radius one, minimal in the order, backward (Miller), the
  larger-radius ones forward.  Their error grows at most like the
  dominant solution, which the minimal factor beside them holds below
  eps times the series' tail ratio; at large conical degree less so
  (tau = 25, th> > pi/2: about 6 digits left).  A lowered pair's weight
  rides in its larger-radius sequence.
* The prefactor and the reference value come from the kind's row.
* One expansion builds each Legendre/Ferrers evaluator once: a table
  keyed by (kind, order) (``legendre.evaluator``), made per call and
  passed to every order_sequence call, serves the Miller seed, the
  larger-radius seeds and the reference closed form (for the Green's
  functions through ``GreenKernel(..., fn=...)``), each evaluator with
  its 2F1 engine.  Nothing outlives the call.
* At a real degree and order the recurrences, the basis C_l^mu and its
  weights run in float, the conical degrees and Q's complex values in
  complex.  Every finite value keeps the bits of complex arithmetic: on
  operands whose imaginary parts are 0, CPython's complex operations
  give exactly the float ones on the real parts while those stay
  finite, and the expressions and their order are the same.  The first
  value that is not finite is RangeError either way.

The kinds are rows over that engine: the associated Legendre addition
theorems (P, Q) on cosh rho, the six Ferrers addition theorems on
cos Theta, the degree-equals-order and hyperbolic closed-form
corollaries, the Gegenbauer (d >= 3) and azimuthal Fourier (d = 2)
expansions of every Green's-function variant, and the Euclidean
comparison.  The only bespoke radial term is the elementary one of
log cot(Theta/2).  The basis is carried along l by its recurrence.
The hypersphere rows check
the convergence-domain predicate tan(th</2) tan(th>/2) < 1 and report
its geometric tail-rate estimate.

Every series is reported through a SeriesReport holding the truncated
value, the directly evaluated closed-form reference and their relative
difference, so the comparison is honest: the composite argument is
always recomputed from the two-point formula, never passed in.  A term
beyond the double range raises RangeError, and a sum that cancels to
below the acceptance accuracy raises NoConvergenceError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import count

from .errors import (DomainError, DomainViolationError, NoConvergenceError,
                     RangeError, WrongCaseError, WrongVariantError)
from .geometry import composite_hyperbolic, composite_spherical
from .greens import (A_PLUS, AF_MINUS, FRAK_MINUS, FRAKA_MINUS, H_MINUS,
                     H_PLUS, MINUS, PLUS, S_PLUS, SF_MINUS, VARIANT_SPACES,
                     GreenKernel, WaveParams, euclidean_green)
from .legendre import evaluator, order_sequence
from .result import NONCONVERGENT
from .specfun import (_cgamma, _cyl, _finite, _gegenbauer_terms, _real,
                      gamma_ratio)

_TRUNC_REL = 1e-15
_TRUNC_RUN = 3
# the loosest accuracy the acceptance gate asks of a series
_CUT_REL = 1e-6


@dataclass(frozen=True)
class TwoPointConfig:
    """Radial pair plus separation angle of a two-point configuration.

    ``r1``/``r2`` are the radial coordinates (r, r' on the hyperboloid
    or in flat space, theta, theta' on the hypersphere) and ``gamma``
    the separation angle on the common S^{d-1}.  A nan or infinite
    field is refused (DomainError) when the config is built.
    """

    r1: float
    r2: float
    gamma: float

    def __post_init__(self):
        for name in ("r1", "r2", "gamma"):
            _finite(name, getattr(self, name))

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

    At mu = 0 this is the limit eps_l T_l(x).  C_l^mu and T_l come from
    specfun's recurrence, the one behind gegenbauer_c and chebyshev_t; at
    a real mu it and the weight Gamma(mu) (l + mu) are floats, with the
    bits of their complex forms (order_sequence).
    """
    terms = _gegenbauer_terms(mu, x)
    if mu == 0:
        yield next(terms)
        yield from (2.0 * t for t in terms)
        return
    g, mu = _real(_cgamma(mu)), _real(complex(mu))
    for l, c in enumerate(terms):
        yield g * (l + mu) * c


def _pairs(small, parts):
    """Yield the radial factors of a pair series for l = 0, 1, ...

    The factor is small_l times the sum of c * s**l * large_l over
    ``parts`` = ((large, c, s), ...), where small and each large are
    sequences in l (order_sequence, or the Bessel values of the flat
    expansion).  A large sequence is drawn only as far as the sum goes.
    The sum is 0 + t_1 + t_2 + ..., sum()'s own order and bits.  One part
    with c = 1 and s = +-1, every one-part row's, takes c * s**l * large
    as large with its sign flipped at odd l where s = -1: the same bits,
    since the leading 0 + turns the signed zeros of a complex
    -1.0 * large into those of -large.
    """
    larges = [(iter(large), c, s) for large, c, s in parts]
    if len(larges) == 1 and larges[0][1:] in ((1.0, 1.0), (1.0, -1.0)):
        (large, _, s), = larges
        flip = s < 0.0
        for l, a in enumerate(small):
            b = next(large)
            yield a * (0 + (-b if flip and l & 1 else b))
        return
    for l, a in enumerate(small):
        t = 0
        for large, c, s in larges:
            t = t + c * s ** l * next(large)
        yield a * t


def _series(pre, mu, x, radial, n_max: int, reference, est_ratio,
            const=0.0) -> SeriesReport:
    """const + pre * sum of radial(l) w_l^mu(x) over at most n_max terms.

    The sum stops after _TRUNC_RUN consecutive terms below _TRUNC_REL of
    the running total.  The tail diagnostics go into the report;
    NONCONVERGENT marks a tail whose last terms do not decrease, or a
    sum cut off at n_max with its last term above _CUT_REL of the total.
    A term that overflows or is not finite raises RangeError, and a sum
    whose rounding (sum |t| times 2^-52) exceeds _CUT_REL of its total
    raises NoConvergenceError.
    """
    if n_max < 1:
        raise DomainError(f"a series needs at least one term, got {n_max}")
    total = 0.0  # complex from the first complex term: 0.0 + 0.0j's bits
    mags = []
    small = 0
    for l, r, w in zip(range(n_max), radial, _basis(mu, x)):
        t = r * w
        try:
            mag = abs(t)
        except OverflowError:
            mag = math.inf
        if not math.isfinite(mag):
            raise RangeError(f"series term l = {l} overflows the double "
                             "range")
        total += t
        mags.append(mag)
        scale = abs(total)
        if mag <= _TRUNC_REL * (1e-300 if scale < 1e-300 else scale):
            small += 1
            if small >= _TRUNC_RUN:
                break
        else:
            small = 0
    total = complex(total)
    size = math.fsum(mags)
    if size * 2.0 ** -52 > _CUT_REL * abs(total):
        raise NoConvergenceError(f"series cancels: sum |term| is "
                                 f"{size:.3e} for a total of {abs(total):.3e}")
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


def _hyperbolic(c, nu, mu, cfg: TwoPointConfig, large: str, reference,
                n_max: int, table: dict) -> SeriesReport:
    """c (sinh r< sinh r>)^-mu times the pair series over
    P_nu^{-(mu+l)}(cosh r<) large_nu^{mu+l}(cosh r>) (-1)^l, large the
    kind P or Q; table holds the expansion's evaluators (``evaluator``)."""
    r_lt, r_gt = cfg.lt, cfg.gt
    pre = c / (math.sinh(r_lt) * math.sinh(r_gt)) ** mu
    radial = _pairs(
        order_sequence("P", nu, mu, math.cosh(r_lt), True, miller=n_max,
                       table=table),
        [(order_sequence(large, nu, mu, math.cosh(r_gt), table=table), 1.0,
          -1.0)])
    ratio = math.tanh(0.5 * r_lt) / math.tanh(0.5 * r_gt)
    return _series(pre, mu, cfg.cos_gamma, radial, n_max, reference, ratio)


def _spherical(c, nu, mu, cfg: TwoPointConfig, parts, reference, ratio,
               n_max: int, table: dict, lowered: bool = False,
               const=0.0) -> SeriesReport:
    """c (sin th< sin th>)^-mu times the pair series over
    FP_nu^{-(mu+l)}(cos th<) and, for each (kind, reflected, coef) of
    ``parts``, coef kind_nu^{+-(mu+l)}(+-cos th>) (kind FP or FQ) with
    (-1)^l when not reflected; ``lowered`` takes the order -(mu+l) and
    the Pochhammer weight (nu + mu + 1)_l (mu - nu)_l; table holds the
    expansion's evaluators (``evaluator``)."""
    x_gt = math.cos(cfg.gt)
    pre = c / (math.sin(cfg.lt) * math.sin(cfg.gt)) ** mu
    large = [(order_sequence(kind, nu, mu, -x_gt if reflected else x_gt,
                             lowered, table=table), coef,
              1.0 if reflected else -1.0)
             for kind, reflected, coef in parts]
    radial = _pairs(order_sequence("FP", nu, mu, math.cos(cfg.lt), True,
                                   miller=n_max, table=table), large)
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
    nu, mu = complex(nu), complex(mu)
    rho = cfg.rho_hyperbolic()
    table = {}
    ref = (evaluator(table, kind, nu, mu)(math.cosh(rho)).value
           / math.sinh(rho) ** mu)
    return _hyperbolic(2.0 ** mu, nu, mu, cfg, kind, ref, n_max, table)


# ----------------------------------------------------------------------
# Ferrers addition theorems (hypersphere composite)
# ----------------------------------------------------------------------

# kind: (the kind at the larger angle, lowered, reflected)
_FERRERS_KINDS = {
    "PmPp": ("FP", False, False),
    "PmQp": ("FQ", False, False),
    "PmPm": ("FP", True, False),
    "PmQm": ("FQ", True, False),
    "PmPmmx": ("FP", True, True),
    "QmPmmx": ("FQ", True, True),
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
    also require theta != theta'.  Any degree is taken, nu = mu and
    negative integers included: a term whose FQ factor has a pole where
    its Pochhammer weight vanishes is their finite product (see
    order_sequence), and what stays undefined is refused by the
    left-hand side's own FerrersP or FerrersQ.
    """
    if kind not in _FERRERS_KINDS:
        raise DomainError(f"kind must be one of {tuple(_FERRERS_KINDS)}")
    if not (0.0 < cfg.r1 < math.pi and 0.0 < cfg.r2 < math.pi):
        raise DomainError("angles must lie in (0, pi)")
    nu, mu = complex(nu), complex(mu)
    if mu.real <= -0.5:
        raise DomainError("requires Re mu > -1/2")
    needs_distinct = kind != "PmPm"
    ok, ratio = convergence_domain(cfg.lt, cfg.gt, needs_distinct)
    if not ok:
        raise DomainViolationError(
            "outside the convergence domain: tan(th</2) tan(th>/2) >= 1"
            if math.tan(0.5 * cfg.lt) * math.tan(0.5 * cfg.gt) >= 1.0
            else "theta = theta' not allowed for this kind")
    large, lowered, reflected = _FERRERS_KINDS[kind]
    big_theta = cfg.theta_spherical()
    x_th = math.cos(big_theta)
    table = {}
    fn = evaluator(table, large, nu, -mu if lowered else mu)
    ref = (fn(-x_th if reflected else x_th).value
           / math.sin(big_theta) ** mu)
    return _spherical(2.0 ** mu, nu, mu, cfg, [(large, reflected, 1.0)],
                      ref, ratio, n_max, table, lowered)


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
            c, large = math.sqrt(math.pi), "P"
        elif form == "exp":
            ref = cmath.exp(-(nu + 0.5) * rho) / math.sinh(rho)
            c, large = -2j / math.sqrt(math.pi), "Q"
        else:
            raise WrongCaseError("form must be 'cosh' or 'exp'")
        return _hyperbolic(c, nu, 0.5, cfg, large, ref, n_max, {})

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
        large = "FQ"
        c = math.sqrt(math.pi) / (cmath.cos(math.pi * mu) * 2.0 ** mu)
    else:
        large = "FP"
        c = math.pi ** 1.5 / (cmath.sin(math.pi * mu) * 2.0 ** (mu + 1.0))
    c /= _cgamma(mu + 1.0) * _cgamma(mu + 0.5)
    table = {}
    ref = (evaluator(table, "FQ", mu, -mu)(math.cos(big_theta)).value
           / math.sin(big_theta) ** mu)
    return _spherical(c, mu, mu, cfg, [(large, False, 1.0)], ref, ratio,
                      n_max, table, const=const)


# ----------------------------------------------------------------------
# Gegenbauer (d >= 3) and Fourier (d = 2) expansions of the Green's
# functions
# ----------------------------------------------------------------------

_EXPANDABLE = (H_PLUS, H_MINUS, S_PLUS, A_PLUS, SF_MINUS, FRAK_MINUS,
               AF_MINUS, FRAKA_MINUS)


def _green_series(variant: str, wp: WaveParams, cfg: TwoPointConfig,
                  l_max: int) -> SeriesReport:
    """The expansion of a Green's function in any d >= 2 (the Fourier
    series is its mu = 0 row).  The reference is the closed form
    (``GreenKernel``) reading the series' own seed evaluator, LegendreQ
    at order mu or FerrersP at -mu, from the expansion's table.  A wp of
    another sign than the variant's is WrongVariantError."""
    if wp.sign != VARIANT_SPACES[variant][1]:
        raise WrongVariantError(f"WaveParams sign {wp.sign!r} is not "
                                f"{variant}'s")
    if not cfg.distinct:
        raise DomainViolationError("expansion requires distinct radii")
    m, mu, nu = wp.manifold, wp.mu, wp.nu
    norm = 1.0 / (2.0 * math.pi ** (0.5 * m.d) * m.R ** (m.d - 2))
    hyperbolic = variant in (H_PLUS, H_MINUS)
    if hyperbolic:
        if not (cfg.r1 > 0 and cfg.r2 > 0):
            raise DomainError("radial coordinates must be positive")
        rho = cfg.rho_hyperbolic()
    else:
        ok, ratio = convergence_domain(cfg.lt, cfg.gt, True)
        if not ok:
            raise DomainViolationError("outside the convergence domain")
        rho = cfg.theta_spherical()
    table = {}
    fn = evaluator(table, "Q", nu, mu) if hyperbolic else \
        evaluator(table, "FP", nu, -mu)
    kernel = GreenKernel(variant, m, wp.beta, fn=fn)
    ref = kernel(rho).value
    if hyperbolic:
        return _hyperbolic(cmath.exp(-1j * math.pi * mu) * norm, nu, mu, cfg,
                           "Q", ref, l_max, table)

    # hypersphere variants
    if variant == FRAK_MINUS:
        c = norm * gamma_ratio(nu + mu + 1.0, nu - mu + 1.0)
        parts = [("FQ", False, 1.0), ("FP", False, 0.5j * math.pi)]
    else:
        # the addition theorem's 2^mu times the closed form's constant
        # (and FRAKA_MINUS's phase 1 + e^{i pi (nu - mu)})
        c = 2.0 ** mu * kernel.constant
        if variant == FRAKA_MINUS:
            c = c * kernel.phase
        parts = [("FP", True, 1.0)]
        if variant in (A_PLUS, AF_MINUS, FRAKA_MINUS):
            # antipodal bracket: the unreflected parent series carries
            # (-1)^l, so odd orders add instead of subtract
            parts.append(("FP", False, -1.0))
    return _spherical(c, nu, mu, cfg, parts, ref, ratio, l_max, table,
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
                           "I", "K")
    else:
        c, small, large = (0.25j * (beta / (2.0 * math.pi)) ** mu,
                           "J", "H1")
    pre = c * 2.0 ** mu / (beta * r * r_prime) ** mu
    a, b = beta * cfg.lt, beta * cfg.gt
    radial = _pairs((_cyl(small, mu + l, a)[0] for l in count()),
                    [((_cyl(large, mu + l, b)[0] for l in count()), 1.0, 1.0)])
    return _series(pre, mu, cfg.cos_gamma, radial, l_max, complex(ref),
                   cfg.lt / cfg.gt)
