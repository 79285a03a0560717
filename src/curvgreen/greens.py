"""Closed-form fundamental solutions of (-Delta +/- beta^2).

Covers Euclidean space (any d >= 1), the hyperboloid (both operator
signs) and the hypersphere: the single-source and antipodal solutions
for the + sign, and the two *candidate* functions (plus their antipodal
variants) for the - sign, whose fundamental-solution status is an open
conjecture -- candidate results carry the CANDIDATE flag and are never
reported as proven.  Also provides the Laplace (beta -> 0) reference
solutions and the hypersphere eigenvalue "bad wavenumber" lattice.

Degrees attached to each operator/manifold combination:

    hyperboloid  +beta^2 : nu = -1/2 + sqrt((d-1)^2 + 4 b^2 R^2)/2
    hyperboloid  -beta^2 : nu = -1/2 + sqrt((d-1)^2 - 4 b^2 R^2)/2,
                           continued to -1/2 - i sqrt(...)/2 in the
                           oscillatory regime (Hankel-1 flat limit
                           forces the minus branch)
    hypersphere  +beta^2 : nu = -1/2 + sqrt((d-1)^2 - 4 b^2 R^2)/2,
                           continued to -1/2 + i sqrt(...)/2
    hypersphere  -beta^2 : nu = -1/2 + sqrt((d-1)^2 + 4 b^2 R^2)/2

with mu = d/2 - 1 throughout.

Each closed form is written once, in one hyperboloid and one sphere body.
``green_value`` dispatches through ``VARIANT_SPACES``, which maps each
variant tag to its manifold kind and operator sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import scipy.special as _sp

from .errors import (DomainError, EigenvaluePoleError, RangeError,
                     WrongVariantError)
from .geometry import EUCLIDEAN, HYPERBOLOID, HYPERSPHERE, ManifoldSpec
from .legendre import (ferrers_p, ferrers_p_reflected, ferrers_q,
                       legendre_q, odd_ferrers_f)
from .result import CANDIDATE, EvalResult, merge_flags
from .specfun import _lgamma

PLUS = "plus"
MINUS = "minus"

# Green's-function variant tags
H_PLUS = "H_PLUS"
H_MINUS = "H_MINUS"
S_PLUS = "S_PLUS"
A_PLUS = "A_PLUS"
SF_MINUS = "SF_MINUS"
FRAK_MINUS = "FRAK_MINUS"
AF_MINUS = "AF_MINUS"
FRAKA_MINUS = "FRAKA_MINUS"
EUCLID_PLUS = "EUCLID_PLUS"
EUCLID_MINUS = "EUCLID_MINUS"
LAPLACE_H = "LAPLACE_H"
LAPLACE_S = "LAPLACE_S"

CANDIDATE_VARIANTS = (SF_MINUS, FRAK_MINUS, AF_MINUS, FRAKA_MINUS)
ALL_VARIANTS = (H_PLUS, H_MINUS, S_PLUS, A_PLUS) + CANDIDATE_VARIANTS


class _VariantTable(dict):
    """Variant tag -> (manifold kind, operator sign); an unknown tag raises
    WrongVariantError.  The Laplace references count as beta -> 0 limits
    of the + sign."""

    def __missing__(self, variant):
        raise WrongVariantError(f"unknown variant {variant!r}")


VARIANT_SPACES = _VariantTable({
    H_PLUS: (HYPERBOLOID, PLUS), H_MINUS: (HYPERBOLOID, MINUS),
    S_PLUS: (HYPERSPHERE, PLUS), A_PLUS: (HYPERSPHERE, PLUS),
    **{v: (HYPERSPHERE, MINUS) for v in CANDIDATE_VARIANTS},
    EUCLID_PLUS: (EUCLIDEAN, PLUS), EUCLID_MINUS: (EUCLIDEAN, MINUS),
    LAPLACE_H: (HYPERBOLOID, PLUS), LAPLACE_S: (HYPERSPHERE, PLUS),
})


@dataclass(frozen=True)
class WaveParams:
    """Wavenumber, operator sign and the induced degree/order pair."""

    manifold: ManifoldSpec
    beta: float
    sign: str
    mu: float = field(init=False)
    nu: complex = field(init=False)
    disc: float = field(init=False)

    def __post_init__(self):
        if self.manifold.kind == EUCLIDEAN:
            raise DomainError("WaveParams describes the curved manifolds; "
                              "use euclidean_green directly")
        if self.manifold.d < 2:
            raise DomainError("Green's functions require d >= 2")
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if self.sign not in (PLUS, MINUS):
            raise DomainError("sign must be 'plus' or 'minus'")
        d, R, b = self.manifold.d, self.manifold.R, self.beta
        object.__setattr__(self, "mu", 0.5 * d - 1.0)
        k = (d - 1.0) ** 2
        q = 4.0 * b * b * R * R
        # nu is formed through the offset from the Laplace degree
        # (d-2)/2 so that mu - nu keeps full precision at tiny beta
        if (self.manifold.kind, self.sign) in ((HYPERBOLOID, PLUS),
                                               (HYPERSPHERE, MINUS)):
            disc = k + q
            nu = complex(0.5 * (d - 2.0)
                         + q / (2.0 * (math.sqrt(disc) + d - 1.0)))
        else:
            disc = k - q
            if disc >= 0.0:
                nu = complex(0.5 * (d - 2.0)
                             - q / (2.0 * (math.sqrt(disc) + d - 1.0)))
            elif self.manifold.kind == HYPERBOLOID:
                nu = complex(-0.5, -0.5 * math.sqrt(-disc))
            else:
                nu = complex(-0.5, 0.5 * math.sqrt(-disc))
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "nu", complex(nu))

    @property
    def oscillatory(self) -> bool:
        return self.disc < 0.0


def euclidean_green(sign: str, d: int, beta: float, r: float) -> EvalResult:
    """Euclidean fundamental solution of (-Delta +/- beta^2), d >= 1.

    plus : (2 pi)^{-d/2} (beta/r)^{d/2-1} K_{d/2-1}(beta r)
    minus: (i/4) (beta/(2 pi r))^{d/2-1} H^(1)_{d/2-1}(beta r)
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not r > 0:
        raise DomainError("separation r must be positive")
    mu = 0.5 * d - 1.0
    if sign == PLUS:
        v = ((2.0 * math.pi) ** (-0.5 * d) * (beta / r) ** mu
             * _sp.kv(mu, beta * r))
        return EvalResult(complex(v), 1e-14 * abs(v), 0)
    if sign == MINUS:
        v = (0.25j * (beta / (2.0 * math.pi * r)) ** mu
             * _sp.hankel1(mu, beta * r))
        return EvalResult(complex(v), 1e-14 * abs(v), 0)
    raise DomainError("sign must be 'plus' or 'minus'")


def _hyperboloid_body(m: ManifoldSpec, nu, mu: float,
                      rho: float) -> EvalResult:
    """e^{-i pi mu} (2 pi)^{-d/2} R^{2-d} sinh(rho)^{-mu} Q_nu^mu(cosh rho)."""
    q = legendre_q(nu, mu, math.cosh(rho))
    return q.scaled(cmath.exp(-1j * math.pi * mu)
                    * (2.0 * math.pi) ** (-0.5 * m.d) * m.R ** (2 - m.d)
                    * math.sinh(rho) ** (-mu))


def hyperboloid_green(wp: WaveParams, rho: float) -> EvalResult:
    """Green's function on the hyperboloid at geodesic separation
    rho = d(x, x')/R > 0 (value real; imaginary residue is roundoff)."""
    if wp.manifold.kind != HYPERBOLOID:
        raise WrongVariantError("WaveParams is not a hyperboloid case")
    if not rho > 0:
        raise DomainError("rho must be positive")
    return _hyperboloid_body(wp.manifold, wp.nu, wp.mu, rho)


def _sphere_prefactor(wp: WaveParams, rho: float) -> complex:
    """Gamma(nu+mu+1) Gamma(mu-nu) sin(rho)^{-mu}
    / (2^{d/2+1} pi^{d/2} R^{d-2})."""
    d, R = wp.manifold.d, wp.manifold.R
    lg = _lgamma(wp.nu + wp.mu + 1.0) + _lgamma(wp.mu - wp.nu)
    lg -= ((0.5 * d + 1.0) * math.log(2.0) + 0.5 * d * math.log(math.pi)
           + (d - 2.0) * math.log(R))
    return cmath.exp(lg) * math.sin(rho) ** (-wp.mu)


def _p_reflected(nu, mu: float, rho: float) -> EvalResult:
    """FP_nu^{-mu}(-cos rho); dispatches on the sign of mu."""
    if mu > 0:
        return ferrers_p_reflected(nu, mu, math.cos(rho))
    return ferrers_p(nu, -mu, -math.cos(rho))


def _sphere_body(wp: WaveParams, rho: float, antipodal: bool,
                 fac=None) -> EvalResult:
    """pre FP_nu^{-mu}(-cos rho) (S_PLUS, SF_MINUS), or pre times fac
    times f_nu^{-mu}(cos rho) (A_PLUS, AF_MINUS, FRAKA_MINUS)."""
    pre = _sphere_prefactor(wp, rho)
    if not antipodal:
        return _p_reflected(wp.nu, wp.mu, rho).scaled(pre)
    f = odd_ferrers_f(wp.nu, -wp.mu, math.cos(rho))
    return f.scaled(pre if fac is None else pre * fac)


def _check_sphere(wp: WaveParams, sign: str, rho: float) -> None:
    if wp.manifold.kind != HYPERSPHERE or wp.sign != sign:
        raise WrongVariantError(f"WaveParams is not the sphere {sign} case")
    if not 0.0 < rho < math.pi:
        raise RangeError("rho must lie in (0, pi)")


def sphere_green_plus(wp: WaveParams, rho: float) -> EvalResult:
    """Single-source Green's function of (-Delta + beta^2) on the sphere."""
    _check_sphere(wp, PLUS, rho)
    # Gamma(mu - nu) cannot pole here: nu < mu for every beta > 0
    return _sphere_body(wp, rho, antipodal=False)


def sphere_green_antipodal_plus(wp: WaveParams, rho: float) -> EvalResult:
    """Antipodal (+delta at the origin, -delta at the opposite pole)
    solution of (-Delta + beta^2) on the sphere; odd about rho = pi/2."""
    _check_sphere(wp, PLUS, rho)
    return _sphere_body(wp, rho, antipodal=True)


def eigenvalue_poles(wp: WaveParams, count: int) -> list:
    """The beta values where (-Delta - beta^2) on the sphere hits a
    Laplace-Beltrami eigenvalue: beta^2 R^2 = n (n + d - 1), n >= 1."""
    if wp.manifold.kind != HYPERSPHERE or wp.sign != MINUS:
        raise WrongVariantError("eigenvalue poles exist for the sphere "
                                "minus case only")
    if count < 0:
        raise DomainError("count must be >= 0")
    d, R = wp.manifold.d, wp.manifold.R
    return [math.sqrt(n * (n + d - 1.0)) / R for n in range(1, count + 1)]


def pole_proximity(wp: WaveParams) -> float:
    """Relative distance from beta to the nearest eigenvalue pole."""
    d, R, b = wp.manifold.d, wp.manifold.R, wp.beta
    # invert beta^2 R^2 = n(n + d - 1) for the neighbouring integers
    n_star = -0.5 * (d - 1.0) + 0.5 * math.sqrt((d - 1.0) ** 2
                                                + 4.0 * b * b * R * R)
    best = math.inf
    for n in (math.floor(n_star), math.ceil(n_star)):
        if n >= 1:
            bp = math.sqrt(n * (n + d - 1.0)) / R
            best = min(best, abs(b - bp) / bp)
    return best


def sphere_candidate_minus(variant: str, wp: WaveParams,
                           rho: float) -> EvalResult:
    """Candidate solutions of (-Delta - beta^2) on the sphere.

    variant is one of 'SF' (real, correctly normalized, flat-space
    limit oscillates), 'FRAK' (complex, correct flat-space limit, wrong
    normalization), 'AF' and 'FRAKA' (their antipodal versions).  The
    result always carries the CANDIDATE flag; within relative distance
    1e-6 of an eigenvalue pole evaluation refuses instead of returning
    huge values.
    """
    _check_sphere(wp, MINUS, rho)
    variant = variant.upper().replace("_MINUS", "")
    if variant not in ("SF", "FRAK", "AF", "FRAKA"):
        raise WrongVariantError(f"unknown candidate variant {variant!r}")
    if pole_proximity(wp) < 1e-6:
        raise EigenvaluePoleError(
            "beta within refusal window of a Laplace-Beltrami eigenvalue")
    if variant == "FRAK":
        pre = _sphere_prefactor(wp, rho)
        pm = _p_reflected(wp.nu, wp.mu, rho)
        pp = ferrers_p(wp.nu, -wp.mu, math.cos(rho))
        phase = cmath.exp(1j * math.pi * (wp.nu - wp.mu))
        out = EvalResult(pm.value - phase * pp.value,
                         pm.abs_err_est + pp.abs_err_est,
                         pm.terms_used + pp.terms_used,
                         merge_flags(pm, pp)).scaled(pre)
    else:
        fac = (1.0 + cmath.exp(1j * math.pi * (wp.nu - wp.mu))
               if variant == "FRAKA" else None)
        out = _sphere_body(wp, rho, variant != "SF", fac)
    return out.with_flags(CANDIDATE)


def laplace_green(m: ManifoldSpec, rho: float) -> EvalResult:
    """Laplace (beta = 0) reference solutions.

    Hyperboloid: the decaying solution; hypersphere: the antipodal
    two-source solution (the single-source Laplace limit does not
    exist on a compact manifold).
    """
    d, R = m.d, m.R
    if d < 2:
        raise DomainError("requires d >= 2")
    mu = 0.5 * d - 1.0
    if m.kind == HYPERBOLOID:
        if not rho > 0:
            raise RangeError("rho must be positive")
        return _hyperboloid_body(m, mu, mu, rho)
    if m.kind == HYPERSPHERE:
        if not 0.0 < rho < math.pi:
            raise RangeError("rho must lie in (0, pi)")
        fq = ferrers_q(mu, -mu, math.cos(rho))
        return fq.scaled(math.gamma(d - 1.0) * (2.0 * math.pi) ** (-0.5 * d)
                         * R ** (2 - d) * math.sin(rho) ** (-mu))
    raise WrongVariantError("Laplace reference covers the curved manifolds")


def green_value(variant: str, m: ManifoldSpec, beta: float,
                rho: float) -> EvalResult:
    """Dispatch a variant tag to its closed-form evaluation through
    VARIANT_SPACES."""
    kind, sign = VARIANT_SPACES[variant]
    if kind == EUCLIDEAN:
        return euclidean_green(sign, m.d, beta, rho)
    if variant in (LAPLACE_H, LAPLACE_S):
        return laplace_green(ManifoldSpec(kind, m.d, m.R), rho)
    wp = WaveParams(m, beta, sign)
    if kind == HYPERBOLOID:
        return hyperboloid_green(wp, rho)
    if sign == MINUS:
        return sphere_candidate_minus(variant, wp, rho)
    if variant == S_PLUS:
        return sphere_green_plus(wp, rho)
    return sphere_green_antipodal_plus(wp, rho)
