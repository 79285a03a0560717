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

with mu = d/2 - 1 throughout, and nu = mu for the Laplace references.

Each closed form is written once, in ``GreenKernel`` (one variant at a
fixed manifold and wavenumber, called with rho), which dispatches through
``VARIANT_SPACES``, a map from variant tag to manifold kind and operator
sign.  ``green_value``, the per-case functions and ``laplace_green``
build one per call.  A rho out of range is RangeError on both manifolds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (DomainError, EigenvaluePoleError, RangeError,
                     WrongVariantError)
from .geometry import EUCLIDEAN, HYPERBOLOID, HYPERSPHERE, ManifoldSpec
from .legendre import FerrersP, LegendreQ, ferrers_q
from .result import CANDIDATE, EvalResult
from .specfun import _EPS, _lgamma, cyl

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

_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)

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

    def __post_init__(self):
        if self.manifold.kind == EUCLIDEAN:
            raise DomainError("WaveParams describes the curved manifolds; "
                              "use euclidean_green directly")
        if self.manifold.d < 2:
            raise DomainError("Green's functions require d >= 2")
        if not math.isfinite(self.beta):
            raise DomainError("beta must be finite")
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
        object.__setattr__(self, "nu", complex(nu))


def euclidean_green(sign: str, d: int, beta: float, r: float) -> EvalResult:
    """Euclidean fundamental solution of (-Delta +/- beta^2), d >= 1.

    plus : (2 pi)^{-d/2} (beta/r)^{d/2-1} K_{d/2-1}(beta r)
    minus: (i/4) (beta/(2 pi r))^{d/2-1} H^(1)_{d/2-1}(beta r)
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not r > 0:
        raise DomainError("separation r must be positive")
    mu = 0.5 * d - 1.0
    if sign == PLUS:
        v = ((2.0 * math.pi) ** (-0.5 * d) * (beta / r) ** mu
             * cyl("K", mu, beta * r).value.real)
        return EvalResult(complex(v), 1e-14 * abs(v), 0)
    if sign == MINUS:
        v = (0.25j * (beta / (2.0 * math.pi * r)) ** mu
             * cyl("H1", mu, beta * r).value)
        return EvalResult(complex(v), 1e-14 * abs(v), 0)
    raise DomainError("sign must be 'plus' or 'minus'")


def _cosh(rho: float) -> float:
    """cosh rho; RangeError where it overflows, rho = inf included."""
    try:
        z = math.cosh(rho)
    except OverflowError:
        z = math.inf
    if z == math.inf:
        raise RangeError(f"cosh(rho) overflows the double range at "
                         f"rho = {rho}")
    return z


def _hyperboloid_constant(m: ManifoldSpec, mu: float) -> complex:
    """e^{-i pi mu} (2 pi)^{-d/2} R^{2-d}: the hyperboloid solution is this
    times sinh(rho)^{-mu} Q_nu^mu(cosh rho)."""
    return (cmath.exp(-1j * math.pi * mu) * (2.0 * math.pi) ** (-0.5 * m.d)
            * m.R ** (2 - m.d))


def hyperboloid_green(wp: WaveParams, rho: float) -> EvalResult:
    """Green's function on the hyperboloid at geodesic separation
    rho = d(x, x')/R > 0 (value real; imaginary residue is roundoff)."""
    return GreenKernel(H_PLUS if wp.sign == PLUS else H_MINUS, wp.manifold,
                       wp.beta)(rho)


def _sphere_constant(wp: WaveParams) -> tuple:
    """Gamma(nu+mu+1) Gamma(mu-nu) / (2^{d/2+1} pi^{d/2} R^{d-2}), formed
    from log-gammas, so it stays finite where a gamma alone overflows,
    and the rounding of that exponent a + b - c relative to the value."""
    d, R = wp.manifold.d, wp.manifold.R
    a, b = _lgamma(wp.nu + wp.mu + 1.0), _lgamma(wp.mu - wp.nu)
    c = (0.5 * d + 1.0) * _LOG_2 + 0.5 * d * _LOG_PI + (d - 2.0) * math.log(R)
    return cmath.exp(a + b - c), _EPS * (abs(a) + abs(b) + abs(c))


def _check_sphere(wp: WaveParams, sign: str) -> None:
    if wp.manifold.kind != HYPERSPHERE or wp.sign != sign:
        raise WrongVariantError(f"WaveParams is not the sphere {sign} case")


def sphere_green_plus(wp: WaveParams, rho: float) -> EvalResult:
    """Single-source Green's function of (-Delta + beta^2) on the sphere."""
    _check_sphere(wp, PLUS)
    return GreenKernel(S_PLUS, wp.manifold, wp.beta)(rho)


def sphere_green_antipodal_plus(wp: WaveParams, rho: float) -> EvalResult:
    """Antipodal (+delta at the origin, -delta at the opposite pole)
    solution of (-Delta + beta^2) on the sphere; odd about rho = pi/2."""
    _check_sphere(wp, PLUS)
    return GreenKernel(A_PLUS, wp.manifold, wp.beta)(rho)


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
    _check_sphere(wp, MINUS)
    variant = variant.upper().replace("_MINUS", "")
    if variant not in ("SF", "FRAK", "AF", "FRAKA"):
        raise WrongVariantError(f"unknown candidate variant {variant!r}")
    return GreenKernel(variant + "_MINUS", wp.manifold, wp.beta)(rho)


def laplace_green(m: ManifoldSpec, rho: float) -> EvalResult:
    """Laplace (beta = 0) reference solutions, through ``GreenKernel``.

    Hyperboloid: the decaying solution; hypersphere: the antipodal
    two-source solution (the single-source Laplace limit does not
    exist on a compact manifold).
    """
    # d < 2 is the kernel's DomainError, on every manifold
    if m.kind == EUCLIDEAN and m.d >= 2:
        raise WrongVariantError(
            "Laplace reference covers the curved manifolds")
    return GreenKernel(LAPLACE_S if m.kind == HYPERSPHERE else LAPLACE_H,
                       m, 0.0)(rho)


def green_value(variant: str, m: ManifoldSpec, beta: float,
                rho: float) -> EvalResult:
    """One closed-form evaluation: ``GreenKernel(variant, m, beta)(rho)``."""
    return GreenKernel(variant, m, beta)(rho)


class GreenKernel:
    """A variant's Green's function at a fixed manifold and wavenumber,
    called with rho.  The constructor does the VARIANT_SPACES lookup and
    builds WaveParams and the ``LegendreQ`` or ``FerrersP``; the first call
    past the rho check computes the eigenvalue-pole test, and the first
    past the evaluator the constant factor.  Each call returns, or raises,
    what ``green_value`` does.  The Laplace references (no WaveParams)
    read ``LegendreQ(mu, mu)`` at cosh rho and the public
    ``ferrers_q(mu, -mu, .)`` at cos rho, a name perfbench's tracer
    wraps: verify's Laplace rows show in its ``legendre`` layer.

    ``fn``, where given, is the variant's evaluator to read instead of a
    new one: ``FerrersP(nu, -mu)`` on the sphere, ``LegendreQ(nu, mu)`` on
    the hyperboloid, at this kernel's WaveParams.  Every sphere variant
    of one manifold, wavenumber and sign reads the same one, so
    ``verify`` hands one to each variant of such a family."""

    fn = wp = near_pole = constant = None  # no wp: LAPLACE_H, LAPLACE_S

    def __init__(self, variant: str, m: ManifoldSpec, beta: float, *,
                 fn=None):
        self.kind, self.sign = VARIANT_SPACES[variant]
        self.variant, self.m, self.beta = variant, m, beta
        if self.kind == EUCLIDEAN:
            return
        mu = self.mu = m.mu
        if variant in (LAPLACE_H, LAPLACE_S):
            if m.d < 2:
                raise DomainError("requires d >= 2")
            self.m = ManifoldSpec(self.kind, m.d, m.R)
            self.fn = fn or (LegendreQ(mu, mu) if variant == LAPLACE_H
                             else lambda x: ferrers_q(mu, -mu, x))
            return
        wp = self.wp = WaveParams(m, beta, self.sign)
        if m.kind != self.kind:
            raise WrongVariantError(
                "WaveParams is not a hyperboloid case" if m.kind == HYPERSPHERE
                else f"WaveParams is not the sphere {self.sign} case")
        self.fn = fn or (LegendreQ(wp.nu, wp.mu) if self.kind == HYPERBOLOID
                         else FerrersP(wp.nu, -wp.mu))
        if variant in (FRAK_MINUS, FRAKA_MINUS):
            # FRAK_MINUS's e^{i pi (nu - mu)}, FRAKA_MINUS's 1 plus that
            phase = cmath.exp(1j * math.pi * (wp.nu - wp.mu))
            self.phase = phase if variant == FRAK_MINUS else 1.0 + phase

    def __call__(self, rho: float) -> EvalResult:
        if self.kind == EUCLIDEAN:
            return euclidean_green(self.sign, self.m.d, self.beta, rho)
        mu = self.mu
        if self.kind == HYPERBOLOID:
            if not rho > 0:
                raise RangeError("rho must be positive")
            q = self.fn(_cosh(rho), rho)
            if self.constant is None:
                self.constant = _hyperboloid_constant(self.m, mu)
            out = q.scaled(self.constant * math.sinh(rho) ** (-mu))
        else:
            if not 0.0 < rho < math.pi:
                raise RangeError("rho must lie in (0, pi)")
            if self.sign == MINUS:
                if self.near_pole is None:
                    self.near_pole = pole_proximity(self.wp) < 1e-6
                if self.near_pole:
                    raise EigenvaluePoleError(
                        "beta within refusal window of a "
                        "Laplace-Beltrami eigenvalue")
            # FQ(cos rho), FP(-cos), or FP(-cos) - c FP(cos) (``reflect``)
            # with FRAK_MINUS's c = e^{i pi (nu - mu)} and the antipodal
            # variants' c = 1, times the constant over sin(rho)^mu (and
            # FRAKA's phase)
            if self.variant == LAPLACE_S:
                out = self.fn(math.cos(rho))
            elif self.variant in (S_PLUS, SF_MINUS):
                out = self.fn(-math.cos(rho))
            else:
                out = self.fn.reflect(math.cos(rho), self.phase
                                      if self.variant == FRAK_MINUS else 1.0)
            if self.constant is None and self.variant == LAPLACE_S:
                d, R = self.m.d, self.m.R
                self.constant, self.share = math.gamma(d - 1.0) * (
                    2.0 * math.pi) ** (-0.5 * d) * R ** (2 - d), 0.0
            elif self.constant is None:
                # Gamma(mu - nu) cannot pole for + : nu < mu for every beta
                self.constant, self.share = _sphere_constant(self.wp)
            pre = self.constant * math.sin(rho) ** (-mu)
            if self.variant == FRAKA_MINUS:
                pre = pre * self.phase
            out = out.scaled_rounded(pre, self.share)
        # a constant or a product past the double range: the kernel never
        # returns nan or inf
        if not (cmath.isfinite(out.value) and math.isfinite(out.abs_err_est)):
            raise RangeError(f"{self.variant} leaves the double range at "
                             f"beta = {self.beta}, rho = {rho}")
        return (out if self.kind == HYPERBOLOID or self.sign == PLUS
                else out.with_flags(CANDIDATE))
