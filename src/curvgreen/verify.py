"""Verification harness: every checkable claim as a numerical check.

Builds CheckReports for

* normalization integrals of the sphere solutions (+1/beta^2, 0,
  -1/beta^2 and the complex non-normalized value of the FRAK candidate),
* the epsilon-ball divergence-theorem constraint,
* radial ODE residuals of every Green's-function variant and of the
  homogeneous radial solutions (5-point finite differences),
* flat-space limits (errors against the Euclidean solutions must fall
  along an increasing R sweep; the SF candidate must instead oscillate),
* beta -> 0 limits (antipodal variants converge to the Laplace
  solutions, single-source sphere variants diverge like 1/beta^2 with
  a predicted constant),
* the closed-form weighted-integral identity for the Ferrers function
  of the first kind (adaptive quadrature against a gamma-function
  expression).

A check that evaluates one Green's function at many rho (an ODE
residual's stencils, the normalization and epsilon-ball nodes) shares
one ``GreenKernel``, the weighted-integral check one ``FerrersP``, and
drops it with the check.  Every sphere variant of one manifold,
wavenumber and sign is a combination of the same two values
FP_nu^{-mu}(+-cos rho), so within ``default_suite`` the variants of such
a family (S_PLUS and A_PLUS; SF, FRAK, AF and FRAKA_MINUS) read one
``FerrersP`` that keeps each value by its argument: an ODE row's six
sphere variants make 80 evaluations instead of 200, and the
normalization and epsilon-ball checks of one family share their
quadrature nodes.  The suite drops each family with its checks, so no
value outlives one ``default_suite`` call.  Checks are pure given their
configuration and deterministic, so every report is reproducible bit
for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import quadrature
from .asymptotics import _loglog_slope
from .errors import DomainError, GridError, WrongVariantError
from .geometry import (HYPERBOLOID, HYPERSPHERE, ManifoldSpec,
                       sphere_surface_measure)
from .greens import (A_PLUS, AF_MINUS, ALL_VARIANTS, FRAK_MINUS, FRAKA_MINUS,
                     H_MINUS, H_PLUS, MINUS, PLUS, S_PLUS, SF_MINUS,
                     VARIANT_SPACES, GreenKernel, WaveParams, euclidean_green,
                     green_value, laplace_green)
from .legendre import FerrersP
from .specfun import _cgamma

quad = quadrature.quad
_H = 1e-3  # radial_residual's stencil step


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    PASS means |measured - target| <= tolerance in the sense recorded
    in the notes (absolute or relative).
    """

    check_id: str
    status: str
    measured: float
    target: float
    tolerance: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _report(check_id, measured, target, tol, relative=True, notes=""):
    if relative:
        gap = abs(measured - target) / max(abs(target), 1e-300)
        kind = "relative"
    else:
        gap = abs(measured - target)
        kind = "absolute"
    status = "PASS" if gap <= tol else "FAIL"
    note = f"{kind} gap {gap:.3e}"
    if notes:
        note += "; " + notes
    return CheckReport(check_id, status, float(measured), float(target),
                       float(tol), note)


# ----------------------------------------------------------------------
# Radial ODE residuals
# ----------------------------------------------------------------------

class _SharedFerrersP(FerrersP):
    """FP_nu^{-mu} at the degree and order of a sphere WaveParams, for every
    variant of its family to read (``GreenKernel``'s ``fn``).  It keeps
    each value it returns by argument; a refusal is not kept, so it
    raises again at the next call."""

    def __init__(self, wp):
        super().__init__(wp.nu, -wp.mu)
        self.values = {}

    def __call__(self, x):
        out = self.values.get(x)
        if out is None:
            out = self.values[x] = super().__call__(x)
        return out


def _variant_function(variant, wp, fp=None):
    """The variant's value at rho, from one GreenKernel for every rho;
    fp, where given, is the _SharedFerrersP of the variant's family."""
    kernel = GreenKernel(variant, wp.manifold, wp.beta, fn=fp)
    return lambda rho: kernel(rho).value


def radial_residual(fn, wp: WaveParams, l: int, grid,
                    variant: str | None = None) -> float:
    """Max scaled residual of the radial Helmholtz ODE over the grid.

    ``fn`` is a callable of the radial coordinate (or None, with
    ``variant`` naming a Green's function; then l must be 0).  The
    second derivative couple is formed with 5-point central stencils of
    step _H, so the discretization error sits near 1e-9 of scale, far
    below the 1e-6 acceptance gate.
    """
    if fn is None:
        if variant is None:
            raise DomainError("need a callable or a variant tag")
        if l != 0:
            raise DomainError("Green's functions are the l = 0 solutions")
        fn = _variant_function(variant, wp)
    kind = wp.manifold.kind
    upper = math.inf if kind == HYPERBOLOID else math.pi
    for x in grid:
        if x < 1e-2 or x > upper - 1e-2:
            raise GridError("grid must exclude 1e-2 endpoint neighborhoods")
    d = wp.manifold.d
    b2 = wp.beta ** 2 * wp.manifold.R ** 2
    sgn = 1.0 if wp.sign == PLUS else -1.0
    ll = l * (l + d - 2.0)
    worst = 0.0
    for x in grid:
        f = [fn(x + k * _H) for k in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * _H)
        d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) \
            / (12.0 * _H * _H)
        if kind == HYPERBOLOID:
            cot = math.cosh(x) / math.sinh(x)
            cen = ll / math.sinh(x) ** 2 + sgn * b2
        else:
            cot = math.cos(x) / math.sin(x)
            cen = ll / math.sin(x) ** 2 + sgn * b2
        res = -d2 - (d - 1.0) * cot * d1 + cen * f[2]
        scale = (abs(d2) + (d - 1.0) * abs(cot) * abs(d1)
                 + abs(cen) * abs(f[2]))
        worst = max(worst, abs(res) / max(scale, 1e-300))
    return worst


# ----------------------------------------------------------------------
# Normalization and epsilon-ball constraints
# ----------------------------------------------------------------------

def _sphere_integral(fn, wp, tol=1e-9, lo=0.0, hi=math.pi):
    """Integral of fn(rho) over the sphere of wp (volume measure)."""
    d, R = wp.manifold.d, wp.manifold.R

    def integrand(th):
        return fn(th) * math.sin(th) ** (d - 1)

    mid = 0.5 * (lo + hi)
    parts = []
    if lo < mid:
        parts.append(quad(integrand, max(lo, 1e-13), mid, tol=0.5 * tol))
    if mid < hi:
        parts.append(quad(integrand, mid, min(hi, math.pi - 1e-13),
                          tol=0.5 * tol))
    total = sum(p.value for p in parts)
    return sphere_surface_measure(d, 1.0) * R ** d * total


def check_normalization(variant: str, wp: WaveParams,
                        tol: float = 1e-6) -> CheckReport:
    """Total-integral normalization of a sphere solution."""
    return _check_normalization(variant, wp, tol)


def _check_normalization(variant, wp, tol=1e-6, fp=None):
    """check_normalization, the variant read through fp where given."""
    if wp.manifold.kind != HYPERSPHERE:
        raise WrongVariantError("normalization checks cover the sphere")
    b2 = wp.beta ** 2
    if variant == S_PLUS:
        target = 1.0 / b2
    elif variant in (A_PLUS, AF_MINUS, FRAKA_MINUS):
        target = 0.0
    elif variant == SF_MINUS:
        target = -1.0 / b2
    elif variant == FRAK_MINUS:
        target = -(1.0 - cmath.exp(1j * math.pi * (wp.nu - wp.mu))) / b2
    else:
        raise WrongVariantError(f"no normalization target for {variant!r}")
    val = _sphere_integral(_variant_function(variant, wp, fp),
                           wp, tol=abs(tol) * max(1.0, 1.0 / b2) * 1e-3)
    if variant == FRAK_MINUS:
        gap = abs(val - target) / abs(target)
        status = "PASS" if gap <= tol else "FAIL"
        return CheckReport(f"norm[{variant},d={wp.manifold.d}]", status,
                           abs(val), abs(target), tol,
                           f"complex relative gap {gap:.3e}")
    measured = val.real if isinstance(val, complex) else val
    if target == 0.0:
        return _report(f"norm[{variant},d={wp.manifold.d}]", measured,
                       0.0, tol / b2, relative=False,
                       notes="absolute, scaled by 1/beta^2")
    return _report(f"norm[{variant},d={wp.manifold.d}]", measured, target,
                   tol)


def check_eps_ball(variant: str, wp: WaveParams,
                   eps: float = 1e-2) -> CheckReport:
    """Divergence-theorem constraint on a geodesic ball of radius R eps."""
    return _check_eps_ball(variant, wp, eps)


def _check_eps_ball(variant, wp, eps=1e-2, fp=None):
    """check_eps_ball, the variant read through fp where given."""
    if not 1e-3 <= eps <= 1e-1:
        raise DomainError("eps must lie in [1e-3, 1e-1]")
    d, R = wp.manifold.d, wp.manifold.R
    fn = _variant_function(variant, wp, fp)
    ball = _sphere_integral(fn, wp, tol=1e-10, lo=0.0, hi=eps)
    sgn = 1.0 if wp.sign == PLUS else -1.0
    lhs = -1.0 + sgn * wp.beta ** 2 * ball
    step = eps / 100.0
    du = (fn(eps + step) - fn(eps - step)) / (2.0 * step)
    rhs = (du / R) * sphere_surface_measure(d, R * math.sin(eps))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    status = "PASS" if gap <= 1e-3 else "FAIL"
    return CheckReport(f"epsball[{variant},d={d}]", status,
                       float(rhs.real if isinstance(rhs, complex) else rhs),
                       float(lhs.real if isinstance(lhs, complex) else lhs),
                       1e-3, f"relative gap {gap:.3e} at eps={eps}")


# ----------------------------------------------------------------------
# Limit sweeps
# ----------------------------------------------------------------------

def _monotone_decreasing(seq, slack=0.1):
    """True if the sequence falls, tolerating one step up by <= slack."""
    bad = 0
    for a, b in zip(seq, seq[1:]):
        if b > a * (1.0 + slack):
            return False
        if b > a:
            bad += 1
    return bad <= 1


def check_flat_limit(variant: str, d: int, beta: float, r_phys: float,
                     R_list) -> CheckReport:
    """Flat-space limit: errors against the Euclidean solution must fall
    along the R sweep; SF_MINUS must instead show the oscillatory
    non-convergence of its flat limit (sign changes, no decay)."""
    R_list = sorted(R_list)
    kind, sign = VARIANT_SPACES[variant]
    ref = euclidean_green(sign, d, beta, r_phys).value
    errs = []
    signed = []
    for R in R_list:
        m = ManifoldSpec(kind, d, R)
        val = green_value(variant, m, beta, r_phys / R).value
        errs.append(abs(val - ref) / abs(ref))
        signed.append((val - ref).real)
    if variant == SF_MINUS:
        flips = sum(1 for a, b in zip(signed, signed[1:]) if a * b < 0)
        oscillating = flips >= 2 and not _monotone_decreasing(errs)
        status = "PASS" if oscillating else "FAIL"
        return CheckReport(f"flat[{variant},d={d}]", status,
                           float(flips), 2.0, 0.0,
                           f"sign flips {flips}, errors {errs[0]:.2e}"
                           f"->{errs[-1]:.2e} (oscillation expected)")
    ok = _monotone_decreasing(errs)
    status = "PASS" if ok else "FAIL"
    return CheckReport(f"flat[{variant},d={d}]", status, errs[-1], 0.0,
                       errs[0],
                       "errors along R " + ", ".join(f"{e:.2e}" for e in errs))


def check_beta_zero_limit(variant: str, m: ManifoldSpec, rho: float = 0.9,
                          betas=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7),
                          tol: float = 1e-5) -> CheckReport:
    """beta -> 0 behavior on the sphere.

    Antipodal variants converge to the Laplace antipodal solution;
    single-source variants diverge like C/beta^2 with
    C = Gamma((d+1)/2) / (2 pi^{(d+1)/2} R^d).

    The antipodal comparison is made at the single beta =
    max(min(betas), 1e-3), where the O(beta^2) limit gap is already below
    the tolerance: the odd combination loses a digit per decade of beta
    to cancellation, so probing much deeper only measures roundoff.
    """
    d, R = m.d, m.R
    if variant in (A_PLUS, AF_MINUS, FRAKA_MINUS):
        b = max(min(betas), 1e-3)
        val = green_value(variant, m, b, rho).value
        ref = laplace_green(m, rho).value
        return _report(f"beta0[{variant},d={d}]", abs(val), abs(ref), tol,
                       notes=f"at beta={b}")
    if variant not in (S_PLUS, SF_MINUS):
        raise WrongVariantError(f"no beta->0 statement for {variant!r}")
    bs = sorted(betas, reverse=True)
    vals = [abs(green_value(variant, m, b, rho).value) for b in bs]
    slope = _loglog_slope(bs, vals)
    c_pred = (_cgamma(0.5 * (d + 1.0)).real
              / (2.0 * math.pi ** (0.5 * (d + 1.0)) * R ** d))
    c_meas = vals[-1] * bs[-1] ** 2
    ok = abs(slope + 2.0) <= 0.1 and abs(c_meas - c_pred) <= 0.01 * c_pred
    status = "PASS" if ok else "FAIL"
    return CheckReport(f"beta0[{variant},d={d}]", status, slope, -2.0, 0.1,
                       f"divergence constant {c_meas:.6e} vs {c_pred:.6e}")


# ----------------------------------------------------------------------
# Weighted-integral (Mellin-type) identity
# ----------------------------------------------------------------------

def mellin_reference(alpha: float, mu: float, nu: float) -> float:
    """Closed gamma-function value of
    int_{-1}^{1} (1-x^2)^{alpha-1} FP_nu^{-mu}(+/-x) dx."""
    num = math.pi * _cgamma(alpha + 0.5 * mu).real \
        * _cgamma(alpha - 0.5 * mu).real
    den = (2.0 ** mu * _cgamma(alpha + 0.5 * (nu + 1.0))
           * _cgamma(alpha - 0.5 * nu)
           * _cgamma(0.5 * (nu + mu + 2.0))
           * _cgamma(0.5 * (mu - nu + 1.0))).real
    return num / den


def check_mellin(alpha: float, mu: float, nu: float,
                 tol: float = 1e-8) -> CheckReport:
    """Quadrature of the weighted Ferrers integrand against the closed
    gamma expression; both endpoint algebraic behaviors are declared."""
    fp = FerrersP(nu, -mu)

    def integrand(x):
        return (1.0 - x * x) ** (alpha - 1.0) * fp(x).value.real

    left = quad(integrand, -1.0 + 1e-15, 0.0, tol=tol * 1e-2,
                hint=("left_alg", 1.0 - alpha + 0.5 * mu))
    right = quad(integrand, 0.0, 1.0 - 1e-15, tol=tol * 1e-2,
                 hint=("right_alg", 1.0 - alpha - 0.5 * mu))
    val = left.value + right.value
    ref = mellin_reference(alpha, mu, nu)
    return _report(f"mellin[a={alpha},mu={mu},nu={nu}]", val, ref, tol)


# ----------------------------------------------------------------------
# Default suite
# ----------------------------------------------------------------------

def default_suite() -> list:
    """The default verification battery (used by the CLI).

    Covers normalization, eps-ball, ODE residuals for all variants in
    d = 2, 3, 4 (one damped and one oscillatory wavenumber per regime
    where the regime exists), flat-space and beta -> 0 limits, and the
    weighted-integral identity.  The sphere variants of one family read
    one _SharedFerrersP, dropped with the family's checks.
    """
    reports = []
    # normalization + eps-ball, d in {3, 4}
    for d in (3, 4):
        ms = ManifoldSpec(HYPERSPHERE, d, 1.0)
        wpp = WaveParams(ms, 1.3, PLUS)
        wpm = WaveParams(ms, 0.8, MINUS)
        plus, minus = _SharedFerrersP(wpp), _SharedFerrersP(wpm)
        reports.append(_check_normalization(S_PLUS, wpp, fp=plus))
        reports.append(_check_normalization(A_PLUS, wpp, fp=plus))
        reports.append(_check_normalization(SF_MINUS, wpm, fp=minus))
        reports.append(_check_normalization(FRAK_MINUS, wpm, fp=minus))
        reports.append(_check_eps_ball(S_PLUS, wpp, fp=plus))
        reports.append(_check_eps_ball(A_PLUS, wpp, fp=plus))
        reports.append(_check_eps_ball(SF_MINUS, wpm, fp=minus))
    # ODE residuals, all variants, d in {2, 3, 4}, two regimes
    grids = {HYPERBOLOID: [0.35, 0.8, 1.6, 2.4],
             HYPERSPHERE: [0.35, 0.9, 1.7, 2.6]}
    for d in (2, 3, 4):
        for beta in (0.4, 1.7):
            sphere = ManifoldSpec(HYPERSPHERE, d, 1.0)
            families = {sign: _SharedFerrersP(WaveParams(sphere, beta, sign))
                        for sign in (PLUS, MINUS)}
            for variant in ALL_VARIANTS:
                kind, sign = VARIANT_SPACES[variant]
                wp = WaveParams(ManifoldSpec(kind, d, 1.0), beta, sign)
                fp = families[sign] if kind == HYPERSPHERE else None
                res = radial_residual(_variant_function(variant, wp, fp),
                                      wp, 0, grids[kind])
                reports.append(_report(
                    f"ode[{variant},d={d},beta={beta}]", res, 0.0, 1e-6,
                    relative=False))
    # flat-space limits
    for variant, d in ((H_PLUS, 3), (H_MINUS, 3), (S_PLUS, 3), (A_PLUS, 3),
                       (FRAK_MINUS, 2)):
        reports.append(check_flat_limit(variant, d, 0.5, 0.6,
                                        (10.0, 30.0, 100.0, 300.0)))
    reports.append(check_flat_limit(
        SF_MINUS, 3, 0.5, 0.6,
        tuple(10.0 + 1.3 * k for k in range(10))))
    # beta -> 0 limits
    for d in (3, 4):
        ms = ManifoldSpec(HYPERSPHERE, d, 1.0)
        reports.append(check_beta_zero_limit(A_PLUS, ms))
        reports.append(check_beta_zero_limit(S_PLUS, ms))
        reports.append(check_beta_zero_limit(SF_MINUS, ms))
    # weighted-integral identity
    for alpha, mu, nu in ((1.0, 0.0, 0.0), (1.3, 0.8, 0.5), (2.0, 1.5, 1.2)):
        reports.append(check_mellin(alpha, mu, nu))
    return reports
