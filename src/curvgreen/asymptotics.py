"""Uniform large-degree approximants for Legendre and Ferrers functions.

Leading-order Bessel-type approximations, uniformly valid in the
argument, for four regimes:

* Legendre functions at large positive degree (modified Bessel I/K),
* associated Legendre conical functions at large tau (Bessel/Hankel),
* Ferrers functions at large positive degree (J/Y combinations),
* Ferrers conical functions at large tau (I/K with e^{pi tau} factors),

plus the two-branch approximants for the odd Ferrers combination.  Each
approximant is scale * sum c_k f_k over Bessel-type functions f_k, and
its ``envelope_scale`` is |scale| * sum |c_k| env_k, with env_k a
zero-free envelope of f_k (f_k itself for I and K).  That is the
normalizer for the O(1/parameter) error claims: the raw value passes
through zeros, and terms that cancel still carry their own errors.

``empirical_order`` fits the error-decay exponent from a sweep, used to
confirm the first-order character of the corrections.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientDataError
from .specfun import cyl, env_h, env_j

LEGENDRE_LARGE_NU = "LEGENDRE_LARGE_NU"
CONICAL_LARGE_TAU = "CONICAL_LARGE_TAU"
FERRERS_LARGE_NU = "FERRERS_LARGE_NU"
FERRERS_CONICAL = "FERRERS_CONICAL"
ODD_FERRERS = "ODD_FERRERS"

# the Ferrers approximants hold uniformly on theta in (0, pi - _DELTA]
_DELTA = 0.1


@dataclass(frozen=True)
class AsymptoticApprox:
    """Leading-order value plus the envelope magnitude at the same point."""

    value: complex
    envelope_scale: float
    regime: str


def _bessel(kind: str, mu: float, x: float):
    """cyl(kind, mu, x).value, real for J, Y, I and K."""
    v = cyl(kind, mu, x).value
    return v if kind in ("H1", "H2") else v.real


def _env_y(mu: float, x: float) -> float:
    # |H1| bounds both J and Y oscillation magnitudes away from 0
    return env_h("H1", mu, x)


def _approx(regime: str, scale, *terms) -> AsymptoticApprox:
    """scale * sum(c f) over (c, f, env) triples, with the envelope
    |scale| * sum(|c| env)."""
    (c, f, env), *rest = terms
    value, size = c * f, abs(c) * env
    for c, f, env in rest:
        value, size = value + c * f, size + abs(c) * env
    return AsymptoticApprox(complex(scale * value), abs(scale) * size, regime)


def _cs(t: float) -> tuple:
    return math.cos(math.pi * t), math.sin(math.pi * t)


def legendre_large_nu(kind: str, nu: float, mu: float,
                      r: float) -> AsymptoticApprox:
    """Large-degree approximants for P_nu^{-mu} and Q_nu^{mu} at cosh r.

    kind 'P_neg_mu': nu^{-mu} sqrt(r/sinh r) I_mu((nu+1/2) r)
    kind 'Q_mu'    : e^{i pi mu} nu^{mu} sqrt(r/sinh r) K_mu((nu+1/2) r)
    """
    if not (nu > 0 and r > 0 and mu >= 0):
        raise DomainError("requires nu > 0, mu >= 0, r > 0")
    x = (nu + 0.5) * r
    root = math.sqrt(r / math.sinh(r))
    if kind == "P_neg_mu":
        i = _bessel("I", mu, x)
        return _approx(LEGENDRE_LARGE_NU, nu ** (-mu) * root, (1.0, i, i))
    if kind == "Q_mu":
        k = _bessel("K", mu, x)
        return _approx(LEGENDRE_LARGE_NU, cmath.exp(1j * math.pi * mu)
                       * nu ** mu * root, (1.0, k, k))
    raise DomainError("kind must be 'P_neg_mu' or 'Q_mu'")


def conical_large_tau(kind: str, tau: float, mu: float,
                      r: float) -> AsymptoticApprox:
    """Large-tau approximants for the conical Legendre functions at cosh r.

    kind:
      'P_neg'          P_{-1/2 +/- i tau}^{-mu} ~ tau^{-mu} sqrt(r/sinh r) J_mu(tau r)
      'P_pos'          P_{-1/2 +/- i tau}^{+mu} ~ tau^{mu} sqrt(r/sinh r)
                           [cos(pi mu) J_mu - sin(pi mu) Y_mu](tau r)
      'Q_plus_branch'  Q_{-1/2 + i tau}^{mu} ~ -(i pi/2) e^{i pi mu} tau^{mu}
                           sqrt(r/sinh r) H^(2)_mu(tau r)
      'Q_minus_branch' Q_{-1/2 - i tau}^{mu} ~ +(i pi/2) e^{i pi mu} tau^{mu}
                           sqrt(r/sinh r) H^(1)_mu(tau r)
    """
    if not (tau > 0 and mu >= 0):
        raise DomainError("requires tau > 0, mu >= 0")
    if r < 0 or (r == 0 and kind != "P_neg"):
        raise DomainError("requires r > 0 (r >= 0 for P_neg)")
    if kind == "P_neg" and r == 0.0:
        return _approx(CONICAL_LARGE_TAU, 1.0,
                       (1.0, 0.0 if mu > 0 else 1.0, 1.0))
    x = tau * r
    root = math.sqrt(r / math.sinh(r))
    if kind == "P_neg":
        return _approx(CONICAL_LARGE_TAU, tau ** (-mu) * root,
                       (1.0, _bessel("J", mu, x), env_j(mu, x)))
    if kind == "P_pos":
        c, s = _cs(mu)
        return _approx(CONICAL_LARGE_TAU, tau ** mu * root,
                       (c, _bessel("J", mu, x), env_j(mu, x)),
                       (-s, _bessel("Y", mu, x), _env_y(mu, x)))
    if kind not in ("Q_plus_branch", "Q_minus_branch"):
        raise DomainError(f"unknown conical kind {kind!r}")
    w, h = (-0.5j, "H2") if kind == "Q_plus_branch" else (0.5j, "H1")
    return _approx(CONICAL_LARGE_TAU, w * math.pi * cmath.exp(1j * math.pi * mu)
                   * tau ** mu * root,
                   (1.0, _bessel(h, mu, x), env_h(h, mu, x)))


_FERRERS_KINDS = ("P_neg", "P_pos", "Q_neg", "Q_pos", "P_neg_refl",
                  "Q_neg_refl")


def ferrers_large_nu(kind: str, nu: float, mu: float,
                     theta: float) -> AsymptoticApprox:
    """Large-degree approximants for the six Ferrers kinds at cos theta.

    kinds (argument x = (nu + 1/2) theta, root = sqrt(theta/sin theta)):
      'P_neg'      FP_nu^{-mu}(cos th)  ~ nu^{-mu} root J_mu(x)
      'P_pos'      FP_nu^{+mu}(cos th)  ~ nu^{mu} root [cos(pi mu) J - sin(pi mu) Y]
      'Q_neg'      FQ_nu^{-mu}(cos th)  ~ -(pi/(2 nu^mu)) root Y_mu(x)
      'Q_pos'      FQ_nu^{+mu}(cos th)  ~ -(pi nu^mu/2) root [sin(pi mu) J + cos(pi mu) Y]
      'P_neg_refl' FP_nu^{-mu}(-cos th) ~ nu^{-mu} root [cos(pi(nu-mu)) J + sin(pi(nu-mu)) Y]
      'Q_neg_refl' FQ_nu^{-mu}(-cos th) ~ -(pi/(2 nu^mu)) root [sin(pi(nu-mu)) J - cos(pi(nu-mu)) Y]

    Valid uniformly for theta in (0, pi - _DELTA].
    """
    if kind not in _FERRERS_KINDS:
        raise DomainError(f"kind must be one of {_FERRERS_KINDS}")
    if not (nu > 0 and mu >= 0):
        raise DomainError("requires nu > 0, mu >= 0")
    if not 0.0 < theta <= math.pi - _DELTA:
        raise DomainError(f"theta must lie in (0, pi - {_DELTA}]")
    x = (nu + 0.5) * theta
    root = math.sqrt(theta / math.sin(theta))
    j = (_bessel("J", mu, x), env_j(mu, x))
    y = (_bessel("Y", mu, x), _env_y(mu, x))
    if kind == "P_neg":
        return _approx(FERRERS_LARGE_NU, nu ** (-mu) * root, (1.0, *j))
    if kind == "Q_neg":
        return _approx(FERRERS_LARGE_NU, -(math.pi / (2.0 * nu ** mu)) * root,
                       (1.0, *y))
    if kind == "P_pos":
        c, s = _cs(mu)
        return _approx(FERRERS_LARGE_NU, nu ** mu * root, (c, *j), (-s, *y))
    if kind == "Q_pos":
        c, s = _cs(mu)
        return _approx(FERRERS_LARGE_NU, -(math.pi * nu ** mu / 2.0) * root,
                       (s, *j), (c, *y))
    c, s = _cs(nu - mu)
    if kind == "P_neg_refl":
        return _approx(FERRERS_LARGE_NU, nu ** (-mu) * root, (c, *j), (s, *y))
    return _approx(FERRERS_LARGE_NU, -(math.pi / (2.0 * nu ** mu)) * root,
                   (s, *j), (-c, *y))


def ferrers_conical_large_tau(kind: str, tau: float, mu: float, theta: float,
                              branch: int = +1) -> AsymptoticApprox:
    """Large-tau approximants for Ferrers conical functions at cos theta.

    kinds (x = tau theta, root = sqrt(theta/sin theta), branch the sign
    in nu = -1/2 +/- i tau):
      'P_neg'      FP^{-mu} ~ tau^{-mu} root I_mu(x)
      'P_pos'      FP^{+mu} ~ tau^{mu} root [I_mu + (2/pi) sin(pi mu) K_mu]
      'Q_neg'      FQ^{-mu} ~ tau^{-mu} root [e^{-/+ i pi mu} K_mu -/+ (i pi/2) I_mu]
      'Q_pos'      FQ^{+mu} ~ tau^{mu} root [cos(pi mu) K_mu -/+ (i pi/2) I_mu]
      'P_neg_refl' FP^{-mu}(-cos th) ~ (e^{pi tau}/(pi tau^mu)) root K_mu(x)
      'Q_neg_refl' FQ^{-mu}(-cos th) ~ -/+ (i e^{pi tau}/(2 tau^mu)) root K_mu(x)

    The two I/K terms of 'P_pos', 'Q_neg' and 'Q_pos' carry independent
    error terms that do not factor; their envelope is the absolute-value
    sum.
    """
    if kind not in _FERRERS_KINDS:
        raise DomainError(f"kind must be one of {_FERRERS_KINDS}")
    if branch not in (+1, -1):
        raise DomainError("branch must be +1 or -1")
    if not (tau > 0 and mu >= 0):
        raise DomainError("requires tau > 0, mu >= 0")
    if not 0.0 < theta <= math.pi - _DELTA:
        raise DomainError(f"theta must lie in (0, pi - {_DELTA}]")
    x = tau * theta
    root = math.sqrt(theta / math.sin(theta))
    ix, kx = _bessel("I", mu, x), _bessel("K", mu, x)
    i, k = (ix, ix), (kx, kx)  # I and K are their own envelopes
    sgn = 1.0 if branch == +1 else -1.0
    if kind == "P_neg":
        return _approx(FERRERS_CONICAL, tau ** (-mu) * root, (1.0, *i))
    if kind == "P_pos":
        return _approx(FERRERS_CONICAL, tau ** mu * root, (1.0, *i),
                       ((2.0 / math.pi) * math.sin(math.pi * mu), *k))
    if kind == "Q_neg":
        return _approx(FERRERS_CONICAL, tau ** (-mu) * root,
                       (cmath.exp(-sgn * 1j * math.pi * mu), *k),
                       (-sgn * 0.5j * math.pi, *i))
    if kind == "Q_pos":
        return _approx(FERRERS_CONICAL, tau ** mu * root,
                       (math.cos(math.pi * mu), *k),
                       (-sgn * 0.5j * math.pi, *i))
    if kind == "P_neg_refl":
        return _approx(FERRERS_CONICAL, math.exp(math.pi * tau)
                       / (math.pi * tau ** mu) * root, (1.0, *k))
    return _approx(FERRERS_CONICAL, -sgn * 0.5j * math.exp(math.pi * tau)
                   / tau ** mu * root, (1.0, *k))


def odd_ferrers_asymptotic(regime: str, param: float, mu: float,
                           theta: float) -> AsymptoticApprox:
    """Two-branch approximants for the odd combination f_nu^{-mu}(cos theta).

    regime 'LARGE_NU' (param = nu) uses the J/Y form on (0, pi/2] and
    its theta -> pi - theta reflection on [pi/2, pi); regime 'CONICAL'
    (param = tau) uses the e^{pi tau} K / I form.  The reflected branch
    equals minus the direct branch at the reflected angle, so the
    approximant is odd about pi/2 by construction.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError("theta must lie in (0, pi)")
    if theta > 0.5 * math.pi:
        inner = odd_ferrers_asymptotic(regime, param, mu, math.pi - theta)
        return AsymptoticApprox(-inner.value, inner.envelope_scale,
                                ODD_FERRERS)
    root = math.sqrt(theta / math.sin(theta))
    if regime == "LARGE_NU":
        nu = param
        x = (nu + 0.5) * theta
        c, s = _cs(nu - mu)
        return _approx(ODD_FERRERS, nu ** (-mu) * root,
                       (c - 1.0, _bessel("J", mu, x), env_j(mu, x)),
                       (s, _bessel("Y", mu, x), _env_y(mu, x)))
    if regime == "CONICAL":
        tau = param
        x = tau * theta
        kx, ix = _bessel("K", mu, x), _bessel("I", mu, x)
        return _approx(ODD_FERRERS, tau ** (-mu) * root,
                       (math.exp(math.pi * tau) / math.pi, kx, kx),
                       (-1.0, ix, ix))
    raise DomainError("regime must be 'LARGE_NU' or 'CONICAL'")


def empirical_order(params, errors) -> float:
    """Least-squares slope of log |error| against log parameter.

    Used to confirm O(1/parameter) error claims: a clean first-order
    decay fits an exponent close to -1.
    """
    params = [float(p) for p in params]
    errors = [float(e) for e in errors]
    if len(params) < 3 or len(errors) != len(params):
        raise InsufficientDataError("need at least 3 (param, error) pairs")
    if min(params) <= 0 or min(errors) < 0:
        raise DomainError("params must be positive, errors nonnegative")
    return _loglog_slope(params, [max(e, 1e-300) for e in errors])


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x (x, y > 0)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    sxy = math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly))
    sxx = math.fsum((u - mx) ** 2 for u in lx)
    if not sxx:
        raise InsufficientDataError("need two distinct parameters")
    return sxy / sxx
