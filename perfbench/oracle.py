"""High-precision reference values for the Green's functions (mpmath).

Each closed form is written out here from the ``curvgreen.greens``
docstrings, independently of the library code: the degree nu is formed
from beta in mpmath arithmetic, and the Legendre/Ferrers functions are
mpmath's ``legenq(..., type=3)`` (z > 1, with the e^{i pi mu} phase the
library's Q carries) and ``legenp(..., type=2)`` (Ferrers, -1 < x < 1).
The float inputs are taken as exact and everything is evaluated at 30
digits, so a reference value is good to double precision.  R = 1
throughout, as in every benchmark workload.
"""

from __future__ import annotations

import mpmath as mp

from workloads import HYPERBOLOID_VARIANTS

DPS = 30

# variants whose degree comes from (d-1)^2 + 4 beta^2 (the rest use -)
_PLUS_DISC = ("H_PLUS", "SF_MINUS", "FRAK_MINUS", "AF_MINUS", "FRAKA_MINUS")


def _degree(variant: str, d: int, beta):
    k = mp.mpf(d - 1) ** 2
    q = 4 * beta * beta
    if variant in _PLUS_DISC:
        return -mp.mpf(1) / 2 + mp.sqrt(k + q) / 2
    disc = k - q
    if disc >= 0:
        return -mp.mpf(1) / 2 + mp.sqrt(disc) / 2
    if variant in HYPERBOLOID_VARIANTS:
        return mp.mpc(-mp.mpf(1) / 2, -mp.sqrt(-disc) / 2)
    return mp.mpc(-mp.mpf(1) / 2, mp.sqrt(-disc) / 2)


def _green_mp(variant: str, d: int, beta, rho):
    """The closed form of ``variant`` at separation rho (mpmath numbers)."""
    half_d = mp.mpf(d) / 2
    mu = half_d - 1
    nu = _degree(variant, d, beta)
    if variant in HYPERBOLOID_VARIANTS:
        q = mp.legenq(nu, mu, mp.cosh(rho), type=3)
        return (mp.exp(-1j * mp.pi * mu) * (2 * mp.pi) ** (-half_d)
                * mp.sinh(rho) ** (-mu) * q)
    # Gamma(nu + mu + 1) Gamma(mu - nu) / (2^{d/2+1} pi^{d/2}) sin^{-mu}
    pre = (mp.gamma(nu + mu + 1) * mp.gamma(mu - nu)
           / (2 ** (half_d + 1) * mp.pi ** half_d) * mp.sin(rho) ** (-mu))
    x = mp.cos(rho)
    p_refl = mp.legenp(nu, -mu, -x, type=2)          # FP_nu^{-mu}(-x)
    if variant in ("S_PLUS", "SF_MINUS"):
        return pre * p_refl
    p_direct = mp.legenp(nu, -mu, x, type=2)         # FP_nu^{-mu}(x)
    if variant in ("A_PLUS", "AF_MINUS"):
        return pre * (p_refl - p_direct)
    phase = mp.exp(1j * mp.pi * (nu - mu))
    if variant == "FRAK_MINUS":
        return pre * (p_refl - phase * p_direct)
    if variant == "FRAKA_MINUS":
        return pre * (1 + phase) * (p_refl - p_direct)
    raise ValueError(f"no oracle for variant {variant!r}")


def green(variant: str, d: int, beta: float, rho: float) -> complex:
    """Reference value of ``green_value(variant, M(d, R=1), beta, rho)``."""
    with mp.workdps(DPS):
        return complex(_green_mp(variant, d, mp.mpf(beta), mp.mpf(rho)))


def composite_green(variant: str, d: int, beta: float, r1: float,
                    r2: float, gamma: float) -> complex:
    """Reference value of the Green's function of a two-point
    configuration (radii r1, r2 and separation angle gamma), i.e. the
    sum an expansion must converge to.  The composite separation is
    formed here in mpmath arithmetic."""
    with mp.workdps(DPS):
        a, b, cg = mp.mpf(r1), mp.mpf(r2), mp.cos(mp.mpf(gamma))
        if variant in HYPERBOLOID_VARIANTS:
            rho = mp.acosh(mp.cosh(a) * mp.cosh(b)
                           - mp.sinh(a) * mp.sinh(b) * cg)
        else:
            rho = mp.acos(mp.cos(a) * mp.cos(b)
                          + mp.sin(a) * mp.sin(b) * cg)
        return complex(_green_mp(variant, d, mp.mpf(beta), rho))


def reference(op) -> complex | None:
    """Reference value for one benchmark op, None if the op has none."""
    kind = op[0]
    if kind == "green":
        return green(*op[1:])
    if kind == "expand":
        return composite_green(*op[1:])
    return None


def main() -> None:
    """Worker loop: a JSON op list per stdin line, its reference values
    (``[re, im]`` or null) as one JSON line on stdout."""
    import json
    import sys
    for line in sys.stdin:
        refs = [reference(tuple(op)) for op in json.loads(line)]
        print(json.dumps([None if r is None else [r.real, r.imag]
                          for r in refs]), flush=True)


if __name__ == "__main__":
    main()
