"""Legendre/Ferrers functions: closed forms, connections, stability."""

import cmath
import math

import numpy as np
import pytest

from curvgreen.errors import DomainError, RangeError, UndefinedError
from curvgreen.legendre import (ferrers_p, ferrers_p_reflected, ferrers_q,
                                gegenbauer_function, half_odd_eval,
                                legendre_p, legendre_q, odd_ferrers_f)
from curvgreen.specfun import gamma_ratio, gegenbauer_c


def relerr(got, ref):
    got, ref = complex(got), complex(ref)
    return abs(got - ref) / max(abs(ref), 1e-300)


class TestLegendreP:
    def test_near_one_mu_zero(self):
        assert legendre_p(1.7, 0.0, 1.0 + 1e-12).value.real \
            == pytest.approx(1.0, abs=1e-10)

    def test_reference_value(self):
        # 30-digit reference, generic parameters
        ref = 2.03035210597458282356311822666
        assert relerr(legendre_p(1.4, -0.6, 2.2).value, ref) < 1e-13

    def test_conical_near_one_behavior(self):
        # P_{-1/2+i tau}^{-mu}(z) ~ ((z-1)/2)^{mu/2} / Gamma(mu+1)
        mu, tau = 1.0, 2.0
        z = 1.0 + 1e-8
        got = legendre_p(complex(-0.5, tau), -mu, z).value
        lead = ((z - 1.0) / 2.0) ** (mu / 2.0) / math.gamma(mu + 1.0)
        assert relerr(got, lead) < 1e-3

    def test_conjugate_degree_equality(self):
        tau, mu, z = 1.5, 0.7, 3.0
        a = legendre_p(complex(-0.5, tau), -mu, z).value
        b = legendre_p(complex(-0.5, -tau), -mu, z).value
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_conical_reference(self):
        ref = -0.0270277416594239964310792613399
        got = legendre_p(complex(-0.5, 2.0), -0.7, 3.0).value
        assert relerr(got, ref) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            legendre_p(1.0, 0.5, 0.9)


class TestLegendreQ:
    def test_log_closed_form(self):
        got = legendre_q(0.0, 0.0, 2.0).value
        assert got.real == pytest.approx(0.5 * math.log(3.0), rel=1e-13)
        assert got.real == pytest.approx(0.5493061443, rel=1e-9)

    def test_reference_value(self):
        ref = (0.0401512857503465502422429048756
               + 0.123572951150260919170614605779j)
        assert relerr(legendre_q(1.3, 0.4, 1.7).value, ref) < 1e-13

    def test_large_argument_asymptotic(self):
        nu, mu, z = 1.3, 0.4, 100.0
        got = legendre_q(nu, mu, z).value
        lead = (math.sqrt(math.pi) * math.gamma(nu + mu + 1.0)
                * cmath.exp(1j * math.pi * mu)
                / (math.gamma(nu + 1.5) * (2.0 * z) ** (nu + 1.0)))
        assert relerr(got, lead) < 0.02

    @pytest.mark.parametrize("mu", [170.5, 200.5, 300.0])
    def test_large_order_overflow_refuses(self, mu):
        # |Q| exceeds the double range; a nan/inf value or a bare
        # OverflowError must not escape
        with pytest.raises(RangeError):
            legendre_q(8.3378, mu, math.cosh(1.8056))

    def test_half_odd_closed_form(self):
        r = 1.0
        got = legendre_q(1.0, 0.5, math.cosh(r)).value
        ref = 1j * math.sqrt(math.pi / (2.0 * math.sinh(r))) \
            * math.exp(-1.5 * r)
        assert relerr(got, ref) < 1e-13


class TestOverflowRefusal:
    # every public route refuses an overflowing value with RangeError,
    # never a nan/inf result or a bare OverflowError
    @pytest.mark.parametrize("fn,name,mu,arg", [
        (ferrers_q, "FQ", 200.5, 0.3),             # half-odd route
        (legendre_p, "P", 200.5, math.cosh(1.8)),
        (ferrers_p, "FP", 200.5, 0.3),
        (ferrers_q, "FQ", 300.0, 0.3),
        (legendre_q, "Q", 300.0, math.cosh(1.8056)),
        (gegenbauer_function, "C", 170.5, 1.9),
    ])
    def test_refuses(self, fn, name, mu, arg):
        with pytest.raises(RangeError, match=rf"^{name}_nu\^mu overflows"):
            fn(8.3378, mu, arg)


class TestMehlerKernel:
    # one integral on both geometries, against mpmath at 30 digits
    @pytest.mark.parametrize("nu", [25.3, 47.0, -0.5 + 30j])
    @pytest.mark.parametrize("m", [0.0, 0.5])
    @pytest.mark.parametrize("hyperbolic,angle", [
        (False, 0.4), (False, 1.3), (False, 2.5), (True, 0.3), (True, 1.5)])
    def test_against_mpmath(self, nu, m, hyperbolic, angle):
        mpmath = pytest.importorskip("mpmath")
        from curvgreen.legendre import _mehler_p
        with mpmath.workdps(30):
            if hyperbolic:
                ref = mpmath.legenp(nu, -m, mpmath.cosh(angle), type=3)
            else:
                ref = mpmath.legenp(nu, -m, mpmath.cos(angle), type=2)
            ref = complex(ref)
        got = _mehler_p(nu, m, angle, hyperbolic)
        assert relerr(got.value, ref) < 1e-13
        assert got.terms_used > 0


class TestFerrersP:
    def test_near_one_mu_zero(self):
        assert ferrers_p(2.3, 0.0, 1.0 - 1e-12).value.real \
            == pytest.approx(1.0, abs=1e-10)

    def test_reference_value(self):
        ref = -0.932750694016936245538020080622
        assert relerr(ferrers_p(2.3, 0.7, 0.4).value, ref) < 1e-13

    def test_minus_half_order_trig(self):
        nu, th = 2.3, 1.0
        got = ferrers_p(nu, -0.5, math.cos(th)).value
        ref = (math.sqrt(2.0 / (math.pi * math.sin(th)))
               * math.sin((nu + 0.5) * th) / (nu + 0.5))
        assert relerr(got, ref) < 1e-12

    def test_conical_realness(self):
        got = ferrers_p(complex(-0.5, 2.0), -0.7, 0.4).value
        assert abs(got.imag) < 1e-12


class TestFerrersQ:
    def test_log_closed_form(self):
        got = ferrers_q(0.0, 0.0, 0.5).value
        assert got.real == pytest.approx(0.5 * math.log(3.0), rel=1e-13)

    def test_undefined_combination(self):
        with pytest.raises(UndefinedError):
            ferrers_q(-0.4, -0.6, 0.3)

    def test_half_order_trig(self):
        nu, th = 1.2, 0.8
        got = ferrers_q(nu, 0.5, math.cos(th)).value
        ref = -math.sqrt(math.pi / (2.0 * math.sin(th))) \
            * math.sin((nu + 0.5) * th)
        assert relerr(got, ref) < 1e-12

    def test_reference_value(self):
        ref = -0.483889990363269903219794846218
        assert relerr(ferrers_q(1.6, -0.8, -0.3).value, ref) < 1e-12

    def test_anomalous_degrees(self):
        # nu = -3/2, -5/2 with paired gamma poles resolve to the
        # half-order trig values (mpmath's direct evaluation at these
        # points disagrees with its own nu -> nu0 limit; the closed
        # form below is the limit)
        for nu in (-1.5, -2.5):
            th = math.acos(0.3)
            got = ferrers_q(nu, 0.5, 0.3).value
            ref = -math.sqrt(math.pi / (2.0 * math.sin(th))) \
                * math.sin((nu + 0.5) * th)
            assert relerr(got, ref) < 1e-12

    @pytest.mark.parametrize("nu,mu", [(-1.5, 0.5), (-1.5, -0.5),
                                       (-2.5, 0.5), (-2.5, -0.5)])
    @pytest.mark.parametrize("x", [0.3, -0.6])
    def test_anomalous_degree_limit(self, nu, mu, x):
        # both parities of nu + mu; the reference is mpmath's nu -> nu0
        # limit, since its value exactly at nu0 is another branch (a
        # factor -1/3 off)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = sum(complex(mpmath.legenq(nu + d, mu, x, type=2))
                      for d in (1e-12, -1e-12)) / 2.0
        assert relerr(ferrers_q(nu, mu, x).value, ref) < 1e-10

    def test_undefined_even_combination(self):
        # nu + mu = -2: only the cosine term survives, and its numerator
        # Gamma((nu + mu + 2)/2) has a pole where the denominator has none
        with pytest.raises(UndefinedError):
            ferrers_q(-0.7, -1.3, 0.3)

    # m = 2 at theta = 1.1 is left out: the Mehler quadrature of the
    # reflection route does not converge there
    @pytest.mark.parametrize("m,theta", [(1, 0.4), (1, 1.1), (1, 2.0),
                                         (1, 2.7), (2, 0.4)])
    def test_integer_order_large_degree(self, m, theta):
        # the order connection at sin(pi m) = 0, against mpmath
        mpmath = pytest.importorskip("mpmath")
        x = math.cos(theta)
        with mpmath.workdps(30):
            ref = complex(mpmath.legenq(25.3, m, x, type=2))
        assert relerr(ferrers_q(25.3, m, x).value, ref) < 1e-10


class TestFerrersPReflected:
    def test_vanishes_at_minus_one(self):
        got = ferrers_p_reflected(1.3, 1.5, -0.999999).value
        assert abs(got) < 1e-4

    def test_endpoint_rate(self):
        mu, x = 1.5, -1.0 + 1e-6
        got = ferrers_p_reflected(0.7, mu, x).value
        scaled = got / (1.0 - x * x) ** (mu / 2.0)
        ref = 1.0 / (2.0 ** mu * math.gamma(mu + 1.0))
        assert relerr(scaled, ref) < 1e-4

    def test_against_reflection_connection(self):
        # independent route: cos/sin(pi(nu - mu)) connection at +x
        nu, mu, x = 1.7, 2.0, 0.2
        direct = ferrers_p_reflected(nu, mu, x).value
        c = math.cos(math.pi * (nu + mu))  # order is -mu
        s = math.sin(math.pi * (nu + mu))
        conn = (c * ferrers_p(nu, -mu, x).value
                - (2.0 / math.pi) * s * ferrers_q(nu, -mu, x).value)
        assert abs(direct - conn) < 1e-11 * max(abs(direct), 1.0)

    def test_requires_positive_order(self):
        with pytest.raises(DomainError):
            ferrers_p_reflected(1.0, -0.5, 0.3)


class TestOddFerrers:
    def test_zero_at_origin(self):
        assert odd_ferrers_f(1.3, 0.4, 0.0).value == 0.0

    def test_identically_zero_even_case(self):
        # nu + mu a nonnegative even integer makes FP even
        for x in (0.1, 0.35, 0.7):
            assert abs(odd_ferrers_f(2.0, 0.0, x).value) < 1e-13

    def test_q_difference_proportionality(self):
        nu, mu, x = 0.8, 0.3, 0.5
        f = odd_ferrers_f(nu, mu, x).value
        qd = ferrers_q(nu, mu, -x).value - ferrers_q(nu, mu, x).value
        cot = math.cos(math.pi * (nu + mu) / 2.0) \
            / math.sin(math.pi * (nu + mu) / 2.0)
        assert abs(qd - 0.5 * math.pi * cot * f) < 1e-12


class TestHalfOdd:
    def test_q_half_closed_form(self):
        r = 1.0
        got = half_odd_eval("Q", 1.0, 0.5, math.cosh(r)).value
        ref = 1j * math.sqrt(math.pi / (2.0 * math.sinh(r))) \
            * math.exp(-1.5 * r)
        assert relerr(got, ref) < 1e-14

    def test_ferrers_p_consistency(self):
        got = half_odd_eval("FERRERS_P", 0.5, 0.5, 0.4).value
        ref = ferrers_p(0.5, 0.5, 0.4).value
        assert abs(got - ref) < 1e-10 * abs(ref)

    def test_recurrence_vs_hypergeometric(self):
        nu, z = 2.2, 1.8
        for kind, fn in (("P", legendre_p), ("Q", legendre_q)):
            got = half_odd_eval(kind, nu, 2.5, z).value
            ref = fn(nu, 2.5, z).value
            assert relerr(got, ref) < 1e-9

    def test_negative_orders(self):
        nu, z, x = 1.3, 1.6, 0.35
        for kind, fn, arg in (("P", legendre_p, z), ("Q", legendre_q, z),
                              ("FERRERS_P", ferrers_p, x),
                              ("FERRERS_Q", ferrers_q, x)):
            got = half_odd_eval(kind, nu, -1.5, arg).value
            ref = fn(nu, -1.5, arg).value
            assert relerr(got, ref) < 1e-9, kind

    def test_rejects_non_half_odd(self):
        with pytest.raises(DomainError):
            half_odd_eval("P", 1.0, 0.3, 2.0)


class TestGegenbauerFunction:
    def test_integer_degree_matches_polynomial(self):
        got = gegenbauer_function(3, 0.8, 1.1).value
        ref = gegenbauer_c(3, 0.8, math.cos(1.1))
        assert relerr(got, ref) < 1e-10

    def test_degree_zero(self):
        assert gegenbauer_function(0, 0.9, 0.5).value.real \
            == pytest.approx(1.0, rel=1e-12)

    def test_half_order_is_legendre(self):
        x = math.cos(0.6)
        got = gegenbauer_function(2, 0.5, 0.6).value
        p2 = 0.5 * (3.0 * x * x - 1.0)
        assert relerr(got, p2) < 1e-12


class TestConnectionFormulas:
    """Order/argument connection identities on seeded random grids."""

    def test_ferrers_order_connections(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            nu = rng.uniform(-0.4, 4.0)
            mu = rng.uniform(0.05, 2.8)
            x = rng.uniform(-0.9, 0.9)
            if abs(nu + mu - round(nu + mu)) < 1e-3 \
                    or abs(nu - mu - round(nu - mu)) < 1e-3:
                continue
            gr = gamma_ratio(nu - mu + 1.0, nu + mu + 1.0)
            c, s = math.cos(math.pi * mu), math.sin(math.pi * mu)
            lhs = ferrers_p(nu, -mu, x).value
            rhs = gr * (c * ferrers_p(nu, mu, x).value
                        - (2.0 / math.pi) * s * ferrers_q(nu, mu, x).value)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
            lhs = ferrers_q(nu, -mu, x).value
            rhs = gr * (c * ferrers_q(nu, mu, x).value
                        + 0.5 * math.pi * s * ferrers_p(nu, mu, x).value)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_ferrers_argument_reflections(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            nu = rng.uniform(-0.4, 4.0)
            mu = rng.uniform(0.05, 2.8)
            x = rng.uniform(-0.9, 0.9)
            if abs(nu + mu - round(nu + mu)) < 1e-3:
                continue
            c = math.cos(math.pi * (nu - mu))
            s = math.sin(math.pi * (nu - mu))
            lhs = ferrers_p(nu, -mu, -x).value
            rhs = (c * ferrers_p(nu, -mu, x).value
                   - (2.0 / math.pi) * s * ferrers_q(nu, -mu, x).value)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
            lhs = ferrers_q(nu, -mu, -x).value
            rhs = (-c * ferrers_q(nu, -mu, x).value
                   - 0.5 * math.pi * s * ferrers_p(nu, -mu, x).value)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_conical_connections(self):
        # order connection and second-kind order reflection at complex
        # conical degree, over the full tau/mu/z grid
        from curvgreen.specfun import _cgamma
        for tau in (0.5, 2.0, 10.0):
            nu = complex(-0.5, tau)
            for mu in (0.3, 1.0, 2.5):
                gr = _cgamma(0.5 + mu + 1j * tau) \
                    / _cgamma(0.5 - mu + 1j * tau)
                for z in (1.1, 2.0, 10.0):
                    lhs = legendre_p(nu, mu, z).value
                    rhs = (gr * legendre_p(nu, -mu, z).value
                           + (2.0 / math.pi)
                           * cmath.exp(-1j * math.pi * mu)
                           * math.sin(math.pi * mu)
                           * legendre_q(nu, mu, z).value)
                    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-6)
                    lhs = legendre_q(nu, -mu, z).value
                    rhs = (cmath.exp(-2j * math.pi * mu) / gr
                           * legendre_q(nu, mu, z).value)
                    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-6)


class TestRadialODE:
    """Every evaluated function satisfies the Legendre ODE under
    5-point finite differencing."""

    @pytest.mark.parametrize("fn,nu,mu,x0", [
        (legendre_p, 1.7, 0.6, 1.8),
        (legendre_q, 1.7, 0.6, 1.8),
        (legendre_p, complex(-0.5, 2.0), -1.0, 1.4),
        (legendre_q, complex(-0.5, -2.0), 0.5, 2.5),
        (ferrers_p, 2.3, 1.1, 0.4),
        (ferrers_q, 2.3, 1.1, 0.4),
        (ferrers_p, complex(-0.5, 1.5), -0.7, -0.3),
        (ferrers_q, 0.8, -0.4, 0.6),
    ])
    def test_ode_residual(self, fn, nu, mu, x0):
        h = 1e-3
        f = [fn(nu, mu, x0 + k * h).value for k in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        nu, mu = complex(nu), complex(mu)
        coef = nu * (nu + 1.0) - mu * mu / (1.0 - x0 * x0)
        res = (1.0 - x0 * x0) * d2 - 2.0 * x0 * d1 + coef * f[2]
        scale = (abs((1.0 - x0 * x0) * d2) + abs(2.0 * x0 * d1)
                 + abs(coef * f[2]))
        assert abs(res) <= 1e-6 * scale
