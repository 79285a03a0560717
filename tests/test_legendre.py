"""Legendre/Ferrers functions: closed forms, connections, stability."""

import cmath
import functools
import itertools
import math
import random
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvgreen import legendre
from curvgreen.errors import (CurvGreenError, DomainError, NoConvergenceError,
                              ParamPoleError, RangeError, UndefinedError)
from curvgreen.geometry import ManifoldSpec
from curvgreen.greens import MINUS, PLUS, WaveParams, green_value
from curvgreen.legendre import (ferrers_p, ferrers_p_reflected, ferrers_q,
                                gegenbauer_function, half_odd_eval,
                                legendre_p, legendre_q, odd_ferrers_f)
from curvgreen.result import NEAR_POLE, EvalResult
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

    @pytest.mark.parametrize("nu,mu", [(-1.5, 0.5), (-1.5, -0.5),
                                       (-2.5, 1.5), (-2.5, 0.5),
                                       (-2.5, -0.5), (-3.5, 0.5)])
    @pytest.mark.parametrize("z", [1.3, 3.0])
    def test_anomalous_degree_paired_poles(self, nu, mu, z):
        # nu + 3/2 in -N0 and nu + mu + 1 in -N: the two gamma poles
        # cancel; the limit is mpmath's mean at nu +- 1e-20, and the
        # half-odd closed form returns it exactly, with no flag
        mpmath = pytest.importorskip("mpmath")
        got = legendre_q(nu, mu, z)
        with mpmath.workdps(60):
            d = mpmath.mpf("1e-20")
            want = complex(sum(mpmath.legenq(nu + s * d, mu, mpmath.mpf(z),
                                             type=3) for s in (1, -1)) / 2)
        err = abs(got.value - want)
        assert err < 1e-13 * abs(want)
        assert err <= got.abs_err_est
        assert NEAR_POLE not in got.flags

    @pytest.mark.parametrize("nu,mu", [(-1.5, -1.5), (-1.5, -2.5),
                                       (-2.5, -2.5), (-1.5, -3.5)])
    def test_anomalous_degree_genuine_poles_refuse(self, nu, mu):
        # nu + 3/2 = -n and nu + mu + 1 = -k with k >= 2n + 2: Q has a
        # pole in nu there, not a removable limit
        with pytest.raises(ParamPoleError):
            legendre_q(nu, mu, 1.3)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 2).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, 2 * n + 1))),
           st.floats(1e-7, 1e-4), st.sampled_from([1.0, -1.0]),
           st.floats(0.3, 2.5))
    def test_series_meets_the_closed_form_at_paired_poles(self, nk, d, sign,
                                                          xi):
        """Off the anomalous degree by delta the series runs; it tends to
        the closed form at nu0, Q moving by about |delta| (1 + xi) |Q| in
        between, or, where Q(nu0) is near a zero (n = 1, k = 3 at
        xi ~ 0.55), by what the exact closed form at nu0 + delta moves."""
        n, k = nk
        nu0, mu0, z = -1.5 - n, n - k + 0.5, math.cosh(xi)
        at = legendre_q(nu0, mu0, z).value
        near = legendre_q(nu0 + sign * d, mu0, z).value
        moved = half_odd_eval("Q", nu0 + sign * d, mu0, z).value - at
        assert abs(near - at) <= (10.0 * d * (1.0 + xi) * abs(at)
                                  + 2.0 * abs(moved))

    def test_paired_poles_take_the_callers_degree(self):
        # 5e-11 off nu0, inside the pole test's tolerance: the closed form
        # is evaluated at the caller's nu, not at nu0 (which is 3.8e-11
        # off); reference mpmath at 30 digits
        nu, mu, z = -2.5 + 5e-11, 0.5, 1.3
        got = legendre_q(nu, mu, z)
        assert relerr(got.value, _mp_legendre("Q", nu, mu, z)) < 1e-15

    @pytest.mark.parametrize("z", [1e10, 1e100, 1e150, 1e160, 1e300])
    @pytest.mark.parametrize("nu,mu", [(0.3, 1.0), (0.3, -1.0), (1.0, 1.0),
                                       (1.0, 0.7), (2.0, 1.0)])
    def test_large_argument_in_range(self, nu, mu, z):
        """(z^2 - 1)^{mu/2} or z^{-(nu + mu + 1)} alone leaves the double
        range where Q does not (z = 1e150, 1e160): Q is still within
        1e-12 of mpmath, or below the normal range where Q underflows."""
        got = legendre_q(nu, mu, z).value
        ref = _mp_legendre("Q", nu, mu, z)
        if abs(ref) < sys.float_info.min:
            assert abs(got) < sys.float_info.min
        else:
            assert relerr(got, ref) < 1e-12

    @pytest.mark.parametrize("nu,mu,z", [
        (0.3, 1.0, 1e150), (0.3, 1.0, 1e160), (0.3, -1.0, 1e160),
        (1.0, 1.0, 1e150), (1.0, 0.7, 1e150), (2.0, 1.0, 1e100),
        (0.3, 1.0, 1e10), (0.3, 1.0, 1e100), (0.3, -1.0, 1e10),
        (0.3, -1.0, 1e100), (0.3, -1.0, 1e150), (1.0, 1.0, 1e10),
        (1.0, 1.0, 1e100), (1.0, 0.7, 1e10), (1.0, 0.7, 1e100),
        (2.0, 1.0, 1e10)])
    def test_large_argument_within_estimate(self, nu, mu, z):
        """Each value of the grid above that is in the normal range is
        within its estimate (the prefactor's estimate charges the
        rounding of its exponent)."""
        got = legendre_q(nu, mu, z)
        assert abs(got.value - _mp_legendre("Q", nu, mu, z)) \
            <= got.abs_err_est

    @pytest.mark.parametrize("beta", [0.2, 0.5, 1.1, 2.3, 3.9])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("sign", [PLUS, MINUS])
    def test_green_degrees_within_estimate(self, sign, d, beta):
        """Q at the H_PLUS and H_MINUS degrees (real, or conical at
        H_MINUS once 2 beta > d - 1) is within twice its estimate of
        mpmath at every z of a grid from near 1 to 1e6: the estimate
        carries the rounding of the prefactor's exponent."""
        wp = WaveParams(ManifoldSpec("hyperboloid", d, 1.0), beta, sign)
        q = legendre.LegendreQ(wp.nu, wp.mu)
        for z in (1.02, 1.3, 2.0, 3.7, 9.0, 40.0, 1e3, 1e6):
            got = q(z)
            err = abs(got.value - _mp_legendre("Q", wp.nu, wp.mu, z))
            assert err <= 2.0 * got.abs_err_est, (z, err, got.abs_err_est)

    def test_underflowing_green_function(self):
        # Q_nu^mu(cosh 700) underflows: the prefactor, one exponential
        # of a log sum, returns 0 where (z^2 - 1)^{mu/2} alone overflows
        m = ManifoldSpec("hyperboloid", 4, 1.0)
        got = green_value("H_PLUS", m, 2.0, 700.0)
        assert got.value == 0.0

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
        # 2 mu + lam overflows before gamma_ratio, which refuses inf
        (gegenbauer_function, "C", 1e308, 1.0),
    ])
    def test_refuses(self, fn, name, mu, arg):
        with pytest.raises(RangeError, match=rf"^{name}_nu\^mu overflows"):
            fn(8.3378, mu, arg)

    def test_series_refusal_names_the_function(self):
        # the float 2F1 series refuses its own overflow with RangeError;
        # the public function and the prepared kind report it as theirs
        for fn in (legendre_p, lambda nu, mu, z: legendre.LegendreP(nu, mu)(z)):
            with pytest.raises(RangeError, match=r"^P_nu\^mu overflows"):
                fn(700.0, 0.3, 2.4)

    @pytest.mark.parametrize("nu,mu", [(0.3, 1e6), (1e308, 1e308)])
    def test_c_pole_refuses_at_once(self, nu, mu):
        # the series' c = 1 - mu is the pole -m, m = mu - 1, and (m+1)!
        # leaves the double range: the regularized 2F1 stops before its
        # two Pochhammer products of m + 1 steps (0.26 s at mu = 1e6)
        spent = []
        for _ in range(3):
            t0 = time.process_time()
            with pytest.raises(RangeError, match=r"^P_nu\^mu overflows"):
                legendre_p(nu, mu, 2.0)
            spent.append(time.process_time() - t0)
        assert min(spent) < 0.01


class TestMehlerKernel:
    # the sphere's integral, against mpmath at 30 digits; the ids keep
    # the names these cases had beside the hyperboloid's (False)
    @pytest.mark.parametrize("nu", [25.3, 47.0, -0.5 + 30j])
    @pytest.mark.parametrize("m", [0.0, 0.5])
    @pytest.mark.parametrize("angle", [0.4, 1.3, 2.5],
                             ids=lambda a: f"False-{a}")
    def test_against_mpmath(self, nu, m, angle):
        mpmath = pytest.importorskip("mpmath")
        from curvgreen.legendre import _mehler_p
        with mpmath.workdps(30):
            ref = complex(mpmath.legenp(nu, -m, mpmath.cos(angle), type=2))
        got = _mehler_p(nu, m, angle)
        assert relerr(got.value, ref) < 1e-13
        assert abs(got.value - ref) <= got.abs_err_est
        assert got.terms_used > 0


# the conical sphere grid of the u = sqrt(h) Mehler integral
_CONICAL_TAUS = (15.0, 25.0, 40.0, 60.0)
_CONICAL_THETAS = (0.05, 0.3, 0.9, 1.5, 2.1, 2.7, 3.09)


def _mp_conical_fp(tau, m, theta):
    """FP_{-1/2+i tau}^{-m}(cos theta) by mpmath at 30 digits, at the
    exact cosine of the float theta."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.legenp(complex(-0.5, tau), -m,
                                     mpmath.cos(mpmath.mpf(theta)), type=2))


class TestConicalMehler:
    """FP^{-m} at a conical degree and an integer order on the sphere,
    where _mehler_p integrates in u = sqrt(h)."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("tau", _CONICAL_TAUS)
    def test_mehler_grid(self, m, tau):
        for theta in _CONICAL_THETAS:
            got = legendre._mehler_p(complex(-0.5, tau), m, theta)
            ref = _mp_conical_fp(tau, m, theta)
            err = abs(got.value - ref)
            assert err <= 1e-13 * abs(ref), theta
            assert err <= got.abs_err_est, theta

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("tau", _CONICAL_TAUS)
    def test_ferrers_p_grid(self, m, tau):
        # x = cos theta is rounded, so the reference is taken at x itself
        nu = complex(-0.5, tau)
        for theta in _CONICAL_THETAS:
            x = math.cos(theta)
            got = ferrers_p(nu, -m, x)
            assert relerr(got.value, _mp_legendre("FP", nu, -m, x)) <= 1e-13

    @pytest.mark.parametrize("x", [math.cos(0.9), -math.cos(0.9)])
    def test_s_plus_d2_seeds(self, x):
        """S_PLUS, d = 2, beta = 25: the seeds of its order recurrences
        were about 2e-11 off with estimates near 4e-13."""
        nu = complex(-0.5, 24.995)
        ref = _mp_legendre("FP", nu, -1, x)
        got = ferrers_p(nu, -1, x)
        assert relerr(got.value, ref) <= 1e-13
        assert abs(got.value - ref) <= got.abs_err_est

    def test_panel_count(self):
        """At m = 1 the integrand is analytic in u, so few panels
        suffice; the map in h took 23 to 45 on this grid."""
        for tau in _CONICAL_TAUS:
            for theta in _CONICAL_THETAS:
                got = legendre._mehler_p(complex(-0.5, tau), 1, theta)
                assert got.terms_used <= 15, (tau, theta)


def _q_grid(seed=20, size=120, low=legendre._RHO_MIN, high=30.0):
    """(nu, mu, rho): real nu in [0, 100] at mu in [-3, 3] off the poles
    nu + mu + 1 in -N0, and conical nu = -1/2 + i tau, tau in [0, 100],
    at mu in {0, 1} or [-3, 3]; rho log-uniform in [low, high]."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        if len(out) % 2:
            nu, mu = rng.uniform(0.0, 100.0), rng.uniform(-3.0, 3.0)
            if abs(nu + mu + 1.0 - round(nu + mu + 1.0)) < 1e-3 \
                    and nu + mu + 1.0 < 0.5:
                continue
        else:
            nu = complex(-0.5, rng.uniform(0.0, 100.0))
            mu = rng.choice((0.0, 1.0, rng.uniform(-3.0, 3.0)))
        out.append((nu, mu, math.exp(rng.uniform(math.log(low),
                                                 math.log(high)))))
    return out


def _fp_grid(seed=21, size=120):
    """(nu, mu, x): conical nu = -1/2 + i tau, tau in [0, 100], at the
    orders -m of the sphere (m = 0, 1, 2) or a real order in [-3, 1), at
    x = cos theta where the conical FP series serves (its term gate)."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        nu = complex(-0.5, rng.uniform(0.0, 100.0))
        mu = rng.choice((0.0, -1.0, -2.0, rng.uniform(-3.0, 1.0)))
        x = math.cos(rng.uniform(0.01, 3.1))
        f = legendre.FerrersP(nu, mu)
        if f.row.positive(f, x) is not None:
            out.append((nu, mu, x))
    return out


class TestPositiveSeries:
    """Q by its series in e^{-2 rho}, and FP at a conical degree by its
    defining series within the term gate: every term positive (or, for
    conical Q, none above the sum), so no cancellation; from rho_0 on
    within 1e-13 of mpmath, with the error inside the estimate.  Below
    rho_0 Q takes the defining series or the engine's 1 - w connection
    (``_q_sum``), within 1e-12 of mpmath beyond what the rounding of w
    moves there (ROADMAP item 14), again inside the estimate."""

    @pytest.mark.parametrize("nu,mu,rho", _q_grid() + _q_grid(
        22, 60, 1e-6, legendre._RHO_MIN))
    def test_q_grid(self, nu, mu, rho):
        z = math.cosh(rho)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.legenq(nu, mu, mpmath.cosh(rho), type=3))
        f = legendre.LegendreQ(nu, mu)
        got = f(z, rho)
        if abs(ref) < 1e-290:  # past the double range: no digits to check
            assert abs(got.value) < 1e-290  # and no flag (ROADMAP item 17)
            return
        err = abs(got.value - ref)
        assert err <= got.abs_err_est
        if rho < legendre._RHO_MIN:
            # the engine forms 1 - w from the rounded w: its estimate's
            # eps (1 + 2 |mu|) w/(1 - w)
            w = math.exp(-2.0 * rho)
            moved = 2.2e-16 * (1.0 + 2.0 * abs(mu)) * w / (1.0 - w)
            assert err <= (1e-12 + moved) * abs(ref)
            return
        assert f.h[0]._connection is None  # the defining series
        assert err <= 1e-13 * abs(ref)
        # from z alone (rho = acosh z) within the same bound of Q at z
        alone = legendre_q(nu, mu, z)
        assert relerr(alone.value, _mp_legendre("Q", nu, mu, z)) <= 1e-13

    @pytest.mark.parametrize("nu,mu,z", [(85.0, 85.0, 4000.0),
                                         (1000.0, 110.0, math.cosh(1.0))])
    def test_large_order_prefactor_in_range(self, nu, mu, z):
        """e^{-nu rho} and the rest of the prefactor each leave the double
        range, their product does not (Q about -1e-158 and 3e-103): at z
        within the estimate of mpmath and 1e-12 (the second is
        conditioned by (nu + 1) z/sinh rho, about 1300), and at rho
        itself within 1e-13."""
        got = legendre_q(nu, mu, z)
        ref = _mp_legendre("Q", nu, mu, z)
        assert abs(got.value - ref) <= got.abs_err_est
        assert relerr(got.value, ref) <= 1e-12
        rho = math.acosh(z)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.legenq(nu, mu, mpmath.cosh(rho), type=3))
        f = legendre.LegendreQ(nu, mu)
        assert relerr(f(z, rho).value, ref) <= 1e-13

    @pytest.mark.parametrize("nu,mu,rho", [
        (nu, mu, 0.006) for nu in (300.3, 1000.7, complex(-0.5, 1000.0))
        for mu in (0.0, 0.3, 1.0, 2.0)] + [(1000.7, 0.0, 0.003),
                                           (1000.7, 0.3, 0.003)])
    def test_long_defining_runs(self, nu, mu, rho):
        """Below rho_0 the defining series runs 2200-4700 terms, and the
        tail its stop rule leaves, about its last term over 1 - w, grows
        with them: these 14 points were up to 1.7 times their estimate
        (1.7e-13 against 1.0e-13 at nu = 1000.7, mu = 0.3, rho = 0.003)."""
        f = legendre.LegendreQ(nu, mu)
        got = f(math.cosh(rho), rho)
        assert f.h[0]._connection is None and got.terms_used > 2000
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = complex(mpmath.legenq(nu, mu, mpmath.cosh(rho), type=3))
        assert abs(got.value - ref) <= got.abs_err_est <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("nu,mu,x", _fp_grid())
    def test_conical_fp_grid(self, nu, mu, x):
        got = ferrers_p(nu, mu, x)
        ref = _mp_legendre("FP", nu, mu, x)
        err = abs(got.value - ref)
        assert err <= 1e-13 * abs(ref)
        assert err <= got.abs_err_est

    def test_fp_gate(self):
        """The gate keeps the series within about _FP_TERMS terms (it
        took 2754 at tau = 60, theta = 2.9), past which the Mehler
        integral serves."""
        for tau in (12.0, 25.0, 60.0):
            f = legendre.FerrersP(complex(-0.5, tau), 0.0)
            for theta in (0.5, 1.5, 2.2, 2.9, 3.1):
                got = f.row.positive(f, math.cos(theta))
                if got is not None:
                    assert got.terms_used <= 1.5 * legendre._FP_TERMS
            assert f.row.positive(f, math.cos(2.9)) is None
            assert f.row.positive(f, math.cos(1.5)) is not None

    def test_below_rho_0_chooses_its_sum(self):
        """Below rho_0 the engine's 1 - w connection serves while its loss
        estimate is small (2.5 at 0.05), the defining series past it
        (30.3 at 0.05), each within 1e-12 of mpmath and its estimate;
        where that series would not settle within the term budget a real
        degree keeps the connection at any loss (1000.7 at 0.002), and
        its estimate shows the loss."""
        mpmath = pytest.importorskip("mpmath")
        for nu, rho, defining in ((2.5, 0.05, False), (30.3, 0.05, True),
                                  (1000.7, 0.002, False)):
            f = legendre.LegendreQ(nu, 0.2)
            assert legendre._q_sum(f, rho)[0] is defining
            got = f(math.cosh(rho), rho)
            assert (f.h[0]._connection is None) is defining
            with mpmath.workdps(30):
                ref = complex(mpmath.legenq(nu, 0.2, mpmath.cosh(rho),
                                            type=3))
            assert abs(got.value - ref) <= got.abs_err_est
            if nu < 1000.0:
                assert relerr(got.value, ref) <= 1e-12
        assert legendre._q_sum(f, 0.002)[1] > legendre._LOSS_MAX
        assert f.row.loss(f, math.cosh(0.002)) <= legendre._LOSS_MAX
        assert got.abs_err_est > 1e-11 * abs(got.value)

    @pytest.mark.parametrize("nu,mu,rho", [(300.3, 0.0, 0.09),
                                           (1000.7, 1.0, 0.05)])
    def test_below_rho_0_values(self, nu, mu, rho):
        """Q below rho_0 from z alone: the former 1/z^2 series returned
        -1.66e-5 for 4.19e-13 at the first and refused the second (about
        -3.2e-20)."""
        z = math.cosh(rho)
        got = legendre_q(nu, mu, z)
        ref = _mp_legendre("Q", nu, mu, z)
        assert abs(got.value - ref) <= got.abs_err_est
        assert relerr(got.value, ref) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    def test_below_rho_0_green(self, d):
        """H_PLUS near its flat limit: at d = 4, beta = 1000, rho = 0.05
        the former series refused (RangeError); the CLI's flat sweep
        (beta = 0.5, r = 0.6, R = 500, rho = 1.2e-3) was 4e-11 and 1e-10
        off at d = 2 and 4.  Against mpmath at the library's degree."""
        mpmath = pytest.importorskip("mpmath")
        for beta, R, rho in ((1000.0, 1.0, 0.05), (0.5, 500.0, 0.6 / 500.0)):
            m = ManifoldSpec("hyperboloid", d, R)
            got = green_value("H_PLUS", m, beta, rho)
            nu, mu = WaveParams(m, beta, PLUS).nu, 0.5 * (d - 2)
            with mpmath.workdps(30):
                r = mpmath.mpf(rho)
                ref = complex(mpmath.expjpi(-mu)
                              * (2 * mpmath.pi) ** (-0.5 * d)
                              * mpmath.mpf(R) ** (2 - d)
                              * mpmath.sinh(r) ** -mu
                              * mpmath.legenq(mpmath.mpmathify(nu), mu,
                                              mpmath.cosh(r), type=3))
            assert relerr(got.value, ref) <= 1e-12, (beta, R)


# where neither of Q's sums in e^{-2 rho} holds digits (tau = 3000 at
# rho = 0.002), Q takes the rotated contour
_TAU_CORNER, _Z_CORNER = 3000.0, math.cosh(0.002)


class TestConicalQ:
    """Q at a strongly conical degree and an order of at least 0.35 that
    is not half-odd: the series in e^{-2 rho}, and in its corner the
    rotated contour at -mu, then _connect."""

    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.0, 0.37, 0.8])
    @pytest.mark.parametrize("z", [1.3, 3.0])
    def test_against_mpmath(self, mu, z):
        nu = complex(-0.5, 25.0)
        got = legendre_q(nu, mu, z)
        ref = _mp_legendre("Q", nu, mu, z)
        assert relerr(got.value, ref) <= 1e-13
        assert got.abs_err_est < 1e-10 * abs(ref)
        assert abs(got.value - ref) <= got.abs_err_est
        assert not got.flags

    @pytest.mark.parametrize("tau", [15.0, 25.0, 60.0])
    def test_contour_grid(self, tau):
        """The rotated contour itself, at the orders it takes directly
        and at -mu for the connection."""
        nu = complex(-0.5, tau)
        for mu in (0.0, 0.2, -0.37, -0.8, -1.0, -2.0):
            for z in (1.3, 3.0, 10.0):
                got = legendre._conical_legendre_q_integral(nu, mu,
                                                            math.acosh(z))
                err = abs(got.value - _mp_legendre("Q", nu, mu, z))
                assert err <= 5e-14 * abs(got.value), (mu, z)
                assert err <= got.abs_err_est, (mu, z)

    @pytest.mark.parametrize("tau", [1.5, 3.0, 8.0, 11.9])
    def test_weakly_conical_series(self, tau):
        """|tau| < 12 keeps the series at every rho; its estimate is the
        engine's, with no flag and no floor."""
        nu = complex(-0.5, tau)
        for rho in (0.01, 0.3, 1.2):
            z = math.cosh(rho)
            for mu in (0.0, 0.5, -0.5, 0.3, 1.0):
                got = legendre_q(nu, mu, z)
                assert not got.flags, (rho, mu)
                assert got.abs_err_est <= 1e-12 * abs(got.value), (rho, mu)
                assert relerr(got.value, _mp_legendre("Q", nu, mu, z)) \
                    <= 1e-12, (rho, mu)

    def test_takes_the_connection(self, monkeypatch):
        def no_series(*args):
            raise AssertionError("Q series called")

        monkeypatch.setattr(legendre.LegendreQ, "row",
                            legendre.LegendreQ.row._replace(series=no_series))
        assert legendre_q(complex(-0.5, _TAU_CORNER), 1.0,
                          _Z_CORNER).terms_used > 0

    def test_complex_order_refused(self):
        """In the contour's corner the large-degree route refuses a complex
        order; elsewhere the e^{-2 rho} series takes it: from rho_0 on
        (z = 1.3) within 1e-14 of mpmath, below it (rho = 0.05, the
        engine's 1 - w connection) within test_q_grid's 1e-12."""
        with pytest.raises(DomainError, match="real order"):
            legendre_q(complex(-0.5, _TAU_CORNER), 1.0 + 0.3j, _Z_CORNER)
        nu, mu = complex(-0.5, 25.0), 1.0 + 0.3j
        got = legendre_q(nu, mu, 1.3)
        ref = _mp_legendre("Q", nu, mu, 1.3)
        assert relerr(got.value, ref) <= 1e-14
        assert abs(got.value - ref) <= got.abs_err_est
        got = legendre.LegendreQ(nu, mu)(math.cosh(0.05), 0.05)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.legenq(nu, mu, mpmath.cosh(0.05), type=3))
        assert relerr(got.value, ref) <= 1e-12
        assert abs(got.value - ref) <= got.abs_err_est


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

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(st.floats(0.0, 60.0),
                     st.floats(0.0, 60.0).map(lambda t: complex(-0.5, t))),
           st.floats(0.0, 2.0, exclude_min=True),
           st.floats(-0.999, 0.999))
    def test_is_ferrers_p_at_minus_order_and_argument(self, nu, mu, x):
        """Bit for bit, on every route: value, estimate, panel or term
        count and flags, or the same refusal."""
        def outcome(fn, *args):
            try:
                r = fn(*args)
            except CurvGreenError as e:
                return type(e), str(e)
            v = complex(r.value)
            return (repr(v.real), repr(v.imag), repr(r.abs_err_est),
                    r.terms_used, sorted(r.flags))

        assert outcome(ferrers_p_reflected, nu, mu, x) \
            == outcome(ferrers_p, nu, -mu, -x)


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
        # ferrers_p takes the closed form at order 1/2 too, so the
        # independent path is the first-kind series
        got = half_odd_eval("FERRERS_P", 0.5, 0.5, 0.4).value
        x = 0.4
        f = legendre.FerrersP(0.5, 0.5)
        f.h = f.row.engine(0.5, 0.5)
        ref = legendre._p_series(f, x).value
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

    def test_complex_half_odd_order(self):
        assert half_odd_eval("P", 2.0, 0.5 + 0j, 1.3) \
            == half_odd_eval("P", 2.0, 0.5, 1.3)
        assert half_odd_eval("FQ", 2.0, -1.5 + 0j, 0.3) \
            == half_odd_eval("FQ", 2.0, -1.5, 0.3)

    @pytest.mark.parametrize("kind,arg,mu,ref", [
        ("P", 1.3, 0.5, 0.875442827303642),
        ("P", 1.3, 1.5, -1.37008211070597),
        ("Q", 1.3, 0.5, 1.3751423774475j),
        ("Q", 1.3, 1.5, -2.15211994690433j),
        ("FP", 0.3, 0.5, 0.816920347482112),
        ("FP", 0.3, 1.5, -0.25690956392253),
        ("FQ", 0.3, 0.5, 0.0),
        ("FQ", 0.3, 1.5, 0.0),
    ])
    def test_degree_minus_half(self, kind, arg, mu, ref):
        """nu = -1/2, where the order -1/2 seed's 1/(nu + 1/2) is
        cancelled by the recurrence; mpmath references."""
        got = half_odd_eval(kind, -0.5, mu, arg).value
        assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("kind", ["FP", "FQ"])
    def test_estimate_carries_the_phase_rounding(self, kind):
        """At order 1/2 the closed form is an amplitude times cos or sin
        of (nu + 1/2) theta, whose rounding grows with the phase."""
        for nu, _, theta in _real_degree_grid(seed=5):
            x = math.cos(theta)
            got = half_odd_eval(kind, nu, 0.5, x)
            amp = (math.sqrt(2.0 / (math.pi * math.sin(theta))) if kind == "FP"
                   else math.sqrt(math.pi / (2.0 * math.sin(theta))))
            err = abs(got.value - _mp_legendre(kind, nu, 0.5, x))
            assert err <= got.abs_err_est <= 1e-12 * amp, (nu, theta)

    def test_recurrence_factor_is_one_from_two_to_the_27(self):
        """From z = 2^27 on, z^2 - 1 rounds to z^2, so z/sqrt(z^2 - 1)
        is exactly 1 on a grid up to 1e154, below the overflow of the
        square; the lift takes 1 there, and no value below moves."""
        for z in np.geomspace(2.0 ** 27, 1e154, 4001):
            z = float(z)
            assert z / math.sqrt(z * z - 1.0) == 1.0, z

    @pytest.mark.parametrize("kind", ["P", "Q"])
    @pytest.mark.parametrize("mu", [1.5, 2.5])
    @pytest.mark.parametrize("z", [1e155, 1e200, 1e300])
    def test_huge_argument_lift(self, kind, mu, z):
        """Above z = 1.3e154 the factor's square overflowed to a factor
        of 0: P_{0.3}^{3/2}(1e200) came out +5.56e59 for -1.39e59."""
        got = half_odd_eval(kind, 0.3, mu, z)
        ref = _mp_legendre(kind, 0.3, mu, z)
        assert abs(got.value - ref) <= got.abs_err_est <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("kind,arg", [("Q", 1.3), ("FQ", 0.3)])
    def test_degree_minus_half_order_minus_half_refuses(self, kind, arg):
        with pytest.raises(CurvGreenError):
            half_odd_eval(kind, -0.5, -0.5, arg)


_HALF_FNS = {"P": legendre_p, "Q": legendre_q, "FP": ferrers_p,
             "FQ": ferrers_q}


@st.composite
def _half_case(draw):
    """(kind, nu, mu, arg) at mu = +-1/2: a real degree in [-0.4, 60], a
    conical one with tau in [0, 60] or one within 1e-12 of -1/2; an
    argument anywhere, or within 1e-12..0.1 of either end (for z > 1,
    of 1, or up to cosh 8)."""
    kind = draw(st.sampled_from(sorted(_HALF_FNS)))
    nu = draw(st.one_of(
        st.floats(-0.4, 60.0),
        st.builds(lambda t: complex(-0.5, t), st.floats(0.0, 60.0)),
        st.builds(lambda d: -0.5 + d, st.floats(-1e-12, 1e-12))))
    near = 10.0 ** draw(st.floats(-12.0, -1.0))
    if kind in ("P", "Q"):
        arg = draw(st.sampled_from((1.0 + near, math.cosh(8.0 - near),
                                    math.cosh(draw(st.floats(0.05, 8.0))))))
    else:
        arg = draw(st.sampled_from((1.0 - near, near - 1.0,
                                    draw(st.floats(-0.99, 0.99)))))
    return kind, nu, draw(st.sampled_from((0.5, -0.5))), arg


class TestHalfOrderRung:
    """Orders +-1/2 of every kind take their closed form at every degree
    (DLMF 14.5.11-17) and build no 2F1; the error is within the estimate
    against mpmath at 30 digits."""

    @staticmethod
    def _check(kind, nu, mu, arg):
        if nu == -0.5 and mu < 0 and kind in ("Q", "FQ"):
            return  # the pole, pinned by test_pole_refusals
        # zeroprec: mpmath cannot resolve a value that vanishes at x = 0
        # (FP_{3/2}^{-1/2}(1e-108)) and would refuse; it returns 0 there
        ref = _mp_legendre(kind, nu, mu, arg, zeroprec=1024)
        if not cmath.isfinite(ref):  # next to the pole
            with pytest.raises(RangeError):
                _HALF_FNS[kind](nu, mu, arg)
            return
        got = _HALF_FNS[kind](nu, mu, arg)
        if 0.0 < abs(ref) < sys.float_info.min:
            # a subnormal value's last-bit rounding is no share of it,
            # which no relative estimate can carry
            assert abs(got.value - ref) <= 1e-320
            return
        assert abs(got.value - ref) <= got.abs_err_est, (kind, nu, mu, arg)
        assert got.terms_used == 1
        return got, ref

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_half_case())
    def test_against_mpmath(self, case):
        self._check(*case)

    @pytest.mark.parametrize("kind", sorted(_HALF_FNS))
    def test_grid(self, kind):
        """At the degrees next to -1/2 every value keeps its relative
        precision and so does the estimate: the forms of P and FP at
        -1/2 and FQ at 1/2 are sines of a phase that tends to 0."""
        hyperbolic = kind in ("P", "Q")
        args = ((1.0 + 1e-10, 1.3, math.cosh(7.5)) if hyperbolic
                else (-1.0 + 1e-10, -0.3, 0.6, 1.0 - 1e-10))
        for nu in (-0.4, 0.5, 7.3, 59.9, -0.5 + 0.7j, -0.5 + 45j, -0.5,
                   -0.5 + 1e-13, -0.5 - 1e-13):
            for mu in (0.5, -0.5):
                for arg in args:
                    out = self._check(kind, nu, mu, arg)
                    if out and abs(complex(nu) + 0.5) < 1e-12:
                        got, ref = out
                        assert got.abs_err_est <= 2e-15 * abs(ref)

    @pytest.mark.parametrize("kind", ["P", "Q"])
    def test_huge_argument(self, kind):
        """sinh xi is formed without (z - 1)(z + 1), which overflows above
        z = 1e154 and left an amplitude of 0 with an estimate of 0:
        P_0^{1/2}(1e200) is 1/sqrt(pi)."""
        for z in (1e155, 1e200, 1e300, 1.7e308):
            for nu in (0.0, 0.3, -0.5, -0.5 + 1e-13, -0.5 + 2j):
                for mu in (0.5, -0.5):
                    out = self._check(kind, nu, mu, z)
                    if out:
                        got = half_odd_eval(kind, nu, mu, z)
                        assert (got.value, got.abs_err_est) \
                            == (out[0].value, out[0].abs_err_est)
        got = legendre_p(0.0, 0.5, 1e200) if kind == "P" \
            else legendre_q(0.0, 0.5, 1e200)
        ref = 1.0 / math.sqrt(math.pi) if kind == "P" \
            else 0.5j * math.sqrt(math.pi) * 1e-200
        assert abs(got.value - ref) <= got.abs_err_est <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("fn,kind,arg,exc,msg", [
        (legendre_q, "Q", 1.3, ParamPoleError,
         "Q_nu^mu undefined: nu + mu in -N"),
        (ferrers_q, "FQ", 0.3, UndefinedError,
         "FQ undefined: nu + mu in -N"),
    ])
    def test_pole_refusals(self, fn, kind, arg, exc, msg):
        pattern = "^" + re.escape(msg) + "$"
        with pytest.raises(exc, match=pattern):
            fn(-0.5, -0.5, arg)
        with pytest.raises(exc, match=pattern):
            half_odd_eval(kind, -0.5, -0.5, arg)
        with pytest.raises(exc, match=pattern):
            fn(complex(-0.5, 0.0), complex(-0.5, 0.0), arg)

    @pytest.mark.parametrize("kind", sorted(_HALF_FNS))
    def test_builds_no_2f1(self, kind, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 2F1 was built")

        monkeypatch.setattr(legendre, "Hyp2F1", refuse)
        arg = 1.3 if kind in ("P", "Q") else 0.3
        for mu in (0.5, -0.5):
            _HALF_FNS[kind](1.2, mu, arg)

    def test_order_minus_half_off_an_anomalous_degree(self):
        """nu = -3/2 + 5e-11 sits within the pole test's 1e-10 of the
        paired poles; the closed form takes the caller's degree, where
        the both-poles limit of the connection was 5.0e-11 off."""
        mpmath = pytest.importorskip("mpmath")
        nu, z = -1.5 + 5e-11, 1.3
        got = legendre_q(nu, -0.5, z)
        with mpmath.workdps(60):
            ref = complex(mpmath.legenq(nu, -0.5, mpmath.mpf(z), type=3))
        assert abs(got.value - ref) <= 1e-15 * abs(ref)
        assert abs(got.value - ref) <= got.abs_err_est


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


# order_sequence test cases: (kind, lowered, Miller, arguments) with the
# tolerance of each degree; x < 0, x ~ 0 and x > 0 on (-1, 1)
_SEQ_TOL = {0.7: 1e-13, complex(-0.5, 25.0): 1e-10, 25.3: 1e-10}
_SEQ_CASES = [fam + (nu,) for fam in [
    # z = 9: at tau = 25 the minimal solution separates only beyond
    # order ~ tau sinh r = 224
    ("P", True, True, (1.3, 3.0, 9.0)),
    ("FP", True, True, (0.3, 0.9)),
    ("Q", False, False, (1.3, 3.0)),
    ("FP", True, False, (-0.4, 1e-3, 0.6)),
    ("FQ", True, False, (-0.4, 1e-3, 0.6)),
    ("FP", False, False, (-0.4, 0.3)),
    ("FQ", False, False, (-0.4, 0.3)),
] for nu in _SEQ_TOL] + [("P", lowered, False, (1.3,), 0.7)
                         for lowered in (False, True)]


@functools.lru_cache(maxsize=None)
def _mp_legendre(kind, nu, order, arg, **opts):
    """kind (P, Q, FP or FQ) by mpmath at 30 digits, rounded to complex;
    opts go to mpmath's hypergeometric sum.  The argument is made an mpf
    first: mpmath forms 1 +- z in the argument's own type, which for a
    float rounds them."""
    mpmath = pytest.importorskip("mpmath")
    f = mpmath.legenp if kind in ("P", "FP") else mpmath.legenq
    with mpmath.workdps(30):
        return complex(f(nu, order, mpmath.mpf(arg),
                         type=3 if kind in ("P", "Q") else 2,
                         maxterms=10 ** 6, **opts))


class TestOrderSequence:
    """order_sequence against mpmath.legenp/legenq at 30 digits, l <= 60.

    Miller's values are checked relative to themselves.  A forward
    sequence's error may grow like the dominant solution, so it is
    checked relative to the largest solution at that order: P and Q on
    z > 1, FP(x), FP(-x) and FQ(x) on (-1, 1), times the weight
    (nu + mu + 1)_l (mu - nu)_l of a lowered sequence.  Forward P is
    checked at small degree only: at large degree Q overtakes P as the
    order grows, and the rounding of the early orders, tiny against P
    but not against Q there, grows with Q.  A pair series tolerates
    that, since the P^{-(mu+l)} it multiplies falls faster.
    """

    ORDERS = (0, 1, 9, 60)

    @pytest.mark.parametrize("kind,lowered,miller,args,nu", _SEQ_CASES,
                             ids=lambda v: str(v))
    @pytest.mark.parametrize("mu", [1.0, 0.5, 0.37])
    def test_against_mpmath(self, kind, lowered, miller, args, nu, mu):
        from itertools import islice

        from curvgreen.legendre import order_sequence
        worst = 0.0
        for arg in args:
            seq = list(islice(order_sequence(kind, nu, mu, arg, lowered,
                                             miller=61 if miller else 0),
                              61))
            weight = 1.0
            for l in range(61):
                order = -(mu + l) if lowered else mu + l
                if l in self.ORDERS:
                    want = weight * _mp_legendre(kind, nu, order, arg)
                    scale = abs(want)
                    if not miller:
                        others = ((("P", arg), ("Q", arg))
                                  if kind in ("P", "Q") else
                                  (("FP", arg), ("FP", -arg), ("FQ", arg)))
                        scale = max(abs(weight * _mp_legendre(k, nu, order,
                                                              a))
                                    for k, a in others)
                    worst = max(worst, abs(seq[l] - want) / scale)
                if lowered and not miller:
                    weight *= (nu + mu + 1.0 + l) * (mu - nu + l)
        assert worst < _SEQ_TOL[nu]

    @pytest.mark.parametrize("z", [1e155, 1e160, 1e200])
    def test_past_squared_overflow(self, z):
        # z^2 overflows: the recurrence's z/sqrt(z^2 - 1) is 1, as it is
        # from z = 2^27 on in half_odd_eval
        from itertools import islice

        from curvgreen.legendre import order_sequence
        seq = islice(order_sequence("Q", 0.3, 0.5, z), 6)
        for l, got in enumerate(seq):
            assert relerr(got, legendre_q(0.3, 0.5 + l, z).value) <= 1e-11

    # the d = 3 hyperboloid degrees -1/2 + sqrt(1 +- beta^2), R = 1
    @pytest.mark.parametrize("beta,sign,rho", [
        (47.30654715651335, 1, 0.514394885557327),
        (46.69203590373779, 1, 0.3655958834747134),
        (3.088605875348571, -1, 0.10880813543844359),
        (1.3, 1, 0.6), (1.3, -1, 1.9), (25.0, -1, 2.6)])
    def test_raised_q_at_half_order(self, beta, sign, rho):
        """The raised Q sequence of the d = 3 hyperboloid expansions: its
        order 3/2 is -c Q^{1/2} + (nu + 1/2)^2 Q^{-1/2} from the two
        closed forms, not a series value (5.8e6 off at the first case,
        by the 1/z^2 series of a real degree), and the orders above it
        follow within 1e-13 of mpmath."""
        from itertools import islice

        from curvgreen.legendre import order_sequence
        nu = WaveParams(ManifoldSpec("hyperboloid", 3, 1.0), beta,
                        PLUS if sign > 0 else MINUS).nu
        z = math.cosh(rho)
        seq = list(islice(order_sequence("Q", nu, 0.5, z), 10))
        assert seq[1] == half_odd_eval("Q", nu, 1.5, z).value
        for l, got in enumerate(seq):
            assert relerr(got, _mp_legendre("Q", nu, 0.5 + l, z)) <= 1e-13

    def test_miller_normalizes_away_from_a_zero(self):
        # FP_nu^{-1/2}(cos theta) vanishes at theta = pi/(nu + 1/2): the
        # direct value there is pure rounding, so Miller's values are
        # scaled by the direct value at order -3/2 instead
        from itertools import islice

        from curvgreen.legendre import order_sequence
        nu, mu = 25.3, 0.5
        x = math.cos(math.pi / (nu + 0.5))
        seq = list(islice(order_sequence("FP", nu, mu, x, True, miller=61),
                          61))
        assert abs(seq[0]) < 1e-14
        for l in (1, 2, 9, 60):
            assert relerr(seq[l], _mp_legendre("FP", nu, -(mu + l), x)) \
                < 1e-12

    def test_miller_serves_only_minimal_kinds(self):
        from curvgreen.legendre import order_sequence
        for kind, lowered in (("Q", False), ("FQ", True), ("FP", False)):
            with pytest.raises(DomainError, match="Miller"):
                next(order_sequence(kind, 0.7, 0.5, 0.3 if kind[0] == "F"
                                    else 1.3, lowered, miller=5))

    def test_fq_weighted_values_through_removable_poles(self):
        # nu - mu in N0: FQ_nu^{-(mu+l)} has a pole from l = nu - mu + 1
        # on, where the weight (mu - nu)_l vanishes; the weighted values
        # are the finite limits, which mpmath gives as the mean of
        # nu +- 1e-8 (nearer offsets lose digits inside mpmath itself)
        from itertools import islice

        from curvgreen.legendre import order_sequence
        mpmath = pytest.importorskip("mpmath")

        def weighted(nu, mu, x, l):
            with mpmath.workdps(80):
                w = mpmath.rf(nu + mu + 1, l) * mpmath.rf(mu - nu, l)
                return w * mpmath.legenq(nu, -(mu + l), x, type=2)

        for nu, mu, x in ((2.3, 0.3, 0.4), (1.7, 0.7, -0.6),
                          (0.7, 0.7, 0.3)):
            seq = list(islice(order_sequence("FQ", nu, mu, x, lowered=True),
                              12))
            nu_mp, mu_mp, x_mp = (mpmath.mpf(v) for v in (nu, mu, x))
            for l, got in enumerate(seq):
                with mpmath.workdps(80):
                    want = complex((weighted(nu_mp + mpmath.mpf("1e-8"),
                                             mu_mp, x_mp, l)
                                    + weighted(nu_mp - mpmath.mpf("1e-8"),
                                               mu_mp, x_mp, l)) / 2)
                assert relerr(got, want) < 1e-13, (nu, mu, x, l)


# the public functions past their series as (nu, mu, theta) ->
# EvalResult, each with its mpmath reference and, on the large-degree
# ladder, its half_odd_eval twin
_LADDER = {
    "P": (lambda nu, mu, t: legendre_p(nu, mu, math.cosh(t)),
          lambda nu, mu, t: _mp_legendre("P", nu, mu, math.cosh(t))),
    "FP": (lambda nu, mu, t: ferrers_p(nu, mu, math.cos(t)),
           lambda nu, mu, t: _mp_legendre("FP", nu, mu, math.cos(t)),
           lambda nu, mu, t: half_odd_eval("FP", nu, mu, math.cos(t))),
    "FQ": (lambda nu, mu, t: ferrers_q(nu, mu, math.cos(t)),
           lambda nu, mu, t: _mp_legendre("FQ", nu, mu, math.cos(t)),
           lambda nu, mu, t: half_odd_eval("FQ", nu, mu, math.cos(t))),
    "reflected FP": (
        lambda nu, mu, t: ferrers_p_reflected(nu, mu, math.cos(t)),
        lambda nu, mu, t: _mp_legendre("FP", nu, -mu, -math.cos(t)),
        lambda nu, mu, t: half_odd_eval("FP", nu, -mu, -math.cos(t))),
}
_LADDER_NUS = (15.3, 25.3, 59.7, -0.5 + 15j, -0.5 + 30j)
_LADDER_THETAS = (0.3, 1.2, 2.6)
# the orders that reach each branch (orders +-1/2 take their closed form
# before the ladder); reflected FP puts -mu on the ladder, so its orders
# are positive and never reach the connection; P's rung (_p_from_q)
# takes every order alike, and its rows keep the Ferrers branch names
_LADDER_ORDERS = {"half-odd": (-1.5, -0.5, 0.5, 1.5), "at_neg": (0.0, -1.0),
                  "connect": (0.7, 1.0)}
_REFLECTED_ORDERS = {"half-odd": (0.5, 1.5), "at_neg": (0.7, 1.0)}
# worst relative error against mpmath over each branch's cells, recorded
# when the four ladders became one (P's when its rung became two Q's); a
# change may only lower a ceiling
_LADDER_CEILINGS = {
    ("P", "half-odd"): 1e-13, ("P", "at_neg"): 1e-13,
    ("P", "connect"): 1e-13,
    ("FP", "half-odd"): 1e-12, ("FP", "at_neg"): 3e-11,
    ("FP", "connect"): 3e-11,
    ("FQ", "half-odd"): 1e-12, ("FQ", "at_neg"): 3e-11,
    ("FQ", "connect"): 3e-11,
    ("reflected FP", "half-odd"): 1e-12, ("reflected FP", "at_neg"): 3e-11,
}


class TestLargeDegreeLadder:
    """legendre_p, ferrers_p, ferrers_q and ferrers_p_reflected above
    their loss thresholds, where the Ferrers functions hand their order
    to _large_degree and P takes its two Q's (_p_from_q).  A grid cell
    counts only if it reaches the rung."""

    @staticmethod
    def _cells(monkeypatch, name, branch):
        """(nu, mu, theta, EvalResult) of every grid cell of the branch
        on its rung; no cell may raise."""
        hits = []
        rung = "_p_from_q" if name == "P" else "_large_degree"
        ladder = getattr(legendre, rung)

        def spy(*args):
            hits.append(args)
            return ladder(*args)

        monkeypatch.setattr(legendre, rung, spy)
        orders = (_REFLECTED_ORDERS if name == "reflected FP"
                  else _LADDER_ORDERS)[branch]
        out = []
        for nu in _LADDER_NUS:
            for theta in _LADDER_THETAS:
                for mu in orders:
                    hits.clear()
                    res = _LADDER[name][0](nu, mu, theta)
                    if hits:
                        out.append((nu, mu, theta, res))
        return out

    @pytest.mark.parametrize("name,branch", sorted(_LADDER_CEILINGS))
    def test_against_mpmath(self, monkeypatch, name, branch):
        cells = self._cells(monkeypatch, name, branch)
        assert len(cells) >= 8
        worst = 0.0
        for nu, mu, theta, res in cells:
            worst = max(worst, relerr(res.value,
                                      _LADDER[name][1](nu, mu, theta)))
        assert worst <= _LADDER_CEILINGS[(name, branch)]

    @pytest.mark.parametrize("name", ["FP", "FQ", "reflected FP"])
    def test_half_odd_orders_are_the_closed_form(self, monkeypatch, name):
        cells = self._cells(monkeypatch, name, "half-odd")
        assert cells
        for nu, mu, theta, res in cells:
            assert res == _LADDER[name][2](nu, mu, theta)

    def test_complex_order_refused(self):
        """The Ferrers ladder refuses a complex order; P past its series
        takes it through its two Q's (the ladder refused it before)."""
        with pytest.raises(DomainError, match="real order"):
            ferrers_p(-0.5 + 30j, 0.5 + 0.3j, math.cos(1.2))
        nu, mu, z = -0.5 + 30j, 0.5 + 0.3j, math.cosh(1.2)
        f = legendre.LegendreP(nu, mu)
        assert f.row.loss(f, z) > legendre._LOSS_MAX
        assert relerr(legendre_p(nu, mu, z).value,
                      _mp_legendre("P", nu, mu, z)) <= 1e-13

    def test_p_takes_two_q_values(self, monkeypatch):
        """P past its series evaluates Q at nu and -nu - 1, with its own
        mu and rho, and never enters the ladder, the Mehler integral or
        the order connection."""
        def refuse(*args):
            raise AssertionError("entered")

        for name in ("_large_degree", "_mehler_p", "_connect"):
            monkeypatch.setattr(legendre, name, refuse)
        calls, call = [], legendre.LegendreQ.__call__

        def spy(self, z, rho=None):
            calls.append((self.nu, self.mu, z, rho))
            return call(self, z, rho)

        monkeypatch.setattr(legendre.LegendreQ, "__call__", spy)
        nu, z, rho = complex(-0.5, 25.0), math.cosh(2.0), 2.0
        for mu in (-2.3, -1.0, 0.0, 0.7, 1.5, 3.0):
            calls.clear()
            f = legendre.LegendreP(nu, mu)
            assert f.row.loss(f, z) > legendre._LOSS_MAX
            got = f(z, rho)
            assert calls == [(nu, mu, z, rho), (-nu - 1.0, mu, z, rho)]
            assert abs(got.value - _mp_legendre("P", nu, mu, z)) \
                <= got.abs_err_est

    def test_af_minus_cancelling_pair(self):
        """large_degree seed 46, op 320 (d = 2): FP_nu(-cos rho) and
        FP_nu(cos rho) at nu = 15.247 agree to three digits.  Two
        recurrences left their difference 1.97e-9 off; one climb of the
        difference (``FerrersP.reflect``) leaves 1.9e-12, inside its
        estimate.  Reference: the AF_MINUS closed form at 30 digits,
        Gamma(nu + 1) Gamma(-nu)/(4 pi) [FP_nu(-cos rho) - FP_nu(cos rho)],
        nu = -1/2 + sqrt(1 + 4 beta^2)/2."""
        mpmath = pytest.importorskip("mpmath")
        beta, rho = 15.739314613312217, 0.7732925591510755
        got = green_value("AF_MINUS", ManifoldSpec("hypersphere", 2, 1.0),
                          beta, rho)
        with mpmath.workdps(30):
            nu = -0.5 + mpmath.sqrt(1 + 4 * mpmath.mpf(beta) ** 2) / 2
            x = mpmath.cos(mpmath.mpf(rho))
            ref = complex(mpmath.gamma(nu + 1) * mpmath.gamma(-nu)
                          / (4 * mpmath.pi)
                          * (mpmath.legenp(nu, 0, -x, type=2)
                             - mpmath.legenp(nu, 0, x, type=2)))
        assert abs(got.value - ref) <= 1e-11 * abs(ref)
        assert abs(got.value - ref) <= got.abs_err_est

    def test_reflect_takes_three_seeds(self, monkeypatch):
        """Past the series, reflect(x, c) = FP(-x) - c FP(x) reads FP at
        the degrees s = nu - floor(nu) and s + 1 at y = |x|, one of them
        at -y, and climbs once; so does FP at x < 0 alone.  At
        2 |nu + 1/2| <= _LOSS_MAX, and at order -1/2, it reads self(-x)
        and self(x), the two calls verify's _SharedFerrersP keeps."""
        mpmath = pytest.importorskip("mpmath")
        calls, climbs = [], []
        call, climb = legendre._Prepared.__call__, legendre._climb

        def spy(self, arg, rho=None):
            calls.append((self, arg))
            return call(self, arg, rho)

        def spy_climb(*args):
            climbs.append(args)
            return climb(*args)

        monkeypatch.setattr(legendre._Prepared, "__call__", spy)
        monkeypatch.setattr(legendre, "_climb", spy_climb)
        for nu, mu in ((30.3, 0.0), (30.3, -1.0), (47.0, 0.2), (61.7, -0.6)):
            s = nu - math.floor(nu)
            for x in (0.4, -0.7):
                c = cmath.exp(1j * math.pi * (nu + mu))
                calls.clear(), climbs.clear()
                f = legendre.FerrersP(nu, mu)
                got = f.reflect(x, c)
                assert [(g.nu, g.mu) for g, _ in calls[:2]] \
                    == [(s, mu), (s + 1.0, mu)]
                assert [t for _, t in calls] == [abs(x), abs(x), -abs(x)]
                assert calls[2][0].nu in (s, s + 1.0)
                assert len(climbs) == 1
                with mpmath.workdps(30):
                    ref = complex(
                        mpmath.legenp(nu, mu, -mpmath.mpf(x), type=2)
                        - c * mpmath.legenp(nu, mu, mpmath.mpf(x), type=2))
                assert abs(got.value - ref) <= got.abs_err_est
            calls.clear(), climbs.clear()
            f(-0.7)
            assert [t for _, t in calls] == [-0.7, 0.7, 0.7, -0.7]
            assert len(climbs) == 1
        for nu, mu in ((4.2, 0.0), (4.2, -1.0), (30.3, -0.5)):
            f = legendre.FerrersP(nu, mu)
            calls.clear(), climbs.clear()
            f.reflect(0.4, -1.0)
            assert calls == [(f, -0.4), (f, 0.4)]
            assert not climbs

    def test_af_minus_large_degree(self):
        """A d = 3 sphere op whose Mehler route lost 2.7e-9; the half-odd
        closed forms give 1.5e-10.  Reference: the AF_MINUS closed form
        Gamma(nu + 3/2) Gamma(1/2 - nu) / (2^(5/2) pi^(3/2)) sin(rho)^(-1/2)
        [FP_nu^(-1/2)(-cos rho) - FP_nu^(-1/2)(cos rho)] at 30 digits,
        nu = -1/2 + sqrt(1 + beta^2)."""
        mpmath = pytest.importorskip("mpmath")
        beta, rho = 44.90060134595936, 1.8505974667257088
        got = green_value("AF_MINUS", ManifoldSpec("hypersphere", 3, 1.0),
                          beta, rho).value
        with mpmath.workdps(30):
            nu = -0.5 + mpmath.sqrt(1 + mpmath.mpf(beta) ** 2)
            x = mpmath.cos(rho)
            ref = (mpmath.gamma(nu + 1.5) * mpmath.gamma(0.5 - nu)
                   / (2 ** 2.5 * mpmath.pi ** 1.5)
                   / mpmath.sqrt(mpmath.sin(rho))
                   * (mpmath.legenp(nu, -0.5, -x, type=2)
                      - mpmath.legenp(nu, -0.5, x, type=2)))
            ref = complex(ref)
        assert relerr(got, ref) < 1e-9


# the route cells: kind x degree class x order class x side, the side
# "positive" where the kind's positive series serves (FP at a conical
# degree and a real order below 1 within its term gate), else the side
# of the series' loss threshold read from its kind's row of ROUTES; P at
# a real degree has no loss, FQ's is at least sqrt(2) |nu + 1/2|, and
# Q's passes the threshold only in its corner (test_q_corner), so those
# cells exist on one side only.  The conical classes take a degree on
# each side of Q's |tau| = 12.
_DEGREE_CLASSES = {"real": (6.3,),
                   "conical": (complex(-0.5, 8.0), complex(-0.5, 11.5)),
                   "strongly conical": (complex(-0.5, 12.5),
                                        complex(-0.5, 25.0)),
                   "complex": (complex(2.3, 20.0),)}
_ORDER_CLASSES = ((0.5, -0.5), (1.5, -1.5), (0.0, -1.0, 0.2), (0.7, 1.0))
_CELL_ARGS = {"P": (math.cosh(0.05), math.cosh(2.0)),
              "Q": (math.cosh(3.0), math.cosh(0.3), math.cosh(0.05)),
              "FP": (math.cos(0.1), math.cos(2.6)), "FQ": (0.05, 0.995)}
# the backend of each cell for the orders +-1/2, other half-odd, below
# 0.35 and from 0.35 up (None: no order of the class lands on that
# side), first recorded from the four hand-written ladders before they
# became one
_SERIES = ('closed form', 'series', 'series', 'series')
_POSITIVE = ('closed form', 'positive series', 'positive series',
             'positive series')
_LARGE = ('closed form', 'closed form', 'Mehler', 'connection')
_Q_PAIR = ('closed form', 'Q pair', 'Q pair', 'Q pair')
_ROUTE_CELLS = {
    ('P', 'real', 'below'): _SERIES,
    ('P', 'conical', 'below'): _SERIES,
    ('P', 'conical', 'above'): _Q_PAIR,
    ('P', 'strongly conical', 'below'): _SERIES,
    ('P', 'strongly conical', 'above'): _Q_PAIR,
    ('P', 'complex', 'below'): _SERIES,
    ('P', 'complex', 'above'): _Q_PAIR,
    ('Q', 'real', 'below'): _SERIES,
    ('Q', 'conical', 'below'): _SERIES,
    ('Q', 'strongly conical', 'below'): _SERIES,
    ('Q', 'complex', 'below'): _SERIES,
    ('FP', 'real', 'below'): _SERIES,
    ('FP', 'real', 'above'):
        ('closed form', 'closed form', 'degree recurrence', 'connection'),
    ('FP', 'conical', 'below'): (None, 'series', None, 'series'),
    ('FP', 'conical', 'above'): _LARGE,
    ('FP', 'conical', 'positive'): _POSITIVE,
    ('FP', 'strongly conical', 'below'): (None, 'series', None, 'series'),
    ('FP', 'strongly conical', 'above'): _LARGE,
    ('FP', 'strongly conical', 'positive'): _POSITIVE,
    ('FP', 'complex', 'below'): _SERIES,
    ('FP', 'complex', 'above'): _LARGE,
    ('FQ', 'real', 'below'): _SERIES,
    ('FQ', 'real', 'above'):
        ('closed form', 'closed form', 'degree recurrence', 'connection'),
    ('FQ', 'conical', 'below'): _SERIES,
    ('FQ', 'conical', 'above'):
        ('closed form', 'closed form', 'reflection', 'connection'),
    ('FQ', 'strongly conical', 'above'):
        ('closed form', 'closed form', 'reflection', 'connection'),
    ('FQ', 'complex', 'above'):
        ('closed form', 'closed form', 'reflection', 'connection'),
}
_BACKENDS = {"_half_order": "closed form", "half_odd_eval": "closed form",
             "_mehler_p": "Mehler",
             "_conical_legendre_q_integral": "rotated contour",
             "_degree_recurrence": "degree recurrence",
             "_ferrers_q_reflection": "reflection", "_connect": "connection",
             "_p_from_q": "Q pair"}


class TestRouteCells:
    """Every route cell reaches exactly one backend, the pinned one."""

    @pytest.fixture
    def reached(self, monkeypatch):
        """The backends entered from the ladder (outermost calls only), in
        a list the test clears."""
        hits, depth = [], [0]

        def spy(label, fn):
            def entered(*args):
                top = not depth[0]
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
                    if top:
                        hits.append(label)
            return entered

        for name, label in _BACKENDS.items():
            monkeypatch.setattr(legendre, name,
                                spy(label, getattr(legendre, name)))
        def positive(fn):
            # a positive series counts where it serves (returns a value)
            def entered(*args):
                out = fn(*args)
                if out is not None and not depth[0]:
                    hits.append("positive series")
                return out
            return entered

        for cls in legendre._PREPARED.values():
            monkeypatch.setattr(cls, "row", cls.row._replace(
                series=spy("series", cls.row.series),
                positive=cls.row.positive and positive(cls.row.positive)))
        return hits

    def test_each_cell_reaches_its_pinned_backend(self, reached):
        cells = {}
        for kind, cls in legendre._PREPARED.items():
            for degree, nus in _DEGREE_CLASSES.items():
                for i, orders in enumerate(_ORDER_CLASSES):
                    for nu, mu, arg in itertools.product(
                            nus, orders, _CELL_ARGS[kind]):
                        f = cls(nu, mu)
                        side = ("positive" if f.row.positive and
                                f.row.positive(f, arg) is not None
                                else "below" if f.row.loss(f, arg)
                                <= legendre._LOSS_MAX else "above")
                        reached.clear()
                        f(arg)
                        assert len(reached) == 1, (kind, nu, mu, arg)
                        cells.setdefault((kind, degree, side), [
                            set() for _ in _ORDER_CLASSES])[i].update(reached)
        assert all(len(s) <= 1 for v in cells.values() for s in v)
        assert {k: tuple(s.pop() if s else None for s in v)
                for k, v in cells.items()} == _ROUTE_CELLS

    def test_q_corner(self, reached):
        """Where neither of Q's sums in e^{-2 rho} holds digits, a strongly
        conical degree at rho below about 0.003, its loss passes the
        threshold, and the orders reach the closed forms, the rotated
        contour and the connection from it."""
        want = ('closed form', 'closed form', 'rotated contour',
                'connection')
        for orders, backend in zip(_ORDER_CLASSES, want):
            for mu in orders:
                f = legendre.LegendreQ(complex(-0.5, _TAU_CORNER), mu)
                if backend != 'closed form':
                    assert f.row.loss(f, _Z_CORNER) > legendre._LOSS_MAX
                reached.clear()
                f(_Z_CORNER)
                assert reached == [backend], mu

    def test_q_pole_route(self, reached):
        """At paired poles (nu = -5/2, nu + mu + 1 = -3) Q takes the
        half-odd closed form; at a pole elsewhere it refuses before any
        backend."""
        legendre_q(-2.5, -1.5, 1.3)
        assert reached == ["closed form"]
        reached.clear()
        with pytest.raises(ParamPoleError):
            legendre_q(0.3, -2.3, 1.3)
        assert reached == []


_KIND_FNS = {"P": legendre_p, "Q": legendre_q, "FP": ferrers_p,
             "FQ": ferrers_q}


def _outcome(fn, arg):
    """Bitwise-comparable outcome of fn(arg): reprs of the floats (which
    keep the sign of zero), terms and flags, or the refusal."""
    try:
        r = fn(arg)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)
    v = complex(r.value)
    return (repr(v.real), repr(v.imag), repr(r.abs_err_est), r.terms_used,
            sorted(r.flags))


class TestPreparedIsOneShot:
    """One prepared evaluator called at many arguments, in either order,
    returns or raises what fresh one-shot calls do.  Orders stay within
    |mu| <= 1 off the half-odd ones: beyond, a real large degree takes
    the Mehler integral, which can spend a second refusing."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(sorted(_KIND_FNS)),
           st.one_of(st.sampled_from(sum(_DEGREE_CLASSES.values(),
                                         (25.3, -2.5, -0.5))),
                     st.floats(-3.0, 30.0)),
           st.one_of(st.sampled_from(sum(_ORDER_CLASSES, ())),
                     st.floats(-1.0, 1.0)),
           st.lists(st.floats(0.005, 3.1), max_size=8))
    # the pole routes: Q's paired poles and its refusal, FQ's refusal
    @example("Q", -2.5, -1.5, [0.3, 1.2])
    @example("Q", 0.3, -2.3, [0.3, 1.2])
    @example("FQ", 0.3, -1.3, [0.3, 1.2])
    def test_one_evaluator_is_fresh_calls(self, kind, nu, mu, angles):
        hyperbolic = kind in ("P", "Q")
        args = [math.cosh(t) if hyperbolic else math.cos(t) for t in angles]
        args += list(_CELL_ARGS[kind]) + [1.0, -1.5, 0.0]
        one_shot = functools.partial(_KIND_FNS[kind], nu, mu)
        ref = [_outcome(one_shot, arg) for arg in args]
        f = legendre._PREPARED[kind](nu, mu)
        assert [_outcome(f, arg) for arg in args] == ref
        assert [_outcome(f, arg) for arg in args[::-1]] == ref[::-1]
        f = legendre._PREPARED[kind](nu, mu)
        assert [_outcome(f, arg) for arg in args[::-1]] == ref[::-1]


def _real_degree_grid(seed=15, size=200):
    """(nu, mu, theta): the sphere candidates' real large degrees, the
    orders of d = 2 and 4 and one that takes the order connection."""
    rng = random.Random(seed)
    return [(rng.uniform(15.0, 60.0), rng.choice((0.0, 1.0, -1.0, 0.7)),
             rng.uniform(0.05, 3.09)) for _ in range(size)]


class TestDegreeRecurrence:
    """FP and FQ at a real degree above the loss threshold and an order
    |mu| <= 1, by the degree recurrence from two series seeds."""

    @pytest.mark.parametrize("fn,kind,nu,mu,x", [
        (ferrers_q, "FQ", 40.0, 0.0, 0.3),
        (ferrers_q, "FQ", 40.0, 1.0, 0.3),
        (ferrers_p, "FP", 59.7, 0.7, math.cos(1.2)),
    ])
    def test_integer_nu_minus_mu(self, fn, kind, nu, mu, x):
        """Each raised "reflection route degenerate" when FQ at order
        -mu came from FP at +-x over sin(pi (nu - mu)) = 0."""
        got = fn(nu, mu, x)
        ref = _mp_legendre(kind, nu, mu, x)
        assert abs(got.value - ref) <= 1e-11 * abs(ref)
        assert abs(got.value - ref) <= got.abs_err_est

    def test_zero_of_fp(self):
        """FP_15(0) = 0, where the Mehler quadrature's relative stopping
        rule could not be met and raised after 60000 panels."""
        assert abs(ferrers_p(15.0, 0.0, 0.0).value) <= 1e-14

    @pytest.mark.parametrize("kind", ["FP", "FQ"])
    def test_grid_against_mpmath(self, monkeypatch, kind):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(legendre.quadrature, "quad", no_quadrature)
        fn = ferrers_p if kind == "FP" else ferrers_q
        for nu, mu, theta in _real_degree_grid():
            got = fn(nu, mu, math.cos(theta))
            ref = _mp_legendre(kind, nu, mu, math.cos(theta))
            err = abs(got.value - ref)
            assert err <= 1e-11 * abs(ref), (nu, mu, theta)
            assert err <= got.abs_err_est, (nu, mu, theta)

    def test_flat_limit_point(self):
        """FP_nu(-cos rho) at rho = 0.002, nu ~ 149.5 (FRAK_MINUS, d = 2,
        beta = 0.5, R = 300 in verify's flat-space limit): the seeds lose
        ~2e-11 to the rounding of (1 - x)/2 at FP's log singularity, which
        the estimate must carry."""
        nu = -0.5 + math.sqrt(1.0 + 4.0 * 150.0 ** 2) / 2.0
        x = -math.cos(0.6 / 300.0)
        got = ferrers_p(nu, 0.0, x)
        err = abs(got.value - _mp_legendre("FP", nu, 0.0, x))
        assert err <= got.abs_err_est <= 1e-9

    def test_degree_cap(self, monkeypatch):
        """Above _DEGREE_MAX the climb would take seconds; the Mehler
        route, which refuses within its panel budget, is taken instead."""
        def no_recurrence(*args):
            raise AssertionError("degree recurrence called")

        monkeypatch.setattr(legendre, "_degree_recurrence", no_recurrence)
        monkeypatch.setattr(legendre, "_mehler_p",
                            lambda *args: EvalResult(0.25))
        nu = 2.0 * legendre._DEGREE_MAX
        assert ferrers_p(nu, 0.0, 0.3).value == 0.25

    @pytest.mark.parametrize("fn,nu,mu,x,parent", [
        (ferrers_p, -20.3, -3.3, 0.3, 9.328066822125264e-06),
        (ferrers_q, -20.3, -3.3, 0.3, -1.0645659378564608e-05),
        (ferrers_p, -20.3, 8.3378, -0.9709581651495905, 260194884533.92587),
        (ferrers_p, -20.3, -8.3378, -0.9709581651495905,
         -1.5429443129341854e-11),
        (ferrers_q, -20.3, -8.3378, -0.9709581651495905,
         -1.0945988573984124e-11),
        (ferrers_p, -20.3, 3.3, 0.3, ParamPoleError),
        (ferrers_q, -20.3, 8.3378, 0.3, NoConvergenceError),
    ])
    def test_other_degrees_and_orders_keep_their_routes(
            self, monkeypatch, fn, nu, mu, x, parent):
        """A negative degree or an order beyond 1 stays on the Mehler and
        reflection routes: the values and refusals they gave before the
        degree recurrence existed."""
        def no_recurrence(*args):
            raise AssertionError("degree recurrence called")

        monkeypatch.setattr(legendre, "_degree_recurrence", no_recurrence)
        if isinstance(parent, float):
            assert fn(nu, mu, x).value == parent
        else:
            with pytest.raises(parent):
                fn(nu, mu, x)


def _mp_gamma_ratio(nu, mu):
    """Gamma(nu + mu + 1)/Gamma(nu - mu + 1) by mpmath (0 at a pole of the
    denominator)."""
    mpmath = pytest.importorskip("mpmath")
    return complex(mpmath.gamma(nu + mu + 1) * mpmath.rgamma(nu - mu + 1))


def _wronskian(p, q, nu, mu, arg):
    """(1 - arg^2) W{p, q} at (nu, mu), the derivatives from DLMF 14.10.5,
    (1 - x^2) F_nu' = (mu - nu - 1) F_{nu+1} + (nu + 1) x F_nu, and its
    tolerance: 1e-10 of the sizes of the products it forms plus the
    first-order effect of the four values' own estimates."""
    a, b = mu - nu - 1.0, (nu + 1.0) * arg
    (p0, ep0), (p1, ep1), (q0, eq0), (q1, eq1) = [
        (r.value, r.abs_err_est) for r in (
            p(nu, mu, arg), p(nu + 1.0, mu, arg),
            q(nu, mu, arg), q(nu + 1.0, mu, arg))]
    w = p0 * (a * q1 + b * q0) - q0 * (a * p1 + b * p0)
    size = (abs(p0) * (abs(a * q1) + abs(b * q0))
            + abs(q0) * (abs(a * p1) + abs(b * p0)))
    err = (ep0 * (abs(a * q1) + abs(b * q0))
           + abs(p0) * (abs(a) * eq1 + abs(b) * eq0)
           + eq0 * (abs(a * p1) + abs(b * p0))
           + abs(q0) * (abs(a) * ep1 + abs(b) * ep0))
    return w, 1e-10 * size + err


def _conjugates(fn, nu, mu, arg):
    """|fn(nu) - fn(conj nu)| and its tolerance: 1e-10 of the two values'
    sizes plus their estimates."""
    a, b = fn(nu, mu, arg), fn(nu.conjugate(), mu, arg)
    return abs(a.value - b.value), (1e-10 * (abs(a.value) + abs(b.value))
                                    + a.abs_err_est + b.abs_err_est)


# the working domain: |mu| <= 1, real degree in [0, 40], conical degree
# -1/2 + i tau with |tau| <= 30; the argument 1e-6 from the ends of its
# range, nearer which its rounding (ROADMAP item 14) costs more than
# the tolerance
_ORDERS = st.floats(-1.0, 1.0)
_CONICAL = st.floats(0.0, 30.0).map(lambda tau: complex(-0.5, tau))
_XS = st.floats(-1.0 + 1e-6, 1.0 - 1e-6)
_ZS = st.floats(1.0 + 1e-6, 1e3)
_LEGENDRE_POINTS = st.one_of(st.tuples(_CONICAL, _ZS),
                             st.tuples(st.floats(0.0, 40.0), _ZS))
_IDENTITY = settings(database=None, derandomize=True, deadline=None)


def _off_integer(t, width):
    """True unless t lies within width of an integer without being one."""
    return t == round(t) or abs(t - round(t)) > width


class TestIdentities:
    """Wronskians (DLMF 14.2.3-4) and conical conjugation symmetry, within
    1e-10 of the sizes of the products they form plus the error the
    values' estimates allow: next to an integer order the 2F1 engine's
    1 - z form loses eps/delta, and says so.  nu + mu + 1 = 0 is a pole
    of Q and FQ, and of the Wronskian.  Each xfail example is a draw
    that fails, a known defect."""

    @_IDENTITY
    @given(st.floats(0.0, 40.0), _ORDERS, _XS)
    @example(1.5, 0.0, -0.9999999999999999).xfail(
        raises=NoConvergenceError, reason="(1 - x)/2 rounds to 1")
    @example(38.0, -0.9999999998835847, 0.9356598151213721).xfail(
        raises=ParamPoleError, reason="the degree recurrence's seed at "
        "nu = 0 is 1.2e-10 from a pole of FQ")
    @example(0.999999, 0.999999, 0.875).xfail(
        raises=AssertionError, reason="FQ at an order just below 1 is "
        "1e-5 off with an estimate of 3e-10")
    def test_ferrers_wronskian(self, nu, mu, x):
        assume(nu + mu + 1.0 > 1e-9)
        w, tol = _wronskian(ferrers_p, ferrers_q, nu, mu, x)
        assert abs(w - _mp_gamma_ratio(nu, mu)) <= tol

    @_IDENTITY
    @given(_LEGENDRE_POINTS, _ORDERS)
    # Q near z = 1, and at a real degree past about 20, lost digits to
    # its former 1/z^2 series; its e^{-2 rho} series holds them
    @example((-0.5, 1.00000001), 1.0)
    @example((35.17826049481216, 1.141124544242478), -0.7381015528725752)
    def test_legendre_wronskian(self, point, mu):
        nu, z = point
        assume(abs(nu + mu + 1.0) > 1e-9)
        w, tol = _wronskian(legendre_p, legendre_q, nu, mu, z)
        want = cmath.exp(1j * math.pi * mu) * _mp_gamma_ratio(nu, mu)
        assert abs(w - want) <= tol

    @_IDENTITY
    @given(_CONICAL, _ORDERS, _XS)
    def test_ferrers_conjugation(self, nu, mu, x):
        gap, tol = _conjugates(ferrers_p, nu, mu, x)
        assert gap <= tol

    @_IDENTITY
    @given(_CONICAL, _ORDERS, _ZS)
    # past its series P came from the order connection, which left an
    # imaginary part of 4e-8 relative here; its two Q's leave 7e-13
    @example(complex(-0.5, 26.60433821960522), 0.6142760340999707,
             3.5566275608852735)
    def test_legendre_conjugation(self, nu, mu, z):
        gap, tol = _conjugates(legendre_p, nu, mu, z)
        assert gap <= tol

    @_IDENTITY
    @given(st.floats(0.0, 2.0, exclude_max=True), _ORDERS, _XS)
    @example(5e-15, 0.0, 0.0).xfail(
        raises=AssertionError, reason="the 2F1 engine takes -nu within "
        "1e-10 of an integer as terminating: FP_{5e-15}(0) sums one term, "
        "3.4e-15 off with an estimate of 4.4e-16")
    @example(0.0, -0.9999999999999999, 0.0).xfail(
        raises=AssertionError, reason="the regularized 2F1 takes c = 1 - mu "
        "within 1e-10 of 0 as its pole: FP_0^{1 - 1e-16}(0) is 0 with an "
        "estimate of 0, not 1.1e-16")
    @example(1.5, 0.99999, 0.75).xfail(
        raises=AssertionError, reason="next to an integer c - a - b the "
        "engine's 1 - z form loses eps/delta^2 and estimates eps/delta: "
        "FP_{2.5}^{-0.99999}(-0.75) is 2.8e-7 off, estimate 2.5e-11")
    def test_ferrers_degree_casoratian(self, s, m, x):
        """FP_s(x) FP_{s+1}(-x) + FP_{s+1}(x) FP_s(-x) at order -m is
        2 sin(pi (m - s)) Gamma(s - m + 1)/(pi Gamma(s + m + 2)) (DLMF
        14.2 and 14.10.5), taken as 2/(Gamma(m - s) Gamma(s + m + 2)); at
        s < 1 ``legendre._casoratian`` gives it within its estimate.  The
        xfail examples' defects are left out of the draws: a degree within
        1e-10 of an integer, an order within 1e-3 of one (ROADMAP item 4),
        but not on it."""
        assume(_off_integer(s, 1e-10) and _off_integer(m, 1e-3))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            s_, m_ = mpmath.mpf(s), mpmath.mpf(m)
            want = float(2 * mpmath.rgamma(m_ - s_)
                         * mpmath.rgamma(s_ + m_ + 2))
        u0, u1, v0, v1 = (ferrers_p(s + k, -m, t) for k in (0.0, 1.0)
                          for t in (x, -x))
        products = ((u0, v1), (v0, u1))
        gap = abs(sum(a.value * b.value for a, b in products) - want)
        tol = sum(1e-10 * abs(a.value * b.value) + abs(a.value) * b.abs_err_est
                  + abs(b.value) * a.abs_err_est for a, b in products)
        assert gap <= tol
        if s < 1.0:
            c, err = legendre._casoratian(s, m)
            assert abs(c - want) <= err

    @_IDENTITY
    @given(st.floats(0.0, 40.0), _ORDERS, _XS)
    @example(0.0, 0.9999999999999999, 0.0).xfail(
        raises=AssertionError, reason="the regularized 2F1 takes c = 1 - mu "
        "within 1e-10 of 0 as its pole")
    def test_ferrers_p_reflection(self, nu, mu, x):
        """FP(-x) = cos((nu + mu) pi) FP(x) - (2/pi) sin((nu + mu) pi) FQ(x)
        (DLMF 14.9), the factors exact (mpmath); FP(-x) and FP(x) come
        from their own routes, past the series from the three-seed
        recurrence (x < 0) or the two-seed one (x > 0), FQ from its
        own.  The draws leave out the Casoratian's xfail windows."""
        assume(nu + mu + 1.0 > 1e-9)
        assume(_off_integer(nu, 1e-10) and _off_integer(mu, 1e-3))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            t = mpmath.mpf(nu) + mpmath.mpf(mu)
            factors = (1.0, float(mpmath.cospi(t)),
                       float(-2 * mpmath.sinpi(t) / mpmath.pi))
        values = (ferrers_p(nu, mu, -x), ferrers_p(nu, mu, x),
                  ferrers_q(nu, mu, x))
        gap = abs(values[0].value - factors[1] * values[1].value
                  - factors[2] * values[2].value)
        tol = sum(1e-10 * abs(c * r.value) + abs(c) * r.abs_err_est
                  for c, r in zip(factors, values))
        assert gap <= tol

    @_IDENTITY
    @given(_CONICAL, _ORDERS, _ZS)
    def test_legendre_p_q_connection(self, nu, mu, z):
        """pi e^{i pi mu} cos(nu pi) P = sin((nu + mu) pi) Q_nu
        - sin((nu - mu) pi) Q_{-nu-1} (DLMF 14.9), drawn where P takes
        its own series, so the two sides come from independent paths
        (past it, P is this identity)."""
        f = legendre.LegendreP(nu, mu)
        assume(f.row.loss(f, z) <= legendre._LOSS_MAX)
        factors = (math.pi * cmath.exp(1j * math.pi * mu)
                   * cmath.cos(math.pi * nu), cmath.sin(math.pi * (nu + mu)),
                   -cmath.sin(math.pi * (nu - mu)))
        values = (f(z), legendre_q(nu, mu, z), legendre_q(-nu - 1.0, mu, z))
        gap = abs(factors[0] * values[0].value - factors[1] * values[1].value
                  - factors[2] * values[2].value)
        tol = sum(1e-10 * abs(c * r.value) + abs(c) * r.abs_err_est
                  for c, r in zip(factors, values))
        assert gap <= tol
