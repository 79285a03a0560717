"""Large-degree approximants against exact evaluations."""

import math

import pytest

from curvgreen.asymptotics import (_FERRERS_KINDS, conical_large_tau,
                                   empirical_order,
                                   ferrers_conical_large_tau,
                                   ferrers_large_nu, legendre_large_nu,
                                   odd_ferrers_asymptotic)
from curvgreen.errors import InsufficientDataError
from curvgreen.legendre import (ferrers_p, ferrers_q, legendre_p, legendre_q,
                                odd_ferrers_f)


def env_err(approx, exact):
    return abs(complex(exact) - approx.value) / approx.envelope_scale


class TestLegendreLargeNu:
    def test_against_exact(self):
        for kind, fn, mu in (("P_neg_mu", legendre_p, -0.0),
                             ("Q_mu", legendre_q, 0.0)):
            ap = legendre_large_nu(kind, 50.0, 0.0, 1.0)
            ex = fn(50.0, mu, math.cosh(1.0)).value
            assert env_err(ap, ex) < 0.05

    def test_error_halves(self):
        errs = []
        for nu in (50.0, 100.0):
            ap = legendre_large_nu("P_neg_mu", nu, 0.7, 0.9)
            ex = legendre_p(nu, -0.7, math.cosh(0.9)).value
            errs.append(env_err(ap, ex))
        assert 1.5 <= errs[0] / errs[1] <= 2.5

    def test_half_odd_exact_comparison(self):
        nu = 40.0
        ap = legendre_large_nu("Q_mu", nu, 0.5, 1.2)
        ex = legendre_q(nu, 0.5, math.cosh(1.2)).value
        assert env_err(ap, ex) < 3.0 / nu


class TestConicalLargeTau:
    def test_p_neg_envelope_error(self):
        tau, mu, r = 40.0, 1.0, 0.8
        ap = conical_large_tau("P_neg", tau, mu, r)
        ex = legendre_p(complex(-0.5, tau), -mu, math.cosh(r)).value
        assert env_err(ap, ex) < 3.0 / tau

    def test_q_branch_phase(self):
        # Q_{-1/2 - i tau}^mu ~ +(i pi/2) H^(1): at mu = 0 the between
        # sign of the imaginary part tracks the i pi/2 prefactor
        tau, r = 20.0, 1.0
        ap = conical_large_tau("Q_minus_branch", tau, 0.0, r)
        ex = legendre_q(complex(-0.5, -tau), 0.0, math.cosh(r)).value
        assert env_err(ap, ex) < 3.0 / tau
        h1 = complex(ap.value) / (0.5j * math.pi
                                  * math.sqrt(r / math.sinh(r)))
        # the reconstructed Hankel-1 factor and the exact value share
        # the sign structure of i pi/2 H^(1)
        assert (ex.imag > 0) == ((0.5j * math.pi * h1).imag > 0)

    def test_tau_doubling_halves_error(self):
        # mu = 1/2 is excluded: there the J-form approximant IS the
        # closed form and only roundoff would be fitted
        errs = []
        for tau in (25.0, 50.0, 100.0):
            ap = conical_large_tau("P_neg", tau, 0.3, 1.1)
            ex = legendre_p(complex(-0.5, tau), -0.3, math.cosh(1.1)).value
            errs.append(env_err(ap, ex))
        slope = empirical_order((25.0, 50.0, 100.0), errs)
        assert -1.4 <= slope <= -0.6

    def test_conjugate_pairs_mu_zero(self):
        tau, r = 30.0, 0.7
        qp = conical_large_tau("Q_plus_branch", tau, 0.0, r)
        qm = conical_large_tau("Q_minus_branch", tau, 0.0, r)
        assert qp.value == pytest.approx(qm.value.conjugate(), rel=1e-13)


class TestFerrersLargeNu:
    GRID = [(30.3, 0.0, 0.7), (60.6, 0.5, 0.9), (100.2, 2.0, 1.8)]

    @pytest.mark.parametrize("kind", ["P_neg", "P_pos", "Q_neg", "Q_pos",
                                      "P_neg_refl", "Q_neg_refl"])
    def test_kind_against_exact(self, kind):
        for nu, mu, th in self.GRID:
            ap = ferrers_large_nu(kind, nu, mu, th)
            x = math.cos(th)
            exact = {
                "P_neg": lambda: ferrers_p(nu, -mu, x),
                "P_pos": lambda: ferrers_p(nu, mu, x),
                "Q_neg": lambda: ferrers_q(nu, -mu, x),
                "Q_pos": lambda: ferrers_q(nu, mu, x),
                "P_neg_refl": lambda: ferrers_p(nu, -mu, -x),
                "Q_neg_refl": lambda: ferrers_q(nu, -mu, -x),
            }[kind]().value
            assert env_err(ap, exact) < 5.0 / nu, (kind, nu, mu, th)

    def test_q_kind_mu_zero_structure(self):
        # FQ_nu(cos th) ~ -(pi/2) sqrt(th/sin th) Y_0((nu+1/2) th)
        import scipy.special as sp
        nu, th = 60.3, 0.9
        ap = ferrers_large_nu("Q_neg", nu, 0.0, th)
        ref = -0.5 * math.pi * math.sqrt(th / math.sin(th)) \
            * sp.yv(0, (nu + 0.5) * th)
        assert ap.value == pytest.approx(ref, rel=1e-13)

    def test_reflected_oscillation_in_degree(self):
        # cos/sin(pi(nu - mu)) phase tracks exact values across
        # quarter-period degree shifts
        mu, th = 0.5, 0.9
        for nu in (30.0, 30.25, 30.5):
            ap = ferrers_large_nu("P_neg_refl", nu, mu, th)
            ex = ferrers_p(nu, -mu, -math.cos(th)).value
            assert env_err(ap, ex) < 5.0 / nu


class TestFerrersConical:
    def test_reflected_exponential_growth(self):
        tau, mu, th = 15.0, 1.0, 0.7
        ap = ferrers_conical_large_tau("P_neg_refl", tau, mu, th)
        ex = ferrers_p(complex(-0.5, tau), -mu, -math.cos(th)).value
        assert abs(complex(ex) - ap.value) / abs(ex) < 3.0 / tau

    def test_ik_structure_mu_zero(self):
        import scipy.special as sp
        tau, th = 25.0, 0.8
        ap = ferrers_conical_large_tau("P_neg", tau, 0.0, th)
        ref = math.sqrt(th / math.sin(th)) * sp.iv(0, tau * th)
        assert ap.value == pytest.approx(ref, rel=1e-13)
        aq = ferrers_conical_large_tau("Q_neg", tau, 0.0, th, branch=+1)
        ref = math.sqrt(th / math.sin(th)) * complex(
            sp.kv(0, tau * th), -0.5 * math.pi * sp.iv(0, tau * th))
        assert aq.value == pytest.approx(ref, rel=1e-13)

    def test_tau_doubling(self):
        # mu = 1/2 excluded for the same exactness reason as above
        errs = []
        taus = (25.0, 50.0, 100.0)
        for tau in taus:
            ap = ferrers_conical_large_tau("P_neg", tau, 0.3, 0.6)
            ex = ferrers_p(complex(-0.5, tau), -0.3, math.cos(0.6)).value
            errs.append(env_err(ap, ex))
        slope = empirical_order(taus, errs)
        assert -1.4 <= slope <= -0.6


class TestOddFerrers:
    def test_antisymmetry_by_construction(self):
        # the reflected branch is defined as minus the direct branch at
        # pi - theta, so only the 1-ulp angle round-trip survives
        a = odd_ferrers_asymptotic("LARGE_NU", 40.3, 0.5, 0.6)
        b = odd_ferrers_asymptotic("LARGE_NU", 40.3, 0.5, math.pi - 0.6)
        assert abs(a.value + b.value) <= 1e-14 * max(abs(a.value), 1e-300)

    def test_conical_k_dominance(self):
        # e^{pi tau} K_mu(tau theta)/pi dominates the I term
        import scipy.special as sp
        tau, th = 12.0, 0.5
        ap = odd_ferrers_asymptotic("CONICAL", tau, 0.0, th)
        kpart = (math.exp(math.pi * tau) / math.pi) * sp.kv(0, tau * th) \
            * math.sqrt(th / math.sin(th))
        assert abs(ap.value / kpart - 1.0) < 0.01

    def test_against_exact(self):
        nu, mu, th = 40.0 + 0.3, 0.5, 0.6
        ap = odd_ferrers_asymptotic("LARGE_NU", nu, mu, th)
        ex = odd_ferrers_f(nu, -mu, math.cos(th)).value
        assert env_err(ap, ex) < 3.0 / nu

    def test_branch_continuity_at_equator(self):
        nu, mu = 35.3, 0.5
        lo = odd_ferrers_asymptotic("LARGE_NU", nu, mu,
                                    math.pi / 2.0 - 1e-12)
        hi = odd_ferrers_asymptotic("LARGE_NU", nu, mu,
                                    math.pi / 2.0 + 1e-12)
        scale = max(lo.envelope_scale, hi.envelope_scale)
        assert abs(lo.value - hi.value) <= 2.0 * (3.0 / nu) * scale


    @pytest.mark.parametrize("theta", [0.5 * math.pi - 1e-5,
                                       0.5 * math.pi + 1e-5])
    def test_conical_near_equator(self, theta):
        # the K and I terms cancel here; the envelope sums their sizes,
        # so the normalized error stays O(1/tau)
        tau, mu = 30.0, 1.0
        ap = odd_ferrers_asymptotic("CONICAL", tau, mu, theta)
        ex = odd_ferrers_f(complex(-0.5, tau), -mu, math.cos(theta)).value
        assert env_err(ap, ex) < 3.0 / tau


_KINDS = ([(legendre_large_nu, k, {}) for k in ("P_neg_mu", "Q_mu")]
          + [(conical_large_tau, k, {}) for k in
             ("P_neg", "P_pos", "Q_plus_branch", "Q_minus_branch")]
          + [(ferrers_large_nu, k, {}) for k in _FERRERS_KINDS]
          + [(ferrers_conical_large_tau, k, {"branch": b})
             for k in _FERRERS_KINDS for b in (1, -1)]
          + [(odd_ferrers_asymptotic, k, {}) for k in ("LARGE_NU", "CONICAL")])


@pytest.mark.parametrize("fn,kind,kw", _KINDS,
                         ids=[f"{f.__name__}-{k}-{kw}" for f, k, kw in _KINDS])
def test_envelope_bounds_value(fn, kind, kw):
    for param in (20.0, 45.3):
        for mu in (0.0, 0.5, 1.3):
            for angle in (0.3, 1.1, 2.0):
                ap = fn(kind, param, mu, angle, **kw)
                assert ap.envelope_scale >= abs(ap.value) * (1.0 - 1e-15)


class TestEmpiricalOrder:
    def test_exact_geometric(self):
        assert empirical_order([10, 20, 40], [0.1, 0.05, 0.025]) \
            == pytest.approx(-1.0, abs=1e-12)

    def test_sweep_exponent(self):
        errs = []
        taus = (20.0, 40.0, 80.0)
        for tau in taus:
            ap = conical_large_tau("P_neg", tau, 1.0, 0.8)
            ex = legendre_p(complex(-0.5, tau), -1.0, math.cosh(0.8)).value
            errs.append(env_err(ap, ex))
        assert -1.4 <= empirical_order(taus, errs) <= -0.6

    def test_constant_errors(self):
        assert abs(empirical_order([10, 20, 40], [0.3, 0.3, 0.3])) < 1e-12

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            empirical_order([10, 20], [0.1, 0.05])
