"""Addition theorems and Green's-function expansions vs closed forms."""

import math

import numpy as np
import pytest

from curvgreen.errors import (DomainError, DomainViolationError,
                             WrongCaseError)
from curvgreen.expansions import (TwoPointConfig,
                                  addition_ferrers, addition_legendre,
                                  addition_special, convergence_domain,
                                  euclidean_expansion, fourier_2d,
                                  green_expansion)
from curvgreen.geometry import HYPERBOLOID, HYPERSPHERE, ManifoldSpec
from curvgreen.greens import (MINUS, PLUS, WaveParams, green_value)
from curvgreen.legendre import legendre_p, legendre_q
from curvgreen.specfun import gegenbauer_c

CFG_H = TwoPointConfig(0.5, 1.2, 0.8)
CFG_S = TwoPointConfig(0.5, 0.9, 1.0)


class TestAdditionLegendre:
    def test_q_kind_laplace_specialization(self):
        # nu = mu = 1 is the d = 4 Laplace kernel
        rep = addition_legendre("Q", 1.0, 1.0, CFG_H, 40)
        assert rep.rel_err < 1e-9

    def test_half_order_closed_lhs(self):
        # the Q-kind series at mu = 1/2 reconstructs the exponential
        nu = 1.7
        rep = addition_legendre("Q", nu, 0.5, CFG_H, 40)
        rho = CFG_H.rho_hyperbolic()
        closed = (1j * math.sqrt(0.5 * math.pi)
                  * math.exp(-(nu + 0.5) * rho) / math.sinh(rho))
        assert abs(rep.value - closed) / abs(closed) < 1e-9
        assert rep.rel_err < 1e-9

    def test_chebyshev_kind_mu_zero(self):
        rep = addition_legendre("P", 0.5, 0.0, CFG_H, 40)
        assert rep.rel_err < 1e-9

    def test_requires_distinct_radii(self):
        with pytest.raises(DomainViolationError):
            addition_legendre("P", 0.5, 0.5, TwoPointConfig(0.7, 0.7, 0.4))


class TestAdditionFerrers:
    KINDS = ("PmPp", "PmQp", "PmPm", "PmQm", "PmPmmx", "QmPmmx")

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_converges_to_lhs(self, kind):
        rep = addition_ferrers(kind, 2.3, 1.1, CFG_S, 60)
        assert rep.rel_err < 1e-8, kind
        assert rep.terms <= 80

    @pytest.mark.parametrize("kind", KINDS)
    def test_mu_zero_chebyshev_forms(self, kind):
        rep = addition_ferrers(kind, 0.7, 0.0, CFG_S, 60)
        assert rep.rel_err < 1e-8, kind

    def test_nu_equals_mu_only_first_term(self):
        # PmPm degenerates to its n = 0 term
        mu = 1.4
        rep = addition_ferrers("PmPm", mu, mu, TwoPointConfig(0.5, 0.9, 1.0),
                               60)
        assert rep.terms <= 4
        assert rep.rel_err < 1e-10

    def test_nu_equals_mu_q_kind_limit(self):
        # removable term-by-term singularity handled by extrapolation
        mu = 1.4
        rep = addition_ferrers("PmQm", mu, mu, CFG_S, 60)
        assert rep.rel_err < 1e-6

    def test_half_order_trig_specialization(self):
        # sin((nu+1/2) Theta)/sin Theta reconstruction at mu = 1/2
        nu = 1.7
        rep = addition_ferrers("PmQp", nu, 0.5, CFG_S, 60)
        th = CFG_S.theta_spherical()
        closed = (-math.sqrt(0.5 * math.pi)
                  * math.sin((nu + 0.5) * th) / math.sin(th))
        assert abs(rep.value - closed) / abs(closed) < 1e-8

    def test_domain_rejection(self):
        with pytest.raises(DomainViolationError):
            addition_ferrers("PmPp", 1.0, 0.5,
                             TwoPointConfig(math.pi / 2, math.pi / 2, 0.3))

    def test_tail_ratio_matches_prediction(self):
        # measured term decay approaches tan(th</2) tan(th>/2)
        cfg = TwoPointConfig(1.1, 1.4, 0.7)
        nu, mu = 2.3, 1.1
        ok, ratio = convergence_domain(cfg.lt, cfg.gt, False)
        assert ok
        from curvgreen.legendre import ferrers_p
        x_lt, x_gt = math.cos(cfg.lt), math.cos(cfg.gt)

        def term(n):
            poch = 1.0
            for k in range(n):
                poch *= (nu + mu + 1.0 + k) * (mu - nu + k)
            return abs((n + mu) * poch
                       * ferrers_p(nu, -(mu + n), x_lt).value
                       * ferrers_p(nu, -(mu + n), x_gt).value
                       * gegenbauer_c(n, mu, cfg.cos_gamma))

        t20, t40 = term(20), term(40)
        measured = (t40 / t20) ** (1.0 / 20.0)
        assert abs(measured / ratio - 1.0) < 0.10


class TestConvergenceDomain:
    def test_boundary(self):
        ok, ratio = convergence_domain(math.pi / 2, math.pi / 2, False)
        assert not ok
        assert ratio == pytest.approx(1.0)

    def test_formula(self):
        ok, ratio = convergence_domain(0.3, 0.4, True)
        assert ok
        expect = max(math.tan(0.15) * math.tan(0.2),
                     math.tan(0.15) / math.tan(0.2))
        assert ratio == pytest.approx(expect)

    def test_distinctness(self):
        ok, _ = convergence_domain(0.4, 0.4, True)
        assert not ok


class TestAdditionSpecial:
    CFG = TwoPointConfig(0.4, 0.7, 0.9)

    def test_logcot(self):
        rep = addition_special("LOGCOT", {}, self.CFG, 60)
        assert rep.rel_err < 1e-8

    def test_q_k_mk(self):
        rep = addition_special("Q_K_MK", {"k": 1}, self.CFG, 60)
        assert rep.rel_err < 1e-8

    def test_q_mh_mmh(self):
        rep = addition_special("Q_MH_MMH", {"m": 0}, self.CFG, 60)
        assert rep.rel_err < 1e-8

    def test_degree_equals_order_forms(self):
        for case in ("NU_EQ_MU_HALFINT", "NU_EQ_MU_INT"):
            rep = addition_special(case, {"mu": 1.3}, self.CFG, 70)
            assert rep.rel_err < 1e-8, case

    def test_excluded_parameters(self):
        with pytest.raises(WrongCaseError):
            addition_special("NU_EQ_MU_HALFINT", {"mu": 1.5}, self.CFG)
        with pytest.raises(WrongCaseError):
            addition_special("NU_EQ_MU_INT", {"mu": 2.0}, self.CFG)

    def test_cosh_sinh_forms(self):
        for form in ("cosh", "exp"):
            rep = addition_special("COSH_SINH_LEGENDRE",
                                   {"nu": 1.7, "form": form}, CFG_H, 40)
            assert rep.rel_err < 1e-9, form


class TestGreenExpansions:
    @pytest.mark.parametrize("variant,beta,sign", [
        ("H_PLUS", 1.0, PLUS), ("H_MINUS", 1.0, MINUS)])
    def test_hyperboloid_d3(self, variant, beta, sign):
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), beta, sign)
        rep = green_expansion(variant, wp, TwoPointConfig(0.6, 1.1, 0.7), 40)
        assert rep.rel_err < 1e-8

    @pytest.mark.parametrize("variant,beta,sign", [
        ("S_PLUS", 1.3, PLUS), ("A_PLUS", 1.3, PLUS),
        ("SF_MINUS", 0.8, MINUS), ("FRAK_MINUS", 0.8, MINUS)])
    def test_sphere_d3(self, variant, beta, sign):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), beta, sign)
        rep = green_expansion(variant, wp, TwoPointConfig(0.4, 0.8, 1.2), 40)
        assert rep.rel_err < 1e-7

    def test_degenerate_gamma_zero(self):
        # gamma = 0: composite separation is the radial difference
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), 1.0, PLUS)
        cfg = TwoPointConfig(0.6, 1.1, 0.0)
        assert cfg.rho_hyperbolic() == pytest.approx(0.5, rel=1e-10)
        rep = green_expansion("H_PLUS", wp, cfg, 40)
        assert rep.rel_err < 1e-8

    def test_rejects_equal_radii(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 1.3, PLUS)
        with pytest.raises(DomainViolationError):
            green_expansion("S_PLUS", wp, TwoPointConfig(0.5, 0.5, 1.0))


class TestFourier2d:
    @pytest.mark.parametrize("variant,beta,sign", [
        ("H_PLUS", 1.0, PLUS), ("H_MINUS", 0.9, MINUS),
        ("S_PLUS", 1.3, PLUS), ("A_PLUS", 1.3, PLUS),
        ("SF_MINUS", 0.8, MINUS), ("FRAK_MINUS", 0.8, MINUS)])
    def test_variant(self, variant, beta, sign):
        kind = HYPERBOLOID if variant.startswith("H") else HYPERSPHERE
        wp = WaveParams(ManifoldSpec(kind, 2, 1.0), beta, sign)
        cfg = TwoPointConfig(0.6, 1.1, 0.7) if kind == HYPERBOLOID \
            else TwoPointConfig(0.4, 0.8, 1.2)
        rep = fourier_2d(variant, wp, cfg, 40)
        assert rep.rel_err < 1e-7, variant

    def test_rejects_nonpositive_radii(self):
        # the d = 2 rows share the radius check of the d >= 3 rows
        cfg = TwoPointConfig(-0.5, 1.0, 0.7)
        for d, series in ((2, fourier_2d), (3, green_expansion)):
            wp = WaveParams(ManifoldSpec(HYPERBOLOID, d, 1.0), 1.0, PLUS)
            with pytest.raises(DomainError):
                series("H_PLUS", wp, cfg, 40)

    def test_elliptic_integral_identity(self):
        # beta = 1/(2R): closed form (1/2pi) sech(rho/2) K(sech(rho/2)),
        # with K from an independent quadrature oracle
        from curvgreen.quadrature import quad
        R = 1.0
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 2, R), 0.5 / R, MINUS)
        cfg = TwoPointConfig(0.6, 1.1, 0.7)
        rho = cfg.rho_hyperbolic()
        k = 1.0 / math.cosh(0.5 * rho)

        def integrand(t):
            return 1.0 / math.sqrt(1.0 - k * k * math.sin(t) ** 2)

        bigk = quad(integrand, 0.0, 0.5 * math.pi, tol=1e-13).value
        closed = k * bigk / (2.0 * math.pi)
        rep = fourier_2d("H_MINUS", wp, cfg, 40)
        assert abs(rep.value - closed) / abs(closed) < 1e-7
        assert rep.rel_err < 1e-7

    def test_zeroth_term_is_azimuthal_average(self):
        # l_max = 0 keeps only the phi-average of the Green's function
        from curvgreen.quadrature import quad
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 2, 1.0), 1.0, PLUS)
        r1, r2 = 0.6, 1.1
        rep = fourier_2d("H_PLUS", wp, TwoPointConfig(r1, r2, 0.7), 1)
        assert rep.terms == 1
        # l_max = 0 keeps no term at all and is refused
        with pytest.raises(DomainError):
            fourier_2d("H_PLUS", wp, TwoPointConfig(r1, r2, 0.7), 0)

        def f(phi):
            cfg = TwoPointConfig(r1, r2, phi)
            return green_value("H_PLUS", wp.manifold, wp.beta,
                               cfg.rho_hyperbolic()).value.real

        avg = quad(f, 0.0, 2.0 * math.pi, tol=1e-11).value / (2.0 * math.pi)
        assert abs(rep.value.real - avg) < 1e-9 * abs(avg)


class TestEuclideanExpansion:
    def test_plus_d3(self):
        rep = euclidean_expansion(PLUS, 3, 1.0, 0.5, 1.0, 0.8, 30)
        assert rep.rel_err < 1e-9

    def test_minus_d2(self):
        rep = euclidean_expansion(MINUS, 2, 1.0, 0.5, 1.0, 0.8, 35)
        assert rep.rel_err < 1e-8

    def test_flat_limit_bridge_termwise(self):
        # curved expansion terms approach flat expansion terms at large R
        R, beta, d = 500.0, 1.0, 3
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, d, R), beta, PLUS)
        mu = wp.mu
        r1, r2, cg = 0.5, 1.0, math.cos(0.8)
        import scipy.special as sp
        from curvgreen.expansions import _const_a
        import cmath
        pre_h = ((2.0 * math.pi) ** (-0.5 * d) * beta ** mu * 2.0 ** mu
                 * math.gamma(mu) / (beta * r1 * r2) ** mu)
        for l in (0, 1, 2):
            ch = (cmath.exp(-1j * math.pi * mu)
                  * _const_a(d, R)
                  / (math.sinh(r1 / R) * math.sinh(r2 / R)) ** mu
                  * (-1.0) ** l * (2 * l + d - 2)
                  * legendre_p(wp.nu, -(mu + l), math.cosh(r1 / R)).value
                  * legendre_q(wp.nu, mu + l, math.cosh(r2 / R)).value
                  * gegenbauer_c(l, mu, cg))
            ce = (pre_h * (l + mu) * sp.iv(mu + l, beta * r1)
                  * sp.kv(mu + l, beta * r2) * gegenbauer_c(l, mu, cg))
            assert abs(ch.real - ce) / abs(ce) < 0.01, l


class TestCandidatesCommonDomain:
    def test_both_candidates_expand_consistently(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 4, 1.0), 0.8, MINUS)
        cfg = TwoPointConfig(0.4, 0.8, 1.2)
        for variant in ("SF_MINUS", "FRAK_MINUS"):
            rep = green_expansion(variant, wp, cfg, 40)
            assert rep.rel_err < 1e-6, variant

    @pytest.mark.parametrize("series,kind,nu,cfg", [
        (addition_ferrers, kind, 0.7, TwoPointConfig(0.4, 0.7, 0.9))
        for kind in TestAdditionFerrers.KINDS] + [
        (addition_legendre, kind, 1.3, TwoPointConfig(0.6, 1.1, 0.7))
        for kind in ("P", "Q")], ids=TestAdditionFerrers.KINDS + ("P", "Q"))
    def test_mu_to_zero_consistency(self, series, kind, nu, cfg):
        # each kind at mu = 1e-6 approaches its mu = 0 Chebyshev series;
        # the configurations keep the values O(1) so the relative
        # comparison is not inflated by a nearby zero of the
        # second-kind function
        small = series(kind, nu, 1e-6, cfg, 60)
        zero = series(kind, nu, 0.0, cfg, 60)
        assert abs(small.value - zero.value) < 1e-5 * abs(zero.value)

    def test_gegenbauer_coefficient_growth(self):
        # |C_n^mu(cos g)| = O(n^{mu-1}): fitted exponent within 0.3
        for gamma_angle in (0.5, 1.5, 2.5):
            for mu in (0.6, 1.0, 2.5):
                ns = np.array([16, 32, 64, 128, 256])
                mags = []
                for n in ns:
                    # average over a short window to smooth oscillation
                    w = [abs(gegenbauer_c(int(n) + j, mu,
                                          math.cos(gamma_angle)))
                         for j in range(8)]
                    mags.append(np.mean(w))
                slope = np.polyfit(np.log(ns), np.log(mags), 1)[0]
                assert abs(slope - (mu - 1.0)) < 0.3, (gamma_angle, mu)
