"""Addition theorems and Green's-function expansions vs closed forms."""

import cmath
import math
from itertools import count, islice

import numpy as np
import pytest

from curvgreen import expansions, legendre
from curvgreen.errors import (CurvGreenError, DomainError,
                              DomainViolationError, RangeError,
                              WrongCaseError, WrongVariantError)
from curvgreen.expansions import (TwoPointConfig,
                                  addition_ferrers, addition_legendre,
                                  addition_special, convergence_domain,
                                  euclidean_expansion, fourier_2d,
                                  green_expansion)
from curvgreen.geometry import HYPERBOLOID, HYPERSPHERE, ManifoldSpec
from curvgreen.greens import (MINUS, PLUS, WaveParams, green_value)
from curvgreen.legendre import (ferrers_p, ferrers_q, half_odd_eval,
                                legendre_p, legendre_q)
from curvgreen.result import NONCONVERGENT
from curvgreen.specfun import _gegenbauer_terms, gegenbauer_c

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

    def test_far_radius(self):
        # cosh 360 ~ 1e156: the order recurrence's z/sqrt(z^2 - 1) is 1
        # there, where z^2 overflows
        rep = addition_legendre("Q", 0.3, 0.5, TwoPointConfig(0.5, 360.0, 1.0),
                                60)
        assert rep.rel_err <= 1e-12


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

    def test_pmqm_where_nu_minus_mu_is_a_positive_integer(self):
        # FQ^{-(mu+l)} has a pole from l = nu - mu + 1 on, where the
        # Pochhammer weight vanishes; the series takes their finite
        # product and reaches the left-hand side
        for cfg in (CFG_S, TwoPointConfig(0.5, 0.9, 0.7),
                    TwoPointConfig(0.3, 1.2, 2.0)):
            for mu in (0.0, 0.3, 1.1):
                for n in (1, 2):
                    rep = addition_ferrers("PmQm", mu + n, mu, cfg, 80)
                    assert rep.rel_err < 1e-12, (cfg, mu, n)

    def test_nu_equals_mu_q_kind_limit(self):
        # the weight (mu - nu) of every term from l = 1 on vanishes where
        # FQ^{-(mu+1)} has its pole; the series takes the finite product
        for mu in (0.0, 0.5, 1.4, 2.0):
            rep = addition_ferrers("PmQm", mu, mu, CFG_S, 60)
            assert rep.rel_err < 1e-13, mu

    @pytest.mark.parametrize("delta", [1e-9, 5e-9])
    @pytest.mark.parametrize("mu", [0.7, 1.4])
    def test_pmqm_near_nu_equals_mu(self, mu, delta):
        # the value at the degree asked for, not at nu = mu
        mpmath = pytest.importorskip("mpmath")
        cfg = TwoPointConfig(0.5, 0.9, 0.7)
        nu = mu + delta
        rep = addition_ferrers("PmQm", nu, mu, cfg, 80)
        with mpmath.workdps(30):
            th = mpmath.mpf(cfg.theta_spherical())
            want = complex(mpmath.legenq(mpmath.mpf(nu), -mpmath.mpf(mu),
                                         mpmath.cos(th), type=2)
                           / mpmath.sin(th) ** mpmath.mpf(mu))
        assert abs(rep.value - want) / abs(want) < 1e-13

    @pytest.mark.parametrize("nu", [-1.0, -2.0, -3.0])
    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 1.5])
    def test_negative_integer_degrees(self, nu, mu):
        # P_{-1-n} = P_n: a negative integer degree is a degree like any
        # other, refused only where the left-hand side is undefined, and
        # then with the left-hand side's error
        rho, th = CFG_H.rho_hyperbolic(), CFG_S.theta_spherical()
        lhs = {"P": lambda: legendre_p(nu, mu, math.cosh(rho)),
               "Q": lambda: legendre_q(nu, mu, math.cosh(rho)),
               "PmPp": lambda: ferrers_p(nu, mu, math.cos(th)),
               "PmQp": lambda: ferrers_q(nu, mu, math.cos(th)),
               "PmPm": lambda: ferrers_p(nu, -mu, math.cos(th)),
               "PmQm": lambda: ferrers_q(nu, -mu, math.cos(th)),
               "PmPmmx": lambda: ferrers_p(nu, -mu, -math.cos(th)),
               "QmPmmx": lambda: ferrers_q(nu, -mu, -math.cos(th))}

        def series(kind):
            if kind in ("P", "Q"):
                return addition_legendre(kind, nu, mu, CFG_H, 60)
            return addition_ferrers(kind, nu, mu, CFG_S, 80)

        for kind, left in lhs.items():
            try:
                left()
            except CurvGreenError as exc:
                with pytest.raises(type(exc)):
                    series(kind)
                continue
            assert series(kind).rel_err < 1e-13, kind

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

    def test_half_order_seeds_from_closed_forms(self):
        """d = 3 (mu = 1/2): the lowered sequences of FP(+-cos th>) start
        from FP^{-1/2} and FP^{1/2}, both closed forms.  A series value at
        order -3/2 (3e-13 off at x = -0.696, conical degree) paired with
        the closed form at -1/2 left this sum 2.1e-12 off; two series
        values, 2.6e-13."""
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 3.6476139898472755,
                        PLUS)
        cfg = TwoPointConfig(0.8008376579419825, 0.3804530122726887,
                             2.619598783996111)
        assert green_expansion("A_PLUS", wp, cfg, 60).rel_err < 2e-14

    def test_degenerate_gamma_zero(self):
        # gamma = 0: composite separation is the radial difference
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), 1.0, PLUS)
        cfg = TwoPointConfig(0.6, 1.1, 0.0)
        assert cfg.rho_hyperbolic() == pytest.approx(0.5, rel=1e-10)
        rep = green_expansion("H_PLUS", wp, cfg, 40)
        assert rep.rel_err < 1e-8

    @pytest.mark.parametrize("l_max", [40, 120])
    def test_cut_off_series_is_flagged(self, l_max):
        # tail ratio ~0.82: cut off far from convergence, terms still large
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 5, 2.5), 3.4434, PLUS)
        cfg = TwoPointConfig(1.8056, 1.3587, 2.4451)
        rep = green_expansion("H_PLUS", wp, cfg, l_max)
        assert rep.terms == l_max and rep.rel_err > 1.0
        assert NONCONVERGENT in rep.flags

    def test_converged_series_is_not_flagged(self):
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), 1.0, PLUS)
        rep = green_expansion("H_PLUS", wp, TwoPointConfig(0.6, 1.1, 0.7), 40)
        assert NONCONVERGENT not in rep.flags

    @pytest.mark.parametrize("variant", ["SF_MINUS", "FRAK_MINUS"])
    def test_large_beta_prefactor_stays_finite(self, variant):
        # Gamma(nu + mu + 1) alone overflows at nu ~ 180; the prefactor
        # is formed from log-gammas, so the cut-off series comes back
        # flagged instead of raising a bare OverflowError
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 180.3, MINUS)
        try:
            rep = green_expansion(variant, wp, TwoPointConfig(0.3, 0.5, 0.7),
                                  60)
        except CurvGreenError:
            return  # a typed refusal is an allowed outcome
        assert NONCONVERGENT in rep.flags
        assert math.isfinite(abs(rep.value))

    def test_rejects_equal_radii(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 1.3, PLUS)
        with pytest.raises(DomainViolationError):
            green_expansion("S_PLUS", wp, TwoPointConfig(0.5, 0.5, 1.0))

    @pytest.mark.parametrize("variant,kind,sign,cfg", [
        ("H_PLUS", HYPERBOLOID, MINUS, TwoPointConfig(0.6, 1.9, 1.1)),
        ("H_MINUS", HYPERBOLOID, PLUS, TwoPointConfig(0.6, 1.9, 1.1)),
        ("S_PLUS", HYPERSPHERE, MINUS, TwoPointConfig(0.4, 0.8, 1.2)),
        ("FRAK_MINUS", HYPERSPHERE, PLUS, TwoPointConfig(0.4, 0.8, 1.2))])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_the_other_sign(self, variant, kind, sign, cfg, d):
        # the other sign's degree does not expand the variant's closed
        # form (H_PLUS at d = 3: rel_err 19.1)
        wp = WaveParams(ManifoldSpec(kind, d, 1.0), 1.3, sign)
        series = fourier_2d if d == 2 else green_expansion
        with pytest.raises(WrongVariantError, match=f"is not {variant}'s$"):
            series(variant, wp, cfg, 60)


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

    def test_overflowing_term_is_a_range_error(self):
        # K_m(0.6) leaves the double range at m = 139 (K_138(0.6) =
        # 3.6e306, K_139(0.6) = 1.66e309): that term is refused with its
        # index, not summed as inf or nan
        with pytest.raises(RangeError, match="term l = 139"):
            euclidean_expansion(PLUS, 2, 1.0, 0.5, 0.6, 0.5, l_max=400)

    @pytest.mark.parametrize("sign", [PLUS, MINUS])
    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_nonpositive_beta(self, sign, beta):
        # the reference is euclidean_green's closed form, which refuses
        # beta <= 0 (a nan series or a ZeroDivisionError before)
        with pytest.raises(DomainError, match="beta must be positive"):
            euclidean_expansion(sign, 3, beta, 0.5, 1.0, 0.8)

    def test_flat_limit_bridge_termwise(self):
        # curved expansion terms approach flat expansion terms at large R
        R, beta, d = 500.0, 1.0, 3
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, d, R), beta, PLUS)
        mu = wp.mu
        r1, r2, cg = 0.5, 1.0, math.cos(0.8)
        import scipy.special as sp
        import cmath
        # the constant A_d of the d >= 3 closed forms
        const_a = (math.gamma(0.5 * d)
                   / (2.0 * (d - 2.0) * math.pi ** (0.5 * d) * R ** (d - 2)))
        pre_h = ((2.0 * math.pi) ** (-0.5 * d) * beta ** mu * 2.0 ** mu
                 * math.gamma(mu) / (beta * r1 * r2) ** mu)
        for l in (0, 1, 2):
            ch = (cmath.exp(-1j * math.pi * mu)
                  * const_a
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


def _per_order(kind, nu, mu, arg, lowered=False, miller=0, table=None):
    """Reference for order_sequence: every order by its public function,
    a lowered forward sequence times (nu + mu + 1)_l (mu - nu)_l; the
    expansion's evaluator table goes unused."""
    fn = {"P": legendre_p, "Q": legendre_q, "FP": ferrers_p,
          "FQ": ferrers_q}[kind]
    nu, mu = complex(nu), complex(mu)
    weight = 1.0
    for l in count():
        yield weight * fn(nu, -(mu + l) if lowered else mu + l, arg).value
        if lowered and not miller:
            weight *= (nu + mu + 1.0 + l) * (mu - nu + l)


def _expand(variant, d, beta, cfg, l_max=60):
    kind = HYPERBOLOID if variant.startswith("H") else HYPERSPHERE
    sign = PLUS if variant in ("H_PLUS", "S_PLUS", "A_PLUS") else MINUS
    wp = WaveParams(ManifoldSpec(kind, d, 1.0), beta, sign)
    series = fourier_2d if d == 2 else green_expansion
    return series(variant, wp, cfg, l_max)


_VARIANTS = ("H_PLUS", "H_MINUS", "S_PLUS", "A_PLUS", "SF_MINUS",
             "FRAK_MINUS")


class TestOrderRecurrences:
    """The order recurrences keep the series of per-order evaluation."""

    @pytest.mark.parametrize("variant", _VARIANTS)
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_order_evaluation(self, variant, d, monkeypatch):
        cfgs = ([TwoPointConfig(0.6, 1.9, 1.1), TwoPointConfig(2.4, 0.9, 2.6)]
                if variant.startswith("H") else
                [TwoPointConfig(0.5, 1.2, 0.8), TwoPointConfig(1.9, 0.7, 2.2)])
        cases = [(beta, cfg) for beta in (0.7, 3.1) for cfg in cfgs]
        got = [_expand(variant, d, beta, cfg) for beta, cfg in cases]
        monkeypatch.setattr(expansions, "order_sequence", _per_order)
        for rep, (beta, cfg) in zip(got, cases):
            ref = _expand(variant, d, beta, cfg)
            assert abs(rep.value - ref.value) <= 1e-11 * abs(ref.value)
            assert (rep.terms, rep.flags) == (ref.terms, ref.flags)

    def test_large_radius_matches_per_order_evaluation(self, monkeypatch):
        # t^2 = tanh^2(3) = 0.990: Miller starts about 4000 orders up
        cfg = TwoPointConfig(6.0, 7.0, 0.3)
        rep = addition_legendre("P", 0.5, 0.5, cfg, 60)
        monkeypatch.setattr(expansions, "order_sequence", _per_order)
        ref = addition_legendre("P", 0.5, 0.5, cfg, 60)
        assert abs(rep.value - ref.value) <= 1e-11 * abs(ref.value)
        assert (rep.terms, rep.flags) == (ref.terms, ref.flags)

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_few_legendre_calls(self, variant, monkeypatch):
        # two direct values per larger-radius sequence, one for Miller's
        # run and one for the reference: 4; A_PLUS and FRAK_MINUS have two
        # larger-radius parts and a two-value reference: 7; the raised Q
        # sequence at mu = 1/2 (d = 3) takes its second value from the
        # closed forms: 3.  A per-order series made two or three per
        # term.  Counted at the evaluators, which the expansions call
        # directly
        calls = []
        call = legendre._Prepared.__call__

        def counted(self, *args):
            calls.append(self.kind)
            return call(self, *args)

        monkeypatch.setattr(legendre._Prepared, "__call__", counted)
        cfg = (TwoPointConfig(0.6, 1.9, 1.1) if variant.startswith("H")
               else TwoPointConfig(0.5, 1.2, 0.8))
        rep = _expand(variant, 3, 1.3, cfg)
        assert rep.terms > 20
        assert len(calls) == (7 if variant in ("A_PLUS", "FRAK_MINUS")
                              else 3 if variant.startswith("H") else 4)


def _complex_sequence(kind, nu, mu, arg, lowered=False, miller=0,
                      table=None):
    """order_sequence with every recurrence in complex arithmetic, the
    direct values by the public functions: the reference its float
    arithmetic must match bit for bit."""
    fn = {"P": legendre_p, "Q": legendre_q, "FP": ferrers_p,
          "FQ": ferrers_q}[kind]
    c, s = legendre._order_factor(kind, arg)
    nu, mu = complex(nu), complex(mu)

    def direct(l):
        return fn(nu, -(mu + l) if lowered else mu + l, arg).value

    if miller:
        t2 = (arg - 1.0) / (arg + 1.0) if s > 0.0 else (1.0 - arg) / (1.0
                                                                   + arg)
        ln_t2, top, decay = math.log(t2), miller, 0.0
        while decay > -40.0:
            big = mu + top + 1.0
            w = cmath.sqrt(big * big * (c * c - s) + s * (nu + 0.5) ** 2)
            near, far = abs(big * c - w), abs(big * c + w)
            decay += max(math.log(min(near, far) / max(near, far)), ln_t2) \
                if near and far else ln_t2
            top += 1
        g, g1, g2 = [0.0] * miller, 1.0, 0.0
        for l in range(top - 1, -1, -1):
            m = mu + l
            g0 = (2.0 * (m + 1.0) * c * g1
                  + s * (nu + m + 2.0) * (nu - m - 1.0) * g2)
            if abs(g0) > 1e200:
                g0, g1 = g0 * 1e-200, g1 * 1e-200
                g[l + 1:] = [v * 1e-200 for v in g[l + 1:]]
            if l < miller:
                g[l] = g0
            g1, g2 = g0, g1
        seeds = [direct(l) for l in range(min(miller, 2))]
        l = max(range(len(seeds)), key=lambda j: abs(seeds[j]))
        scale = seeds[l] / g[l]
        yield from (v * scale for v in g)
        return
    sign = s if lowered else -1.0
    a = b = None
    for l in count():
        if l == 0:
            h = direct(0)
        elif l == 1 and lowered and (kind == "FQ" or mu == 0.5):
            h = s * (2.0 * mu * c * b - direct(-1))
        elif l == 1 and mu == 0.5:
            h = half_odd_eval(kind, nu, 1.5, arg).value
        elif l == 1:
            h = direct(1) * ((nu + mu + 1.0) * (mu - nu) if lowered else 1.0)
        else:
            k = mu + l - 2.0
            h = (sign * 2.0 * (k + 1.0) * c * b
                 - s * (nu + k + 1.0) * (k - nu) * a)
        yield h
        a, b = b, h


def _complex_gegenbauer(mu, x):
    """C_l^mu(x) by the three-term recurrence in complex arithmetic: the
    reference of _gegenbauer_terms at real mu."""
    mu = complex(mu)
    c_prev, c = 1.0 + 0.0j, 2.0 * mu * x
    yield c_prev
    for k in count(2):
        yield c
        c_prev, c = c, (2.0 * x * (k + mu - 1.0) * c
                        - (k + 2.0 * mu - 2.0) * c_prev) / k


def _bits(v):
    """v's parts by repr, an imaginary part of 0 (either sign) as 0: a
    float value stands for the complex value with that real part."""
    v = complex(v)
    return repr(v.real), repr(v.imag) if v.imag else "0"


class TestFloatArithmetic:
    """At a real degree and order the order recurrences and the
    Gegenbauer basis run in float, with the bits of complex arithmetic,
    and one expansion builds each of its evaluators once."""

    @pytest.mark.parametrize("kind,lowered,miller,arg", [
        ("P", True, True, 1.7), ("P", False, False, 1.7),
        ("P", True, False, 1.7), ("Q", False, False, 1.7),
        ("FP", True, True, 0.4), ("FP", True, False, -0.3),
        ("FP", False, False, -0.3), ("FQ", True, False, -0.3),
        ("FQ", False, False, 0.6)])
    @pytest.mark.parametrize("nu,mu", [(2.3, 0.5), (2.3, 1.0), (0.7, 2.0),
                                       (complex(-0.5, 3.1), 0.5)])
    def test_order_sequence_matches_complex(self, kind, lowered, miller, arg,
                                            nu, mu):
        n = 60
        got = list(islice(legendre.order_sequence(
            kind, nu, mu, arg, lowered, miller=n if miller else 0), n))
        want = list(islice(_complex_sequence(
            kind, nu, mu, arg, lowered, miller=n if miller else 0), n))
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        real = not complex(nu).imag
        assert all(isinstance(v, float) for v in got) == (real
                                                          and kind != "Q")

    @pytest.mark.parametrize("kind,args", [("P", (1.2, 1.7, 3.0, 10.0)),
                                           ("FP", (0.1, 0.4, 0.7, 0.95))])
    @pytest.mark.parametrize("nu", [0.3, 2.3, 7.9, complex(-0.5, 0.4),
                                    complex(-0.5, 3.1)])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [5, 60])
    def test_miller_matches_two_seed_rule(self, kind, args, nu, mu, n):
        # _complex_sequence keeps the two-seed rule: both direct values,
        # normalized by the larger; n = 5 starts FP at nu = 7.9 below its
        # turning point, where the start search takes the complex root
        for arg in args:
            got = list(legendre.order_sequence(kind, nu, mu, arg, True,
                                               miller=n))
            want = list(islice(_complex_sequence(kind, nu, mu, arg, True,
                                                 miller=n), n))
            assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @pytest.mark.parametrize("kind,nu,mu,arg", [
        ("P", 2.3, 0.5, 1.7), ("P", complex(-0.5, 3.1), 0.0, 2.5),
        ("FP", 25.3, 0.5, math.cos(math.pi / 25.8)), ("FP", 0.7, 1.0, 0.3)])
    def test_miller_evaluates_one_seed(self, kind, nu, mu, arg):
        # Miller's run draws one direct value, at l = 0 or 1; FP^{-1/2}
        # vanishes at (25.3, cos(pi/25.8)), where the run picks l = 1
        fns = [legendre._PREPARED[kind](complex(nu), -(mu + l))
               for l in (0, 1)]
        seen = []

        def spy(l):
            seen.append(l)
            return fns[l](arg).value

        c, s = legendre._order_factor(kind, arg)
        t2 = ((arg - 1.0) / (arg + 1.0) if s > 0.0
              else (1.0 - arg) / (1.0 + arg))
        nu = complex(nu) if complex(nu).imag else nu
        legendre._miller(spy, nu, mu, c, s, 40, t2)
        assert len(seen) == 1

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 0.37, 1e200])
    def test_gegenbauer_terms_match_complex(self, mu):
        # mu = 1e200 overflows at l = 2: the float run refuses there, where
        # the complex recurrence goes on with inf/nan parts
        for x in (-0.83, 0.1, 0.6):
            want = list(islice(_complex_gegenbauer(mu, x), 300))
            n = next((l for l, v in enumerate(want)
                      if not cmath.isfinite(v)), len(want))
            terms = _gegenbauer_terms(mu, x)
            got = list(islice(terms, n))
            assert [_bits(v) for v in got] == [_bits(v) for v in want[:n]]
            if n < len(want):
                with pytest.raises(RangeError):
                    next(terms)

    def test_overflow_refuses_as_complex(self, monkeypatch):
        # P^{mu+l}(cosh 2.1) leaves the double range near l = 150 before
        # the slow tail (ratio 0.98) converges
        cfg = TwoPointConfig(2.0, 2.1, 0.3)
        with pytest.raises(RangeError) as got:
            addition_legendre("P", 0.5, 0.5, cfg, 400)
        monkeypatch.setattr(expansions, "order_sequence", _complex_sequence)
        with pytest.raises(RangeError) as want:
            addition_legendre("P", 0.5, 0.5, cfg, 400)
        assert str(got.value) == str(want.value)
        assert "overflows" in str(got.value)

    @pytest.mark.parametrize("variant", ["S_PLUS", "A_PLUS", "FRAK_MINUS",
                                         "H_PLUS"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_each_evaluator_is_built_once(self, variant, d, monkeypatch):
        built = []
        init = legendre._Prepared.__init__

        def spy(self, nu, mu):
            built.append((self.kind, complex(nu), complex(mu)))
            init(self, nu, mu)

        monkeypatch.setattr(legendre._Prepared, "__init__", spy)
        cfg = (TwoPointConfig(0.6, 1.9, 1.1) if variant.startswith("H")
               else TwoPointConfig(0.5, 1.2, 0.8))
        rep = _expand(variant, d, 1.3, cfg)
        assert rep.terms > 20
        assert len(built) == len(set(built)) >= 2
