"""Green's functions: closed forms, limits, candidates, diagnostics."""

import cmath
import math

import numpy as np
import pytest

from curvgreen.errors import (DomainError, EigenvaluePoleError,
                              WrongVariantError)
from curvgreen.geometry import (HYPERBOLOID, HYPERSPHERE, ManifoldSpec)
from curvgreen.greens import (MINUS, PLUS, WaveParams, eigenvalue_poles,
                              euclidean_green, hyperboloid_green,
                              laplace_green, sphere_candidate_minus,
                              sphere_green_antipodal_plus, sphere_green_plus)
from curvgreen.legendre import ferrers_p_reflected
from curvgreen.specfun import _cgamma


def relerr(got, ref):
    got, ref = complex(got), complex(ref)
    return abs(got - ref) / max(abs(ref), 1e-300)


class TestEuclidean:
    def test_d3_plus_yukawa(self):
        beta, r = 2.0, 0.7
        got = euclidean_green(PLUS, 3, beta, r).value
        ref = math.exp(-beta * r) / (4.0 * math.pi * r)
        assert relerr(got, ref) < 1e-13

    def test_d2_minus_hankel(self):
        import scipy.special as sp
        beta, r = 1.3, 0.9
        got = euclidean_green(MINUS, 2, beta, r).value
        ref = 0.25j * sp.hankel1(0, beta * r)
        assert relerr(got, ref) < 1e-13

    def test_d1_plus(self):
        beta, r = 1.7, 0.4
        got = euclidean_green(PLUS, 1, beta, r).value
        ref = math.exp(-beta * r) / (2.0 * beta)
        assert relerr(got, ref) < 1e-13

    def test_d1_plus_satisfies_ode(self):
        # -u'' + beta^2 u away from the source
        beta, h = 1.7, 1e-4
        u = [euclidean_green(PLUS, 1, beta, 0.4 + k * h).value.real
             for k in (-1, 0, 1)]
        d2 = (u[0] - 2 * u[1] + u[2]) / h ** 2
        assert abs(-d2 + beta ** 2 * u[1]) < 1e-6 * abs(beta ** 2 * u[1])


class TestHyperboloid:
    def test_d3_plus_elementary(self):
        for beta in (0.5, 1.0, 2.4):
            for rho in (0.1, 0.8, 2.5):
                wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), beta,
                                PLUS)
                got = hyperboloid_green(wp, rho).value
                ref = math.exp(-rho * math.sqrt(1 + beta ** 2)) \
                    / (4.0 * math.pi * math.sinh(rho))
                assert relerr(got, ref) < 1e-11

    def test_beta_to_zero_matches_laplace(self):
        m = ManifoldSpec(HYPERBOLOID, 3, 1.0)
        wp = WaveParams(m, 1e-6, PLUS)
        got = hyperboloid_green(wp, 0.8).value
        ref = laplace_green(m, 0.8).value
        assert relerr(got, ref) < 1e-5

    def test_flat_space_limit(self):
        m = ManifoldSpec(HYPERBOLOID, 3, 200.0)
        wp = WaveParams(m, 1.0, PLUS)
        got = hyperboloid_green(wp, 0.5 / 200.0).value
        ref = euclidean_green(PLUS, 3, 1.0, 0.5).value
        assert relerr(got, ref) < 0.01

    def test_minus_branch_outgoing(self):
        # oscillatory regime reduces to e^{+i t rho}/(4 pi R sinh rho)
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), 2.0, MINUS)
        t = math.sqrt(4.0 - 1.0) / 1.0 * 0.5 * 2  # (1/2) sqrt(4 b^2 - 4) *2
        rho = 1.1
        got = hyperboloid_green(wp, rho).value
        ref = cmath.exp(1j * t * rho) / (4.0 * math.pi * math.sinh(rho))
        assert relerr(got, ref) < 1e-12

    def test_realness_plus(self):
        for d in (2, 3, 4):
            wp = WaveParams(ManifoldSpec(HYPERBOLOID, d, 1.0), 1.3, PLUS)
            v = hyperboloid_green(wp, 0.9).value
            assert abs(v.imag) < 1e-10 * abs(v)

    def test_decay_at_infinity(self):
        wp = WaveParams(ManifoldSpec(HYPERBOLOID, 3, 1.0), 0.7, PLUS)
        vals = [abs(hyperboloid_green(wp, rho).value)
                for rho in np.linspace(5.0, 30.0, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-13


class TestSpherePlus:
    def test_d3_elementary_reduction(self):
        for beta in (0.6, 1.3, 2.2):
            wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), beta, PLUS)
            h = wp.nu + 0.5
            for rho in (0.2, 1.0, 2.6):
                got = sphere_green_plus(wp, rho).value
                ref = (cmath.sin(h * (math.pi - rho))
                       / (4.0 * math.pi * math.sin(rho)
                          * cmath.sin(math.pi * h)))
                assert relerr(got, ref) < 1e-9

    def test_source_singularity_strength(self):
        # ~ Gamma(d/2-1) / (4 pi^{d/2} (R rho)^{d-2}) as rho -> 0
        d, beta, rho = 4, 1.1, 1e-3
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, d, 1.0), beta, PLUS)
        got = sphere_green_plus(wp, rho).value.real
        ref = _cgamma(0.5 * d - 1.0).real \
            / (4.0 * math.pi ** (0.5 * d) * rho ** (d - 2))
        assert relerr(got, ref) < 0.01

    def test_realness(self):
        for d, beta in ((2, 1.3), (3, 1.3), (4, 0.7)):
            wp = WaveParams(ManifoldSpec(HYPERSPHERE, d, 1.0), beta, PLUS)
            v = sphere_green_plus(wp, 0.9).value
            assert abs(v.imag) < 1e-10 * abs(v)

    def test_cusp_strength_at_antipole(self):
        # d/dx [(1-x^2)^{-mu/2} FP_nu^{-mu}(-x)] at x -> -1+ equals
        # (mu(mu+1) - nu(nu+1)) / (2^{mu+1} Gamma(mu+2)), obtained by
        # differentiating the (1+x)/2 hypergeometric representation
        # term by term (the prefactor contributes the mu(mu+1) piece)
        nu, mu = 1.3, 1.5
        h = 1e-5
        x0 = -1.0 + 3e-5

        def g(x):
            return (ferrers_p_reflected(nu, mu, x).value.real
                    / (1.0 - x * x) ** (0.5 * mu))

        got = (g(x0 + h) - g(x0 - h)) / (2.0 * h)
        ref = (mu * (mu + 1.0) - nu * (nu + 1.0)) \
            / (2.0 ** (mu + 1.0) * _cgamma(mu + 2.0).real)
        assert abs(got - ref) < 1e-4 * abs(ref)


class TestSphereAntipodal:
    def test_odd_about_equator(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 1.3, PLUS)
        assert abs(sphere_green_antipodal_plus(wp, math.pi / 2.0).value) \
            < 1e-15

    def test_exact_negation(self):
        for d in (2, 3, 4):
            wp = WaveParams(ManifoldSpec(HYPERSPHERE, d, 1.0), 1.3, PLUS)
            a = sphere_green_antipodal_plus(wp, 0.7).value
            b = sphere_green_antipodal_plus(wp, math.pi - 0.7).value
            assert abs(a + b) < 1e-12 * abs(a)

    def test_beta_zero_limit(self):
        m = ManifoldSpec(HYPERSPHERE, 3, 1.0)
        wp = WaveParams(m, 1e-3, PLUS)
        got = sphere_green_antipodal_plus(wp, 0.9).value
        ref = laplace_green(m, 0.9).value
        assert relerr(got, ref) < 1e-5


class TestCandidates:
    def test_sf_real(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.8, MINUS)
        v = sphere_candidate_minus("SF", wp, 1.0)
        assert "CANDIDATE" in v.flags
        assert abs(v.value.imag) < 1e-12 * abs(v.value)

    def test_frak_flat_space_limit_d2(self):
        m = ManifoldSpec(HYPERSPHERE, 2, 300.0)
        wp = WaveParams(m, 1.0, MINUS)
        got = sphere_candidate_minus("FRAK", wp, 0.6 / 300.0).value
        ref = euclidean_green(MINUS, 2, 1.0, 0.6).value
        assert relerr(got, ref) < 0.02

    def test_antipodal_variants_odd(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.8, MINUS)
        for tag in ("AF", "FRAKA"):
            a = sphere_candidate_minus(tag, wp, 0.6).value
            b = sphere_candidate_minus(tag, wp, math.pi - 0.6).value
            assert abs(a + b) < 1e-12 * abs(a)

    def test_pole_refusal(self):
        m = ManifoldSpec(HYPERSPHERE, 3, 1.0)
        wp = WaveParams(m, math.sqrt(3.0) * (1.0 + 1e-9), MINUS)
        with pytest.raises(EigenvaluePoleError):
            sphere_candidate_minus("SF", wp, 1.0)

    def test_frak_second_equality(self):
        # the complex combination equals the FQ + i pi/2 FP form
        from curvgreen.legendre import ferrers_p, ferrers_q
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.8, MINUS)
        rho = 1.1
        got = sphere_candidate_minus("FRAK", wp, rho).value
        nu, mu = wp.nu, wp.mu
        gr = _cgamma(nu + mu + 1.0) / _cgamma(nu - mu + 1.0)
        alt = (gr / (1.0 * (2.0 * math.pi) ** 1.5 * math.sin(rho) ** mu)
               * (ferrers_q(nu, -mu, math.cos(rho)).value
                  + 0.5j * math.pi * ferrers_p(nu, -mu, math.cos(rho)).value))
        assert relerr(got, alt) < 1e-10


class TestLaplace:
    def test_hyperboloid_d3(self):
        m = ManifoldSpec(HYPERBOLOID, 3, 1.5)
        rho = 0.8
        got = laplace_green(m, rho).value
        ref = math.exp(-rho) / (4.0 * math.pi * 1.5 * math.sinh(rho))
        assert relerr(got, ref) < 1e-12

    def test_sphere_d2_log_cot(self):
        m = ManifoldSpec(HYPERSPHERE, 2, 1.0)
        rho = 0.7
        got = laplace_green(m, rho).value
        ref = math.log(1.0 / math.tan(0.5 * rho)) / (2.0 * math.pi)
        assert relerr(got, ref) < 1e-12

    def test_hyperboloid_decay(self):
        m = ManifoldSpec(HYPERBOLOID, 4, 1.0)
        vals = [abs(laplace_green(m, rho).value) for rho in (5.0, 10.0, 20.0)]
        assert vals[0] > vals[1] > vals[2]


class TestEigenvaluePoles:
    def test_first_three_d3(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.8, MINUS)
        poles = eigenvalue_poles(wp, 3)
        assert [round(b * b, 9) for b in poles] == [3.0, 8.0, 15.0]

    def test_empty(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.8, MINUS)
        assert eigenvalue_poles(wp, 0) == []

    def test_strictly_increasing(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 4, 2.0), 0.8, MINUS)
        poles = eigenvalue_poles(wp, 8)
        assert all(a < b for a, b in zip(poles, poles[1:]))

    def test_wrong_variant(self):
        wp = WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.8, PLUS)
        with pytest.raises(WrongVariantError):
            eigenvalue_poles(wp, 3)

    def test_brute_force_scan(self):
        # |Gamma(mu - nu(beta))| blows up exactly at the predicted betas
        d, R = 3, 1.0
        wp0 = WaveParams(ManifoldSpec(HYPERSPHERE, d, R), 1.0, MINUS)
        predicted = eigenvalue_poles(wp0, 3)
        betas = np.linspace(0.5, 4.2, 7000)
        mags = []
        for b in betas:
            wp = WaveParams(ManifoldSpec(HYPERSPHERE, d, R), float(b), MINUS)
            mags.append(abs(_cgamma(wp.mu - wp.nu)))
        mags = np.array(mags)
        found = []
        for i in range(1, len(betas) - 1):
            if mags[i] > mags[i - 1] and mags[i] > mags[i + 1] \
                    and mags[i] > 50.0:
                found.append(betas[i])
        assert len(found) == len(predicted)
        for f, p in zip(found, predicted):
            assert abs(f - p) < 2e-3


class TestWaveParams:
    def test_degree_assignments(self):
        m = ManifoldSpec(HYPERBOLOID, 3, 1.0)
        wp = WaveParams(m, 1.0, PLUS)
        assert wp.nu.real == pytest.approx(-0.5 + 0.5 * math.sqrt(8.0))
        wp = WaveParams(m, 2.0, MINUS)
        assert wp.nu.imag == pytest.approx(-0.5 * math.sqrt(12.0))
        ms = ManifoldSpec(HYPERSPHERE, 3, 1.0)
        wp = WaveParams(ms, 2.0, PLUS)
        assert wp.nu.imag == pytest.approx(0.5 * math.sqrt(12.0))
        wp = WaveParams(ms, 2.0, MINUS)
        assert wp.nu.real == pytest.approx(-0.5 + 0.5 * math.sqrt(20.0))
        assert wp.mu == pytest.approx(0.5)

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            WaveParams(ManifoldSpec(HYPERSPHERE, 3, 1.0), 0.0, PLUS)


class TestRealness:
    def test_real_variants_have_no_imaginary_part(self):
        # the e^{-i pi (d/2-1)} prefactor cancels the second-kind
        # function's phase; asserted numerically for every variant the
        # conventions make real
        from curvgreen.greens import green_value
        for d in (2, 3, 4):
            mh = ManifoldSpec(HYPERBOLOID, d, 1.0)
            ms = ManifoldSpec(HYPERSPHERE, d, 1.0)
            for variant, m, beta in (("H_PLUS", mh, 1.3),
                                     ("S_PLUS", ms, 1.3),
                                     ("A_PLUS", ms, 1.3),
                                     ("SF_MINUS", ms, 0.8),
                                     ("AF_MINUS", ms, 0.8)):
                v = green_value(variant, m, beta, 0.9).value
                assert abs(v.imag) < 1e-10 * abs(v), (variant, d)


class TestVariantTable:
    TAGS = ("H_PLUS", "H_MINUS", "S_PLUS", "A_PLUS", "SF_MINUS",
            "FRAK_MINUS", "AF_MINUS", "FRAKA_MINUS", "EUCLID_PLUS",
            "EUCLID_MINUS", "LAPLACE_H", "LAPLACE_S")

    def test_every_tag_has_a_space(self):
        from curvgreen.greens import VARIANT_SPACES
        assert set(VARIANT_SPACES) == set(self.TAGS)

    @staticmethod
    def _direct(variant, d, beta, rho):
        """The public function each tag stands for, called directly."""
        mh = ManifoldSpec(HYPERBOLOID, d, 1.7)
        ms = ManifoldSpec(HYPERSPHERE, d, 1.7)
        return {
            "H_PLUS": lambda: hyperboloid_green(WaveParams(mh, beta, PLUS),
                                                rho),
            "H_MINUS": lambda: hyperboloid_green(WaveParams(mh, beta, MINUS),
                                                 rho),
            "S_PLUS": lambda: sphere_green_plus(WaveParams(ms, beta, PLUS),
                                                rho),
            "A_PLUS": lambda: sphere_green_antipodal_plus(
                WaveParams(ms, beta, PLUS), rho),
            "EUCLID_PLUS": lambda: euclidean_green(PLUS, d, beta, rho),
            "EUCLID_MINUS": lambda: euclidean_green(MINUS, d, beta, rho),
            "LAPLACE_H": lambda: laplace_green(mh, rho),
            "LAPLACE_S": lambda: laplace_green(ms, rho),
        }.get(variant, lambda: sphere_candidate_minus(
            variant, WaveParams(ms, beta, MINUS), rho))()

    @pytest.mark.parametrize("variant", TAGS)
    @pytest.mark.parametrize("d,beta,rho", [(2, 0.7, 0.9), (3, 2.9, 2.2),
                                            (4, 1.3, 0.4)])
    def test_green_value_is_its_public_function(self, variant, d, beta,
                                                rho):
        from curvgreen.greens import VARIANT_SPACES, green_value
        kind, _ = VARIANT_SPACES[variant]
        got = green_value(variant, ManifoldSpec(kind, d, 1.7), beta, rho)
        ref = self._direct(variant, d, beta, rho)
        # bit for bit: repr tells -0.0 from 0.0
        assert repr(complex(got.value)) == repr(complex(ref.value))
        assert type(got.value) is type(ref.value)
        assert got.abs_err_est == ref.abs_err_est
        assert got.terms_used == ref.terms_used
        assert got.flags == ref.flags

    def test_unknown_tag(self):
        from curvgreen.greens import VARIANT_SPACES, green_value
        from curvgreen.verify import check_flat_limit
        with pytest.raises(WrongVariantError,
                           match=r"^unknown variant 'BOGUS'$"):
            green_value("BOGUS", ManifoldSpec(HYPERBOLOID, 3, 1.0), 1.0, 0.5)
        with pytest.raises(WrongVariantError,
                           match=r"^unknown variant 'sf_minus'$"):
            check_flat_limit("sf_minus", 3, 0.5, 0.6, (10.0, 30.0))
        with pytest.raises(WrongVariantError):
            VARIANT_SPACES["BOGUS"]
