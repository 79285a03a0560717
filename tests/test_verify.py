"""Verification harness: residuals, constraints, limit sweeps."""

import math
import sys

import pytest

from curvgreen import legendre
from curvgreen.errors import GridError
from curvgreen.geometry import HYPERBOLOID, HYPERSPHERE, ManifoldSpec
from curvgreen.greens import (ALL_VARIANTS, MINUS, PLUS, VARIANT_SPACES,
                              WaveParams, green_value)
from curvgreen.legendre import legendre_p
from curvgreen.verify import (_SharedFerrersP, _variant_function,
                              check_beta_zero_limit, check_eps_ball,
                              check_flat_limit, check_mellin,
                              check_normalization, default_suite,
                              mellin_reference, quad, radial_residual)

M3S = ManifoldSpec(HYPERSPHERE, 3, 1.0)
M4S = ManifoldSpec(HYPERSPHERE, 4, 1.0)
M3H = ManifoldSpec(HYPERBOLOID, 3, 1.0)


class TestQuadOp:
    def test_sine(self):
        assert quad(math.sin, 0.0, math.pi, tol=1e-11).value \
            == pytest.approx(2.0, abs=1e-11)

    def test_constant_ferrers_weight(self):
        # alpha = mu = nu = 0 reduces the weighted integral to 2
        got = quad(lambda x: 1.0, -1.0, 1.0, tol=1e-12)
        assert got.value == pytest.approx(2.0, abs=1e-12)
        assert mellin_reference(1.0, 0.0, 0.0) == pytest.approx(2.0)

    def test_sqrt_singularity_hint(self):
        got = quad(lambda x: x ** -0.5, 0.0, 1.0, tol=1e-11,
                   hint=("left_alg", 0.5))
        assert got.value == pytest.approx(2.0, abs=1e-10)


class TestRadialResidual:
    def test_green_variants_satisfy_ode(self):
        wp = WaveParams(M3H, 1.1, PLUS)
        res = radial_residual(None, wp, 0, [0.4, 0.9, 1.7], variant="H_PLUS")
        assert res < 1e-6

    def test_homogeneous_solution(self):
        # first-kind radial solution at l = 2, d = 4
        m = ManifoldSpec(HYPERBOLOID, 4, 1.0)
        wp = WaveParams(m, 0.9, PLUS)
        l = 2
        mu_l = 0.5 * m.d - 1.0 + l

        def h1(r):
            return (legendre_p(wp.nu, mu_l, math.cosh(r)).value
                    / math.sinh(r) ** (0.5 * m.d - 1.0))

        res = radial_residual(h1, wp, l, [0.5, 1.0, 1.8])
        assert res < 1e-6

    def test_wrong_degree_detected(self):
        # harness sanity: a deliberately wrong degree fails loudly
        wp = WaveParams(M3H, 1.1, PLUS)

        def bad(r):
            return (legendre_p(wp.nu + 0.35, 0.5, math.cosh(r)).value
                    / math.sqrt(math.sinh(r)))

        res = radial_residual(bad, wp, 0, [0.6, 1.0])
        assert res > 1e-2

    def test_grid_exclusion(self):
        wp = WaveParams(M3S, 1.1, PLUS)
        with pytest.raises(GridError):
            radial_residual(None, wp, 0, [5e-3], variant="S_PLUS")
        with pytest.raises(GridError):
            radial_residual(None, wp, 0, [math.pi - 5e-3], variant="S_PLUS")


class TestNormalization:
    def test_s_plus(self):
        rep = check_normalization("S_PLUS", WaveParams(M3S, 1.3, PLUS))
        assert rep.passed
        assert rep.target == pytest.approx(1.0 / 1.69)

    def test_a_plus_vanishes(self):
        rep = check_normalization("A_PLUS", WaveParams(M3S, 1.3, PLUS))
        assert rep.passed
        assert rep.target == 0.0

    def test_sf_minus(self):
        rep = check_normalization("SF_MINUS", WaveParams(M3S, 0.8, MINUS))
        assert rep.passed
        assert rep.target == pytest.approx(-1.0 / 0.64)

    def test_frak_minus_complex_value(self):
        rep = check_normalization("FRAK_MINUS", WaveParams(M4S, 0.8, MINUS))
        assert rep.passed


class TestEpsBall:
    @pytest.mark.parametrize("variant,wp", [
        ("S_PLUS", WaveParams(M3S, 1.0, PLUS)),
        ("A_PLUS", WaveParams(M4S, 1.0, PLUS)),
        ("SF_MINUS", WaveParams(M3S, 0.8, MINUS)),
    ])
    def test_constraint_holds(self, variant, wp):
        rep = check_eps_ball(variant, wp, eps=1e-2)
        assert rep.passed

    def test_degradation_with_eps(self):
        # the finite-ball gap grows roughly first order in eps
        wp = WaveParams(M3S, 1.0, PLUS)
        gaps = []
        for eps in (1e-2, 5e-2, 1e-1):
            rep = check_eps_ball(wp=wp, variant="S_PLUS", eps=eps)
            gaps.append(float(rep.notes.split("relative gap ")[1]
                              .split(" ")[0]))
        assert gaps[0] < gaps[-1]


class TestFlatLimit:
    def test_h_plus_decreasing(self):
        rep = check_flat_limit("H_PLUS", 3, 0.5, 0.6,
                               (10.0, 30.0, 100.0, 300.0))
        assert rep.passed

    def test_frak_minus_d2_converges(self):
        rep = check_flat_limit("FRAK_MINUS", 2, 0.5, 0.6,
                               (10.0, 30.0, 100.0, 300.0))
        assert rep.passed

    def test_sf_minus_oscillates(self):
        rep = check_flat_limit("SF_MINUS", 3, 0.5, 0.6,
                               tuple(10.0 + 1.3 * k for k in range(10)))
        assert rep.passed
        assert "oscillation" in rep.notes


class TestBetaZero:
    def test_antipodal_converges(self):
        rep = check_beta_zero_limit("A_PLUS", M3S)
        assert rep.passed

    def test_single_source_divergence(self):
        rep = check_beta_zero_limit("S_PLUS", M3S)
        assert rep.passed
        assert rep.measured == pytest.approx(-2.0, abs=0.1)

    def test_divergence_constant(self):
        rep = check_beta_zero_limit("SF_MINUS", M4S)
        assert rep.passed
        # the predicted constant appears in the notes
        assert "divergence constant" in rep.notes


class TestMellin:
    @pytest.mark.parametrize("alpha,mu,nu", [
        (1.0, 0.0, 0.0), (1.3, 0.8, 0.5), (2.0, 1.5, 1.2)])
    def test_identity(self, alpha, mu, nu):
        rep = check_mellin(alpha, mu, nu)
        assert rep.passed
        assert abs(rep.measured - rep.target) <= 1e-8 * abs(rep.target)

    def test_reflected_argument_invariance(self):
        # the closed value is the same for either argument sign
        from curvgreen.legendre import ferrers_p
        alpha, mu, nu = 1.3, 0.8, 0.5

        def integrand(x):
            return ((1.0 - x * x) ** (alpha - 1.0)
                    * ferrers_p(nu, -mu, -x).value.real)

        left = quad(integrand, -1.0 + 1e-15, 0.0, tol=1e-10,
                    hint=("left_alg", 1.0 - alpha - 0.5 * mu))
        right = quad(integrand, 0.0, 1.0 - 1e-15, tol=1e-10,
                     hint=("right_alg", 1.0 - alpha + 0.5 * mu))
        ref = mellin_reference(alpha, mu, nu)
        assert left.value + right.value == pytest.approx(ref, rel=1e-8)


def test_reports_reproducible():
    a = check_normalization("S_PLUS", WaveParams(M3S, 1.3, PLUS))
    b = check_normalization("S_PLUS", WaveParams(M3S, 1.3, PLUS))
    assert a == b
    # bit for bit: repr tells -0.0 from 0.0
    assert [repr(r) for r in default_suite()] \
        == [repr(r) for r in default_suite()]


def _module_state():
    """The size of every module-level dict, list and set, and of every
    lru_cache, in the loaded curvgreen modules."""
    sizes = {}
    for name, module in sorted(sys.modules.items()):
        if name != "curvgreen" and not name.startswith("curvgreen."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)) \
                    and not attr.startswith("__"):
                sizes[name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[name, attr] = value.cache_info().currsize
    return sizes


def test_suite_keeps_no_module_state():
    """Prepared kernels keep their state in objects that each check
    discards: the suite grows no module-level container."""
    before = _module_state()
    assert before
    default_suite()
    assert _module_state() == before


def test_suite_evaluator_calls(monkeypatch):
    """The sphere variants of a family read one shared FerrersP: a suite
    makes 1436 prepared Legendre/Ferrers calls (2396 with one evaluator
    per variant), the same on every run."""
    calls = []
    call = legendre._Prepared.__call__

    def counted(self, arg, *rho):
        calls.append(arg)
        return call(self, arg, *rho)

    monkeypatch.setattr(legendre._Prepared, "__call__", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        default_suite()
        counts.append(len(calls))
    assert counts == [1436, 1436]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("sign,beta", [(PLUS, 0.4), (MINUS, 1.7)])
def test_shared_family_is_one_shot(d, sign, beta):
    """At an ODE row's stencil points each sphere variant read through its
    family's shared FerrersP returns the bits of one-shot green_value."""
    m = ManifoldSpec(HYPERSPHERE, d, 1.0)
    wp = WaveParams(m, beta, sign)
    fp = _SharedFerrersP(wp)
    rhos = [x + k * 1e-3 for x in (0.35, 0.9, 1.7, 2.6)
            for k in (-2, -1, 0, 1, 2)]
    variants = [v for v in ALL_VARIANTS
                if VARIANT_SPACES[v] == (HYPERSPHERE, sign)]
    assert len(variants) == (2 if sign == PLUS else 4)
    for variant in variants:
        fn = _variant_function(variant, wp, fp)
        for rho in rhos:
            assert repr(fn(rho)) \
                == repr(green_value(variant, m, beta, rho).value), \
                (variant, rho)
    assert len(fp.values) == 2 * len(rhos)
