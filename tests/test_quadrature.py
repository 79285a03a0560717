"""Adaptive quadrature: exact values, hints, determinism."""

import math

import pytest

from curvgreen.errors import NoConvergenceError
from curvgreen.quadrature import K15_DEFECT, quad


def test_sine_integral():
    got = quad(math.sin, 0.0, math.pi, tol=1e-12)
    assert got.value == pytest.approx(2.0, abs=1e-12)
    assert got.abs_err_est <= 1e-12


def test_constant_integrand():
    got = quad(lambda x: 1.0, -1.0, 1.0, tol=1e-12)
    assert got.value == pytest.approx(2.0, abs=1e-13)


def test_left_algebraic_singularity():
    got = quad(lambda x: x ** -0.5, 0.0, 1.0, tol=1e-12,
               hint=("left_alg", 0.5))
    assert got.value == pytest.approx(2.0, abs=1e-11)


def test_right_algebraic_singularity():
    got = quad(lambda x: (1.0 - x) ** -0.25, 0.0, 1.0, tol=1e-12,
               hint=("right_alg", 0.25))
    assert got.value == pytest.approx(4.0 / 3.0, abs=1e-11)


def test_positive_power_nonsmooth():
    # (x)^{3/2}: handled by a negative-exponent hint
    got = quad(lambda x: x ** 1.5, 0.0, 1.0, tol=1e-13,
               hint=("left_alg", -1.5))
    assert got.value == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("p,f,ref", [
    # the references are mpmath.quad at 30 digits
    (-0.5, lambda x: math.sqrt(x) * math.exp(x),
     1.25563008255186362655623888450),
    (-0.3, lambda x: x ** 0.3 * math.exp(-x),
     0.453911281419928414073657884529),
    (0.25, lambda x: x ** -0.25 * math.cos(3.0 * x),
     0.274662665040115123763952281060),
    (-1.75, lambda x: x ** 1.75 * math.exp(x),
     0.771981449189397178819944306968),
])
def test_fraction_exponent_map(p, f, ref):
    # q = the denominator of p makes the mapped integrand analytic; the
    # power-removing q = 1/(1 - p) left 2e-13 to 7e-13 in 7 to 27 panels
    got = quad(f, 0.0, 1.0, tol=1e-14, hint=("left_alg", p))
    assert got.value == pytest.approx(ref, abs=1e-14)
    assert got.terms_used <= 7


def test_weight_defect():
    # the tabulated K15 weights sum to 2 (1 - K15_DEFECT)
    got = quad(lambda x: 1.0, -1.0, 1.0, tol=1e-12)
    assert got.value == pytest.approx(2.0 * (1.0 - K15_DEFECT), abs=1e-15)
    assert 2e-15 < K15_DEFECT < 4e-15


def test_complex_integrand():
    got = quad(lambda x: complex(math.cos(x), math.sin(x)), 0.0, math.pi,
               tol=1e-12)
    assert got.value == pytest.approx(0.0 + 2.0j, abs=1e-11)


def test_oscillatory():
    got = quad(lambda x: math.cos(40.0 * x), 0.0, 1.0, tol=1e-12)
    assert got.value == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)


def test_budget_exceeded():
    with pytest.raises(NoConvergenceError):
        quad(lambda x: abs(x - 1 / math.pi) ** -0.97, 0.0, 1.0, tol=1e-12,
             max_panels=50)


def test_deterministic():
    def f(x):
        return math.exp(-3.0 * x) * math.cos(7.0 * x) / math.sqrt(x + 1e-3)

    a = quad(f, 0.0, 2.0, tol=1e-11)
    b = quad(f, 0.0, 2.0, tol=1e-11)
    assert a.value == b.value
    assert a.terms_used == b.terms_used
