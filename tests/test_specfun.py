"""Foundation special functions: values, identities, error behavior."""

import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from curvgreen.errors import (DomainError, NoConvergenceError, ParamPoleError,
                              PoleError)
from curvgreen.result import NEAR_POLE
from curvgreen.specfun import (_cgamma, _lin_1mz_log, _near_nonpos_int,
                               _psi_brackets, _series_2f1, chebyshev_t, cyl,
                               env_h, env_j, gamma, gamma_ratio,
                               gamma_ratio_asymptotic, gauss_2f1,
                               gegenbauer_c, pochhammer, regularized_2f1)

SQRT_PI = 1.7724538509055160273


class TestGamma:
    def test_factorial(self):
        assert gamma(5).value == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5).value == pytest.approx(SQRT_PI, rel=1e-14)

    def test_complex_reference(self):
        # 30-digit reference value
        ref = 0.911561527804585930928041127798 - 1.36719335758541861880712538134j
        got = gamma(0.3 + 0.4j).value
        assert abs(got - ref) / abs(ref) < 1e-13

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            gamma(0)
        with pytest.raises(PoleError):
            gamma(-3.0)

    def test_recurrence_on_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
            if z.real < 0.5 and abs(z.imag) < 0.05 \
                    and abs(z.real - round(z.real)) < 0.05:
                continue
            lhs = _cgamma(z + 1.0)
            rhs = z * _cgamma(z)
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_accuracy_disk_50(self):
        # functional-equation consistency on a |z| <= 50 grid
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.uniform(1, 50)
            phi = rng.uniform(0.1, math.pi - 0.1)
            z = cmath.rect(r, phi)
            lhs = _cgamma(z + 1.0)
            rhs = z * _cgamma(z)
            assert abs(lhs - rhs) <= 5e-13 * abs(lhs)


class TestPochhammer:
    def test_rising_product(self):
        assert pochhammer(3, 4) == pytest.approx(360.0)

    def test_empty_product(self):
        assert pochhammer(2.7 - 1.1j, 0) == 1.0

    def test_gamma_quotient(self):
        got = pochhammer(2.5, 3)
        ref = (gamma(5.5).value / gamma(2.5).value).real
        assert got.real == pytest.approx(ref, rel=1e-14)

    def test_gamma_identity_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            z = complex(rng.uniform(0.2, 6), rng.uniform(-3, 3))
            n = int(rng.integers(0, 9))
            lhs = pochhammer(z, n) * _cgamma(z)
            rhs = _cgamma(z + n)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestGammaRatioAsymptotic:
    def test_equal_arguments(self):
        assert gamma_ratio_asymptotic(1.3, 1.3, 7.0) == pytest.approx(1.0)

    def test_pure_imaginary_phase(self):
        got = gamma_ratio_asymptotic(1.0, 0.0, 10.0, +1)
        assert got == pytest.approx(10.0j, rel=1e-14)

    def test_leading_term_error(self):
        tau, a, b = 200.0, 0.7, 0.2
        exact = _cgamma(a + 1j * tau) / _cgamma(b + 1j * tau)
        approx = gamma_ratio_asymptotic(a, b, tau, +1)
        assert abs(exact / approx - 1.0) < 5.0 / tau

    def test_error_halves_when_tau_doubles(self):
        a, b = 0.9, 0.2
        errs = []
        for tau in (25.0, 50.0, 100.0):
            exact = _cgamma(a - 1j * tau) / _cgamma(b - 1j * tau)
            errs.append(abs(exact / gamma_ratio_asymptotic(a, b, tau, -1)
                            - 1.0))
        for e1, e2 in zip(errs, errs[1:]):
            assert 1.5 <= e1 / e2 <= 2.5

    def test_negative_shift_reflection(self):
        # Gamma(-z+a)/Gamma(-z+b) ~ [sin(pi(z-b))/sin(pi(z-a))] z^{a-b}
        a, b = 0.3, 0.7
        for z in (30.0, 60.0):
            exact = _cgamma(-z + a) / _cgamma(-z + b)
            lead = (math.sin(math.pi * (z - b))
                    / math.sin(math.pi * (z - a)) * z ** (a - b))
            assert abs(exact / lead - 1.0) < 5.0 / z


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.7, -1.2, 0.9, 0.0).value == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        got = gauss_2f1(1, 1, 2, 0.5)
        assert got.value.real == pytest.approx(2.0 * math.log(2.0),
                                               rel=1e-14)

    def test_terminating(self):
        got = gauss_2f1(-2, 1.3, 0.7, 5.0)
        # (a)_n kills everything past n = 2
        assert got.terms_used == 3
        ref = 1.0 + (-2 * 1.3 / 0.7) * 5.0 \
            + ((-2 * -1) * (1.3 * 2.3) / (0.7 * 1.7) / 2.0) * 25.0
        assert got.value.real == pytest.approx(ref, rel=1e-14)

    def test_complex_reference(self):
        ref = 0.812726601830548054665465514667 - 0.125656427516610752802193170007j
        got = gauss_2f1(0.3 + 0.2j, 1.1, 2.4 - 0.3j, -2.5).value
        assert abs(got - ref) / abs(ref) < 1e-12

    def test_param_pole(self):
        with pytest.raises(ParamPoleError):
            gauss_2f1(0.5, 0.5, -2.0, 0.3)

    def test_branch_cut(self):
        with pytest.raises(NoConvergenceError):
            gauss_2f1(0.5, 0.5, 1.5, 1.7)

    def test_transform_consistency(self):
        # same value through the defining series and the 1-z route
        a, b, c = 0.4 - 0.6j, 1.2, 2.1 + 0.4j
        direct = gauss_2f1(a, b, c, 0.74).value
        forced = gauss_2f1(a, b, c, 0.76).value
        # smooth function: the two neighbouring evaluations bracket
        mid = gauss_2f1(a, b, c, 0.75).value
        assert abs(direct - mid) < 0.05 * abs(mid)
        assert abs(forced - mid) < 0.05 * abs(mid)


def _snap(a):
    """Snap a parameter within 1e-12 of a nonpositive integer onto it."""
    hit, n = _near_nonpos_int(a, tol=1e-12)
    return complex(-n) if hit else complex(a)


def _reference_series(a, b, c, z, max_terms=6000):
    """The defining series term by term in complex arithmetic, with the
    NEAR_POLE test on every denominator: the reference _series_2f1 must
    match bit for bit."""
    a, b, c, z = _snap(a), _snap(b), complex(c), complex(z)
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    total_abs = 1.0
    flags = set()
    small = 0
    n = 0
    terms_used = 1
    while n < max_terms:
        denom = (c + n) * (n + 1)
        if abs(denom) < 1e-8:
            flags.add(NEAR_POLE)
        term = term * (a + n) * (b + n) / denom * z
        if term == 0:
            break
        total += term
        total_abs += abs(term)
        terms_used += 1
        n += 1
        if abs(term) <= 1e-15 * abs(total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise NoConvergenceError("2F1 series did not settle within budget")
    err = 2.0 * 2.220446049250313e-16 * total_abs + abs(term)
    if total_abs > 1e8 * max(abs(total), 1e-300):
        flags.add(NEAR_POLE)
    return total, err, terms_used, frozenset(flags)


def _outcome(fn, *args):
    """Bitwise-comparable outcome: reprs of the floats (which keep the
    sign of zero), terms, flags, or the exception type and message."""
    try:
        v, e, t, f = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)
    return repr(v.real), repr(v.imag), repr(e), t, sorted(f)


def _engine_series(a, b, c, z):
    return _series_2f1(_snap(a), _snap(b), complex(c), complex(z))


_REAL = st.one_of(st.floats(-12.0, 12.0),
                  st.integers(-8, 0).map(float))        # terminating
_PARAM = st.one_of(_REAL, st.builds(complex, _REAL, st.floats(-3.0, 3.0)))
_REAL_ARG = st.floats(-0.75, 0.75)
_ARG = st.one_of(_REAL_ARG,
                 st.builds(lambda r, t: r * cmath.exp(1j * t),
                           st.floats(0.0, 0.75), st.floats(-math.pi, math.pi)))


@st.composite
def _c_near_pole(draw):
    """c within (1e-10, 1e-8/(n+1)) of -n, real or slightly complex."""
    n = draw(st.integers(0, 20))
    d = draw(st.floats(1.01e-10, 0.99e-8 / (n + 1)))
    d *= draw(st.sampled_from((1.0, -1.0)))
    return complex(-n + d, draw(st.sampled_from((0.0, 1e-12, -3e-11))))


class TestSeriesBitIdentity:
    """_series_2f1 (float fast path, hoisted NEAR_POLE test) against the
    term-by-term complex reference."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_REAL, _REAL, _REAL, _REAL_ARG)
    def test_real_matches_reference(self, a, b, c, z):
        self.check(a, b, c, z)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_PARAM, _PARAM, _PARAM, _ARG)
    def test_complex_matches_reference(self, a, b, c, z):
        self.check(a, b, c, z)

    @staticmethod
    def check(a, b, c, z):
        if _near_nonpos_int(c)[0]:
            return  # the engine refuses these c before the series
        assert (_outcome(_engine_series, a, b, c, z)
                == _outcome(_reference_series, a, b, c, z))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(_PARAM, _PARAM, _c_near_pole(), _ARG)
    def test_near_pole_c(self, a, b, c, z):
        self.check(a, b, c, z)

    def test_near_pole_c_is_flagged(self):
        got = _series_2f1(0.5 + 0j, 1.5 + 0j, complex(-3 + 2e-9), 0.5 + 0j)
        assert NEAR_POLE in got[3]

    @pytest.mark.parametrize("args", [
        (700, 700, 1.5, 0.74),       # terms overflow: no convergence
        (-1270, 2, 2, -0.75),        # finite terms, the sum overflows
        (-1250, 2, 2, -0.75),        # huge but finite polynomial
        (-400, 500, 1.5, 0.74),
        (-2, 1e200, 1e-200, 0.5),
    ])
    def test_overflow_matches_reference(self, args):
        assert (_outcome(_engine_series, *args)
                == _outcome(_reference_series, *args))


def test_psi_brackets_match_scalar_digamma():
    """Block digamma brackets equal the term-by-term scalar ones bitwise,
    across block boundaries."""
    logw = cmath.log(0.2 - 0.1j)
    for m, pa, pb in ((0, 0.3 + 0.2j, 1.7 + 0j), (2, 2.3 - 0j, -0.45 + 0.1j)):
        got = list(itertools.islice(_psi_brackets(logw, m, pa, pb), 100))
        want = [logw - _psi(k + 1) - _psi(k + m + 1) + _psi(pa + k)
                + _psi(pb + k) for k in range(100)]
        assert [repr(g) for g in got] == [repr(w) for w in want]


def _psi(x):
    return complex(scipy.special.digamma(complex(x)))


class TestLogCase:
    """1-z connection with integer c - a - b = m (the logarithmic case)
    against mpmath at 30 digits."""

    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("a,b,z", [
        (0.3, 1.45, 0.8),
        (0.3, 1.45, 0.9 + 0.2j),
        (0.4 + 0.3j, 1.1 - 0.2j, 0.85),
        (0.4 + 0.3j, 1.1 - 0.2j, 0.95 - 0.1j),
    ])
    def test_against_mpmath(self, m, a, b, z):
        a, b, z = complex(a), complex(b), complex(z)
        c = a + b + m
        v, err, _, _ = _lin_1mz_log(a, b, c, m, z, 0)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(v - ref) <= 1e-13 * abs(ref)
        assert err < 1e-12 * abs(ref)


class TestRegularized2F1:
    def test_gamma_one(self):
        a, b, z = 0.8, -0.4, 0.3
        lhs = regularized_2f1(a, b, 1.0, z).value
        rhs = gauss_2f1(a, b, 1.0, z).value
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_c_zero_limit(self):
        # stated oracle: c -> 0 limit through c = 1e-6
        got = regularized_2f1(1.0, 1.0, 0.0, 0.3).value
        lim = (gauss_2f1(1.0, 1.0, 1e-6, 0.3).value
               / gamma(1e-6).value)
        assert abs(got - lim) < 2e-6 * abs(got)
        # closed form: F-reg(1,1;0;z) = z/(1-z)^2
        assert got.real == pytest.approx(0.3 / 0.49, rel=1e-13)

    def test_c_negative_terminating(self):
        got = regularized_2f1(-2.0, 3.0, -1.0, 0.4)
        assert np.isfinite(got.value.real)
        # shifted series: only the n = 2 term of the original survives
        lim = (gauss_2f1(-2.0, 3.0, -1.0 + 1e-7, 0.4).value
               / gamma(-1.0 + 1e-7).value)
        assert abs(got.value - lim) < 1e-5 * max(abs(got.value), 1e-10)


class TestCylinder:
    def test_j_at_origin(self):
        assert cyl("J", 0.0, 0.0).value == pytest.approx(1.0)

    def test_k_half_closed_form(self):
        got = cyl("K", 0.5, 1.0).value.real
        ref = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert got == pytest.approx(ref, rel=1e-13)
        assert ref == pytest.approx(0.4610685044, rel=1e-9)

    def test_hankel_decomposition(self):
        for mu, x in ((0.4, 3.0), (2.0, 11.0)):
            h1 = cyl("H1", mu, x).value
            jy = cyl("J", mu, x).value + 1j * cyl("Y", mu, x).value
            assert abs(h1 - jy) <= 1e-14 * abs(h1)
            h2 = cyl("H2", mu, x).value
            assert abs(h2 - jy.conjugate()) <= 1e-14 * abs(h2)

    def test_domain(self):
        with pytest.raises(DomainError):
            cyl("Y", 1.0, 0.0)
        with pytest.raises(DomainError):
            cyl("K", 0.3, -1.0)


class TestEnvelopes:
    def test_env_j_origin(self):
        assert env_j(0.0, 0.0) == pytest.approx(1.0)
        assert env_j(2.0, 0.0) == 0.0

    def test_env_j_bounds_j(self):
        for mu in (0.0, 1.0, 5.0, 20.0):
            for x in np.linspace(0.05, 100.0, 57):
                assert abs(cyl("J", mu, x).value) <= env_j(mu, x) * (1 + 1e-12)
                assert env_j(mu, x) > 0.0

    def test_env_h_bounds_h(self):
        for mu in (0.0, 1.5, 7.0):
            for x in np.linspace(0.05, 100.0, 37):
                assert abs(cyl("H1", mu, x).value) <= env_h("H1", mu, x) \
                    * (1 + 1e-12)
                assert env_h("H1", mu, x) > 0.0

    def test_env_h_log_divergence(self):
        # env H_0 ~ (2/pi) |log x| as x -> 0
        x = 1e-8
        ratio = env_h("H1", 0.0, x) / ((2.0 / math.pi) * abs(math.log(x)))
        assert abs(ratio - 1.0) < 0.1

    def test_small_x_weight(self):
        x = 0.5
        h0 = abs(cyl("H1", 1.0, x).value)
        h1 = abs(cyl("H1", 2.0, x).value)
        ref = math.sqrt(h0 ** 2 + 0.25 * h1 ** 2)
        assert env_h("H1", 1.0, x) == pytest.approx(ref, rel=1e-12)


class TestPolynomials:
    def test_chebyshev_angle_identity(self):
        assert chebyshev_t(3, math.cos(0.7)) == pytest.approx(
            math.cos(2.1), rel=1e-13)

    def test_gegenbauer_reduces_to_legendre(self):
        # C_n^{1/2} is the Legendre polynomial
        x = 0.3
        p4 = (35 * x ** 4 - 30 * x ** 2 + 3) / 8.0
        assert gegenbauer_c(4, 0.5, x) == pytest.approx(p4, rel=1e-13)

    def test_mu_to_zero_limit(self):
        mu, n, x = 1e-8, 3, 0.6
        got = (n + mu) / mu * gegenbauer_c(n, mu, x)
        ref = 2.0 * chebyshev_t(n, x)
        assert abs(got - ref) < 1e-6 * abs(ref)

    def test_gegenbauer_zero_order(self):
        assert gegenbauer_c(0, 0.0, 0.7) == 1.0
        assert gegenbauer_c(4, 0.0, 0.7) == 0.0


def test_gamma_ratio_double_pole_limit():
    # Gamma(-n+e)/Gamma(-m+e) -> (-1)^{n-m} m!/n!
    assert gamma_ratio(-2.0, -3.0) == pytest.approx(-6.0 / 2.0)
    assert gamma_ratio(0.0, 0.0) == pytest.approx(1.0)
    assert gamma_ratio(2.0, -1.0) == 0.0
    with pytest.raises(ParamPoleError):
        gamma_ratio(-1.0, 2.0)
