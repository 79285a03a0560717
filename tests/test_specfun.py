"""Foundation special functions: values, identities, error behavior."""

import cmath
import contextlib
import itertools
import math
import random
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from curvgreen import specfun
from curvgreen.errors import (CurvGreenError, DomainError, NoConvergenceError,
                              ParamPoleError, PoleError, RangeError)
from curvgreen.result import NEAR_POLE
from curvgreen.specfun import (Hyp2F1, _cgamma, _digamma, _lgamma,
                               _near_nonpos_int, _psi_gaps, _psi_int,
                               _series_2f1, _trigamma, chebyshev_t, cyl,
                               env_h, env_j, gamma, gamma_ratio,
                               gauss_2f1, gegenbauer_c, pochhammer,
                               regularized_2f1)

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

    def test_real_axis_against_mpmath(self):
        # math.gamma: within 4 eps relative; its worst on 6000 uniform
        # points of (-170, 171.6) was 3.6 eps (Lanczos: 1.5e3 eps)
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.uniform(-168.0, 171.6, 300),
                             rng.uniform(-10.0, 10.0, 200)])
        with mpmath.workdps(30):
            for x in xs:
                got = _cgamma(float(x))
                ref = mpmath.gamma(float(x))
                assert got.imag == 0.0
                assert abs((got.real - ref) / ref) <= 4 * 2.0 ** -52, x

    def test_real_poles_are_inf(self):
        for x in (0.0, -1.0, -3.0, -170.0):
            assert _cgamma(x) == complex(math.inf)

    def test_top_of_double_range(self):
        assert _cgamma(171.5).real \
            == pytest.approx(9.483367566824795e307, rel=4 * 2.0 ** -52)
        with pytest.raises(OverflowError):
            _cgamma(172.0)

    @pytest.mark.parametrize("z", [172.0, 200.0, 1e300, 180.0 + 0.5j,
                                   300.0 + 10.0j, 1e300 + 1.0j,
                                   171.65 + 0.153j])
    def test_overflow_is_range_error(self, z):
        """Past the double range gamma refuses with RangeError; at
        171.65 + 0.153i both parts are finite and only |Gamma| is not."""
        with pytest.raises(RangeError, match="exceeds the double range"):
            gamma(z)

    def test_last_values_in_range(self):
        for z in (171.6, -180.5, 171.0 + 1.0j):
            got = gamma(z)
            assert math.isfinite(abs(got.value)) and \
                math.isfinite(got.abs_err_est)


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
    """The gamma ratio's leading large-argument form, on _cgamma."""

    def test_negative_shift_reflection(self):
        # Gamma(-z+a)/Gamma(-z+b) ~ [sin(pi(z-b))/sin(pi(z-a))] z^{a-b}
        a, b = 0.3, 0.7
        for z in (30.0, 60.0):
            exact = _cgamma(-z + a) / _cgamma(-z + b)
            lead = (math.sin(math.pi * (z - b))
                    / math.sin(math.pi * (z - a)) * z ** (a - b))
            assert abs(exact / lead - 1.0) < 5.0 / z


def _disk_grid():
    """400 seeded (a, b, c, z) with |z| <= 1.2."""
    rng = random.Random(2024)
    grid = []
    for _ in range(400):
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        c = rng.uniform(0.3, 3.0)
        z = cmath.rect(rng.uniform(0.0, 1.2), rng.uniform(-math.pi, math.pi))
        grid.append((a, b, c, z))
    return grid


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

    @pytest.mark.parametrize("a,b,c", [(0.5, 0.3, 1.7), (1.0, 1.0, 2.0)])
    def test_near_imaginary_axis(self, a, b, c):
        """z = 0.8i lies outside |z| <= 0.75 with Re z = 0, where the 1-z
        route refused; |z/(z - 1)| = 0.62 puts the Pfaff map in the
        series disk."""
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, 0.8j))
        assert abs(gauss_2f1(a, b, c, 0.8j).value - ref) <= 1e-13 * abs(ref)

    def test_disk_grid(self):
        """400 seeded points with |z| <= 1.2: 41 refused while only
        Re z < 0 took the Pfaff map; no more may refuse now, and every
        value holds 1e-12 against mpmath."""
        refused = 0
        for a, b, c, z in _disk_grid():
            try:
                got = gauss_2f1(a, b, c, z).value
            except NoConvergenceError:
                refused += 1
                continue
            with mpmath.workdps(30):
                ref = complex(mpmath.hyp2f1(a, b, c, z))
            assert abs(got - ref) <= 1e-12 * abs(ref), (a, b, c, z)
        assert refused <= 34

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


# the logarithmic case's parameters, and z = 1 - w on the 1-z route:
# |w| <= 0.24 keeps |z| and |z/(z - 1)| above 0.75, arg w off the cut
_LOG_PARAM = st.one_of(st.floats(-3.0, 3.0),
                       st.builds(complex, st.floats(-3.0, 3.0),
                                 st.floats(-1.0, 1.0)))
_LOG_ARG = st.builds(lambda r, t: 1.0 - r * cmath.exp(1j * t),
                     st.floats(0.002, 0.24),
                     st.one_of(st.just(0.0), st.floats(-2.5, 2.5)))


def _off_poles(*xs, gap=0.05):
    """Every x at least gap from the nonpositive integers.  Closer, the
    log case's estimate misses the rounding of a - |m| for m < 0 (see
    TestLogCase.test_shift_rounding_near_pole)."""
    return not any(_near_nonpos_int(x, tol=gap)[0] for x in xs)


@st.composite
def _c_near_pole(draw):
    """c within (1e-10, 1e-8/(n+1)) of -n, real or slightly complex."""
    n = draw(st.integers(0, 20))
    d = draw(st.floats(1.01e-10, 0.99e-8 / (n + 1)))
    d *= draw(st.sampled_from((1.0, -1.0)))
    return complex(-n + d, draw(st.sampled_from((0.0, 1e-12, -3e-11))))


def _result_outcome(call, z):
    """_outcome of a call that returns an EvalResult."""
    def fn(z):
        r = call(z)
        return complex(r.value), r.abs_err_est, r.terms_used, r.flags
    return _outcome(fn, z)


class TestPrepared2F1:
    """One Hyp2F1 called at many z gives, at each z and in either order,
    the bits of gauss_2f1 and regularized_2f1 (value, estimate, terms,
    flags, or the same refusal): what it keeps never changes an
    outcome."""

    TRIPLES = ([(a, b, c) for a, b, c, _ in _disk_grid()[:6]]
               + [(0.3, 1.45, 0.3 + 1.45 + m) for m in (-2, 0, 2)]
               + [(0.4 + 0.3j, 1.1 - 0.2j, 2.5 + 0.1j),
                  (0.3 + 0.2j, 1.1, 2.4 - 0.3j), (-2.0, 1.3, 0.7),
                  (1.0, 1.0, 0.0), (-2.0, 3.0, -1.0), (0.5, 0.5, -2.0)])
    # every route: the series, the Pfaff map (Re z < 0, and near the
    # imaginary axis), the 1-z connection, the branch cut, and z = 0
    EXTRA_Z = [0.0, 0.5, 0.76, 0.9, 0.99, 0.999, -0.9, -3.0, 0.8j,
               0.9 + 0.2j, 1.7, 5.0]
    ZS = [z for *_, z in _disk_grid()[:100]] + EXTRA_Z

    @pytest.mark.parametrize("abc", TRIPLES)
    @pytest.mark.parametrize("method,one_shot", [
        ("__call__", gauss_2f1), ("regularized", regularized_2f1)])
    def test_matches_one_shot(self, abc, method, one_shot):
        ref = [_result_outcome(lambda z: one_shot(*abc, z), z)
               for z in self.ZS]
        engine = getattr(Hyp2F1(*abc), method)
        assert [_result_outcome(engine, z) for z in self.ZS] == ref
        assert [_result_outcome(engine, z) for z in self.ZS[::-1]] \
            == ref[::-1]
        engine = getattr(Hyp2F1(*abc), method)
        assert [_result_outcome(engine, z) for z in self.ZS[::-1]] \
            == ref[::-1]

    def test_every_route_keeps_its_state(self):
        kept, cases = set(), set()
        for abc in self.TRIPLES:
            engine = Hyp2F1(*abc)
            for z in self.EXTRA_Z:
                _result_outcome(engine.regularized, z)
            kept |= set(vars(engine))
            if engine._connection:
                cases.add("generic" if engine._connection[0] is None
                          else "log")
        assert {"_snapped", "_rgamma", "_pfaff", "_shifted", "_connection",
                "_gaps"} <= kept
        assert cases == {"generic", "log"}

    def test_refusing_route_stays_refused(self):
        """c - a - b = 3 + 1e-10 i is too far off the real axis for the
        logarithmic case, and the 1-z connection's first function has
        c' = 1 - (c - a - b) = -2 - 1e-10 i, on a pole: every call that
        takes the 1-z route raises ParamPoleError, and every call in the
        disk |z| <= 0.75 still returns the one-shot value."""
        abc = (0.25, 0.5, 3.75 + 1e-10j)
        engine = Hyp2F1(*abc)
        for z in (0.5, 0.9, 0.3, 0.76, 0.99, -0.6, 0.9, 0.7):
            if abs(z) <= 0.75:
                got = _result_outcome(engine, z)
                assert got == _result_outcome(
                    lambda z: gauss_2f1(*abc, z), z)
                assert len(got) == 5
            else:
                with pytest.raises(ParamPoleError):
                    engine(z)


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

    # past the double range the float loop refuses, where the complex
    # reference runs on with inf/nan parts to its budget
    REFUSED = {
        (700, 700, 1.5, 0.74),       # the terms overflow
        (-1270, 2, 2, -0.75),        # finite terms, the sum 1.75^1270
        (-2, 1e200, 1e-200, 0.5),    # the first term overflows
    }

    @pytest.mark.parametrize("args", [
        (700, 700, 1.5, 0.74),
        (-1270, 2, 2, -0.75),
        (-1250, 2, 2, -0.75),        # huge but finite polynomial
        (-400, 500, 1.5, 0.74),
        (-2, 1e200, 1e-200, 0.5),
    ])
    def test_overflow_matches_reference(self, args):
        want = _outcome(_reference_series, *args)
        if args in self.REFUSED:
            assert want[0] == "NoConvergenceError"
            with pytest.raises(RangeError,
                               match="^2F1 series leaves the double range$"):
                _engine_series(*args)
        else:
            assert _outcome(_engine_series, *args) == want

    def test_complex_overflow_is_refused(self):
        # the complex body keeps the float body's rule
        with pytest.raises(RangeError,
                           match="^2F1 series leaves the double range$"):
            gauss_2f1(700 + 1e-3j, 700, 1.5, 0.74)

    @pytest.mark.parametrize("args", [(700, 700, 1.5, 0.74),
                                      (-1270, 2, 2, -0.75)])
    def test_overflow_refuses_at_once(self, args):
        # a complex run to the 6000-term budget takes about 5 ms
        spent = []
        for _ in range(5):
            t0 = time.process_time()
            with pytest.raises(RangeError):
                gauss_2f1(*args)
            spent.append(time.process_time() - t0)
        assert min(spent) < 1e-3

    def test_nan_polynomial_refuses_at_once(self, monkeypatch):
        # a cubic whose second term overflows: its sum turns inf - inf and
        # its term at n = 3 is nan, not 0, so no exit fires before the
        # degree's cap of N + 2 steps (at the budget: about 2 ms per 6000)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 10 ** 7)
        spent = []
        for _ in range(3):
            t0 = time.process_time()
            with pytest.raises(RangeError,
                               match="^2F1 series leaves the double range$"):
                gauss_2f1(-3, 1e200, 0.5, 0.5)
            spent.append(time.process_time() - t0)
        assert min(spent) < 0.01


def _reference_psi_gaps(x, j):
    """The psi gaps of the logarithmic case as one complex run, yielded
    term by term: _psi_gaps' recurrence and restart, without a list."""
    k, gap = 0, _digamma(x) - _psi_int(j + 1)
    yield gap
    left = x.real < 0.5
    while True:
        if left and x.real + (k + 1) >= 0.5:
            left = False
            gap = _digamma(x + (k + 1)) - _psi_int(k + j + 2)
        else:
            gap += (j + 1.0 - x) / ((x + k) * (k + j + 1.0))
        yield gap
        k += 1


def _reference_log_sum(a_s, b_s, m, w, gaps):
    """The log sum term by term in complex arithmetic, over generated
    gaps, with abs(): the float body and the gap lists of _log_sum must
    match it bit for bit.  The gaps it read go to _log_drop."""
    coef = 1.0 / math.gamma(m + 1)
    total = 0.0 + 0.0j
    total_abs = 0.0
    small = 0
    logw = cmath.log(w)
    alogw = abs(logw)
    read = ([], [])
    runs = zip(_reference_psi_gaps(a_s, 0), _reference_psi_gaps(b_s, m))
    for k, (gap_a, gap_b) in enumerate(itertools.islice(runs, 6000)):
        read[0].append(gap_a)
        read[1].append(gap_b)
        term = coef * (logw + gap_a + gap_b)
        mag = abs(term)
        total += term
        total_abs += abs(coef) * (alogw + abs(gap_a) + abs(gap_b))
        if mag <= 1e-16 * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return (total, 2.0 * 2.220446049250313e-16 * total_abs + mag,
                        k + 1, read)
        else:
            small = 0
        coef = coef * (a_s + k) * (b_s + k) / ((k + 1.0) * (k + m + 1.0)) * w
    raise NoConvergenceError("2F1 logarithmic series did not converge")


def _log_case_outcomes(abc, zs, reference=False):
    """_result_outcome of gauss_2f1 and regularized_2f1 at each z, with
    the log sum of the engine or of _reference_log_sum."""
    calls = [lambda z: gauss_2f1(*abc, z),
             lambda z: regularized_2f1(*abc, z)]
    with mock.patch.object(specfun, "_log_sum", _reference_log_sum) \
            if reference else contextlib.nullcontext():
        return [[_result_outcome(call, z) for z in zs] for call in calls]


_OFFSET = st.sampled_from((0.0, 5e-14, 1e-9, -3e-10))


class TestLogSumBitIdentity:
    """The logarithmic 1-z case (float log sum, gap lists) against the
    term-by-term complex reference: value, estimate, terms and flags,
    or the same exception and message."""

    @staticmethod
    def check(a, b, c, zs):
        assert (_log_case_outcomes((a, b, c), zs)
                == _log_case_outcomes((a, b, c), zs, reference=True))

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(-3, 3),
           st.floats(0.75, 1.0, exclude_min=True, exclude_max=True),
           _OFFSET)
    def test_real_matches_reference(self, a, b, m, z, offset):
        c = a + b + m + offset
        if not _off_poles(a, b, c, gap=1e-6):
            return
        self.check(a, b, c, [z])

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(_LOG_PARAM, _LOG_PARAM, st.integers(-3, 3), _LOG_ARG, _OFFSET)
    def test_complex_matches_reference(self, a, b, m, z, offset):
        """Complex parameters or z run the complex body on complex gap
        lists."""
        c = a + b + m + offset
        if not _off_poles(a, b, c, gap=1e-6):
            return
        self.check(a, b, c, [z])

    @pytest.mark.parametrize("args", [
        (1000.0, -999.5, 0.5, 0.8),      # terms overflow: no convergence
        (20000.0, -19999.5, 0.5, 0.8),
        (1500.0, -1499.5, 0.5, 0.95),    # the sum near the top of range
        (3000.0, -2999.5, 1.5, 0.99),
        (290.0, 290.5, 580.5, 0.8),      # finite sum, infinite value
        (500.0, 500.5, 1003.5, 0.8),     # coefficient out of range
        (171.5, 0.25, 0.75, 0.9),        # 1/171! out of range
    ])
    def test_overflow_matches_reference(self, args):
        self.check(*args[:3], [args[3]])

    @pytest.mark.parametrize("args", [(1000.0, -999.5, 0.5, 0.8),
                                      (20000.0, -19999.5, 0.5, 0.8)])
    def test_nan_sum_refuses_at_once(self, args):
        """The coefficients overflow (k = 192 for the first) and the sum
        turns nan: both bodies stop at their next gap refill instead of
        spending their 6000-term budgets (1500 refills in all)."""
        with mock.patch.object(specfun, "_psi_gaps",
                               wraps=specfun._psi_gaps) as spy:
            with pytest.raises(NoConvergenceError,
                               match="^2F1 logarithmic series did not "
                                     "converge$"):
                gauss_2f1(*args)
        assert spy.call_count < 100

    @pytest.mark.parametrize("abc", [(0.3, 1.45, 1.75), (0.3, 1.45, 3.75),
                                     (0.3, 1.45, -0.25),
                                     (-0.45, 2.3, 1.85 + 1e-9),
                                     (0.5, -2.28125, -1.78125)])
    def test_prepared_matches_one_shot(self, abc):
        """One engine at several z, in both orders, float and complex
        arguments mixed: each call has the reference one-shot bits."""
        zs = [0.8, 0.99, 0.9 + 0.1j, 0.76, 0.939453125, 0.9 - 0.05j, 0.999]
        ref = _log_case_outcomes(abc, zs, reference=True)
        for step in (1, -1):
            engine = Hyp2F1(*abc)
            got = [[_result_outcome(call, z) for z in zs[::step]]
                   for call in (engine, engine.regularized)]
            assert got == [row[::step] for row in ref]
            assert engine._gaps[0][0] and engine._gaps[1][0]


class TestRealInputsStayReal:
    """Real parameters and arguments never reach a complex body, not even
    where a float body overflows: it refuses there itself."""

    CASES = ([(a, b, c, 1.5 * z.real) for a, b, c, z in _disk_grid()[:80]]
             + [(0.3, 1.45, 0.3 + 1.45 + m, z) for m in (-2, 0, 2)
                for z in (0.8, 0.99)]
             + [(-2.0, 3.0, -1.0, 0.4), (0.5, 0.5, -2.0, 0.9),
                (0.3, 0.2, -5.0, -3.0)]
             # the overflow cases of both bit-identity classes
             + sorted(TestSeriesBitIdentity.REFUSED - {(-2, 1e200, 1e-200,
                                                       0.5)})
             + [(1000.0, -999.5, 0.5, 0.8), (20000.0, -19999.5, 0.5, 0.8),
                (1500.0, -1499.5, 0.5, 0.95), (290.0, 290.5, 580.5, 0.8),
                (500.0, 500.5, 1003.5, 0.8), (171.5, 0.25, 0.75, 0.9)])

    def test_2f1_bodies(self):
        with mock.patch.object(specfun, "_series_complex",
                               wraps=specfun._series_complex) as series, \
                mock.patch.object(specfun, "_log_sum_complex",
                                  wraps=specfun._log_sum_complex) as log:
            refused = 0
            for args in self.CASES:
                for fn in (gauss_2f1, regularized_2f1):
                    try:
                        fn(*args)
                    except CurvGreenError:
                        refused += 1
            assert refused >= 10
            assert (series.call_count, log.call_count) == (0, 0)
            # the spies see the complex bodies at complex parameters
            gauss_2f1(0.3 + 0.1j, 1.45, 1.75, 0.5)
            gauss_2f1(0.3 + 0.1j, 1.45, 1.75 + 0.1j, 0.9)
            assert (series.call_count, log.call_count) == (1, 1)

    @pytest.mark.parametrize("mu", [0.0, 0.37, 2.0, 1e200, 0.5 + 0.1j])
    def test_gegenbauer_run(self, mu):
        # |x| > 1 overflows within 3000 values, and mu = 1e200 at l = 2
        kind = complex if complex(mu).imag else float
        for x in (-0.83, 0.6, 1.5, -1e200):
            values = []
            try:
                for v in itertools.islice(specfun._gegenbauer_terms(mu, x),
                                          3000):
                    values.append(v)
            except RangeError:
                assert len(values) < 3000 and (abs(x) > 1.0 or mu == 1e200)
            assert {type(v) for v in values[1:]} <= {kind}  # C_0 is 1.0


def _region(z):
    return ("real" if z.imag == 0 else "complex",
            "negative" if z.real < 0 else "positive")


class TestPositiveSeriesEngine:
    """The engine's parts of the positive series of the Legendre routes:
    conjugate parameters in float, the defining series past |z| = 0.75,
    and the log-gamma difference."""

    @pytest.mark.parametrize("tau", [0.3, 12.0, 60.0])
    @pytest.mark.parametrize("c,z", [(1.0, 0.4), (2.0, 0.9), (0.3, -0.6)])
    def test_conjugate_parameters_run_in_float(self, tau, c, z):
        a, b = complex(0.5, -tau), complex(0.5, tau)
        with mock.patch.object(specfun, "_series_complex",
                               wraps=specfun._series_complex) as series:
            got = _series_2f1(a, b, complex(c), complex(z))
        assert series.call_count == 0
        assert type(got[0]) is complex and got[0].imag == 0.0
        want = specfun._series_complex(a, b, complex(c), complex(z), -1.0,
                                       6000.0)
        assert abs(got[0] - want[0]) <= 1e-14 * want[1]

    def test_defining_series_past_the_disk(self):
        """defining=True sums the series at z = 0.9 where a call takes the
        1 - z connection; both agree with mpmath."""
        h = Hyp2F1(1.3, 0.5, 2.05)
        calls = []
        connect = Hyp2F1._lin_1mz_generic

        def spy(self, *args):
            calls.append(args)
            return connect(self, *args)

        with mock.patch.object(Hyp2F1, "_lin_1mz_generic", spy):
            got = h(0.9, defining=True)
            assert not calls
            other = h(0.9)
            assert len(calls) == 1
        ref = complex(mpmath.hyp2f1(1.3, 0.5, 2.05, 0.9))
        assert got.terms_used > 200
        for res in (got, other):
            assert abs(res.value - ref) <= 1e-14 * abs(ref)
            assert abs(res.value - ref) <= res.abs_err_est
        # at a pole of c the regularized engine shifts and keeps the rule
        pole = Hyp2F1(0.5, 0.7, -1.0).regularized(0.9, defining=True)
        with mpmath.workdps(50):  # F/Gamma(c) as c -> -1
            c = mpmath.mpf(-1) + mpmath.mpf(10) ** -30
            ref = complex(mpmath.hyp2f1(0.5, 0.7, c, 0.9) / mpmath.gamma(c))
        assert abs(pole.value - ref) <= 1e-13 * abs(ref)
        assert abs(pole.value - ref) <= pole.abs_err_est

    def test_lgamma_gap(self):
        """log Gamma(z + d) - log Gamma(z) against mpmath at 30 digits, on
        both sides of the Stirling-difference condition: within eps
        times its size (plus 3 eps for the exponential), and far below
        the difference of two log-gammas at large |z|."""
        rng = random.Random(7)
        for _ in range(400):
            z = complex(rng.uniform(0.5, 100.0),
                        rng.choice((0.0, rng.uniform(-100.0, 100.0))))
            d = rng.uniform(-3.5, 2.5)
            gap, size = specfun._lgamma_gap(z, d)
            with mpmath.workdps(30):  # z + d exact, as the gap takes it
                z_mp = mpmath.mpmathify(z)
                ref = complex(mpmath.exp(mpmath.loggamma(z_mp + d)
                                         - mpmath.loggamma(z_mp)))
            err = abs(cmath.exp(gap) - ref) / abs(ref)
            assert err <= specfun._EPS * (size + 3.0), (z, d)
            assert err <= 1e-14, (z, d)


class TestLogGammaDigamma:
    """The pure-Python log-gamma and digamma against mpmath at 30 digits."""

    @staticmethod
    def _grid():
        rng = np.random.default_rng(2024)
        pts = [complex(rng.uniform(-60, 160), rng.uniform(-200, 200))
               for _ in range(250)]
        # near the real axis: reflection, shift and Stirling regions
        pts += [complex(rng.uniform(-60, 160), rng.uniform(-15, 15))
                for _ in range(150)]
        pts += [complex(x) for x in rng.uniform(-60, 0, 100)
                if abs(x - round(x)) > 1e-3]
        pts += [complex(x) for x in rng.uniform(0.01, 160, 100)]
        return pts

    def test_gamma_ratio_by_region(self):
        """exp(lgamma(z) - lgamma(z + 0.37)) per region is no worse than
        twice scipy's loggamma on the same grid."""
        worst, worst_scipy = {}, {}
        with mpmath.workdps(30):
            for z in self._grid():
                ref = complex(mpmath.exp(mpmath.loggamma(z)
                                         - mpmath.loggamma(z + 0.37)))
                got = cmath.exp(_lgamma(z) - _lgamma(z + 0.37))
                sci = cmath.exp(complex(scipy.special.loggamma(z))
                                - complex(scipy.special.loggamma(z + 0.37)))
                r = _region(z)
                worst[r] = max(worst.get(r, 0.0), abs(got - ref) / abs(ref))
                worst_scipy[r] = max(worst_scipy.get(r, 0.0),
                                     abs(sci - ref) / abs(ref))
        assert len(worst) == 4
        for r, err in worst.items():
            assert err <= 2.0 * worst_scipy[r], (r, err, worst_scipy[r])

    def test_lgamma_at_series_boundary(self):
        """On |z| = 7, where Stirling's series starts, the truncation
        stays below the rounding of log Gamma."""
        with mpmath.workdps(30):
            for t in np.linspace(-1.48, 1.48, 41):
                z = cmath.rect(7.0, t)
                d = _lgamma(z) - complex(mpmath.loggamma(z))
                d = complex(d.real, math.remainder(d.imag, 2.0 * math.pi))
                assert abs(d) <= 5e-15, (z, d)

    def test_lgamma_poles_and_sign(self):
        assert _lgamma(-3.0) == complex(math.inf)
        # Gamma(-0.5) < 0, Gamma(-1.5) > 0: the branch is right mod 2 pi
        assert cmath.exp(_lgamma(-0.5)) == pytest.approx(-2.0 * SQRT_PI,
                                                         rel=1e-15)
        assert cmath.exp(_lgamma(-1.5)) == pytest.approx(4.0 * SQRT_PI / 3.0,
                                                         rel=1e-15)

    def test_digamma(self):
        """Relative error <= 2e-15 where |psi| >= 1; absolute 2e-15 below,
        where psi's zeros make a relative bound meaningless."""
        rng = np.random.default_rng(77)
        pts = [complex(rng.uniform(-60, 60), rng.uniform(-60, 60))
               for _ in range(200)]
        pts += [complex(x) for x in rng.uniform(0.05, 60, 60)]
        pts += [complex(-n + s) for n in range(25) for s in (1e-7, -1e-7)
                if n or s > 0]
        pts += [complex(-n + 1e-7, 1e-7) for n in range(10)]
        pts += [complex(-0.9999996666666296), 0.3 + 0.2j, -0.45 + 0.1j, 1.7]
        # Re z = 7: the asymptotic series at its least accurate, no shift
        pts += [complex(7.0, y) for y in range(-7, 8)]
        with mpmath.workdps(30):
            for z in pts:
                ref = complex(mpmath.digamma(z))
                err = abs(_digamma(z) - ref)
                assert err <= 2e-15 * max(abs(ref), 1.0), (z, err, ref)

    def test_digamma_float_matches_complex(self):
        # a float argument takes the float body: the real part of the
        # complex body's value bit for bit, through the shift's poles
        rng = random.Random(79)
        xs = [rng.uniform(-30.0, 60.0) for _ in range(2000)]
        xs += [-n + rng.uniform(-1e-3, 1e-3) for n in (1, 2, 3)
               for _ in range(300)]
        xs += [-n + s for n in (1, 2, 3)
               for s in (1e-3, -1e-3, 1e-9, -1e-9, 1e-14, -1e-14)]
        xs += [7.0, 6.999999999999999, 0.5, 1e-300, 1e15]
        for x in xs:
            got, want = _digamma(x), _digamma(complex(x))
            assert type(got) is float
            assert (repr(got), want.imag) == (repr(want.real), 0.0), x

    def test_trigamma(self):
        rng = np.random.default_rng(78)
        pts = [complex(rng.uniform(-60, 60), rng.uniform(-60, 60))
               for _ in range(200)]
        pts += [complex(x) for x in rng.uniform(0.05, 60, 60)]
        pts += [complex(-n + s) for n in range(25) for s in (1e-7, -1e-7)
                if n or s > 0]
        pts += [complex(7.0, y) for y in range(-7, 8)]
        with mpmath.workdps(30):
            for z in pts:
                ref = complex(mpmath.psi(1, z))
                err = abs(_trigamma(z) - ref)
                assert err <= 2e-15 * max(abs(ref), 1.0), (z, err, ref)

    @pytest.mark.parametrize("m,pa,pb", [
        (0, 0.3 + 0.2j, 1.7 + 0j),
        (2, 2.3 - 0j, -0.45 + 0.1j),
        (1, -0.9999996666666296 + 0j, -3.2 + 0j),
    ], ids=["m0", "m2", "near_pole"])
    def test_psi_brackets_against_mpmath(self, m, pa, pb):
        """The log case's brackets, term by term for 100 terms; the last
        run starts 3.3e-7 from a pole and crosses two more.  Relative
        where |bracket| >= 1, absolute below, as for psi."""
        w = 0.2 - 0.1j
        gaps = ([], [])
        assert _psi_gaps(gaps, pa, pb, m, 100) == 100
        got = [cmath.log(w) + x + y for x, y in zip(*gaps)]
        assert len(got) == 100
        with mpmath.workdps(30):
            for k, g in enumerate(got):
                ref = complex(mpmath.log(w) - mpmath.digamma(k + 1)
                              - mpmath.digamma(k + m + 1)
                              + mpmath.digamma(mpmath.mpc(pa) + k)
                              + mpmath.digamma(mpmath.mpc(pb) + k))
                assert abs(g - ref) <= 2e-15 * max(abs(ref), 1.0), (k, g, ref)


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
        connection = Hyp2F1(a, b, c)._connect()
        assert connection[0] == m
        v, err, _, _ = Hyp2F1(a, b, c)._lin_1mz_log(z, *connection)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(v - ref) <= 1e-13 * abs(ref)
        assert err < 1e-12 * abs(ref)

    @pytest.mark.parametrize("args", [
        (3.0, 0.25, 3.25 - 1e6, 0.9),    # |m| = 10^6: past the budget
        (171.5, 0.25, 0.75, 0.9),        # 1/171! and B out of range
        (200.0, 0.5, 1.5, 0.9),
        (85.25, 85.5, 0.75, 0.99),       # (1 - z)^-170 out of range
    ])
    def test_large_m_refused_at_once(self, args):
        start = time.perf_counter()
        with pytest.raises(CurvGreenError):
            gauss_2f1(*args)
        assert time.perf_counter() - start < 0.1

    def test_largest_factorial_in_range(self):
        """m = -170: 1/170! is the last reciprocal factorial in range."""
        got = gauss_2f1(170.5, 0.25, 0.75, 0.9)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(170.5, 0.25, 0.75, 0.9))
        assert abs(got.value - ref) <= max(got.abs_err_est,
                                           1e-13 * abs(ref))

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(-2, 2), _LOG_PARAM, _LOG_PARAM, _LOG_ARG,
           st.floats(-14.0, -8.0), st.sampled_from((1.0, -1.0)))
    def test_near_integer_estimate(self, m, a, b, z, log_gap, sign):
        """c - a - b within 1e-14 to 1e-8 of m is rounded to m: the
        estimate carries the term that drops."""
        c = a + b + m + sign * 10.0 ** log_gap
        if not _off_poles(a, b, a + m, b + m, a - abs(m), b - abs(m), c):
            return
        got = gauss_2f1(a, b, c, z)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(got.value - ref) <= got.abs_err_est

    @pytest.mark.parametrize("a,b,c,z", [
        (1.3, 0.4, 0.7 + 9e-9, 0.99),
        (0.3, 0.4, 0.7 + 5e-9, 0.9),
    ])
    def test_near_integer_examples(self, a, b, c, z):
        got = gauss_2f1(a, b, c, z)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        err = abs(got.value - ref)
        assert err > 1e-9 * abs(ref)  # the dropped term is visible
        assert err <= got.abs_err_est <= 4.0 * err

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(-3, 3), _LOG_PARAM, _LOG_PARAM, _LOG_ARG)
    def test_euler_transformation(self, m, a, b, z):
        """F(a, b; a + b + m; z) = (1 - z)^m F(b + m, a + m; a + b + m; z)
        (DLMF 15.8.1): the two sides run the log case at m and at -m."""
        c = a + b + m
        if not _off_poles(a, b, a + m, b + m, a - abs(m), b - abs(m), c):
            return
        lhs = Hyp2F1(a, b, c)
        rhs = Hyp2F1(b + m, a + m, c)
        left, right = lhs(z), rhs(z)
        assert lhs._connection[0] == m and rhs._connection[0] == -m
        power = (1.0 - z) ** m
        gap = abs(left.value - power * right.value)
        assert gap <= (left.abs_err_est + abs(power) * right.abs_err_est
                       + (abs(m) + 2) * 2.0 ** -52 * abs(power * right.value))

    def test_cancelling_finite_sum_is_charged(self):
        """m = -200 and a - 200 a pole of Gamma: B = 0 and the finite
        sum, whose terms cancel, is the whole value; every digit is
        lost, which the estimate and NEAR_POLE show."""
        got = gauss_2f1(3.0, 0.25, 3.25 - 200.0, 0.9)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(3.0, 0.25, 3.25 - 200.0, 0.9))
        assert abs(got.value - ref) > 0.5 * abs(ref)
        assert abs(got.value - ref) <= got.abs_err_est
        assert NEAR_POLE in got.flags

    @pytest.mark.parametrize("a,b", [(0.5, -2.28125), (-2.28125, 0.5)])
    def test_cancelling_log_bracket_is_charged(self, a, b):
        """m = 0: log w + psi gaps cancel in the log sum's brackets; the
        estimate charges the rounding of their parts."""
        c, z = a + b, 0.939453125
        got = gauss_2f1(a, b, c, z)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(got.value - ref) <= got.abs_err_est <= 1e-12 * abs(ref)

    @pytest.mark.xfail(strict=True, reason="the estimate misses the "
                       "rounding of b - 1 = -1.99999 next to a pole")
    def test_shift_rounding_near_pole(self):
        """m = -1: the finite sum and B take (a - 1, b - 1), rounded to
        double, and 1/Gamma(b - 1) moves by psi(b - 1) times that
        rounding, 1.1e-11 relative here, against an estimate of 1.5e-15
        relative.  The right side of Euler's transformation, at the same
        rounded parameters, is within its estimate of mpmath."""
        a, b, z = 2.0, -0.99999, 0.875
        got = gauss_2f1(a, b, a + b - 1.0, z)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, a + b - 1.0, z))
        assert abs(got.value - ref) <= got.abs_err_est


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

    def test_pole_keeps_its_shifted_engine(self, monkeypatch):
        """At a pole of c the shifted engine is built by the first call
        and kept (a Legendre Q at an anomalous degree reaches it at every
        z), with the bits of a one-shot call."""
        built = []

        class Spy(Hyp2F1):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(specfun, "Hyp2F1", Spy)
        engine = Spy(0.5, 0.7, -1.0)
        for z in (0.3, 0.9):
            assert _result_outcome(engine.regularized, z) == \
                _result_outcome(lambda z: regularized_2f1(0.5, 0.7, -1.0, z),
                                z)
        assert built.count((2.5, 2.7, 3.0)) == 3  # once here, two one-shots

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


_CYL_ORDERS = (0.0, 0.3, 0.5, 1.0, 1.7, 2.5, 10.0, 30.2, 60.0, -0.5, -1.3,
               -2.0)
_CYL_XS = (1e-3, 0.05, 0.3, 1.0, 1.99, 2.01, 5.0, 17.3, 50.0, 200.0)
def _orders(lo, hi):
    """Orders k/256 in [lo, hi]: nu +/- 1 is then exact, and an identity
    across orders is not blurred by their rounding, to which an order
    reflected near a negative integer is sensitive (d/dnu of
    sin(pi nu) Y_nu or K_nu)."""
    return st.integers(lo * 256, hi * 256).map(lambda k: k / 256.0)


_MP_CYL = {"J": mpmath.besselj, "Y": mpmath.bessely, "I": mpmath.besseli,
           "K": mpmath.besselk, "H1": mpmath.hankel1, "H2": mpmath.hankel2}


class TestCylinderKernel:
    """The pure-Python kernel against mpmath at 30 digits, and the
    identities between orders and kinds that it must keep."""

    def test_mpmath_grid(self):
        # both sides of x = 2 (Temme's series / Steed's CF2), orders to
        # 60, negative orders by reflection; J and Y against the
        # envelope of |H| at |mu| (of J for J at mu >= 0)
        with mpmath.workdps(30):
            for mu in _CYL_ORDERS:
                n = abs(mu)
                for x in _CYL_XS:
                    h0 = abs(mpmath.hankel1(n, x))
                    h1 = abs(mpmath.hankel1(n + 1, x))
                    env = {"H": mpmath.sqrt(h0 ** 2 + min(1, x * x) * h1 ** 2),
                           "J": mpmath.hypot(mpmath.besselj(n, x),
                                             mpmath.besselj(n + 1, x))}
                    for kind, fn in _MP_CYL.items():
                        got = cyl(kind, mu, x)
                        ref = fn(mu, x)
                        err = abs(mpmath.mpc(got.value) - ref)
                        if kind in ("J", "Y"):
                            size = env["J" if kind == "J" and mu >= 0
                                       else "H"]
                        elif kind == "I" and mu < 0:
                            # I_n + (2/pi) sin(pi n) K_n, n = -mu
                            size = (mpmath.besseli(n, x) + 2 / mpmath.pi
                                    * abs(mpmath.sinpi(n)
                                          * mpmath.besselk(n, x)))
                        else:
                            size = abs(ref)
                        assert err <= 1e-14 * size, (kind, mu, x)
                        assert err <= got.abs_err_est, (kind, mu, x)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_orders(-3, 50), st.floats(1e-3, 300.0))
    def test_jy_wronskian(self, nu, x):
        # J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi x) (DLMF 10.5.5), within
        # the products of the four estimates; two kernel calls, whose
        # orders may split differently between recurrence and series
        j0, y0, j1, y1 = (cyl(k, m, x) for m in (nu, nu + 1.0)
                          for k in ("J", "Y"))
        w = j1.value.real * y0.value.real - j0.value.real * y1.value.real
        terms = (abs(j1.value * y0.value), abs(j0.value * y1.value))
        bound = (j1.abs_err_est * abs(y0.value) + abs(j1.value)
                 * y0.abs_err_est + j0.abs_err_est * abs(y1.value)
                 + abs(j0.value) * y1.abs_err_est + 4e-16 * sum(terms))
        assert abs(w - 2.0 / (math.pi * x)) <= bound

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_orders(-3, 50), st.floats(1e-2, 700.0))
    def test_ik_wronskian(self, nu, x):
        # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x (DLMF 10.28.2)
        i0, k0, i1, k1 = (cyl(k, m, x).value.real for m in (nu, nu + 1.0)
                          for k in ("I", "K"))
        terms = abs(i0 * k1) + abs(i1 * k0)
        assert abs(i0 * k1 + i1 * k0 - 1.0 / x) <= 2e-14 * terms

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_orders(-3, 3), st.floats(1e-3, 100.0))
    def test_recurrence_across_negative_orders(self, nu, x):
        # C_{nu-1} + s C_{nu+1} = c (2 nu/x) C_nu (DLMF 10.6.1, 10.29.1)
        # with (s, c) = (1, 1) for J and Y, (-1, 1) for I and (-1, -1)
        # for K: the reflected orders below 0 must continue the
        # recurrence of the direct ones above
        for kind, s, c in (("J", 1, 1), ("Y", 1, 1), ("I", -1, 1),
                           ("K", -1, -1)):
            lo, mid, hi = (cyl(kind, nu + d, x) for d in (-1.0, 0.0, 1.0))
            parts = (lo.value, s * hi.value, -c * 2.0 * nu / x * mid.value)
            bound = (lo.abs_err_est + hi.abs_err_est
                     + 2.0 * abs(nu) / x * mid.abs_err_est
                     + 4e-16 * sum(abs(p) for p in parts))
            assert abs(sum(parts)) <= bound, kind

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(-5.0, 60.0), st.floats(1e-3, 300.0))
    def test_hankel_conjugation(self, nu, x):
        # at real order and argument, H2 = conj(H1) and H1 = J + iY
        h1, h2 = cyl("H1", nu, x).value, cyl("H2", nu, x).value
        assert h2 == h1.conjugate()
        assert h1 == complex(cyl("J", nu, x).value.real,
                             cyl("Y", nu, x).value.real)

    def test_integer_and_half_integer_reflections(self):
        # sin(pi nu) and cos(pi nu) are exact there: J_{-n} = (-1)^n J_n
        # and K_{-nu} = K_nu bit for bit, and J_{-1/2} = Y_{1/2} sign
        # flipped: -Y_{1/2}(x) = sqrt(2/(pi x)) cos x
        for n in (1, 2, 5):
            assert (cyl("J", -n, 0.7).value
                    == (-1) ** n * cyl("J", n, 0.7).value)
            assert (cyl("K", -n - 0.3, 0.7).value
                    == cyl("K", n + 0.3, 0.7).value)
        x = 3.0
        assert cyl("J", -0.5, x).value.real == pytest.approx(
            math.sqrt(2.0 / (math.pi * x)) * math.cos(x), rel=1e-15)

    def test_overflow_is_a_range_error(self):
        with pytest.raises(RangeError):
            cyl("I", 0.0, 710.0)
        with pytest.raises(RangeError):
            cyl("K", 200.0, 0.1)
        assert cyl("I", 0.0, 709.0).value.real == pytest.approx(
            1.23154770670165e306, rel=1e-13)

    @pytest.mark.parametrize("kind", ["Y", "H1", "H2"])
    @pytest.mark.parametrize("mu", [49.468793903737165, -49.468793903737165])
    def test_next_order_overflow_keeps_the_value(self, kind, mu):
        # Y_{|mu|+1} overflows there, Y_mu and H_mu do not
        x = 2.5330444319838835e-05
        got = cyl(kind, mu, x)
        with mpmath.workdps(30):
            ref = complex(_MP_CYL[kind](mu, x))
        err = abs(got.value - ref)
        assert err <= 1e-14 * abs(ref)
        assert err <= got.abs_err_est <= 1e-13 * abs(ref)
        # Y itself beyond the double range is still refused
        with pytest.raises(RangeError):
            cyl("Y", 30.0, 1e-9)


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
