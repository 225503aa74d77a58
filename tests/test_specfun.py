"""Complex log-gamma accuracy and gamma-ratio identities.

Golden values were generated with mpmath at 40-digit precision before the
build (mpmath.loggamma on the listed points) and frozen here; mpmath is
also used live as the independent high-precision oracle for the composite
ratio checks.  The log-gamma port is checked bit for bit against
``scipy.special.loggamma``, which only these tests import.
"""

import cmath
import ctypes
import ctypes.util
import math
import platform
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptscatter import complex_log_gamma, specfun
from ptscatter.core import _PyComplex, _raise_first
from ptscatter.errors import GammaPole, NonFiniteArgument, NumeratorPole

# (z, mpmath.loggamma(z) at 40 dps)
GOLDEN = [
    ((1 + 1j), complex(-0.65092319930185633889, -0.30164032046753319789)),
    ((0.5 + 0j), complex(0.57236494292470008707, 0.0)),
    ((-3.7 + 2.2j), complex(-7.2597693499705797432, -9.9401884510785499819)),
    ((10 - 4j), complex(11.98364941340949789, -9.1191194180313968537)),
    ((0.1 + 0.1j), complex(1.8989912736759001615, -0.82746470777307574554)),
    ((-0.5 - 8j), complex(-13.728822943042164802, -7.0075303009115111581)),
    ((25 + 25j), complex(43.63916183049965969, 83.376823759729749089)),
    ((-15.3 + 0.7j), complex(-29.074062074536020037, -47.716463899679710887)),
    ((3 - 40j), complex(-52.689155060822636631, -111.4051324154599655)),
    ((49 + 49j), complex(118.99738245971215347, 196.77226112168258411)),
]


def _wrapped_2pi(w: complex) -> float:
    """|w| after removing the nearest multiple of 2*pi*i from its imaginary part."""
    n = round(w.imag / (2 * math.pi))
    return abs(w - 2j * math.pi * n)


class TestComplexLogGamma:
    def test_at_one(self):
        assert complex_log_gamma(1.0) == 0.0

    def test_at_half(self):
        assert abs(complex_log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13

    @pytest.mark.parametrize("z,want", GOLDEN)
    def test_golden_values(self, z, want):
        got = complex_log_gamma(z)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3 + 1e-13j])
    def test_pole_raises(self, z):
        with pytest.raises(GammaPole):
            complex_log_gamma(z)

    def test_recurrence_identity(self, rng):
        """logGamma(z+1) - logGamma(z) - log z = 0 mod 2*pi*i."""
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z.imag) < 1e-3 and z.real < 0.5:
                continue  # stay away from the pole line
            w = complex_log_gamma(z + 1) - complex_log_gamma(z) - cmath.log(z)
            assert _wrapped_2pi(w) < 1e-12
            count += 1

    def test_conjugation(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(0.05, 30), rng.uniform(-30, 30))
            got = complex_log_gamma(z.conjugate())
            assert abs(got - complex_log_gamma(z).conjugate()) < 1e-12 * max(1.0, abs(got))


def gamma_ratio(numerator_args, denominator_args) -> complex:
    """``specfun.gamma_ratio_columns`` at one point: the ratio, or its first fault raised."""
    ratio, faults = specfun.gamma_ratio_columns(numerator_args, denominator_args)
    _raise_first(faults)
    return complex(ratio[0])


class TestGammaRatio:
    def test_simple_ratio(self):
        assert abs(gamma_ratio([3.0], [2.0]) - 2.0) < 1e-14

    def test_reflection_identity_point(self):
        z = 0.3 + 0.2j
        lhs = gamma_ratio([z, 1 - z], [])
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_reflection_identity_random(self, rng):
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z.real - round(z.real)) < 1e-2 and abs(z.imag) < 1e-2:
                continue  # both factors near poles
            lhs = gamma_ratio([z, 1 - z], [])
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) < 1e-11 * abs(rhs)
            count += 1

    def test_numerator_pole_raises(self):
        with pytest.raises(NumeratorPole):
            gamma_ratio([-2.0], [1.0])

    def test_numerator_pole_is_gamma_pole(self):
        with pytest.raises(GammaPole):
            gamma_ratio([-2.0], [1.0])

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio([1.5], [-3.0]) == 0.0

    def test_transmission_ratio_against_mpmath(self):
        """The full transmission gamma ratio at s=1.3, lam=0.7, k=0.9."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        s, lam, k = 1.3, 0.7, 0.9
        num = (-s - 1j * k, s + 1 - 1j * k, 0.5 + 1j * lam - 1j * k, 0.5 - 1j * lam - 1j * k)
        den = (-1j * k, 1 - 1j * k, 0.5 - 1j * k, 0.5 - 1j * k)
        got = gamma_ratio(num, den)
        want = mp.mpc(1)
        for z in num:
            want *= mp.gamma(mp.mpc(z))
        for z in den:
            want /= mp.gamma(mp.mpc(z))
        assert abs(got - complex(want)) < 1e-11 * abs(complex(want))

    def test_short_columns_equal_long_ones(self):
        """A column shorter than ELEMENTWISE_BELOW is evaluated element by element."""
        from ptscatter.potentials import _scarf_t_args

        ks = np.linspace(0.05, 9.0, specfun.ELEMENTWISE_BELOW)
        for lam in (0.7, 0.6j):
            long, _ = specfun.gamma_ratio_columns(*_scarf_t_args(1.3, lam, 1j * _PyComplex(ks)))
            for i, k in enumerate(ks):
                short, _ = specfun.gamma_ratio_columns(*_scarf_t_args(1.3, lam, 1j * _PyComplex(ks[i:i + 1])))
                assert _bits(short[0]) == _bits(long[i])

    def test_overflow_free_large_arguments(self):
        """Individually overflowing factors cancel in log space."""
        val = gamma_ratio([50 + 50j, 40.0], [45 + 50j, 45.0])
        assert np.isfinite(val.real) and np.isfinite(val.imag)


# -- the port of scipy.special.loggamma ----------------------------------------------

def _bits(z) -> tuple:
    """The two parts' bit patterns: equal bits are equal values with equal signs of zero."""
    return tuple(np.array([z.real, z.imag], dtype=float).view(np.uint64))


def _log_gamma(z: complex) -> complex:
    return specfun._log_gammas(specfun._SCALAR, [z])[0]


def _scipy_log_gamma(zs) -> list:
    from scipy.special import loggamma

    return [complex(w) for w in loggamma(np.asarray(zs, dtype=complex))]


def _assert_port_matches_scipy(zs):
    zs = [complex(z) for z in zs]
    for z in zs:
        assume(not (z.imag == 0 and z.real <= 0 and z.real == math.floor(z.real)))
    want = [_bits(w) for w in _scipy_log_gamma(zs)]
    assert [_bits(_log_gamma(z)) for z in zs] == want
    column = specfun._log_gammas(specfun._COLUMN, [_PyComplex.of(np.array(zs))])[0]
    assert [_bits(w) for w in column.array()] == want
    assert [_bits(w) for w in specfun._log_gammas(specfun._SCALAR, zs)] == want


def _parts(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _near(centre, radius):
    return st.builds(lambda r, t: centre + r * cmath.exp(1j * t), _parts(0, radius), _parts(-4, 4))


# few examples of many points each: the column path costs about the same for 1 or 30
PORT = settings(max_examples=10, deadline=None)
POINTS = {"min_size": 1, "max_size": 30}
SIGNED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-200, -1e-200])


class TestScipyPort:
    @PORT
    @given(st.lists(_near(1.0, 0.21), **POINTS))
    def test_taylor_series_at_one(self, zs):
        _assert_port_matches_scipy(zs)

    @PORT
    @given(st.lists(st.one_of(_near(2.0, 0.21), _near(2.0, 1e-150), _near(2.0, 1e-300)),
                    **POINTS))
    @example([2.0, 2 + 1e-170j, 2.1 - 1e-320j])
    def test_series_of_log_near_two(self, zs):
        """|z - 2| < 0.2 sums the series of log(z - 1); at tiny |z - 2| its
        terms underflow to zero, where scipy's early exit test is NaN or inf."""
        _assert_port_matches_scipy(zs)

    @PORT
    @given(st.lists(st.builds(complex, _parts(-1e6, 0.11), _parts(-7.5, 7.5)), **POINTS))
    @example([-0.5 + 1e-9j, -2.5 - 7j, 0.0999 + 0j, -1e6 + 0.5j])
    def test_reflection_half_plane(self, zs):
        _assert_port_matches_scipy(zs)

    @PORT
    @given(st.lists(st.builds(complex, _parts(0.09, 7.5), _parts(-7.5, 7.5)), **POINTS))
    def test_upward_recurrence(self, zs):
        _assert_port_matches_scipy(zs)

    @PORT
    @given(st.lists(st.builds(complex, _parts(-1e6, 1e6), _parts(-1e6, 1e6)), **POINTS))
    def test_stirling_series_up_to_1e6(self, zs):
        _assert_port_matches_scipy(zs)

    @PORT
    @given(st.lists(st.builds(complex, st.one_of(_parts(-40, 40), _parts(-1e6, 1e6)), SIGNED),
                    **POINTS))
    def test_signed_zeros_and_subnormal_imaginary_parts(self, zs):
        _assert_port_matches_scipy(zs)

    @PORT
    @given(st.lists(st.builds(complex, _parts(-50, 50), _parts(-50, 50)), **POINTS))
    def test_conjugate_pairs(self, zs):
        _assert_port_matches_scipy(zs + [z.conjugate() for z in zs])
        for z in zs:        # exactly conjugate-symmetric, but for the sign of a zero Im
            lg = _log_gamma(z)
            if lg.imag != 0:
                assert _bits(_log_gamma(z.conjugate())) == _bits(lg.conjugate())

    def test_dense_sample_of_every_branch(self):
        rng = np.random.default_rng(9)
        zs = np.concatenate([rng.uniform(-12, 12, 4000) + 1j * rng.uniform(-12, 12, 4000),
                             1 + 0.25 * rng.uniform(-1, 1, 1000) + 0.25j * rng.uniform(-1, 1, 1000),
                             2 + 0.25 * rng.uniform(-1, 1, 1000) + 0.25j * rng.uniform(-1, 1, 1000)])
        got = specfun._log_gammas(specfun._COLUMN, [_PyComplex.of(zs)])[0].array()
        assert [_bits(w) for w in got] == [_bits(w) for w in _scipy_log_gamma(zs)]

    def test_columns_reuse_equal_and_conjugate_columns(self):
        ks = np.linspace(0.2, 12.0, 301)
        ik = 1j * _PyComplex(ks)
        args = [-1.3 - ik, 1.3 + 1 - ik, 0.5 - ik, 0.5 - ik, -ik, 1 - ik, (0.5 - ik).conjugate(),
                _PyComplex(ks), _PyComplex(ks, -0.0)]
        n = len(ks)
        args = [_PyComplex(np.broadcast_to(z.real, n), np.broadcast_to(z.imag, n)) for z in args]
        got = specfun._log_gammas(specfun._COLUMN, args)
        for z, lg in zip(args, got):
            assert [_bits(w) for w in lg.array()] == [_bits(w) for w in _scipy_log_gamma(z.array())]


# a product x*y whose error term e = x*y - fl(x*y) the sum must not lose
_FACTORS = st.floats(1e-100, 1e100).flatmap(lambda m: st.sampled_from([m, -m]))


def _exact_fma(x, y, z) -> float:
    return float(Fraction(x) * Fraction(y) + Fraction(z))


class TestFusedMultiplyAdd:
    @settings(max_examples=60, deadline=None)
    @given(_FACTORS, _FACTORS, st.integers(-3, 3), st.floats(-1e-6, 1e-6))
    def test_cancelling_triples_round_once(self, x, y, ulps, jitter):
        """z = -fl(x*y) moved by a few ulps or a relative jitter, so that
        x*y + z cancels to (about) the product's own rounding error."""
        z = -(x * y)
        z = float(np.nextafter(z, math.copysign(math.inf, ulps) if ulps else z)) if ulps else z
        z = z * (1 + jitter)
        want = _exact_fma(x, y, z)
        assert specfun._fma_by(x)(y, z) == want
        assert specfun._fma_by_columns(np.array([x]))(np.array([y]), z)[0] == want

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(_FACTORS, _FACTORS, st.floats(-1e100, 1e100)), min_size=1, max_size=20))
    def test_columns_equal_exact_values(self, triples):
        x, y, z = (np.array(c) for c in zip(*triples))
        got = specfun._fma_by_columns(x)(y, z)
        assert list(got) == [_exact_fma(*t) for t in triples]
        assert [specfun._fma_by(a)(b, c) for a, b, c in triples] == list(got)

    @pytest.mark.parametrize("x, y, z", [(1.0 + 2 ** -52, 1.0 - 2 ** -53, -1.0),
                                         (3.0, 1 / 3, -1.0), (0.1, 10.0, -1.0),
                                         (1e-3, 1e-3, -1e-6), (2.0, -0.5, 1.0)])
    def test_known_triples(self, x, y, z):
        want = _exact_fma(x, y, z)
        assert specfun._fma_by(x)(y, z) == want
        assert specfun._fma_by_columns(np.array([x]))(np.array([y]), z)[0] == want


class _Pair(ctypes.Structure):
    _fields_ = [("re", ctypes.c_double), ("im", ctypes.c_double)]


def _libgcc_divdc3():
    """libgcc's __divdc3 on x86-64 Linux (its complex result comes back as two
    doubles, as a struct of two doubles does), else None."""
    name = ctypes.util.find_library("gcc_s") if platform.machine() == "x86_64" else None
    if not sys.platform.startswith("linux") or name is None:
        return None
    divdc3 = ctypes.CDLL(name).__divdc3
    divdc3.restype, divdc3.argtypes = _Pair, [ctypes.c_double] * 4
    return divdc3


_DIVDC3 = _libgcc_divdc3()


@pytest.mark.skipif(_DIVDC3 is None, reason="needs libgcc_s on x86-64 Linux")
@settings(max_examples=30, deadline=None)
@given(*[st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64), SIGNED)] * 4)
def test_complex_quotient_is_libgccs(a, b, c, d):
    """The quotient's scaling and subnormal branches against libgcc's own."""
    assume(c != 0 or d != 0)
    want = _DIVDC3(a, b, c, d)
    assume(math.isfinite(want.re) and math.isfinite(want.im))
    got = specfun._divdc3(complex(a, b), complex(c, d))
    assert _bits(got) == _bits(complex(want.re, want.im))
    with np.errstate(all="ignore"):     # from the branch CPython's quotient does not take
        column = specfun._divdc3_columns(_PyComplex(np.array([a]), np.array([b])),
                                         _PyComplex(np.array([c]), np.array([d])))
    assert _bits(column.array()[0]) == _bits(got)


# -- arguments with a NaN or infinite part ------------------------------------------

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_ANY_PART = st.one_of(_parts(-50, 50), _NON_FINITE)
NON_FINITE = st.one_of(st.builds(complex, _NON_FINITE, _ANY_PART),
                       st.builds(complex, _ANY_PART, _NON_FINITE))


class TestNonFiniteArguments:
    @given(NON_FINITE)
    @example(complex(math.nan, 0))
    @example(complex(math.inf, 0))
    @example(complex(1, math.nan))
    def test_log_gamma_and_ratio_raise(self, z):
        with pytest.raises(NonFiniteArgument):
            complex_log_gamma(z)
        for num, den in (([z], [1.0]), ([1.0], [z]), ([-2.0], [z]), ([z], [-2.0])):
            with pytest.raises(NonFiniteArgument):
                gamma_ratio(num, den)
        assert specfun.is_gamma_pole(z) is False

    @settings(max_examples=30, deadline=None)
    @given(NON_FINITE, st.sampled_from([1, 7, 2 * specfun.ELEMENTWISE_BELOW]), st.data())
    def test_columns_raise(self, z, length, data):
        at = data.draw(st.integers(0, length - 1))
        real, imag = np.linspace(0.5, 3.0, length), np.linspace(-1.0, 1.0, length)
        real[at], imag[at] = z.real, z.imag
        bad, good = _PyComplex(real, imag), _PyComplex(np.full(length, 1.5), imag)
        for num, den in (([bad], [good]), ([good], [good, bad])):
            with pytest.raises(NonFiniteArgument):
                specfun.gamma_ratio_columns(num, den)
