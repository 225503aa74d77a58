"""Closed forms, relation checks and writers over a whole k grid.

A grid call must give, bit for bit, what the per-k formulas of ``oracle``
give in a loop over k (every cell, signed zeros included).  At the first k
where that loop raises or gives a coefficient that is not finite, the grid
call raises a ScatteringError naming that k: the loop's own error, class
and message, where the loop raised a ScatteringError.
"""

import cmath
import contextlib
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptscatter
from ptscatter import (asymptotic_current, centrifugal_amplitudes, integrate_batch, numeric_coefficients,
                       scarf_amplitudes, separable, square_well_potential, square_well_transfer,
                       wavefunction_on_grid, wronskian_residual)
from ptscatter.cli import CHUNK_ROWS, _json_document, _json_table, _moduli, _write, main
from ptscatter import core
from ptscatter.core import COLUMN, ScatteringCoefficients, _mapped, _PyComplex
from ptscatter.errors import (NumeratorPole, ResonancePole, ScatteringError, TransferOverflow,
                              TransmissionPole)
from ptscatter.potentials import (
    CentrifugalParams,
    LatticeParams,
    ScarfParams,
    SquareWellParams,
    centrifugal_coefficients,
    multi_well_coefficients,
    scarf_coefficients,
    square_well_coefficients,
)
from ptscatter.symmetry import (RelationReport, SymmetryClass, check_s_relations,
                                exact_asymptotic_pt_check)

FIELDS = ("t_lr", "r_lr", "t_rl", "r_rl")


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def same_float(a, b) -> bool:
    a, b = np.array([a, b], dtype=float)
    return (math.isnan(a) and math.isnan(b)) or a.view(np.uint64) == b.view(np.uint64)


def per_k(fn, ks, finite=lambda record: all(map(cmath.isfinite, record))):
    """Records of a loop over k, or (error, k) of its first failure: where
    fn raises (the error) or gives a record that is not ``finite`` (None)."""
    records = []
    for k in ks:
        try:
            record = fn(float(k))
        except (ScatteringError, ArithmeticError, ValueError) as exc:
            return exc, float(k)
        if not finite(record):
            return None, float(k)
        records.append(record)
    return records


def assert_raises_like(call, failure):
    """call() raises at the k of the loop's first failure: the loop's error
    where that is a ScatteringError, else any ScatteringError."""
    exc, k = failure
    with pytest.raises(ScatteringError) as info:
        call()
    assert info.value.k == k
    if isinstance(exc, ScatteringError):
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))


def assert_grid_matches(fn, reference, ks):
    """fn over the grid ks against the per-k ``reference`` (T_lr, R_lr, T_rl, R_rl)."""
    expected = per_k(reference, ks)
    if isinstance(expected, tuple):
        assert_raises_like(lambda: fn(np.asarray(ks)), expected)
        return
    grid = fn(np.asarray(ks))
    for i, name in enumerate(FIELDS):
        assert np.array_equal(bits(getattr(grid, name)), bits([c[i] for c in expected])), name
    assert np.array_equal(bits(grid.det), bits([t_lr * t_rl - r_rl * r_lr
                                                for t_lr, r_lr, t_rl, r_rl in expected]))


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def grids(lo, hi):
    return st.lists(finite(lo, hi), min_size=1, max_size=25).map(sorted)


SETTINGS = settings(max_examples=150, deadline=None)


WELL = SquareWellParams(1.0, 0.5, 1.0)
SCARF = ScarfParams(1.3, 0.7j, 0.2)
KERNEL = separable.SeparableKernel.yamaguchi(1.0, 2.0, 0.3, 0.7)
#: the grid of the one-element tests: longer than specfun.ELEMENTWISE_BELOW
GRID = np.linspace(0.4, 3.0, 30)
#: a call of each exported function of k whose grid is, bit for bit, the loop
#: of its one-k calls: (the function, a call at k), by case
ONE_K_CASES = {
    "square-well": (square_well_coefficients, lambda k: square_well_coefficients(WELL, k)),
    "multi-well": (multi_well_coefficients,
                   lambda k: multi_well_coefficients(LatticeParams(WELL, 0.5, 3), k)),
    "scarf": (scarf_coefficients, lambda k: scarf_coefficients(SCARF, k)),
    "centrifugal": (centrifugal_coefficients,
                    lambda k: centrifugal_coefficients(CentrifugalParams(1.0, 0.1), k)),
    "yamaguchi": (separable.nonlocal_coefficients, lambda k: separable.nonlocal_coefficients(KERNEL, k)),
    "square-well-transfer": (square_well_transfer, lambda k: square_well_transfer(WELL, k)),
    "scarf-amplitudes": (scarf_amplitudes, lambda k: scarf_amplitudes(SCARF, k)),
    "centrifugal-amplitudes": (centrifugal_amplitudes,
                               lambda k: centrifugal_amplitudes(CentrifugalParams(1.0, 0.1), k)),
    "yamaguchi-intermediates": (separable.nonlocal_intermediates,
                                lambda k: separable.nonlocal_intermediates(KERNEL, k)),
    "asymptotic-current": (asymptotic_current,
                           lambda k: asymptotic_current(scarf_coefficients(SCARF, k), k)),
    "wronskian-residual": (wronskian_residual, lambda k: wronskian_residual(scarf_amplitudes(SCARF, k), k)),
    "relations": (check_s_relations, lambda k: check_s_relations(
        scarf_coefficients(SCARF, k), SymmetryClass(pt=True, parity_generalized=True, x0=0.7),
        local=True, k=k)),
}
#: the exported functions of k that take one k only
ONE_K_ONLY = {"wavefunction_on_grid", "nonlocal_wavefunction"}
#: a call at k of every exported function with a parameter k or ks, whose
#: other arguments are fixed, so that the function's own check meets k first
AT_K = {fn.__name__: call for fn, call in ONE_K_CASES.values()} | {
    "asymptotic_current": lambda k: asymptotic_current(scarf_coefficients(SCARF, 1.0), k),
    "wronskian_residual": lambda k: wronskian_residual(scarf_amplitudes(SCARF, 1.0), k),
    "check_s_relations": lambda k: check_s_relations(scarf_coefficients(SCARF, 1.0), SymmetryClass(),
                                                     local=True, k=k),
    "integrate_batch": lambda ks: integrate_batch(square_well_potential(WELL), ks),
    "numeric_coefficients": lambda k: numeric_coefficients(square_well_potential(WELL), k),
    "wavefunction_on_grid": lambda k: wavefunction_on_grid(square_well_potential(WELL), k),
    "nonlocal_wavefunction": lambda k: separable.nonlocal_wavefunction(KERNEL, k, "left",
                                                                       np.linspace(-1.0, 1.0, 5)),
}


def exported_functions_of(*params) -> set:
    """The exported callables with a parameter named in ``params``."""
    names = set()
    for name in ptscatter.__all__:
        with contextlib.suppress(TypeError, ValueError):
            if set(params) & set(inspect.signature(getattr(ptscatter, name)).parameters):
                names.add(name)
    return names


def leaves(result) -> list:
    """(path, value) of every number and text of a result: the fields of a
    record, the items of a tuple, or the result itself."""
    if isinstance(result, tuple):
        return [((i, *path), v) for i, item in enumerate(result) for path, v in leaves(item)]
    if hasattr(result, "__dict__"):
        return [((name, *path), v) for name, field in vars(result).items() for path, v in leaves(field)]
    return [((), result)]


class TestGridEqualsLoopOverK:
    @SETTINGS
    @given(finite(0, 50), finite(-50, 50), finite(0.01, 10), grids(1e-6, 300))
    def test_square_well(self, v0, v1, b, ks):
        p = SquareWellParams(v0, v1, b)
        assert_grid_matches(lambda k: square_well_coefficients(p, k),
                            lambda k: oracle.square_well_coefficients(p, k), ks)

    @SETTINGS
    @given(finite(0, 5), st.one_of(finite(-2, 2), finite(-50, 50)), finite(0.1, 2), finite(0.1, 2),
           st.integers(1, 600), grids(1e-3, 20))
    def test_multi_well(self, v0, v1, b, a, n, ks):
        p = LatticeParams(SquareWellParams(v0, v1, b), a=a, n=n)
        assert_grid_matches(lambda k: multi_well_coefficients(p, k),
                            lambda k: oracle.multi_well_coefficients(p, k), ks)

    @SETTINGS
    @given(st.one_of(finite(-1.99, 1.99), finite(-1e6, 1e6)), finite(-10, 10), finite(-10, 10),
           finite(-1.5, 1.5), grids(1e-14, 300))
    def test_scarf(self, s, lam_re, lam_im, eps, ks):
        p = ScarfParams(s=s, lam=complex(lam_re, lam_im), eps=eps)
        assert_grid_matches(lambda k: scarf_coefficients(p, k),
                            lambda k: oracle.scarf_coefficients(p, k), ks)

    @SETTINGS
    @given(finite(0.01, 10), finite(0.01, 10), finite(-10, 10), finite(-10, 10), finite(-50, 50),
           grids(1e-6, 1e4))
    # alpha + beta = 0, the default kernel and every hermitian one: the
    # closed form divides by the real gamma + delta + i (alpha + beta)
    @example(1.0, 2.0, 0.0, 0.0, 1.0, [0.2, 1.3, 4.0])
    @example(1.0, 1.0, 0.3, -0.3, -2.5, [0.2, 1.3, 4.0])
    def test_yamaguchi(self, gamma, delta, alpha, beta, lam, ks):
        kernel = separable.SeparableKernel.yamaguchi(gamma=gamma, delta=delta, alpha=alpha,
                                                     beta=beta, lam=lam)
        assert_grid_matches(lambda k: separable.nonlocal_coefficients(kernel, k),
                            lambda k: oracle.nonlocal_coefficients(kernel, k), ks)

    @SETTINGS
    @given(finite(-0.2, 5), finite(0.01, 1), grids(1e-6, 300))
    def test_centrifugal(self, strength, eps, ks):
        p = CentrifugalParams(alpha_strength=strength, eps=eps)
        assert_grid_matches(lambda k: centrifugal_coefficients(p, k), lambda k: (1.0, 0.0, 1.0, 0.0), ks)

    def test_scalar_k_gives_python_complex(self):
        c = square_well_coefficients(SquareWellParams(1.0, 0.5, 1.0), 1.3)
        assert all(type(getattr(c, name)) is complex for name in FIELDS)

    def test_scalar_det_is_python_complex_and_overflows_silently(self):
        big = complex(1e200, 1e200)
        c = ScatteringCoefficients(big, 0j, big, 1e-300j)
        assert type(c.det) is complex and repr(c.det) == repr(big * big - 1e-300j * 0j)
        assert type(square_well_coefficients(SquareWellParams(1.0, 0.5, 1.0), 1.3).det) is complex

    @pytest.mark.parametrize("case", ONE_K_CASES.values(), ids=ONE_K_CASES)
    def test_scalar_k_is_the_one_element_grid(self, case):
        # a scalar k is the one-element grid, as Python numbers; the grid is
        # long enough for the gamma ratios' column path
        call = case[1]
        grid = leaves(call(GRID))
        for j, k in enumerate(GRID.tolist()):
            one = leaves(call(k))
            assert [path for path, _ in one] == [path for path, _ in grid]
            for (path, got), (_, column) in zip(one, grid):
                want = column[j] if isinstance(column, np.ndarray) and len(column) == len(GRID) else column
                if not isinstance(got, np.ndarray):
                    assert type(got) is type(np.asarray(want).item()), (path, k)
                assert np.asarray(got).dtype == np.asarray(want).dtype, (path, k)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (path, k)


def test_every_public_function_of_k_takes_a_grid():
    """Every exported callable with a parameter k but the one-k functions is a
    case of the bit-for-bit test above or, for the integrator, whose step
    blocks depend on the number of k, of the test of its grid to rounding."""
    from test_numeric import TestSquareWellAgreement

    to_rounding = {"numeric_coefficients": TestSquareWellAgreement.test_batch_equals_single}
    of_k = exported_functions_of("k")
    covered = [fn.__name__ for fn, _ in ONE_K_CASES.values()] + list(to_rounding)
    assert ONE_K_ONLY <= of_k
    assert sorted(of_k - ONE_K_ONLY) == sorted(covered)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(exported_functions_of("k", "ks")))
def test_every_function_of_k_rejects_a_bad_k(name, bad):
    """One rule for every k: each exported function of k rejects a k that is
    not finite and > 0, alone or in a grid, with the same message."""
    with pytest.raises(ValueError, match="wave number must be finite and > 0"):
        AT_K[name](bad)
    if name not in ONE_K_ONLY:
        with pytest.raises(ValueError, match="wave number must be finite and > 0"):
            AT_K[name]([1.0, bad])


@pytest.mark.parametrize("name", sorted(ONE_K_ONLY))
def test_one_k_functions_reject_a_grid(name):
    with pytest.raises(ValueError, match=f"{name} takes one wave number k"):
        AT_K[name]([1.0, 2.0])


class TestErrorsAtTheLowestFailingK:
    def test_spectral_singularity_raises_transmission_pole(self):
        # |M_RR| ~ 3e-16 at this (v1, k), located by root finding
        p = SquareWellParams(1.0, 13.078802475944913, 1.0)
        k_pole = 4.164331013127829
        with pytest.raises(TransmissionPole):
            square_well_coefficients(p, k_pole)
        assert_grid_matches(lambda k: square_well_coefficients(p, k),
                            lambda k: oracle.square_well_coefficients(p, k), [1.0, k_pole, 5.0])

    def test_numerator_pole_below_an_overflow(self):
        # integer s puts -s - ik on a pole at k ~ 0; cosh(pi k) overflows at 230
        p = ScarfParams(s=1.0, lam=0.7)
        with pytest.raises(NumeratorPole) as info:
            scarf_coefficients(p, np.array([1e-13, 1.0, 230.0]))
        assert info.value.k == 1e-13
        assert_grid_matches(lambda k: scarf_coefficients(p, k),
                            lambda k: oracle.scarf_coefficients(p, k), [1e-13, 1.0, 230.0])

    def test_overflow_below_a_cancellation(self):
        # the later stage (cosh) fails at the lower k, the earlier (log-gamma) at the higher
        p = ScarfParams(s=1.3, lam=0.7)
        with pytest.raises(TransferOverflow, match="exceeded the float range") as info:
            scarf_coefficients(p, np.array([0.5, 230.0, 1e7]))
        assert info.value.k == 230.0
        assert_grid_matches(lambda k: scarf_coefficients(p, k),
                            lambda k: oracle.scarf_coefficients(p, k), [0.5, 230.0, 1e7])

    def test_lowest_failing_k_is_named_by_the_cli(self, capsys):
        assert main(["scan", "--potential", "scarf", "--s", "1", "--kmin", "1e-13",
                     "--kmax", "230", "--kcount", "2", "--out", "/dev/null"]) == 3
        assert capsys.readouterr().err.startswith("solver error at k = 1e-13: numerator gamma pole")
        assert main(["scan", "--potential", "scarf", "--kmin", "230", "--kmax", "1e7",
                     "--kcount", "2", "--out", "/dev/null"]) == 3
        assert capsys.readouterr().err == ("solver error at k = 230.0: a closed-form "
                                           "intermediate exceeded the float range\n")

    def test_denominator_gamma_pole_gives_zero(self):
        p = ScarfParams(s=0.3, lam=0.7)
        c = scarf_coefficients(p, np.array([1e-13, 1.0]))
        assert c.t_lr[0] == 0
        assert_grid_matches(lambda k: scarf_coefficients(p, k),
                            lambda k: oracle.scarf_coefficients(p, k), [1e-13, 1.0])

    def test_resonance_pole(self, monkeypatch):
        kernel = separable.SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7,
                                                     lam=1.5)
        # N+ = 1/lam at k_pole, so that 1 - lam*N+ vanishes there
        k_pole, pole = 1.25, 2j * 1.25 / kernel.lam
        column_j, scalar_j = separable._yamaguchi_j, oracle.yamaguchi_j

        def j_with_pole(alpha, beta, gamma, delta, k):
            j, at = column_j(alpha, beta, gamma, delta, k), k == k_pole
            return _PyComplex(np.where(at, pole.real, j.real), np.where(at, pole.imag, j.imag))

        monkeypatch.setattr(separable, "_yamaguchi_j", j_with_pole)
        monkeypatch.setattr(oracle, "yamaguchi_j", lambda *form: pole if form[-1] == k_pole
                            else scalar_j(*form))
        with pytest.raises(ResonancePole):
            separable.nonlocal_coefficients(kernel, k_pole)
        assert_grid_matches(lambda k: separable.nonlocal_coefficients(kernel, k),
                            lambda k: oracle.nonlocal_coefficients(kernel, k), [0.5, k_pole, 2.0])


class TestRelationColumns:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[finite(-3, 3)] * 8), min_size=1, max_size=12),
           st.sampled_from([SymmetryClass(pt=True),
                            SymmetryClass(hermitian=True, time_reversal=True),
                            SymmetryClass(parity=True, time_reversal=True),
                            SymmetryClass(parity_generalized=True, x0=0.7)]),
           st.booleans())
    def test_columns_equal_per_k_reports(self, rows, cls, local):
        ks = np.linspace(0.3, 3.0, len(rows))
        per = [ScatteringCoefficients(complex(a, b), complex(c, d), complex(e, f), complex(g, h))
               for a, b, c, d, e, f, g, h in rows]
        grid = ScatteringCoefficients(*(np.array([getattr(s, n) for s in per]) for n in FIELDS))
        relations = per_k(lambda k: check_s_relations(per[list(ks).index(k)], cls, local=local, k=k),
                          ks, finite=bool)
        exact = per_k(lambda k: exact_asymptotic_pt_check(per[list(ks).index(k)]), ks, finite=bool)
        for expected, call in ((relations, lambda: check_s_relations(grid, cls, local=local, k=ks)),
                               (exact, lambda: exact_asymptotic_pt_check(grid))):
            if isinstance(expected, tuple):
                assert_raises_like(call, expected)
                continue
            got = call()
            for j, one in enumerate(expected):
                if isinstance(one, RelationReport):
                    for col, rec in zip(got.records, one.records):
                        assert (col.name, col.suite, bool(col.holds[j]), bool(col.applicable[j])) \
                               == (rec.name, rec.suite, rec.holds, rec.applicable)
                        assert same_float(col.residual[j], rec.residual)
                else:
                    assert bool(got.is_exact[j]) == one.is_exact
                    assert same_float(got.theta_lr[j], one.theta_lr)
                    assert same_float(got.theta_rl[j], one.theta_rl)
                    assert same_float(one.theta_lr, oracle.phase(per[j].t_lr))
                    assert same_float(one.theta_rl, oracle.phase(per[j].t_rl))

    def test_underflowing_phase_names_its_k(self):
        # the angle of the second and third t underflows: a subnormal number, or zero
        t = np.array([1.0 + 0j, complex(2.0, 5e-324), complex(-2.0, -1e-310)])
        s = ScatteringCoefficients(t, np.zeros(3, complex), t, np.zeros(3, complex))
        got = exact_asymptotic_pt_check(s)
        assert np.all(np.isfinite(got.theta_lr))
        assert all(same_float(a, oracle.phase(z)) for a, z in zip(got.theta_lr, t.tolist()))

    def test_modulus_overflow_names_its_k(self):
        big = complex(1.5e308, 1.5e308)
        s = ScatteringCoefficients(np.array([0.5 + 0j, 0.5, big]), np.zeros(3, complex),
                                   np.array([0.5 + 0j, big, big]), np.zeros(3, complex))
        with pytest.raises(TransferOverflow, match="a modulus or the phase") as info:
            check_s_relations(s, SymmetryClass(), local=True, k=np.array([1.0, 2.0, 3.0]))
        assert info.value.k == 2.0
        # a scalar k is the k of every column element
        with pytest.raises(TransferOverflow, match="a modulus or the phase") as info:
            check_s_relations(s, SymmetryClass(), local=True, k=1.5)
        assert info.value.k == 1.5


def wide(hi):
    """Magnitudes from 1e-3 to hi, of either sign."""
    return st.floats(-3, math.log10(hi)).map(lambda e: 10 ** e).flatmap(lambda m: st.sampled_from([m, -m]))


def assert_total(fn, ks):
    """fn over the grid gives finite columns, or a ScatteringError naming a k
    of the grid; no other exception."""
    try:
        c = fn(np.asarray(ks))
    except ScatteringError as exc:
        assert exc.k in ks
        return
    assert all(np.all(np.isfinite(getattr(c, name))) for name in FIELDS)


TOTALITY = settings(max_examples=40, deadline=None)


class TestTotality:
    """Every closed form is total over wide boxes of its parameters."""

    @TOTALITY
    @given(wide(1e6), wide(1e6), wide(50), grids(1e-6, 1e4))
    def test_square_well(self, v0, v1, b, ks):
        p = SquareWellParams(abs(v0), v1, abs(b))
        assert_total(lambda k: square_well_coefficients(p, k), ks)

    @TOTALITY
    @given(wide(1e6), wide(1e6), wide(50), wide(50), st.integers(1, 600), grids(1e-6, 1e4))
    def test_multi_well(self, v0, v1, b, a, n, ks):
        p = LatticeParams(SquareWellParams(abs(v0), v1, abs(b)), a=abs(a), n=n)
        assert_total(lambda k: multi_well_coefficients(p, k), ks)

    @TOTALITY
    @given(wide(1e3), wide(1e3), wide(1e3), finite(-1.5, 1.5), grids(1e-6, 1e4))
    def test_scarf(self, s, lam_re, lam_im, eps, ks):
        p = ScarfParams(s=s, lam=complex(lam_re, lam_im), eps=eps)
        assert_total(lambda k: scarf_coefficients(p, k), ks)

    @TOTALITY
    @given(wide(1e3), wide(1e3), wide(1e300), wide(1e300), wide(1e3), grids(1e-6, 1e4))
    def test_yamaguchi(self, gamma, delta, alpha, beta, lam, ks):
        kernel = separable.SeparableKernel.yamaguchi(gamma=abs(gamma), delta=abs(delta),
                                                     alpha=alpha, beta=beta, lam=lam)
        assert_total(lambda k: separable.nonlocal_coefficients(kernel, k), ks)

    @TOTALITY
    @given(wide(1e6), wide(1e3), grids(1e-6, 1e4))
    def test_centrifugal(self, strength, eps, ks):
        p = CentrifugalParams(alpha_strength=strength, eps=eps)
        assert_total(lambda k: centrifugal_coefficients(p, k), ks)


class TestPyComplex:
    def test_quotient_by_a_real_or_an_imaginary_scalar(self):
        # a scalar divisor with a zero part: one branch divides by that part
        z = _PyComplex(np.array([1.5, -0.0, 3e-310, 2.0]), np.array([-2.0, 1.0, 0.5, -0.0]))
        for b in (2.5, -0.75j, complex(0.5, 0.0), complex(-0.0, 3.0)):
            assert np.array_equal(bits((z / b).array()), bits([w / b for w in z.array().tolist()]))


def parts_wide():
    """Real or imaginary parts: moderate, near the overflow of |z|^2 or |z|, inf and NaN."""
    return st.one_of(finite(-3, 3), finite(1e154, 1e308), finite(-1e308, -1e154),
                     st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


def from_bits(n: int) -> float:
    return float(np.array(n, dtype=np.uint64).view(float))


#: any float64: from its bit pattern (subnormals, +-0, +-inf and NaNs with
#: any payload), near the edge of exp's range, or hypothesis's own floats
ANY_FLOAT = st.one_of(st.integers(0, 2 ** 64 - 1).map(from_bits), st.floats(700, 712),
                      st.floats(-712, -700), st.floats())


def assert_libm_bits(got, want):
    """got equals want bit for bit, but that any NaN stands for any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    kept = ~np.isnan(want)
    assert np.array_equal(got[kept].view(np.uint64), want[kept].view(np.uint64))


class TestLibmColumns:
    """``COLUMN.cosh``, ``sinh``, ``exp`` and ``atan2`` are math's functions
    over a column, bit for bit, NaN where math raises: they come from numpy's
    complex loops, which call the C library, and from math itself beyond
    |x| = 709."""

    ONE = {name: getattr(math, name) for name in ("cosh", "sinh", "exp")}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_FLOAT, min_size=1, max_size=40))
    @example([0.0, -0.0, 5e-324, -5e-324, 1e-300, 709.0, 709.5, 710.0, math.inf, -math.inf, math.nan])
    def test_one_argument(self, xs):
        x = np.array(xs)
        for name, fn in self.ONE.items():
            assert_libm_bits(getattr(COLUMN, name)(x), _mapped(fn, x))

    def test_dense_sweep_around_the_cutoff(self):
        x = np.concatenate([np.linspace(700.0, 712.0, 120_001), np.linspace(-712.0, -700.0, 120_001)])
        for name, fn in self.ONE.items():
            assert_libm_bits(getattr(COLUMN, name)(x), _mapped(fn, x))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=40))
    @example([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, -0.0), (-0.0, -1.0),
              (math.inf, math.inf), (-math.inf, 1.0), (1e300, -1e-300), (math.nan, 1.0)])
    def test_atan2(self, pairs):
        y, x = (np.array(col) for col in zip(*pairs))
        assert_libm_bits(COLUMN.atan2(y, x), _mapped(math.atan2, y, x))
        assert_libm_bits(COLUMN.atan2(0.5, x), _mapped(math.atan2, 0.5, x))

    def test_only_the_elements_beyond_709_are_mapped(self, monkeypatch):
        seen = []

        def recording(fn, *args):
            seen.append((fn, *(np.ravel(a).tolist() for a in args)))
            return _mapped(fn, *args)

        monkeypatch.setattr(core, "_mapped", recording)
        x = np.array([-710.0, -709.0, 0.5, 709.0, 709.25, math.inf])
        for name, fn in self.ONE.items():
            getattr(COLUMN, name)(x)
            assert seen.pop() == (fn, [-710.0, 709.25, math.inf])
        COLUMN.atan2(x, x)
        assert seen == []


class TestModuliColumns:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(*[parts_wide()] * 8), min_size=1, max_size=12))
    def test_columns_equal_the_loop_over_k(self, rows):
        ks = np.linspace(0.3, 3.0, len(rows)).tolist()
        c = ScatteringCoefficients(*(np.array([complex(r[2 * i], r[2 * i + 1]) for r in rows])
                                     for i in range(4)))
        with np.errstate(over="ignore", invalid="ignore"):
            at = dict(zip(ks, zip(c.t_lr.tolist(), c.r_lr.tolist(), c.det.tolist())))
        expected = per_k(lambda k: oracle.moduli(*at[k]), ks)
        if isinstance(expected, tuple):
            assert_raises_like(lambda: _moduli(ks, c), expected)
            return
        got = _moduli(ks, c)
        for j, row in enumerate(expected):
            assert all(same_float(a, b) for a, b in zip(got[:, j], row)), j

    def test_many_moderate_values(self):
        # numpy's square rounds differently from Python's ** on ~0.1% of
        # such values, too few for the examples above to meet
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 2, 20000)) * 10.0 ** rng.uniform(-3, 3, size=(4, 2, 20000))
        c = ScatteringCoefficients(*(re + 1j * im for re, im in z))
        expected = [(abs(t) ** 2, abs(r) ** 2, abs(d))
                    for t, r, d in zip(c.t_lr.tolist(), c.r_lr.tolist(), c.det.tolist())]
        got = _moduli(np.linspace(0.3, 3.0, 20000).tolist(), c)
        assert np.array_equal(got.T.view(np.uint64), np.array(expected).view(np.uint64))


def written(tmp_path, parts) -> str:
    out = tmp_path / "out.json"
    _write(str(out), parts)
    return out.read_text()


class TestJsonWriter:
    NAME = "rél \"x\" 50%"

    def objects(self, rows):
        """Rows of dicts with the keys k, name, flag, residual, n as the
        writer's columns; name is the same in every row."""
        column = lambda key, dtype: np.array([r[key] for r in rows], dtype=dtype)
        return {"k": column("k", float), "name": self.NAME, "flag": column("flag", bool),
                "residual": column("residual", float), "n": column("n", int)}

    @staticmethod
    def nulled(rows):
        """The rows as the writer spells them: a NaN residual is null."""
        return [dict(r, residual=None if math.isnan(r["residual"]) else r["residual"]) for r in rows]

    def test_rows_and_blocks_match_json_dumps(self, tmp_path):
        values = [0.1, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.0, 12345678.9]
        rows = [{"k": v, "name": self.NAME, "flag": i % 2 == 0,
                 "residual": math.nan if i == 3 else v, "n": i} for i, v in enumerate(values)]
        doc = {"potential": {"kind": "scarf", "s": 1.3, "n": 2, "file": None},
               "empty": {}, "rows": self.nulled(rows), "no_rows": []}
        ours = dict(doc, rows=_json_table([self.objects(rows)], nan_is_null={"residual"}),
                    no_rows=_json_table([]))
        assert written(tmp_path, _json_document(ours)) == json.dumps(doc, indent=2) + "\n"

    def test_non_finite_values_in_a_later_chunk(self, tmp_path):
        # two objects per row; the first chunk is all finite, the last holds
        # NaN, +-inf and null
        size = CHUNK_ROWS + 300
        ks = np.linspace(0.2, 4.0, size)
        rows = [{"k": k, "name": self.NAME, "flag": i % 3 == 0, "residual": k / 7, "n": i}
                for i, k in enumerate(ks.tolist())]
        for i, v in zip(range(size - 4, size), (math.nan, math.inf, -math.inf, None)):
            rows[i] = dict(rows[i], k=-math.inf if v is None else v, residual=math.nan if v is None else v)
        doubled = dict(self.objects(rows), name="second")
        doc = {"potential": {"kind": "square-well"},
               "rows": [obj for r in self.nulled(rows) for obj in (r, dict(r, name="second"))]}
        ours = dict(doc, rows=_json_table([self.objects(rows), doubled], nan_is_null={"residual"}))
        assert written(tmp_path, _json_document(ours)) == json.dumps(doc, indent=2) + "\n"


class TestScarfAtHugeS:
    def test_moderately_large_s_keeps_unitarity(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--potential", "scarf", "--s", "1e5", "--lambda-re", "0.7",
                     "--eps", "0", "--kcount", "20", "--out", str(out)]) == 0
        defect = np.loadtxt(out, delimiter=",", skiprows=1)[:, -1]
        assert np.max(np.abs(defect)) < 1e-9

    def test_huge_s_is_a_solver_error(self, capsys):
        assert main(["scan", "--potential", "scarf", "--s", "1e17", "--lambda-re", "0.7",
                     "--kcount", "20", "--out", "/dev/null"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error at k = 0.2: log-gamma terms")


class TestCommandLine:
    def test_non_finite_grid_end_names_the_flag(self, capsys):
        assert main(["scan", "--kmax", "inf", "--kcount", "3"]) == 2
        assert "kmax must be finite" in capsys.readouterr().err
        assert main(["scan", "--kmin", "nan"]) == 2
        assert "kmin must be finite" in capsys.readouterr().err

    def test_parallel_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", "--parallel"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parallel": True}))
        assert main(["scan", "--config", str(cfg)]) == 2

    def test_no_scarf_command_loads_scipy_special(self, tmp_path):
        golden = __file__.rsplit("/", 1)[0] + "/data/golden_scan_scarf_hermitian.csv"
        out = tmp_path / "scarf.csv"
        scarf = ["--potential", "scarf", "--s", "1.3", "--lambda-re", "0.7", "--eps", "0",
                 "--out", str(out)]
        runs = [["scan", "--kcount", "5", "--out", str(tmp_path / "well.csv")],
                ["compare", *scarf, "--kmin", "0.5", "--kcount", "1"],
                ["symmetry", *scarf, "--kcount", "5"],
                ["scan", *scarf, "--kmin", "0.2", "--kmax", "4", "--kcount", "200"]]
        code = ("import json, sys; from ptscatter.cli import main; "
                "print(*(main(a) for a in json.loads(sys.argv[1])), 'scipy.special' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True)
        assert run.stdout.split() == ["0", "0", "0", "0", "False"], run.stderr
        assert out.read_bytes() == open(golden, "rb").read()
