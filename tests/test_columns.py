"""Closed forms, relation checks and writers over a whole k grid.

A grid call must give, bit for bit, what a loop over k gives (every cell,
signed zeros included), and raise what that loop raises first: the same
error class and message, at the lowest failing k.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import separable
from ptscatter.cli import _json_scalar, _json_text, _Rows, main
from ptscatter.core import SCALAR, ScatteringCoefficients, _PyComplex
from ptscatter.errors import NumeratorPole, ResonancePole, ScatteringError, TransmissionPole
from ptscatter.potentials import (
    CentrifugalParams,
    ScarfParams,
    SquareWellParams,
    centrifugal_coefficients,
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


def per_k(fn, ks):
    """Records of a loop over k, or (error, k) of its first failure."""
    records = []
    for k in ks:
        try:
            records.append(fn(float(k)))
        except (ScatteringError, ArithmeticError) as exc:
            return exc, float(k)
    return records


def assert_grid_matches(fn, ks):
    expected = per_k(fn, ks)
    if isinstance(expected, tuple):
        exc, k = expected
        with pytest.raises(type(exc)) as info:
            fn(np.asarray(ks))
        assert str(info.value) == str(exc) and info.value.k == k
        return
    grid = fn(np.asarray(ks))
    for name in FIELDS:
        assert np.array_equal(bits(getattr(grid, name)),
                              bits([getattr(c, name) for c in expected])), name
    assert np.array_equal(bits(grid.det), bits([c.det for c in expected]))


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def grids(lo, hi):
    return st.lists(finite(lo, hi), min_size=1, max_size=25).map(sorted)


SETTINGS = settings(max_examples=150, deadline=None)


class TestGridEqualsLoopOverK:
    @SETTINGS
    @given(finite(0, 50), finite(-50, 50), finite(0.01, 10), grids(1e-6, 300))
    def test_square_well(self, v0, v1, b, ks):
        p = SquareWellParams(v0, v1, b)
        assert_grid_matches(lambda k: square_well_coefficients(p, k), ks)

    @SETTINGS
    @given(st.one_of(finite(-1.99, 1.99), finite(-1e6, 1e6)), finite(-10, 10), finite(-10, 10),
           finite(-1.5, 1.5), grids(1e-14, 300))
    def test_scarf(self, s, lam_re, lam_im, eps, ks):
        p = ScarfParams(s=s, lam=complex(lam_re, lam_im), eps=eps)
        assert_grid_matches(lambda k: scarf_coefficients(p, k), ks)

    @SETTINGS
    @given(finite(0.01, 10), finite(0.01, 10), finite(-10, 10), finite(-10, 10), finite(-50, 50),
           grids(1e-6, 1e4))
    def test_yamaguchi(self, gamma, delta, alpha, beta, lam, ks):
        kernel = separable.SeparableKernel.yamaguchi(gamma=gamma, delta=delta, alpha=alpha,
                                                     beta=beta, lam=lam)
        assert_grid_matches(lambda k: separable.nonlocal_coefficients(kernel, k), ks)

    @SETTINGS
    @given(finite(-0.2, 5), finite(0.01, 1), grids(1e-6, 300))
    def test_centrifugal(self, strength, eps, ks):
        p = CentrifugalParams(alpha_strength=strength, eps=eps)
        assert_grid_matches(lambda k: centrifugal_coefficients(p, k), ks)

    def test_scalar_k_gives_python_complex(self):
        c = square_well_coefficients(SquareWellParams(1.0, 0.5, 1.0), 1.3)
        assert all(type(getattr(c, name)) is complex for name in FIELDS)


class TestErrorsAtTheLowestFailingK:
    def test_spectral_singularity_raises_transmission_pole(self):
        # |M_RR| ~ 3e-16 at this (v1, k), located by root finding
        p = SquareWellParams(1.0, 13.078802475944913, 1.0)
        k_pole = 4.164331013127829
        with pytest.raises(TransmissionPole):
            square_well_coefficients(p, k_pole)
        assert_grid_matches(lambda k: square_well_coefficients(p, k), [1.0, k_pole, 5.0])

    def test_numerator_pole_below_an_overflow(self):
        # integer s puts -s - ik on a pole at k ~ 0; cosh(pi k) overflows at 230
        p = ScarfParams(s=1.0, lam=0.7)
        with pytest.raises(NumeratorPole) as info:
            scarf_coefficients(p, np.array([1e-13, 1.0, 230.0]))
        assert info.value.k == 1e-13
        assert_grid_matches(lambda k: scarf_coefficients(p, k), [1e-13, 1.0, 230.0])

    def test_overflow_below_a_cancellation(self):
        # the later stage (cosh) fails at the lower k, the earlier (log-gamma) at the higher
        p = ScarfParams(s=1.3, lam=0.7)
        with pytest.raises(OverflowError) as info:
            scarf_coefficients(p, np.array([0.5, 230.0, 1e7]))
        assert info.value.k == 230.0
        assert_grid_matches(lambda k: scarf_coefficients(p, k), [0.5, 230.0, 1e7])

    def test_lowest_failing_k_is_named_by_the_cli(self, capsys):
        assert main(["scan", "--potential", "scarf", "--s", "1", "--kmin", "1e-13",
                     "--kmax", "230", "--kcount", "2", "--out", "/dev/null"]) == 3
        assert capsys.readouterr().err.startswith("solver error at k = 1e-13: numerator gamma pole")
        assert main(["scan", "--potential", "scarf", "--kmin", "230", "--kmax", "1e7",
                     "--kcount", "2", "--out", "/dev/null"]) == 3
        assert capsys.readouterr().err == "solver error at k = 230.0: math range error\n"

    def test_denominator_gamma_pole_gives_zero(self):
        p = ScarfParams(s=0.3, lam=0.7)
        c = scarf_coefficients(p, np.array([1e-13, 1.0]))
        assert c.t_lr[0] == 0
        assert_grid_matches(lambda k: scarf_coefficients(p, k), [1e-13, 1.0])

    def test_resonance_pole(self, monkeypatch):
        kernel = separable.SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7,
                                                     lam=1.5)
        k_pole, original = 1.25, separable._yamaguchi_j

        def j_with_pole(alpha, beta, gamma, delta, k, f=SCALAR):
            # N+ = 1/lam at k_pole, so that 1 - lam*N+ vanishes there
            j, pole = original(alpha, beta, gamma, delta, k, f), 2j * k_pole / kernel.lam
            if f is SCALAR:
                return pole if k == k_pole else j
            j = _PyComplex.of(j)
            at = np.asarray(k) == k_pole
            return _PyComplex(np.where(at, pole.real, j.re), np.where(at, pole.imag, j.im))

        monkeypatch.setattr(separable, "_yamaguchi_j", j_with_pole)
        with pytest.raises(ResonancePole):
            separable.nonlocal_coefficients(kernel, k_pole)
        assert_grid_matches(lambda k: separable.nonlocal_coefficients(kernel, k),
                            [0.5, k_pole, 2.0])


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
        relations = per_k(lambda j: check_s_relations(per[int(j)], cls, local=local, k=ks[int(j)]),
                          range(len(per)))
        exact = per_k(lambda j: exact_asymptotic_pt_check(per[int(j)]), range(len(per)))
        for expected, call in ((relations, lambda: check_s_relations(grid, cls, local=local, k=ks)),
                               (exact, lambda: exact_asymptotic_pt_check(grid, k=ks))):
            if isinstance(expected, tuple):
                exc, j = expected
                with pytest.raises(type(exc)) as info:
                    call()
                assert str(info.value) == str(exc) and info.value.k == ks[int(j)]
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

    def test_underflowing_phase_names_its_k(self):
        # cmath.phase raises where the angle underflows, here at the second k
        t = np.array([1.0 + 0j, complex(2.0, 5e-324), complex(2.0, 5e-324)])
        s = ScatteringCoefficients(t, np.zeros(3, complex), t, np.zeros(3, complex))
        with pytest.raises(OverflowError, match="math range error") as info:
            exact_asymptotic_pt_check(s, k=np.array([1.0, 2.0, 3.0]))
        assert info.value.k == 2.0

    def test_modulus_overflow_names_its_k(self):
        big = complex(1.5e308, 1.5e308)
        s = ScatteringCoefficients(np.array([0.5 + 0j, 0.5, big]), np.zeros(3, complex),
                                   np.array([0.5 + 0j, big, big]), np.zeros(3, complex))
        with pytest.raises(OverflowError, match="absolute value too large") as info:
            check_s_relations(s, SymmetryClass(), local=True, k=np.array([1.0, 2.0, 3.0]))
        assert info.value.k == 2.0


class TestJsonWriter:
    def test_rows_and_blocks_match_json_dumps(self):
        values = [0.1, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.0, 12345678.9]
        rows = [{"k": v, "name": "rél \"x\" 50%", "flag": i % 2 == 0,
                 "residual": None if i == 3 else v, "n": i} for i, v in enumerate(values)]
        columns = {key: [_json_scalar(r[key]) for r in rows] for key in rows[0]}
        doc = {"potential": {"kind": "scarf", "s": 1.3, "n": 2, "file": None},
               "empty": {}, "rows": rows, "no_rows": []}
        ours = dict(doc, rows=_Rows(**columns), no_rows=_Rows(k=[]))
        assert _json_text(ours) == json.dumps(doc, indent=2)


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

    def test_scipy_special_loads_only_for_gamma_functions(self, tmp_path):
        golden = __file__.rsplit("/", 1)[0] + "/data/golden_scan_scarf_hermitian.csv"
        code = ("import sys; from ptscatter.cli import main; rc = main(sys.argv[1:]); "
                "print(rc, 'scipy.special' in sys.modules)")
        well = subprocess.run([sys.executable, "-c", code, "scan", "--kcount", "5",
                               "--out", str(tmp_path / "w.csv")], capture_output=True, text=True)
        assert well.stdout.split() == ["0", "False"]
        out = tmp_path / "scarf.csv"
        scarf = subprocess.run([sys.executable, "-c", code, "scan", "--potential", "scarf",
                                "--s", "1.3", "--lambda-re", "0.7", "--eps", "0", "--kmin", "0.2",
                                "--kmax", "4", "--kcount", "200", "--out", str(out)],
                               capture_output=True, text=True)
        assert scarf.stdout.split() == ["0", "True"]
        assert out.read_bytes() == open(golden, "rb").read()
