"""Analytic catalog: square well, lattice, hyperbolic Scarf, centrifugal."""

import cmath
import contextlib
import io
import math
import sys

import numpy as np
import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptscatter import (
    CentrifugalParams,
    IntegrationConfig,
    LatticeParams,
    ScarfParams,
    SquareWellParams,
    centrifugal_amplitudes,
    centrifugal_coefficients,
    centrifugal_potential,
    centrifugal_pt_phase,
    coefficients_from_amplitudes,
    lattice_potential,
    multi_well_coefficients,
    numeric_coefficients,
    scarf_amplitudes,
    scarf_coefficients,
    scarf_potential,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
)
from ptscatter import core
from ptscatter.cli import main
from ptscatter.errors import GammaPole, TransferOverflow
from ptscatter.potentials import CHUNK_ROWS, _square_well_elements, lattice_rows, lattice_transfer


def _cell(p: LatticeParams, k) -> np.ndarray:
    """The cell matrix T at one k, rounded to complex."""
    return lattice_transfer(p, [k])[0][0].astype(complex)


def _lattice_m(p: LatticeParams, k) -> np.ndarray:
    """The lattice's M at one k: the package's T^n sandwiched by the edge phases,
    conj(D(u1)) T^n D(u1 + n*period), rounded to complex."""
    power = next(lattice_transfer(p, [k])[1])[1][0, 0]
    return oracle.sandwich(power, np.longdouble(k), p.u1, p.u1 + p.n * p.period).astype(complex)


def _log10_max_power(p: LatticeParams, k) -> float:
    """log10 max|(T^n)_ij| from a product rescaled at every step."""
    t, m, log_scale = _cell(p, k), np.eye(2, dtype=complex), 0.0
    for _ in range(p.n):
        m = t @ m
        s = float(np.max(np.abs(m)))
        m, log_scale = m / s, log_scale + math.log10(s)
    return log_scale


class TestSquareWell:
    def test_free_particle_is_identity(self):
        m = square_well_transfer(SquareWellParams(0.0, 0.0, 1.0), 1.0)
        assert np.max(np.abs(m - np.eye(2))) < 1e-14

    def test_interior_wavenumbers_are_conjugate(self, rng):
        """The halves' interior wave numbers sqrt(E + v0 -+ i v1) are conjugate:
        v1 -> -v1 swaps them and keeps the diagonal of M.  At v1 = 0 both are
        one real number, and M_LL = conj(M_RR), M_LR = conj(M_RL)."""
        for _ in range(20):
            v0, v1, b = rng.uniform(0, 5), rng.uniform(-3, 3), rng.uniform(0.1, 3)
            k = rng.uniform(0.1, 5)
            m = square_well_transfer(SquareWellParams(v0, v1, b), k)
            swapped = square_well_transfer(SquareWellParams(v0, -v1, b), k)
            assert np.max(np.abs(np.diag(m) - np.diag(swapped))) < 1e-14 * np.max(np.abs(m))
        m = square_well_transfer(SquareWellParams(1.0, 0.0, 1.0), 1.0)
        assert np.max(np.abs(m[::-1, ::-1] - m.conj())) < 1e-14 * np.max(np.abs(m))

    @pytest.mark.parametrize("p, k", [(SquareWellParams(0.0, 1e160, 1.0), 1.0),
                                      (SquareWellParams(1e160, 0.0, 1.0), 2.5),
                                      (SquareWellParams(0.0, 0.0, 1.0), 1e200)],
                             ids=["v1", "v0", "energy"])
    def test_interior_wavenumber_beyond_the_float_range_names_k(self, p, k):
        # alpha^4 = (E + v0)^2 + v1^2 exceeds the float range at every k
        for closed_form in (square_well_transfer, square_well_coefficients):
            with pytest.raises(TransferOverflow, match="float range") as info:
                closed_form(p, k)
            assert info.value.k == k

    def test_grid_stacks_the_per_k_matrices(self):
        p, ks = SquareWellParams(1.0, 0.5, 1.0), [0.5, 1.0, 2.0]
        m = square_well_transfer(p, ks)
        assert m.shape == (3, 2, 2) and square_well_transfer(p, 1.0).shape == (2, 2)
        assert all(np.array_equal(m[j], square_well_transfer(p, k)) for j, k in enumerate(ks))

    def test_transfer_beyond_the_float_range_names_k(self):
        with pytest.raises(TransferOverflow, match="float range") as info:
            square_well_transfer(SquareWellParams(0.0, 0.0, 1.0), [1.0, 1e200, 2.0])
        assert info.value.k == 1e200

    def test_det_is_one(self):
        m = square_well_transfer(SquareWellParams(1.0, 0.5, 1.0), 1.0)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_det_is_one_random(self, rng):
        """|det M - 1| is pure rounding noise: below eps * (matrix scale)^2.

        For draws deep in the strongly absorbing corner the elements reach
        cosh(2 alpha b sin phi) ~ 1e3, so the absolute residual is limited
        to ~1e-10 in double precision while the identity itself is exact;
        the acceptance module re-verifies it at 1e-12 in extended precision.
        """
        for _ in range(1000):
            p = SquareWellParams(rng.uniform(0, 5), rng.uniform(-3, 3), rng.uniform(0.1, 3))
            m = square_well_transfer(p, rng.uniform(0.1, 5))
            scale = max(1.0, float(np.max(np.abs(m))))
            assert abs(np.linalg.det(m) - 1.0) < 1e-13 * scale * scale

    def test_closed_form_matches_interface_matching(self, rng):
        """The transcribed trig/hyperbolic forms against the continuity systems."""
        for _ in range(200):
            p = SquareWellParams(rng.uniform(0, 5), rng.uniform(-3, 3), rng.uniform(0.1, 3))
            k = rng.uniform(0.1, 5)
            a = square_well_transfer(p, k)
            b = oracle.square_well_transfer_interfaces(p, k)
            assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_matches_numeric_oracle(self):
        p = SquareWellParams(1.0, 0.5, 1.0)
        k = 1.0
        want = square_well_transfer(p, k)
        c = numeric_coefficients(square_well_potential(p), k, IntegrationConfig(step=1e-3))
        got = np.array([[1.0, -c.r_rl], [c.r_lr, c.t_lr * c.t_rl - c.r_rl * c.r_lr]]) / c.t_lr
        assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(want))

    def test_matches_numeric_oracle_random_parameters(self, rng):
        """Closed forms against the integrator over random draws."""
        for _ in range(10):
            p = SquareWellParams(rng.uniform(0, 4), rng.uniform(-2, 2), rng.uniform(0.2, 2))
            k = rng.uniform(0.3, 4)
            want = square_well_coefficients(p, k)
            got = numeric_coefficients(square_well_potential(p), k,
                                       IntegrationConfig(step=1e-3))
            for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
                a, b = getattr(want, name), getattr(got, name)
                assert abs(a - b) < 1e-6 * max(abs(a), 1.0), (p, k, name)

    def test_imaginary_strength_exchange(self, rng):
        """R_rl(v1) = R_lr(-v1); the diagonal is invariant under the swap."""
        for _ in range(200):
            v0, v1 = rng.uniform(0, 5), rng.uniform(-3, 3)
            b, k = rng.uniform(0.1, 3), rng.uniform(0.1, 5)
            c_plus = square_well_coefficients(SquareWellParams(v0, v1, b), k)
            c_minus = square_well_coefficients(SquareWellParams(v0, -v1, b), k)
            scale = max(abs(c_plus.r_rl), abs(c_minus.r_lr), 1.0)
            assert abs(c_plus.r_rl - c_minus.r_lr) < 1e-12 * scale
            assert abs(c_plus.t_lr - c_minus.t_lr) < 1e-12 * max(abs(c_plus.t_lr), 1.0)

    def test_free_coefficients(self):
        c = square_well_coefficients(SquareWellParams(0.0, 0.0, 1.0), 1.0)
        assert abs(c.t_lr - 1.0) < 1e-14 and abs(c.r_lr) < 1e-14

    def test_hermitian_unitarity(self):
        c = square_well_coefficients(SquareWellParams(1.0, 0.0, 1.0), 1.0)
        assert abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0) < 1e-10

    def test_complex_well_equal_transmissions_and_phase(self):
        from ptscatter import phase_relation_residual

        c = square_well_coefficients(SquareWellParams(1.0, 0.5, 1.0), 1.0)
        assert abs(c.t_lr - c.t_rl) < 1e-14
        assert phase_relation_residual(c) < 1e-10

    @pytest.mark.parametrize("f, kv", [(core.COLUMN, np.linspace(0.2, 3.0, 7)),
                                       (core.EXTENDED, np.linspace(0.2, 3.0, 7).astype(np.longdouble))],
                             ids=["column", "extended"])
    def test_each_transcendental_evaluated_once(self, f, kv):
        """cos and sin of phi and c, cosh and sinh of s: one call per column."""
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append((name, *(np.asarray(a).tobytes() for a in args)))
                return fn(*args)
            return call

        names = ("cos", "sin", "cosh", "sinh", "atan2", "cexp")
        counting = type(f)(**{**vars(f), **{name: counted(name, getattr(f, name)) for name in names}})
        with np.errstate(all="ignore"):
            _square_well_elements(SquareWellParams(1.0, 0.5, 1.0), kv, counting)
        assert sorted(name for name, *_ in calls) == ["atan2", "cexp", "cexp", "cos", "cos",
                                                      "cosh", "sin", "sin", "sinh"]
        assert len(set(calls)) == len(calls)


class TestLattice:
    WELL = SquareWellParams(1.0, 0.3, 0.5)

    def test_tmatrix_continuous_in_gap(self):
        t1 = _cell(LatticeParams(self.WELL, a=1e-7, n=1), 1.2)
        t2 = _cell(LatticeParams(self.WELL, a=2e-7, n=1), 1.2)
        assert np.max(np.abs(t1 - t2)) < 1e-5

    def test_det_t_equals_det_m(self, rng):
        for _ in range(50):
            p = LatticeParams(SquareWellParams(rng.uniform(0, 3), rng.uniform(-2, 2),
                                               rng.uniform(0.2, 1.5)),
                              a=rng.uniform(0.1, 2), n=1)
            k = rng.uniform(0.2, 4)
            det_t = np.linalg.det(_cell(p, k))
            det_m = np.linalg.det(square_well_transfer(p.well, k))
            assert abs(det_t - det_m) < 1e-13

    def test_single_cell_recombination(self):
        """conj(D(u1)) T D(u1 + period) rebuilds the shifted single well."""
        p = LatticeParams(self.WELL, a=0.5, n=1)
        k = 1.2
        got = _lattice_m(p, k)
        centre = p.u1 + p.well.b
        want = oracle.sandwich(square_well_transfer(p.well, k), k, centre, centre)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_double_well_is_product_of_shifted_wells(self):
        p = LatticeParams(self.WELL, a=0.5, n=2)
        k = 1.2
        m = square_well_transfer(p.well, k)
        centre = p.well.b + p.a
        want = oracle.sandwich(m, k, -centre, -centre) @ oracle.sandwich(m, k, centre, centre)
        got = _lattice_m(p, k)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_eight_wells_match_assembled_numeric_profile(self):
        p = LatticeParams(self.WELL, a=0.5, n=8)
        k = 1.2
        t_analytic = multi_well_coefficients(p, k).t_lr
        c = numeric_coefficients(lattice_potential(p), k, IntegrationConfig(step=1e-3))
        assert abs(abs(c.t_lr) - abs(t_analytic)) < 1e-5 * abs(t_analytic)

    def test_overflow_flagged(self):
        strong = SquareWellParams(0.0, 40.0, 1.0)
        with pytest.raises(TransferOverflow):
            multi_well_coefficients(LatticeParams(strong, a=0.5, n=4096), 0.3)


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


MILD = st.builds(SquareWellParams, v0=_floats(0.0, 2.0), v1=_floats(-1.0, 1.0), b=_floats(0.3, 1.0))
STRONG = st.builds(SquareWellParams, v0=_floats(0.0, 2.0), v1=_floats(20.0, 40.0),
                   b=_floats(0.4, 1.0))
# wide cells whose hyperbolic terms overflow below some k: the cell is flagged there
HUGE = st.builds(SquareWellParams, v0=_floats(0.0, 2.0), v1=_floats(50.0, 300.0),
                 b=_floats(20.0, 100.0))


class TestLatticeColumns:
    """``lattice_transfer``'s chunks against the per-(n, k) repeated squaring,
    the per-n running product and a running product in mpmath."""

    @settings(max_examples=60, deadline=None)
    @given(well=st.one_of(MILD, STRONG, HUGE), a=_floats(0.2, 1.0), n=st.integers(1, 4096),
           ks=st.lists(_floats(0.1, 12.0), min_size=1, max_size=4))
    def test_single_n_bit_identical_to_per_k_product(self, well, a, n, ks):
        """One n's chunk holds the per-k repeated squaring's T^n bit for bit,
        or both are flagged."""
        p = LatticeParams(well, a=a, n=n)
        want = []
        for k in ks:
            try:
                want.append(oracle.lattice_power(p, k))
            except (TransferOverflow, OverflowError):    # a product, or the cell itself
                want.append(None)
        chunks = list(lattice_transfer(p, ks)[1])
        assert [ns.tolist() for ns, *_ in chunks] == [[n]]
        _, power, overflow, _ = chunks[0]
        for i, w in enumerate(want):
            assert overflow[0, i] == (w is None)
            if w is not None:
                assert np.array_equal(power[0, i], w)

    @settings(max_examples=25, deadline=None)
    @given(well=st.one_of(MILD, STRONG, HUGE), a=_floats(0.2, 1.0), n=st.integers(1, 4096),
           count=st.integers(0, 1500), ks=st.lists(_floats(0.1, 12.0), min_size=1, max_size=3))
    @example(well=SquareWellParams(0.5, 0.5, 0.5), a=0.5, n=1, count=4200, ks=[1.0])
    @example(well=SquareWellParams(1.0, 100.0, 30.0), a=0.5, n=1, count=4200, ks=[1.0])
    @example(well=SquareWellParams(1.0, 30.0, 0.5), a=0.5, n=3, count=1500, ks=[0.3, 1.0, 2.5])
    @example(well=SquareWellParams(1.0, 60.0, 25.0), a=0.5, n=2, count=1500, ks=[0.5, 2.0, 9.0])
    @example(well=SquareWellParams(0.0, 300.0, 100.0), a=0.5, n=4096, count=10, ks=[0.1, 12.0])
    def test_chunks_bit_identical_to_per_n_sweep(self, well, a, n, count, ks):
        """Chunks of at most CHUNK_ROWS rows hold, bit for bit, the powers,
        their moduli and the sticky flags of one T @ T^{n-1} per n, also
        across chunks, from an --n above 1, for one k, and where the flags
        switch on inside a chunk."""
        p = LatticeParams(well, a=a, n=n)
        want = oracle.lattice_sweep(p, ks, n + count)
        for ns, power, overflow, moduli in lattice_transfer(p, ks, n + count)[1]:
            assert len(ns) * len(ks) <= CHUNK_ROWS
            assert moduli.dtype == np.longdouble
            for j, got in enumerate(ns):
                n_want, power_want, flags = next(want)
                assert got == n_want
                assert np.array_equal(oracle.extended_bits(power[j]), oracle.extended_bits(power_want))
                with np.errstate(over="ignore"):
                    assert np.array_equal(moduli[j], np.abs(power_want), equal_nan=True)
                assert np.array_equal(overflow[j], flags)
        assert next(want, None) is None

    @settings(max_examples=12, deadline=None)
    @given(well=MILD, a=_floats(0.2, 1.0), ks=st.lists(_floats(0.1, 4.0), min_size=1, max_size=3))
    @example(well=SquareWellParams(1.875, 0.0, 0.453125), a=1.0, ks=[0.125])
    @example(well=SquareWellParams(1.875, 0.0, 0.453125), a=1.0, ks=[0.14985])
    def test_sweep_agrees_with_per_n_powers(self, well, a, ks):
        """Each T^n of the sweep against the running product of the same cell
        in 40-digit arithmetic.  Within ~3e-4 of a band edge (|tr T|/2 near
        1, the second example) the error grows like n^2 eps |T|^2: a product
        in doubles reached 1.1e-10 size^2 there, the extended one 1.7e-13."""
        cells, chunks = lattice_transfer(LatticeParams(well, a=a, n=1), ks, 400)
        want = oracle.lattice_sweep_mp(cells, 400)
        for ns, power, overflow, _ in chunks:
            for j, n in enumerate(ns):
                for i in range(len(ks)):
                    size = max(float(np.max(np.abs(want[n - 1, i]))), 1.0)
                    if overflow[j, i]:
                        assert size > 1e299
                        continue
                    # error < 1e-10 max(|want|, 1)^2, without squaring a size above 1e154
                    assert np.max(np.abs(power[j, i] - want[n - 1, i])) / size < 1e-10 * size

    @settings(max_examples=25, deadline=None)
    @given(well=st.one_of(MILD, STRONG), a=_floats(0.2, 1.0), n=st.integers(1, 400),
           count=st.integers(0, 400), kmin=_floats(0.1, 6.0), kmax=_floats(0.1, 12.0),
           kcount=st.integers(1, 3))
    @example(well=SquareWellParams(1.0, 13.078802475944913, 1.0), a=0.5, n=1, count=2, kmin=4.0,
             kmax=4.164331013127829, kcount=2)
    def test_lattice_rows_equal_the_sandwich_coefficients(self, well, a, n, count, kmin, kmax, kcount):
        """Each unflagged ``lattice`` row's moduli, taken from |T^n_ij|, are
        within 2^-52 relative (the subnormal spacing below the normal range)
        of those of ``core._smatrix`` on the per-n sandwich conj(D(u1)) T^n
        D(u1 + n*period), and |t_rl| is |t_lr| bit for bit (det M = 1); the
        rows flagged are the oracle's, and a pole (the example: a spectral
        singularity at n = 1) is the solver error at its row's k."""
        assume(kcount == 1 or kmax > kmin)
        n_max = min(n + count, 400)
        argv = ["lattice", f"--v0={well.v0!r}", f"--v1={well.v1!r}", f"--b={well.b!r}", f"--a={a!r}",
                f"--n={n}", f"--n-max={n_max}", f"--kmin={kmin!r}", f"--kmax={kmax!r}",
                f"--kcount={kcount}", "--out", "-"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        ks = [kmin] if kcount == 1 else np.linspace(kmin, kmax, kcount).tolist()
        kv, p = np.asarray(ks).astype(np.longdouble), LatticeParams(well, a=a, n=n)
        sandwiches, flags = [], []
        for m, power, overflow in oracle.lattice_sweep(p, ks, n_max):
            with np.errstate(over="ignore", invalid="ignore"):
                sandwiches.append(oracle.edge_phases(kv, -p.u1)[:, :, None] * power
                                  * oracle.edge_phases(kv, p.u1 + m * p.period)[:, None, :])
            flags.append(overflow)
        m, flags = np.concatenate(sandwiches), np.concatenate(flags)
        with np.errstate(all="ignore"):
            (t_lr, r_lr, _, r_rl), (pole, _) = core._smatrix(*(m[:, i // 2, i % 2] for i in range(4)))
        if np.any(pole[0] & ~flags):
            i = np.flatnonzero(pole[0] & ~flags)[0]
            assert code == 3
            assert err.getvalue() == f"solver error at k = {ks[i % len(ks)]}: {pole[1](i)}\n"
            return
        assert code == 0, err.getvalue()
        got = np.array([line.split(",") for line in out.getvalue().splitlines()[1:]], dtype=float)
        assert np.array_equal(got[:, 0], np.repeat(np.arange(n, n_max + 1), len(ks)))
        assert np.array_equal(got[:, 1], np.tile(ks, n_max - n + 1))
        assert np.array_equal(got[:, 8] == 1, flags)
        assert np.all(np.isnan(got[flags, 2:8]))
        with np.errstate(all="ignore"):
            want = np.array([abs(z) for z in (t_lr, r_lr, t_lr, r_rl)], dtype=float).T[~flags]
        assert np.all(np.abs(got[~flags, 2:6] - want) <= 2.0 ** -52 * np.maximum(want, sys.float_info.min))
        assert np.array_equal(got[~flags, 4], got[~flags, 2])

    @pytest.mark.parametrize("v1", [0.3, 30.0])
    def test_lattice_rows_t_rl_is_t_lr(self, v1):
        """det M = 1, so every unflagged row's |t_rl| is its |t_lr| bit for bit,
        also where the printed det M carries the cell's rounding (on a
        lattice-mild-like sweep, 9,600 of its 12,000 rows)."""
        ks = np.linspace(0.4, 3.2, 30)
        _, values, overflow = lattice_rows(LatticeParams(SquareWellParams(1.0, v1, 0.5), a=0.5, n=1), ks, 400)
        assert len(overflow) == 12000 and (v1 > 1 or not np.any(overflow))
        assert np.array_equal(values[2, ~overflow], values[0, ~overflow])
        assert np.count_nonzero((values[4] != 1) | (values[5] != 0)) > 1000

    @settings(max_examples=8, deadline=None)
    @given(well=STRONG, a=_floats(0.2, 1.0), ks=st.lists(_floats(0.3, 3.0), min_size=1, max_size=2))
    def test_sweep_overflow_flags_agree_off_the_threshold(self, well, a, ks):
        _, chunks = lattice_transfer(LatticeParams(well, a=a, n=1), ks, 400)
        for ns, _, overflow, _ in chunks:
            for n, row in zip(ns.tolist(), overflow):
                p = LatticeParams(well, a=a, n=n)
                for i, k in enumerate(ks):
                    try:
                        oracle.multi_well_transfer(p, k)
                        flagged = False
                    except TransferOverflow:
                        flagged = True
                    if row[i] != flagged:
                        assert abs(_log10_max_power(p, k) - 300) < 20


class TestScarf:
    def test_cross_relations(self):
        """a_{1-}/b_{1+} and partners carry pure exponential factors."""
        s, lam, k = 1.3, 0.7, 0.9
        a = scarf_amplitudes(ScarfParams(s, lam), k)
        pi = math.pi
        checks = [
            (a.a1m, cmath.exp(pi * (lam + k + 1j * s)) * a.b1p),
            (a.b1m, cmath.exp(pi * (lam - k + 1j * s)) * a.a1p),
            (a.a2m, cmath.exp(-pi * (lam - k + 1j * (s + 1))) * a.b2p),
            (a.b2m, cmath.exp(-pi * (lam + k + 1j * (s + 1))) * a.a2p),
        ]
        for got, want in checks:
            assert abs(got - want) < 1e-11 * max(abs(want), 1.0)

    def test_shift_scales_amplitudes(self):
        k = 0.9
        base = scarf_amplitudes(ScarfParams(1.3, 0.7, eps=0.0), k)
        shifted = scarf_amplitudes(ScarfParams(1.3, 0.7, eps=0.25), k)
        assert abs(shifted.a1p / base.a1p - math.exp(-k * 0.25)) < 1e-14
        assert abs(shifted.b2m / base.b2m - math.exp(k * 0.25)) < 1e-14

    def test_amplitude_route_matches_closed_form(self):
        p = ScarfParams(1.3, 0.7)
        k = 0.9
        got = coefficients_from_amplitudes(scarf_amplitudes(p, k))
        want = scarf_coefficients(p, k)
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-10

    def test_zero_strengths_are_free(self):
        c = scarf_coefficients(ScarfParams(0.0, 0.0), 1.3)
        assert abs(c.t_lr - 1.0) < 1e-14 and abs(c.r_lr) < 1e-14

    def test_hermitian_unitarity_grid(self):
        for s in (0.4, 1.3, 2.6):
            for lam in (-1.5, 0.7):
                for k in np.linspace(0.2, 4.0, 9):
                    c = scarf_coefficients(ScarfParams(s, lam), float(k))
                    assert abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0) < 1e-10

    def test_reflectionless_integer_strengths(self):
        """s = n, lam = i*m: R = 0, |T| = 1 and T equals the finite product."""
        n, m, k = 2, 1, 1.0
        c = scarf_coefficients(ScarfParams(float(n), 1j * m), k)
        prod = (-1.0) ** (n + m)
        for j in range(1, n + 1):
            prod *= (j - 1j * k) / (j + 1j * k)
        for j in range(1, m + 1):
            prod *= (j - 0.5 - 1j * k) / (j - 0.5 + 1j * k)
        assert abs(c.r_lr) < 1e-12 and abs(c.r_rl) < 1e-12
        assert abs(abs(c.t_lr) - 1.0) < 1e-12
        assert abs(c.t_lr - prod) < 1e-11

    def test_complex_shift_laws(self):
        s, lam, k, eps = 1.0, 0.5j, 1.0, 0.3
        base = scarf_coefficients(ScarfParams(s, lam, 0.0), k)
        shifted = scarf_coefficients(ScarfParams(s, lam, eps), k)
        swapped = scarf_coefficients(ScarfParams(s, -lam, eps), k)
        assert abs(shifted.t_lr - base.t_lr) < 1e-14
        assert abs(shifted.r_lr - base.r_lr * math.exp(2 * k * eps)) < 1e-12
        assert abs(shifted.t_rl - shifted.t_lr) < 1e-14
        assert abs(shifted.r_rl - swapped.r_lr * math.exp(-4 * k * eps)) < 1e-10

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_potential_matches_numeric_oracle(self, eps):
        """Tail-matched profile (shifted or not) against direct integration."""
        p = ScarfParams(1.2, 0.5j, eps=eps)
        k = 1.0
        want = scarf_coefficients(p, k)
        got = numeric_coefficients(scarf_potential(p, cutoff=20.0), k,
                                   IntegrationConfig(step=2e-3))
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            a, b = getattr(want, name), getattr(got, name)
            assert abs(a - b) < 1e-5 * max(abs(a), 1.0)

    def test_amplitude_pole_raises(self):
        """Integer s with half-integer lam/i puts a gamma pole in solution 1."""
        with pytest.raises(GammaPole):
            scarf_amplitudes(ScarfParams(1.0, 0.5j), 1.0)
        # the coefficient quotients stay finite there
        c = scarf_coefficients(ScarfParams(1.0, 0.5j), 1.0)
        assert np.isfinite(abs(c.t_lr))

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            ScarfParams(1.0, 0.5j, eps=1.6)


class TestCentrifugal:
    def test_zero_strength(self):
        p = CentrifugalParams(0.0, 0.1)
        assert abs(p.nu - 0.5) < 1e-15
        c = centrifugal_coefficients(p, 1.0)
        assert c.t_lr == 1.0 and c.r_lr == 0.0
        assert abs(centrifugal_pt_phase(p) + 1.0) < 1e-15  # e^{i pi} = -1

    def test_reflectionless_for_any_strength(self):
        for strength in (0.5, 2.0, 7.0):
            c = centrifugal_coefficients(CentrifugalParams(strength, 0.1), 0.7)
            assert c.t_lr == 1.0 and c.t_rl == 1.0 and c.r_lr == 0.0 and c.r_rl == 0.0

    def test_amplitudes(self):
        p = CentrifugalParams(2.0, 0.1)
        k = 1.0
        a = centrifugal_amplitudes(p, k)
        want = cmath.exp(-k * p.eps - 1j * math.pi * p.nu / 2 - 1j * math.pi / 4)
        assert abs(a.a1p - want) < 1e-14 and abs(a.a1m - want) < 1e-14
        assert a.b1p == 0.0 and a.b1m == 0.0 and a.a2p == 0.0 and a.a2m == 0.0
        # quotient route reproduces T = 1, R = 0
        c = coefficients_from_amplitudes(a)
        assert abs(c.t_lr - 1.0) < 1e-14 and abs(c.r_lr) < 1e-14
        # eigenstate phase from the amplitudes
        assert abs(a.a1p.conjugate() / a.a1m - centrifugal_pt_phase(p)) < 1e-14

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            CentrifugalParams(2.0, 0.0)

    def test_negative_quarter_strength_allowed(self):
        # strength < -1/4 gives imaginary nu, still inside Re(nu) > -1/2
        p = CentrifugalParams(-1.0, 0.1)
        assert p.nu.real == 0.0 and p.nu.imag > 0

    def test_truncated_profile_nearly_reflectionless(self):
        """|R| is limited by the discarded 1/x^2 tail; |T| stays unimodular.

        Truncation shifts only the transmission phase (by ~tail/2k), so
        arg T is not asserted.
        """
        p = CentrifugalParams(2.0, 0.1)
        c = numeric_coefficients(centrifugal_potential(p, cutoff=50.0), 1.0,
                                 IntegrationConfig(step=2e-3))
        assert abs(c.r_lr) < 1e-3 and abs(c.r_rl) < 1e-3
        assert abs(abs(c.t_lr) - 1.0) < 1e-6
