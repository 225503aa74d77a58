"""Amplitude quotients, S from M as the closed forms take it, and the Wronskian check."""

import numpy as np
import oracle
import pytest

from ptscatter import (
    AsymptoticAmplitudes,
    IntegrationConfig,
    ScarfParams,
    SquareWellParams,
    coefficients_from_amplitudes,
    integrate_batch,
    numeric_coefficients,
    scarf_amplitudes,
    scarf_coefficients,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
    wronskian_residual,
)
from ptscatter import core
from ptscatter.errors import DegenerateSolutions, TransmissionPole
from conftest import random_smatrix, random_transfer


def smatrix(m) -> core.ScatteringCoefficients:
    """S of one transfer matrix m (a (2, 2) array) by ``core._smatrix``, the
    quotients every closed form of M takes."""
    with np.errstate(all="ignore"):
        return core._record(None, True, *core._smatrix(*(core._PyComplex.of(np.atleast_1d(z))
                                                         for z in np.ravel(m))))


def transfer(s) -> np.ndarray:
    """M of the coefficients s, the algebraic inverse of S from M."""
    return np.array([[1.0, -s.r_rl], [s.r_lr, s.t_lr * s.t_rl - s.r_rl * s.r_lr]]) / s.t_lr


FREE_AMPS = AsymptoticAmplitudes(a1p=1, b1p=0, a1m=1, b1m=0, a2p=0, b2p=1, a2m=0, b2m=1)


class TestCoefficientsFromAmplitudes:
    def test_free_pair_is_identity(self):
        c = coefficients_from_amplitudes(FREE_AMPS)
        assert c.t_lr == 1 and c.r_lr == 0 and c.t_rl == 1 and c.r_rl == 0

    def test_degenerate_pair_raises(self):
        amps = AsymptoticAmplitudes(a1p=1, b1p=2, a1m=1, b1m=0, a2p=2, b2p=4, a2m=2, b2m=0)
        with pytest.raises(DegenerateSolutions):
            coefficients_from_amplitudes(amps)

    def test_rescaling_invariance(self, rng):
        """Coefficients are quotients: rescaling each solution changes nothing."""
        for _ in range(50):
            vals = rng.normal(size=16).view(complex)
            amps = AsymptoticAmplitudes(*vals)
            try:
                base = coefficients_from_amplitudes(amps)
            except DegenerateSolutions:
                continue
            c1 = complex(*rng.normal(size=2)) + 1.5
            c2 = complex(*rng.normal(size=2)) + 1.5
            scaled = coefficients_from_amplitudes(AsymptoticAmplitudes(*vals[:4] * c1, *vals[4:] * c2))
            for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
                assert abs(getattr(base, name) - getattr(scaled, name)) < 1e-12 * max(
                    1.0, abs(getattr(base, name)))

    def test_square_well_amplitudes_match_catalog(self):
        """Numeric-oracle amplitudes reproduce the closed-form coefficients."""
        p = SquareWellParams(1.0, 0.5, 1.0)
        amps = integrate_batch(square_well_potential(p), [1.0], IntegrationConfig(step=1e-3))
        got = coefficients_from_amplitudes(amps)
        want = square_well_coefficients(p, 1.0)
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert abs(getattr(got, name)[0] - getattr(want, name)) < 1e-6

    def test_scarf_amplitudes_match_closed_form(self):
        p = ScarfParams(s=1.3, lam=0.7, eps=0.0)
        k = 0.9
        got = coefficients_from_amplitudes(scarf_amplitudes(p, k))
        want = scarf_coefficients(p, k)
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-10


class TestSMatrixTransferConversion:
    def test_identity_transfer_gives_identity_s(self):
        s = smatrix(np.eye(2))
        assert s.t_lr == 1 and s.r_lr == 0 and s.r_rl == 0 and s.t_rl == 1

    def test_identity_s_gives_identity_transfer(self):
        m = transfer(smatrix(np.eye(2)))
        assert np.array_equal(m, np.eye(2))

    def test_square_well_equal_transmissions(self):
        p = SquareWellParams(1.0, 0.5, 1.0)
        m = square_well_transfer(p, 1.0)
        s = square_well_coefficients(p, 1.0)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        assert abs(s.t_lr - s.t_rl) < 1e-14

    def test_round_trip_m_to_s_to_m(self, rng):
        for _ in range(100):
            m = random_transfer(rng)
            back = transfer(smatrix(m))
            assert np.max(np.abs(back - m)) < 1e-14 * np.max(np.abs(m))

    def test_round_trip_s_to_m_to_s(self, rng):
        for _ in range(100):
            s = random_smatrix(rng)
            back = smatrix(transfer(s))
            assert np.max(np.abs(back.as_array() - s.as_array())) < 1e-13 * np.max(
                np.abs(s.as_array()))

    def test_reflectionless_scarf_gives_diagonal_transfer(self):
        c = scarf_coefficients(ScarfParams(s=2, lam=1j), 1.0)
        m = transfer(c)
        assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12
        assert abs(m[0, 0] - 1.0 / c.t_lr) < 1e-12

    def test_transmission_pole_raises(self):
        with pytest.raises(TransmissionPole):
            smatrix(np.array([[0.0, 1.0], [1.0, 1.0]]))


class TestShiftCompose:
    def test_shifted_well_matches_numeric_oracle(self):
        """The well's M displaced to x0 = 2 by the edge phases is the M of the
        integrated displaced well."""
        p = SquareWellParams(1.0, 0.5, 1.0)
        shifted = oracle.sandwich(square_well_transfer(p, 1.0), 1.0, 2.0, 2.0)
        numeric = transfer(numeric_coefficients(square_well_potential(p, x0=2.0), 1.0,
                                                IntegrationConfig(step=1e-3)))
        assert np.max(np.abs(numeric - shifted)) < 1e-6


class TestWronskian:
    def test_free_amplitudes(self):
        assert wronskian_residual(FREE_AMPS, 1.0) == 0.0

    def test_square_well_any_parameters(self, rng):
        for _ in range(20):
            p = SquareWellParams(rng.uniform(0, 5), rng.uniform(-3, 3), rng.uniform(0.1, 3))
            k = rng.uniform(0.1, 5)
            amps = integrate_batch(square_well_potential(p), [k], IntegrationConfig(step=2e-3))
            assert wronskian_residual(amps, k) < 1e-10

    def test_two_wave_numbers_give_a_column(self):
        """Over a grid of k the residual is a column: at each k the float that
        the amplitudes of that k alone give."""
        ks = [1.0, 2.0]
        amps = integrate_batch(square_well_potential(SquareWellParams(1.0, 0.5, 1.0)), ks)
        got = wronskian_residual(amps, ks)
        assert got.shape == (2,) and np.all(got < 1e-10)
        for i, k in enumerate(ks):
            one = AsymptoticAmplitudes(*(np.asarray(z)[i:i + 1] for z in vars(amps).values()))
            assert type(wronskian_residual(one, k)) is float
            assert wronskian_residual(one, k) == got[i]

    def test_local_catalog_amplitude_sets(self):
        """Every local amplitude set this repo produces conserves the Wronskian."""
        from ptscatter import LatticeParams, ScarfParams, lattice_potential, scarf_potential

        cfg = IntegrationConfig(step=2e-3)
        k = 1.1
        sources = [
            square_well_potential(SquareWellParams(1.0, 0.5, 1.0)),
            lattice_potential(LatticeParams(SquareWellParams(1.0, 0.3, 0.5), a=0.5, n=3)),
            scarf_potential(ScarfParams(1.3, 0.7j), cutoff=20.0),
        ]
        for pot in sources:
            amps = integrate_batch(pot, [k], cfg)
            assert wronskian_residual(amps, k) < 1e-8
        assert wronskian_residual(scarf_amplitudes(ScarfParams(1.3, 0.7), k), k) < 1e-10

    def test_asymmetric_nonlocal_kernel_breaks_constancy(self):
        """T_rl != T_lr for the asymmetric kernel: the residual is strictly positive."""
        from ptscatter import SeparableKernel, nonlocal_coefficients

        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        c = nonlocal_coefficients(kernel, 1.0)
        residual = abs(c.t_rl - c.t_lr) / max(abs(c.t_rl), abs(c.t_lr))
        assert residual > 1e-3
