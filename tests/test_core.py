"""Amplitude quotients, S <-> M conversions, shifts and the Wronskian check."""

import numpy as np
import pytest

from ptscatter import (
    AsymptoticAmplitudes,
    IntegrationConfig,
    ScarfParams,
    SquareWellParams,
    TransferMatrix,
    WaveNumber,
    coefficients_from_amplitudes,
    compose_transfer,
    integrate_two_solutions,
    scarf_amplitudes,
    scarf_coefficients,
    shift_transfer,
    smatrix_from_transfer,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
    transfer_from_smatrix,
    wronskian_residual,
)
from ptscatter.errors import DegenerateSolutions, TransmissionPole, ZeroTransmission
from conftest import random_smatrix, random_transfer

FREE_AMPS = AsymptoticAmplitudes(a1p=1, b1p=0, a1m=1, b1m=0, a2p=0, b2p=1, a2m=0, b2m=1)


class TestWaveNumber:
    def test_energy(self):
        assert WaveNumber(2.0).energy == 4.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            WaveNumber(bad)


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
            scaled = coefficients_from_amplitudes(amps.rescaled(c1, c2))
            for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
                assert abs(getattr(base, name) - getattr(scaled, name)) < 1e-12 * max(
                    1.0, abs(getattr(base, name)))

    def test_square_well_amplitudes_match_catalog(self):
        """Numeric-oracle amplitudes reproduce the closed-form coefficients."""
        p = SquareWellParams(1.0, 0.5, 1.0)
        amps = integrate_two_solutions(square_well_potential(p), WaveNumber(1.0),
                                       IntegrationConfig(step=1e-3))
        got = coefficients_from_amplitudes(amps)
        want = square_well_coefficients(p, WaveNumber(1.0))
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-6

    def test_scarf_amplitudes_match_closed_form(self):
        p = ScarfParams(s=1.3, lam=0.7, eps=0.0)
        k = WaveNumber(0.9)
        got = coefficients_from_amplitudes(scarf_amplitudes(p, k))
        want = scarf_coefficients(p, k)
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-10


class TestSMatrixTransferConversion:
    def test_identity_transfer_gives_identity_s(self):
        s = smatrix_from_transfer(TransferMatrix.identity())
        assert s.t_lr == 1 and s.r_lr == 0 and s.r_rl == 0 and s.t_rl == 1

    def test_identity_s_gives_identity_transfer(self):
        s = smatrix_from_transfer(TransferMatrix.identity())
        m = transfer_from_smatrix(s)
        assert m.m_rr == 1 and m.m_rl == 0 and m.m_lr == 0 and m.m_ll == 1

    def test_square_well_equal_transmissions(self):
        m = square_well_transfer(SquareWellParams(1.0, 0.5, 1.0), 1.0)
        s = smatrix_from_transfer(m)
        assert abs(m.det - 1.0) < 1e-12
        assert abs(s.t_lr - s.t_rl) < 1e-14

    def test_round_trip_m_to_s_to_m(self, rng):
        for _ in range(100):
            m = random_transfer(rng)
            back = transfer_from_smatrix(smatrix_from_transfer(m))
            assert np.max(np.abs(back.as_array() - m.as_array())) < 1e-14 * np.max(
                np.abs(m.as_array()))

    def test_round_trip_s_to_m_to_s(self, rng):
        for _ in range(100):
            s = random_smatrix(rng)
            back = smatrix_from_transfer(transfer_from_smatrix(s))
            assert np.max(np.abs(back.as_array() - s.as_array())) < 1e-13 * np.max(
                np.abs(s.as_array()))

    def test_reflectionless_scarf_gives_diagonal_transfer(self):
        c = scarf_coefficients(ScarfParams(s=2, lam=1j), 1.0)
        m = transfer_from_smatrix(c)
        assert abs(m.m_rl) < 1e-12 and abs(m.m_lr) < 1e-12
        assert abs(m.m_rr - 1.0 / c.t_lr) < 1e-12

    def test_transmission_pole_raises(self):
        with pytest.raises(TransmissionPole):
            smatrix_from_transfer(TransferMatrix(m_rr=0.0, m_rl=1.0, m_lr=1.0, m_ll=1.0))

    def test_zero_transmission_raises(self):
        from ptscatter import ScatteringCoefficients

        with pytest.raises(ZeroTransmission):
            transfer_from_smatrix(ScatteringCoefficients(t_lr=0.0, r_rl=0.5, r_lr=0.5, t_rl=1.0))


class TestShiftCompose:
    def test_zero_shift_is_identity(self, rng):
        m = random_transfer(rng)
        assert shift_transfer(m, 0.0, 1.0).as_array() == pytest.approx(m.as_array())

    def test_shift_inverse(self, rng):
        for _ in range(20):
            m = random_transfer(rng)
            x0 = rng.uniform(-5, 5)
            back = shift_transfer(shift_transfer(m, x0, 1.3), -x0, 1.3)
            assert np.max(np.abs(back.as_array() - m.as_array())) < 1e-14 * np.max(
                np.abs(m.as_array()))

    def test_shifted_well_matches_numeric_oracle(self):
        p = SquareWellParams(1.0, 0.5, 1.0)
        k = WaveNumber(1.0)
        shifted = shift_transfer(square_well_transfer(p, k), 2.0, k)
        amps = integrate_two_solutions(square_well_potential(p, x0=2.0), k,
                                       IntegrationConfig(step=1e-3))
        numeric = transfer_from_smatrix(coefficients_from_amplitudes(amps))
        assert np.max(np.abs(numeric.as_array() - shifted.as_array())) < 1e-6

    def test_compose_with_identity(self, rng):
        m = random_transfer(rng)
        out = compose_transfer(m, TransferMatrix.identity())
        assert out.as_array() == pytest.approx(m.as_array())

    def test_det_multiplicative(self, rng):
        for _ in range(50):
            m1, m2 = random_transfer(rng), random_transfer(rng)
            got = compose_transfer(m1, m2).det
            assert abs(got - m1.det * m2.det) < 1e-13 * max(1.0, abs(m1.det * m2.det))


class TestWronskian:
    def test_free_amplitudes(self):
        assert wronskian_residual(FREE_AMPS, 1.0) == 0.0

    def test_square_well_any_parameters(self, rng):
        for _ in range(20):
            p = SquareWellParams(rng.uniform(0, 5), rng.uniform(-3, 3), rng.uniform(0.1, 3))
            k = WaveNumber(rng.uniform(0.1, 5))
            amps = integrate_two_solutions(square_well_potential(p), k,
                                           IntegrationConfig(step=2e-3))
            assert wronskian_residual(amps, k) < 1e-10

    def test_local_catalog_amplitude_sets(self):
        """Every local amplitude set this repo produces conserves the Wronskian."""
        from ptscatter import LatticeParams, ScarfParams, lattice_potential, scarf_potential

        cfg = IntegrationConfig(step=2e-3)
        k = WaveNumber(1.1)
        sources = [
            square_well_potential(SquareWellParams(1.0, 0.5, 1.0)),
            lattice_potential(LatticeParams(SquareWellParams(1.0, 0.3, 0.5), a=0.5, n=3)),
            scarf_potential(ScarfParams(1.3, 0.7j), cutoff=20.0),
        ]
        for pot in sources:
            amps = integrate_two_solutions(pot, k, cfg)
            assert wronskian_residual(amps, k) < 1e-8
        assert wronskian_residual(scarf_amplitudes(ScarfParams(1.3, 0.7), k), k) < 1e-10

    def test_asymmetric_nonlocal_kernel_breaks_constancy(self):
        """T_rl != T_lr for the asymmetric kernel: the residual is strictly positive."""
        from ptscatter import SeparableKernel, nonlocal_coefficients

        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        c = nonlocal_coefficients(kernel, 1.0)
        residual = abs(c.t_rl - c.t_lr) / max(abs(c.t_rl), abs(c.t_lr))
        assert residual > 1e-3
