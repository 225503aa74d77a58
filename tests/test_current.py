"""Density/current diagnostics and the reflection/transmission phase lock."""

import math
import subprocess
import sys

import numpy as np
import pytest

from ptscatter import (
    CentrifugalParams,
    IntegrationConfig,
    ScarfParams,
    ScatteringCoefficients,
    SquareWellParams,
    WavefunctionGrid,
    asymptotic_current,
    centrifugal_coefficients,
    hermitian_current,
    phase_relation_residual,
    pt_current,
    scarf_coefficients,
    square_well_coefficients,
    square_well_potential,
    wavefunction_on_grid,
)
from ptscatter.errors import AsymmetricGrid, VacuousForReflectionless

PT_WELL = SquareWellParams(1.0, 0.5, 1.0)


def plane_wave_grid(k=1.0, n=401, half=5.0):
    x = np.linspace(-half, half, n)
    psi = np.exp(1j * k * x)
    return WavefunctionGrid(x=x, psi=psi, dpsi=1j * k * psi, k=k, direction="left-incident")


def test_import_loads_neither_numeric_nor_dataclasses():
    """WavefunctionGrid is only an annotation here: the integrator stays unloaded."""
    code = "import sys, ptscatter.current; print(*(m in sys.modules for m in ('ptscatter.numeric', 'dataclasses')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.split() == ["False", "False"], proc.stderr


class TestPtCurrent:
    def test_free_plane_wave(self):
        k = 1.0
        prof = pt_current(plane_wave_grid(k))
        # rho(x) = e^{-2ikx}; reflectionless wave carries zero mixed current
        assert np.max(np.abs(prof.rho - np.exp(-2j * k * prof.grid))) < 1e-12
        assert np.max(np.abs(prof.j)) < 1e-12

    def test_eigenstate_has_zero_current(self):
        """conj(psi(x)) = e^{i a} psi(-x) forces j = 0 identically."""
        x = np.linspace(-5, 5, 501)
        k = 1.3
        psi = np.cos(k * x) + 0.0j  # conj(psi(x)) = psi(-x)
        wf = WavefunctionGrid(x=x, psi=psi, dpsi=-k * np.sin(k * x) + 0.0j, k=k,
                              direction="left-incident")
        assert np.max(np.abs(pt_current(wf).j)) < 1e-12

    def test_constancy_for_complex_well_solution(self):
        wf = wavefunction_on_grid(square_well_potential(PT_WELL), 1.0, "left-incident",
                                  IntegrationConfig(step=1e-3))
        prof = pt_current(wf)
        mid = np.argmin(np.abs(prof.grid))
        j0 = prof.j[mid]
        assert np.max(np.abs(prof.j - j0)) / abs(j0) < 1e-6

    def test_antisymmetry(self):
        wf = wavefunction_on_grid(square_well_potential(PT_WELL), 1.0, "left-incident",
                                  IntegrationConfig(step=1e-3))
        prof = pt_current(wf)
        assert np.max(np.abs(np.conj(prof.j[::-1]) + prof.j)) < 1e-8

    def test_constant_current_matches_asymptotic_value(self):
        cfg = IntegrationConfig(step=1e-3)
        pot = square_well_potential(PT_WELL)
        wf = wavefunction_on_grid(pot, 1.0, "left-incident", cfg)
        prof = pt_current(wf)
        c = square_well_coefficients(PT_WELL, 1.0)
        ac = asymptotic_current(c, 1.0)
        assert abs(prof.j[-1] - ac.j_plus_inf) < 1e-7

    def test_asymmetric_grid_rejected(self):
        x = np.linspace(-1, 2, 100)
        psi = np.exp(1j * x)
        wf = WavefunctionGrid(x=x, psi=psi, dpsi=1j * psi, k=1.0, direction="left-incident")
        with pytest.raises(AsymmetricGrid):
            pt_current(wf)

    def test_hermitian_current_constant_for_real_potential(self):
        """U = identity member: ordinary current is conserved for real V."""
        well = SquareWellParams(1.0, 0.0, 1.0)
        wf = wavefunction_on_grid(square_well_potential(well), 1.0, "left-incident",
                                  IntegrationConfig(step=1e-3))
        j = hermitian_current(wf)
        assert np.max(np.abs(j - j[0])) / abs(j[0]) < 1e-6


class TestAsymptoticCurrent:
    def test_reflectionless_case_vanishes(self):
        c = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0)
        ac = asymptotic_current(c, 1.0)
        assert ac.j_plus_inf == 0.0 and ac.j_minus_inf == 0.0

    def test_conjugate_antisymmetry(self):
        c = square_well_coefficients(PT_WELL, 1.0)
        ac = asymptotic_current(c, 1.0)
        assert abs(ac.j_minus_inf + ac.j_plus_inf.conjugate()) < 1e-15

    def test_complex_well_current_purely_imaginary(self):
        """Conserved current with B- != 0 must be purely imaginary."""
        c = square_well_coefficients(PT_WELL, 1.0)
        ac = asymptotic_current(c, 1.0)
        assert abs(ac.j_plus_inf.real) < 1e-10 * abs(ac.j_plus_inf)

    def test_hermitian_well_interference_term(self):
        """For a real well, 2k Re(conj(T) R) reproduces the closed form."""
        well = SquareWellParams(1.0, 0.0, 1.0)
        c = square_well_coefficients(well, 1.0)
        ac = asymptotic_current(c, 1.0)
        want = 2.0 * 1.0 * (c.t_lr.conjugate() * c.r_lr)
        assert abs(ac.j_plus_inf - want) < 1e-14

    def test_explicit_amplitudes_override(self):
        c = ScatteringCoefficients(t_lr=1.0, r_lr=0.0, t_rl=1.0, r_rl=0.0)
        ac = asymptotic_current(c, 2.0, a_plus=0.5j, b_minus=1.0)
        assert abs(ac.j_plus_inf - 2 * 2.0 * (-0.5j)) < 1e-15

    def test_scalar_k_over_coefficient_columns(self):
        """A scalar k is the k of every element of coefficient columns."""
        c = square_well_coefficients(PT_WELL, np.array([0.5, 1.0, 2.0]))
        ac, repeated = asymptotic_current(c, 1.0), asymptotic_current(c, [1.0, 1.0, 1.0])
        assert ac.j_plus_inf.shape == (3,)
        assert np.array_equal(ac.j_plus_inf, repeated.j_plus_inf)
        assert np.array_equal(ac.j_minus_inf, repeated.j_minus_inf)


class TestPhaseRelation:
    def test_complex_square_well(self):
        assert phase_relation_residual(square_well_coefficients(PT_WELL, 1.0)) < 1e-10

    def test_complex_scarf(self):
        c = scarf_coefficients(ScarfParams(1.0, 0.5j), 1.0)
        assert phase_relation_residual(c) < 1e-9

    def test_catalog_complex_potentials_across_k(self):
        for k in np.linspace(0.3, 3.0, 20):
            assert phase_relation_residual(
                square_well_coefficients(PT_WELL, float(k))) < 1e-8
            assert phase_relation_residual(
                scarf_coefficients(ScarfParams(1.4, 0.6j), float(k))) < 1e-8

    def test_hermitian_well_returns_a_number(self):
        """No lock expected for a real well; the residual is still defined."""
        c = square_well_coefficients(SquareWellParams(1.0, 0.0, 1.0), 1.0)
        val = phase_relation_residual(c)
        assert 0.0 <= val <= math.pi / 2

    def test_reflectionless_raises(self):
        c = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0)
        with pytest.raises(VacuousForReflectionless):
            phase_relation_residual(c)

    @pytest.mark.parametrize("coefficients", [
        lambda k: square_well_coefficients(PT_WELL, k),
        lambda k: square_well_coefficients(SquareWellParams(1.0, 0.0, 1.0), k),
        lambda k: scarf_coefficients(ScarfParams(1.4, 0.6j), k),
        lambda k: scarf_coefficients(ScarfParams(1.3, 0.7, 0.2), k)],
        ids=["pt-well", "hermitian-well", "pt-scarf", "shifted-scarf"])
    def test_grid_is_the_loop_over_k(self, coefficients):
        """Over coefficient columns, one residual per k, bit for bit the
        residual of that k's scalar record."""
        ks = np.linspace(0.3, 3.0, 30)
        grid = phase_relation_residual(coefficients(ks))
        loop = [phase_relation_residual(coefficients(k)) for k in ks.tolist()]
        assert all(type(r) is float for r in loop)
        assert grid.dtype == float and grid.tobytes() == np.array(loop).tobytes()

    def test_first_reflectionless_element_raises(self):
        r = np.array([0.5j, 0.25, 1e-16, 0j])
        c = ScatteringCoefficients(np.full(4, 0.5 + 0.5j), r, np.full(4, 0.5 + 0.5j), r)
        with pytest.raises(VacuousForReflectionless):
            phase_relation_residual(c)
        assert phase_relation_residual(ScatteringCoefficients(
            c.t_lr[:2], r[:2], c.t_rl[:2], r[:2])).shape == (2,)


class TestContinuityResidual:
    def test_stationary_dj_dx_vanishes(self):
        """d j / d x by finite differences is zero for the conserved pair."""
        wf = wavefunction_on_grid(square_well_potential(PT_WELL), 1.0, "left-incident",
                                  IntegrationConfig(step=1e-3))
        prof = pt_current(wf)
        x, j = prof.grid, prof.j
        djdx = np.gradient(j, x)
        assert np.max(np.abs(djdx)) < 1e-6 * max(1.0, float(np.max(np.abs(j))))
