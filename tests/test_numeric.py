"""Direct-integration oracle: convergence, consistency, failure modes."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import (
    CentrifugalParams,
    IntegrationConfig,
    LatticeParams,
    LocalPotential,
    ScarfParams,
    SquareWellParams,
    centrifugal_potential,
    coefficients_from_amplitudes,
    integrate_batch,
    lattice_potential,
    numeric_coefficients,
    phase_relation_residual,
    sampled_potential,
    scarf_coefficients,
    scarf_potential,
    square_well_coefficients,
    square_well_potential,
    wavefunction_on_grid,
)
from ptscatter.errors import DegenerateSolutions, NonDecayedPotential, StepTooLarge

WELL = SquareWellParams(1.0, 0.5, 1.0)
FIELDS = ("t_lr", "r_lr", "t_rl", "r_rl")


def zero_potential():
    return LocalPotential(evaluate=lambda x: 0.0, x_left=-1.0, x_right=1.0)


class TestFreeParticle:
    def test_amplitudes(self):
        amps = integrate_batch(zero_potential(), [1.0], IntegrationConfig(step=1e-3))
        assert abs(amps.a1p[0] - 1.0) < 1e-10 and abs(amps.b1p[0]) < 1e-10
        assert abs(amps.b2p[0] - 1.0) < 1e-10 and abs(amps.a2p[0]) < 1e-10

    def test_coefficients(self):
        c = numeric_coefficients(zero_potential(), 1.0)
        assert abs(c.t_lr - 1.0) < 1e-10 and abs(c.r_lr) < 1e-10

    def test_left_incident_wave_is_plane_wave(self):
        wf = wavefunction_on_grid(zero_potential(), 1.0, "left-incident",
                                  IntegrationConfig(step=1e-3))
        assert np.max(np.abs(wf.psi - np.exp(1j * wf.x))) < 1e-10


class TestSquareWellAgreement:
    def test_matches_catalog_at_k1(self):
        got = numeric_coefficients(square_well_potential(WELL), 1.0, IntegrationConfig(step=1e-3))
        want = square_well_coefficients(WELL, 1.0)
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-6

    def test_complex_well_transmissions_and_phase(self):
        c = numeric_coefficients(square_well_potential(WELL), 1.0, IntegrationConfig(step=1e-3))
        assert abs(c.t_lr - c.t_rl) < 1e-8
        assert phase_relation_residual(c) < 1e-6

    def test_grid_resolution_independence(self):
        c1 = numeric_coefficients(square_well_potential(WELL), 1.0, IntegrationConfig(step=1e-3))
        c2 = numeric_coefficients(square_well_potential(WELL), 1.0, IntegrationConfig(step=5e-4))
        assert abs(c1.t_lr - c2.t_lr) < 1e-7

    def test_batch_equals_single(self):
        ks = [0.5, 1.0, 2.0]
        cfg = IntegrationConfig(step=1e-3)
        grid = numeric_coefficients(square_well_potential(WELL), ks, cfg)
        for j, k in enumerate(ks):
            single = numeric_coefficients(square_well_potential(WELL), k, cfg)
            for name in FIELDS:
                assert abs(getattr(grid, name)[j] - getattr(single, name)) < 1e-14

    def test_scalar_k_gives_python_complex(self):
        c = numeric_coefficients(square_well_potential(WELL), 1.0)
        assert all(type(getattr(c, name)) is complex for name in FIELDS)

    def test_failing_k_of_a_grid_is_named(self, monkeypatch):
        """Amplitudes degenerate at the second k of a grid raise at that k."""
        from ptscatter import numeric

        def degenerate_at_second(v, ks, cfg=None):
            amps = integrate_batch(v, ks, cfg)
            amps.b2p[1] = 0.0           # d = a2m b1p - a1m b2p = -b2p vanishes
            return amps

        monkeypatch.setattr(numeric, "integrate_batch", degenerate_at_second)
        with pytest.raises(DegenerateSolutions, match="not independent") as info:
            numeric_coefficients(square_well_potential(WELL), [0.5, 1.0, 2.0],
                                 IntegrationConfig(step=1e-3))
        assert info.value.k == 1.0


class TestHermitianScarf:
    def test_convergence_is_fourth_order(self):
        """Halving the step shrinks the transmission error by at least 12x."""
        p = ScarfParams(1.3, 0.7)
        want = scarf_coefficients(p, 1.0).t_lr
        errs = []
        for step in (0.08, 0.04):
            c = numeric_coefficients(scarf_potential(p, cutoff=30.0), 1.0,
                                     IntegrationConfig(step=step))
            errs.append(abs(c.t_lr - want))
        assert errs[0] / errs[1] >= 12.0

    def test_unitarity_from_integration(self):
        pot = scarf_potential(ScarfParams(1.3, 0.7), cutoff=20.0)
        c = numeric_coefficients(pot, 0.9, IntegrationConfig(step=2e-3))
        assert abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0) < 1e-6

    def test_real_potential_unitarity_generic_k(self):
        pot = scarf_potential(ScarfParams(0.8, -1.1), cutoff=20.0)
        for k in (0.5, 1.7):
            c = numeric_coefficients(pot, k, IntegrationConfig(step=2e-3))
            assert abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0) < 1e-6


def _scarf_error(p, cutoff, ks, step):
    """Largest relative difference of the tail-matched integrator from the
    closed form over the k column, each cell scaled as ``compare`` scales it."""
    ks = np.asarray(ks, dtype=float)
    got = coefficients_from_amplitudes(
        integrate_batch(scarf_potential(p, cutoff=cutoff), ks, IntegrationConfig(step=step)))
    want = scarf_coefficients(p, ks)
    return max(float(np.max(np.abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), 1.0)))
               for a, b in ((getattr(want, n), getattr(got, n)) for n in FIELDS))


class TestScarfTails:
    """Scarf integrated between its exact Jost tails at +-cutoff, where the
    cutoff is a matching radius and only the Magnus steps are left to err."""

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("s, lam", [(1.2, 0.6), (1.2, 0.8), (1.4, 0.6), (1.4, 0.8)])
    def test_compare_box_at_cutoff_20(self, s, lam, eps):
        assert _scarf_error(ScarfParams(s, lam, eps), 20.0, [2.9, 3.0, 3.1], 1e-3) < 1e-13

    def test_cutoffs_10_and_20_agree(self):
        ks = np.array([0.5, 1.5, 3.0])
        cfg = IntegrationConfig(step=1e-3)
        near, far = (coefficients_from_amplitudes(integrate_batch(
            scarf_potential(ScarfParams(1.3, 0.7), cutoff=cutoff), ks, cfg)) for cutoff in (10.0, 20.0))
        for name in FIELDS:
            a, b = getattr(near, name), getattr(far, name)
            assert np.max(np.abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), 1.0)) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.1, 2.5), lam=st.floats(-1.5, 1.5), imaginary=st.booleans(),
           eps=st.floats(-0.4, 0.4), k=st.floats(0.3, 4.0), cutoff=st.floats(2.0, 12.0))
    def test_closed_form_matches_integrator(self, s, lam, imaginary, eps, k, cutoff):
        p = ScarfParams(s, 1j * lam if imaginary else lam, eps)
        assert _scarf_error(p, cutoff, [k], 2e-3) < 1e-10

    def test_sweep_spans_exactly_the_matching_radius(self):
        wf = wavefunction_on_grid(scarf_potential(ScarfParams(1.3, 0.7), cutoff=5.0), 1.0,
                                  "left-incident", IntegrationConfig(step=1e-3))
        assert (wf.x[0], wf.x[-1], len(wf.x)) == (-5.0, 5.0, 10001)

    def test_wavefunction_matches_coefficients_at_the_edges(self):
        p, k = ScarfParams(1.3, 0.7j, 0.2), 1.1
        cfg = IntegrationConfig(step=1e-3)
        c = scarf_coefficients(p, k)
        pot = scarf_potential(p, cutoff=20.0)
        wf = wavefunction_on_grid(pot, k, "left-incident", cfg)
        # at +-20 the tails are below 1e-8, so the Jost solutions are plane waves to that
        assert abs(wf.psi[-1] - c.t_lr * cmath.exp(20j * k)) < 1e-7
        assert abs(wf.psi[0] - (cmath.exp(-20j * k) + c.r_lr * cmath.exp(20j * k))) < 1e-7

    @pytest.mark.parametrize("cutoff, edge", [(0.5, "left"), (0.3, "left")])
    def test_cutoff_too_small_for_the_series(self, cutoff, edge):
        pot = scarf_potential(ScarfParams(1.3, 0.7), cutoff=cutoff)
        with pytest.raises(NonDecayedPotential, match=f"{edge} tail .* at the {edge} edge x = -{cutoff}"):
            integrate_batch(pot, [1.0], IntegrationConfig(step=1e-3))


class TestWavefunction:
    def test_left_incident_asymptotics_match_coefficients(self):
        cfg = IntegrationConfig(step=1e-3)
        pot = square_well_potential(WELL)
        c = numeric_coefficients(pot, 1.0, cfg)
        wf = wavefunction_on_grid(pot, 1.0, "left-incident", cfg)
        # beyond the support the solution is T e^{ikx} on the right,
        # e^{ikx} + R e^{-ikx} on the left
        right = wf.x > WELL.b
        left = wf.x < -WELL.b
        t_wave = c.t_lr * np.exp(1j * wf.x[right])
        assert np.max(np.abs(wf.psi[right] - t_wave)) < 1e-8
        in_and_refl = np.exp(1j * wf.x[left]) + c.r_lr * np.exp(-1j * wf.x[left])
        assert np.max(np.abs(wf.psi[left] - in_and_refl)) < 1e-8

    def test_right_incident_asymptotics(self):
        cfg = IntegrationConfig(step=1e-3)
        pot = square_well_potential(WELL)
        c = numeric_coefficients(pot, 1.0, cfg)
        wf = wavefunction_on_grid(pot, 1.0, "right-incident", cfg)
        right = wf.x > WELL.b
        ref = np.exp(-1j * wf.x[right]) + c.r_rl * np.exp(1j * wf.x[right])
        assert np.max(np.abs(wf.psi[right] - ref)) < 1e-8
        left = wf.x < -WELL.b
        assert np.max(np.abs(wf.psi[left] - c.t_rl * np.exp(-1j * wf.x[left]))) < 1e-8

    def test_grid_is_symmetric_for_symmetric_support(self):
        wf = wavefunction_on_grid(square_well_potential(WELL), 1.0, "left-incident",
                                  IntegrationConfig(step=1e-3))
        assert np.max(np.abs(wf.x + wf.x[::-1])) < 1e-12


class TestFailureModes:
    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            integrate_batch(zero_potential(), [10.0], IntegrationConfig(step=0.1))

    def test_step_too_large_names_lowest_offending_k(self):
        with pytest.raises(StepTooLarge, match="at k = 80.0") as info:
            integrate_batch(zero_potential(), [5.0, 90.0, 80.0], IntegrationConfig(step=0.05))
        assert info.value.k == 80.0

    def test_non_decayed_potential(self):
        bad = LocalPotential(evaluate=lambda x: 0.5, x_left=-1.0, x_right=1.0)
        with pytest.raises(NonDecayedPotential):
            integrate_batch(bad, [1.0], IntegrationConfig(step=1e-3))

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            wavefunction_on_grid(zero_potential(), 1.0, "sideways")


class TestSampledPotential:
    def test_round_trip_through_samples(self):
        xs = np.linspace(-1.5, 1.5, 3001)
        vals = np.array([square_well_potential(WELL).evaluate(float(x)) for x in xs])
        pot = sampled_potential(xs, vals)
        got = numeric_coefficients(pot, 1.0, IntegrationConfig(step=1e-3))
        want = square_well_coefficients(WELL, 1.0)
        # linear interpolation across the discontinuities limits accuracy
        assert abs(got.t_lr - want.t_lr) < 1e-2

    def test_rejects_malformed_samples(self):
        with pytest.raises(ValueError):
            sampled_potential([0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("row, x, v", [(1, math.nan, 1.0), (2, 2.0, math.inf),
                                           (0, 0.0, complex(0.0, -math.inf))])
    def test_rejects_non_finite_samples(self, row, x, v):
        xs, vs = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]
        xs[row], vs[row] = x, v
        with pytest.raises(ValueError, match=f"sample row {row} is not finite"):
            sampled_potential(xs, vs)


def _segments(v, cfg):
    x0, x1 = v.x_left - cfg.match_margin, v.x_right + cfg.match_margin
    pts = sorted({x0, v.x_left, v.x_right, x1} | {b for b in v.breakpoints if x0 < b < x1})
    for a, c in zip(pts[:-1], pts[1:]):
        n = max(1, math.ceil((c - a) / cfg.step))
        yield a, c, n, (c - a) / n


def _plane_waves(ks, x0):
    psi = np.stack([np.exp(1j * ks * x0), np.exp(-1j * ks * x0)])
    return psi, np.stack([1j * ks * psi[0], -1j * ks * psi[1]])


def per_step_magnus(v, ks, cfg):
    """The fourth-order Magnus recursion one step at a time, every node recorded.

    Same segments and Gauss nodes as the integrator, but the step is written
    in (psi, psi') and exponentiated with cmath, where the integrator holds the
    state as plane-wave amplitudes and composes the steps as block products.
    Returns (x, psi, dpsi) with psi/dpsi of shape (nnodes, 2, nk).
    """
    x0 = v.x_left - cfg.match_margin
    psi, dpsi = (list(map(list, z)) for z in _plane_waves(np.asarray(ks, dtype=float), x0))
    xs, psis, dpsis = [x0], [np.array(psi)], [np.array(dpsi)]
    gauss = 0.5 / math.sqrt(3)
    for a, _, n, h in _segments(v, cfg):
        for m in range(n):
            mid = a + (m + 0.5) * h
            v1, v2 = complex(v.evaluate(mid - gauss * h)), complex(v.evaluate(mid + gauss * h))
            for j, k in enumerate(ks):
                w1, w2 = v1 - k * k, v2 - k * k
                c = math.sqrt(3) / 12 * h * h * (w1 - w2)
                lower = h * (w1 + w2) / 2
                theta = cmath.sqrt(c * c + h * lower)
                sinhc = cmath.sinh(theta) / theta if theta else 1.0
                diag = 2 * cmath.sinh(theta / 2) ** 2
                for i in range(2):
                    p, dp = psi[i][j], dpsi[i][j]
                    psi[i][j] = p + ((diag + sinhc * c) * p + sinhc * h * dp)
                    dpsi[i][j] = dp + (sinhc * lower * p + (diag - sinhc * c) * dp)
            xs.append(a + (m + 1) * h)
            psis.append(np.array(psi))
            dpsis.append(np.array(dpsi))
    return np.array(xs), np.stack(psis), np.stack(dpsis)


def per_step_rk4(v, ks, cfg):
    """Classical RK4 one step at a time, every node recorded: an independent
    fourth-order scheme on the same grid, with V at each step's ends and
    midpoint (nudged inside the segment at its edges).
    Returns (x, psi, dpsi) with psi/dpsi of shape (nnodes, 2, nk).
    """
    ks = np.asarray(ks, dtype=float)
    e = ks * ks
    x0 = v.x_left - cfg.match_margin
    psi, dpsi = _plane_waves(ks, x0)
    xs, psis, dpsis = [x0], [psi], [dpsi]
    for a, c, n, h in _segments(v, cfg):
        nudge = 1e-9 * (c - a)
        vv = [complex(v.evaluate(min(max(a + (h / 2) * j, a + nudge), c - nudge)))
              for j in range(2 * n + 1)]
        for m in range(n):
            w0, w1, w2 = vv[2 * m] - e, vv[2 * m + 1] - e, vv[2 * m + 2] - e
            k1p, k1d = dpsi, w0 * psi
            k2p, k2d = dpsi + (h / 2) * k1d, w1 * (psi + (h / 2) * k1p)
            k3p, k3d = dpsi + (h / 2) * k2d, w1 * (psi + (h / 2) * k2p)
            k4p, k4d = dpsi + h * k3d, w2 * (psi + h * k3p)
            psi = psi + (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p)
            dpsi = dpsi + (h / 6) * (k1d + 2 * k2d + 2 * k3d + k4d)
            xs.append(a + (m + 1) * h)
            psis.append(psi)
            dpsis.append(dpsi)
    return np.array(xs), np.stack(psis), np.stack(dpsis)


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBlockPropagator:
    """The integrator against one-step-at-a-time recursions: the same Magnus
    step to rounding, and classical RK4 to the two schemes' truncation."""

    KS = [0.4, 1.3, 2.9]
    XS = np.linspace(-3.0, 3.0, 601)
    CASES = {
        # the truncated profile: the oracles start and end on plane waves
        "scarf": (replace(scarf_potential(ScarfParams(1.3, 0.7), cutoff=20.0), tails=None), 2e-3),
        "pt-well": (square_well_potential(WELL), 1e-3),
        "lattice-8": (lattice_potential(LatticeParams(WELL, a=0.5, n=8)), 1e-3),
        "sampled": (sampled_potential(XS, -2.0 / np.cosh(XS) ** 2
                                      + 0.3j * np.tanh(XS) / np.cosh(XS)), 1e-3),
    }

    def _assert_matches(self, case, oracle, bound):
        v, step = self.CASES[case]
        cfg = IntegrationConfig(step=step)
        xs, psi, dpsi = oracle(v, self.KS, cfg)
        ks = np.array(self.KS)

        # end amplitudes, per k relative to the largest of them
        ika = 1j * ks
        a = 0.5 * (psi[-1] + dpsi[-1] / ika) * np.exp(-ika * xs[-1])
        b = 0.5 * (psi[-1] - dpsi[-1] / ika) * np.exp(ika * xs[-1])
        amps = integrate_batch(v, self.KS, cfg)
        for j in range(len(ks)):
            got = np.array([amps.a1p[j], amps.a2p[j], amps.b1p[j], amps.b2p[j]])
            assert _rel(got, np.array([a[0, j], a[1, j], b[0, j], b[1, j]])) < bound

        # recorded nodes of the left-incident solution at the middle k
        wf = wavefunction_on_grid(v, self.KS[1], "left-incident", cfg)
        beta = -b[0, 1] / b[1, 1]
        assert np.array_equal(wf.x, xs)
        assert _rel(wf.psi, psi[:, 0, 1] + beta * psi[:, 1, 1]) < bound
        assert _rel(wf.dpsi, dpsi[:, 0, 1] + beta * dpsi[:, 1, 1]) < bound

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_step_recursion(self, case):
        self._assert_matches(case, per_step_magnus, 1e-12)

    @pytest.mark.parametrize("case", ["sampled", "scarf"])
    def test_agrees_with_rk4(self, case):
        self._assert_matches(case, per_step_rk4, 1e-7)


class TestSample:
    XS = np.concatenate([np.linspace(-60.0, 60.0, 2401),
                         [-1.0, -0.5, 0.0, 0.5, 1.0, 20.0, -20.0, 50.0]])

    @pytest.mark.parametrize("v", [
        square_well_potential(WELL, x0=0.3),
        lattice_potential(LatticeParams(WELL, a=0.5, n=8)),
        scarf_potential(ScarfParams(1.3, 0.7, eps=0.2), cutoff=20.0),
        centrifugal_potential(CentrifugalParams(1.0, 0.1)),
        sampled_potential(np.linspace(-2.0, 2.0, 101), np.linspace(-2.0, 2.0, 101) ** 2 * (1 + 0.5j)),
        LocalPotential(evaluate=lambda x: -1.0 / math.cosh(x) ** 2, x_left=-30.0, x_right=30.0),
        LocalPotential(evaluate=lambda x: 0.5, x_left=-1.0, x_right=1.0),
    ], ids=["square-well", "lattice", "scarf", "centrifugal", "sampled", "scalar-only",
            "constant"])
    def test_sample_equals_pointwise_evaluate(self, v):
        xs = np.concatenate([self.XS, v.breakpoints, [v.x_left, v.x_right]])
        got = v.sample(xs)
        assert got.shape == xs.shape and got.dtype == complex
        assert np.array_equal(got, [complex(v.evaluate(float(x))) for x in xs])
