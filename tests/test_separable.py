"""Separable non-local kernels: N integrals, coefficients, wavefunctions.

The independent oracles here are 2-d quadrature of the defining double
integral and direct substitution of the sampled solution back into the
integro-differential equation (finite differences plus quadrature).
"""

import cmath
import math
import re

import numpy as np
import oracle
import pytest

from ptscatter import (
    SeparableKernel,
    kernel_symmetry_class,
    nonlocal_coefficients,
    nonlocal_intermediates,
    nonlocal_wavefunction,
)
from ptscatter.core import _PyComplex
from ptscatter.errors import QuadratureFailure, ResonancePole

SYMMETRIC = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, alpha=0.5, beta=0.5, lam=1.0)
ASYMMETRIC = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
HERMITIAN = SeparableKernel.yamaguchi(gamma=1.2, delta=1.2, alpha=0.4, beta=-0.4, lam=1.0)
DEFAULT = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, alpha=0.0, beta=0.0, lam=0.5)


#: a wave-number column past k = 40, where the panel rule's width falls below 0.5
KS = np.linspace(0.05, 50.0, 60)


def _yamaguchi_as_generic(gamma, delta, alpha=0.0, beta=0.0):
    """The Yamaguchi kernel given as generic callables."""
    return SeparableKernel.from_form_factors(
        g=lambda x: math.exp(-gamma * abs(x)), h=lambda y: math.exp(-delta * abs(y)),
        alpha=alpha, beta=beta, lam=1.0, support=40.0)


def _assert_n_close(a, b, tol=1e-12):
    for sign in ("n_plus", "n_minus"):
        x, y = getattr(a, sign), getattr(b, sign)
        assert np.max(np.abs(x - y) / np.maximum(1.0, np.abs(y))) < tol


class TestComputeN:
    def test_closed_form_matches_quadrature(self):
        """The frozen piecewise-exponential result against the generic panel
        rule over a k column."""
        generic = _yamaguchi_as_generic(1.0, 2.0, 0.3, -0.4)
        fast = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=-0.4, lam=1.0)
        _assert_n_close(nonlocal_intermediates(generic, KS), nonlocal_intermediates(fast, KS))
        a, b = nonlocal_intermediates(fast, 1.5), nonlocal_intermediates(generic, 1.5)
        for sign in ("n_plus", "n_minus"):
            assert abs(getattr(a, sign) - getattr(b, sign)) < 1e-12

    def test_confluent_parameters(self):
        """gamma = delta with alpha = -beta = 0 (degenerate in momentum space)."""
        generic = _yamaguchi_as_generic(1.0, 1.0)
        fast = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0)
        _assert_n_close(nonlocal_intermediates(generic, KS), nonlocal_intermediates(fast, KS))
        got = nonlocal_intermediates(fast, 1.0).n_plus
        ref = nonlocal_intermediates(generic, 1.0).n_plus
        assert abs(got - ref) < 1e-12
        # and against the hand value N+ = (1 - 0.5j) / lam at these parameters
        assert abs(got - (1.0 - 0.5j)) < 1e-12

    def test_q_decomposition(self, rng):
        """lam N+- = -+(i w/2)[g~(k-a)h~(k+b) + g~(k+a)h~(k-b)] + Q with real Q.

        Over KS the closed form, which integrates at -k, also holds the exact
        identity N- = N+ + (i/2k)(g1 + g2) that generic kernels take N- from."""
        ft = oracle.yamaguchi_ft     # 2c / (c^2 + q^2)
        for _ in range(25):
            kernel = SeparableKernel.yamaguchi(
                gamma=rng.uniform(0.3, 3), delta=rng.uniform(0.3, 3),
                alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1),
                lam=rng.uniform(0.2, 2))
            k = rng.uniform(0.2, 4)
            w = kernel.lam / (2 * k)
            g1 = ft(kernel.gamma, k - kernel.alpha) * ft(kernel.delta, k + kernel.beta)
            g2 = ft(kernel.gamma, k + kernel.alpha) * ft(kernel.delta, k - kernel.beta)
            mid = nonlocal_intermediates(kernel, k)
            npl, nmi = kernel.lam * mid.n_plus, kernel.lam * mid.n_minus
            q = (npl + nmi) / 2
            assert abs(q.imag) < 1e-9
            assert abs(npl - (-0.5j * w * (g1 + g2) + q)) < 1e-8
            assert abs(nmi - (0.5j * w * (g1 + g2) + q)) < 1e-8
            g1 = ft(kernel.gamma, KS - kernel.alpha) * ft(kernel.delta, KS + kernel.beta)
            g2 = ft(kernel.gamma, KS + kernel.alpha) * ft(kernel.delta, KS - kernel.beta)
            mid = nonlocal_intermediates(kernel, KS)
            gap = np.abs(mid.n_minus - mid.n_plus - 0.5j / KS * (g1 + g2))
            assert np.all(gap <= 1e-14 * np.maximum(np.abs(mid.n_minus), 1.0))

    def test_q_reality_spec_point(self):
        mid = nonlocal_intermediates(SYMMETRIC, 1.0)
        assert abs(mid.q_part.imag) < 1e-9


class TestCoefficients:
    def test_zero_strength_is_free(self):
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=0.0)
        c = nonlocal_coefficients(kernel, 1.0)
        assert c.t_lr == 1.0 and c.r_lr == 0.0 and c.t_rl == 1.0 and c.r_rl == 0.0

    def test_symmetric_kernel_equal_transmissions(self):
        for k in (0.5, 1.0, 2.0):
            c = nonlocal_coefficients(SYMMETRIC, k)
            assert abs(c.t_rl - c.t_lr) < 1e-10

    def test_asymmetric_kernel_unequal_transmissions(self):
        c = nonlocal_coefficients(ASYMMETRIC, 1.0)
        assert abs(c.t_rl - c.t_lr) > 1e-3
        # equal moduli nonetheless (the combined-symmetry constraint)
        assert abs(abs(c.t_rl) - abs(c.t_lr)) < 1e-12

    def test_transmission_difference_identity(self, rng):
        """T_rl - T_lr = i w delta_t D+ script-D- for random kernels."""
        for _ in range(25):
            kernel = SeparableKernel.yamaguchi(
                gamma=rng.uniform(0.3, 3), delta=rng.uniform(0.3, 3),
                alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1),
                lam=rng.uniform(0.2, 2))
            k = rng.uniform(0.2, 4)
            c = nonlocal_coefficients(kernel, k)
            mid = nonlocal_intermediates(kernel, k)
            want = 1j * mid.omega * mid.delta_t * mid.d_plus * mid.script_d_minus
            assert abs((c.t_rl - c.t_lr) - want) < 1e-12 * max(1.0, abs(want))

    def test_unitarity_broken_generically(self):
        """Non-hermitian kernels do not conserve flux.

        The symmetric-but-not-hermitian and the fully asymmetric kernels
        both break |T|^2 + |R|^2 = 1 at order one; a hermitian kernel
        (alpha = -beta, g = h) does not, even without T invariance.
        """
        for kernel in (SYMMETRIC, ASYMMETRIC):
            c = nonlocal_coefficients(kernel, 1.0)
            assert abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0) > 1e-3
        c = nonlocal_coefficients(HERMITIAN, 1.0)
        assert abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0) < 1e-12

    def test_generic_pipeline_matches_fast_path(self):
        """The panel rule's N and transforms against the closed forms."""
        generic = _yamaguchi_as_generic(1.0, 2.0, 0.3, 0.7)
        fast = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        a = nonlocal_coefficients(generic, KS)
        b = nonlocal_coefficients(fast, KS)
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < 1e-12

    def test_hermitian_kernel_reflection_moduli(self):
        """alpha = -beta, g = h: |R_lr| = |R_rl| while T_lr != T_rl."""
        for k in (0.5, 1.0, 2.0):
            c = nonlocal_coefficients(HERMITIAN, k)
            assert abs(abs(c.r_lr) - abs(c.r_rl)) < 1e-12
            assert abs(c.t_lr - c.t_rl) > 1e-3

    def test_no_resonance_pole_for_real_strengths(self, rng):
        """Im(lam N+) = -(w/2)(G1+G2) < 0 for positive transforms, so the
        resolvent denominator cannot vanish at real lam and real k."""
        for _ in range(20):
            kernel = SeparableKernel.yamaguchi(
                gamma=rng.uniform(0.3, 3), delta=rng.uniform(0.3, 3),
                alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1),
                lam=rng.uniform(-3, 3) or 0.1)
            k = rng.uniform(0.2, 4)
            mid = nonlocal_intermediates(kernel, k)
            assert abs(1.0 - kernel.lam * mid.n_plus) > 1e-6

    def test_resonance_pole_detection(self, monkeypatch):
        """A vanishing 1 - lam*N+ is reported as a pole."""
        import ptscatter.separable as sep

        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, lam=2.0)
        half = _PyComplex(np.array([0.5]), np.array([0.0]))
        monkeypatch.setattr(sep, "_n_columns", lambda ker, ks, xs: ((half, half), [np.ones(1)] * 4, [], None))
        with pytest.raises(ResonancePole):
            sep.nonlocal_intermediates(kernel, 1.0)

    def test_quadrature_failure_names_its_k(self, monkeypatch):
        """A generic kernel's quadrature failure at the second k of a grid, of
        N+ or of a transform, is raised as itself, naming that k."""
        import ptscatter.separable as sep

        generic = SeparableKernel.from_form_factors(
            g=lambda x: math.exp(-abs(x)), h=lambda y: math.exp(-2 * abs(y)),
            alpha=0.3, beta=0.7, lam=1.0, support=40.0)
        panel_j = sep._panel_j
        # rows of _panel_j: U, which gives N+, ..., H+ = h~(-k-b)
        for row, quantity in ((0, "N plus"), (4, "h~(-k-beta)")):
            def doubled_order_off_at_2(kernel, kk, order, row=row):
                sums = panel_j(kernel, kk, order)
                sums[row] += 1e-3 * ((order > sep._ORDER) & (kk == 2.0))
                return sums

            monkeypatch.setattr(sep, "_panel_j", doubled_order_off_at_2)
            for fn in (nonlocal_coefficients, nonlocal_intermediates):
                with pytest.raises(QuadratureFailure, match=f"too large for {re.escape(quantity)}") as info:
                    fn(generic, np.array([1.0, 2.0, 3.0]))
                assert info.value.k == 2.0

    def test_form_factors_sampled_once_per_order(self):
        """Scalar-only form factors are called at the nodes of the order-20
        and order-40 rules, which give N, the transforms and a wavefunction's
        convolution alike: nowhere else."""
        import ptscatter.separable as sep

        calls = {"g": 0, "h": 0}

        def scalar_only(name, f):
            def call(x):
                if not isinstance(x, float):
                    raise TypeError("a form factor of one float")
                calls[name] += 1
                return f(x)
            return call

        kernel = SeparableKernel.from_form_factors(
            g=scalar_only("g", lambda x: math.exp(-1.3 * abs(x)) * (1 + 0.2 * x * x)),
            h=scalar_only("h", lambda y: math.exp(-0.9 * abs(y))), alpha=0.3, beta=-0.2)
        nonlocal_coefficients(kernel, 1.0)
        freq = np.array([1.5])      # k + |alpha| + |beta|
        nodes = sum(sep._rule(kernel.support, freq, order)[0].size for order in (sep._ORDER, 2 * sep._ORDER))
        assert nodes == 3200 + 6400
        assert calls == {"g": nodes, "h": nodes}
        calls.update(g=0, h=0)
        nonlocal_wavefunction(kernel, 1.0, "right", np.linspace(-3.0, 3.0, 61))
        assert calls == {"g": nodes, "h": nodes}

    @pytest.mark.parametrize("name, value", [("alpha", math.nan), ("beta", math.inf), ("lam", math.inf)])
    def test_non_finite_parameter_is_rejected(self, name, value):
        """As for Yamaguchi kernels: a NaN phase would otherwise pass as PT
        symmetric and an infinite strength give a finite N."""
        with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
            SeparableKernel.from_form_factors(g=lambda x: math.exp(-abs(x)), h=lambda y: math.exp(-abs(y)),
                                              **{name: value})

    def test_kink_away_from_zero_is_a_quadrature_failure(self):
        """Kinks at +-0.3 fall inside a panel: the doubled order disagrees."""
        kinked = SeparableKernel.from_form_factors(
            g=lambda x: math.exp(-abs(abs(x) - 0.3)), h=lambda y: math.exp(-abs(y)))
        with pytest.raises(QuadratureFailure, match="too large for N plus") as info:
            nonlocal_coefficients(kinked, np.array([0.5, 1.0]))
        assert info.value.k == 0.5

    def test_wave_number_beyond_the_rule(self):
        """A k whose panels would pass the rule's count is a failure that
        names the reach; the others of its column are evaluated."""
        generic = _yamaguchi_as_generic(1.0, 2.0, 0.3, 0.7)
        with pytest.raises(QuadratureFailure, match=r"k = 20000.0 is beyond the panel rule's reach: "
                                                    r"support 40.0 times .* exceeds 81920") as info:
            nonlocal_coefficients(generic, np.array([1.0, 2e4]))
        assert info.value.k == 2e4
        assert abs(nonlocal_intermediates(generic, 1.0).n_minus
                   - nonlocal_intermediates(SeparableKernel.yamaguchi(1.0, 2.0, 0.3, 0.7), 1.0).n_minus) < 1e-12


class TestKernelClassification:
    def test_table_rows(self):
        cls = kernel_symmetry_class(SeparableKernel.yamaguchi(1.0, 1.0))
        assert cls.reality and cls.time_reversal and cls.parity and cls.pt
        assert cls.symmetric_xy and cls.hermitian

        cls = kernel_symmetry_class(SYMMETRIC)
        assert cls.symmetric_xy and cls.pt
        assert not cls.reality and not cls.time_reversal and not cls.hermitian

        cls = kernel_symmetry_class(HERMITIAN)
        assert cls.hermitian and cls.pt and not cls.symmetric_xy

        cls = kernel_symmetry_class(ASYMMETRIC)
        assert cls.pt
        assert not (cls.hermitian or cls.symmetric_xy or cls.parity or cls.time_reversal)

    def test_pt_needs_even_factors(self):
        skew = SeparableKernel.from_form_factors(
            g=lambda x: math.exp(-abs(x)) * (1 + 0.3 * math.tanh(x)),
            h=lambda y: math.exp(-abs(y)),
            support=40.0)
        cls = kernel_symmetry_class(skew)
        assert not cls.pt and cls.time_reversal


def _phase_factor(kernel, x):
    return kernel.g(x) * cmath.exp(1j * kernel.alpha * x)


def integro_differential_residual(kernel, k, direction, h=0.01, span=5.0):
    """Independent oracle: substitute the sampled solution into the equation.

    psi'' is taken by 5-point finite differences; the non-local term
    factorises as lam g(x)e^{iax} * Int h(y)e^{iby} psi(y) dy with the
    integral taken by a fixed rule of its own (24-point Gauss-Legendre on
    unit panels over the support, split at 0) from the solution's closed
    form, sampled at every node in one call.
    Points within 3h of the form-factor kink at x = 0 are skipped (psi'''
    jumps there and the stencil loses its order).
    """
    centers = [x for x in np.arange(-span, span + h / 2, 5 * h) if abs(x) >= 3 * h]
    stencil = np.array([-2, -1, 0, 1, 2]) * h
    xs = sorted({round(c + s, 12) for c in centers for s in stencil})
    wf = nonlocal_wavefunction(kernel, k, direction, np.array(xs))
    table = dict(zip(xs, wf.psi))

    half = np.linspace(0.0, kernel.support, math.ceil(kernel.support) + 1)
    edges = np.concatenate([-half[:0:-1], half])
    t, w = np.polynomial.legendre.leggauss(24)
    width = np.diff(edges)[:, None] / 2
    nodes, weights = (edges[:-1, None] + width * (t + 1)).ravel(), (width * w).ravel()
    h_nodes = np.array([kernel.h(y) for y in nodes.tolist()])
    psi = nonlocal_wavefunction(kernel, k, direction, nodes).psi
    iv = np.sum(weights * h_nodes * np.exp(1j * kernel.beta * nodes) * psi)
    worst = 0.0
    for c in centers:
        pts = [table[round(c + s, 12)] for s in stencil]
        d2 = (-pts[0] + 16 * pts[1] - 30 * pts[2] + 16 * pts[3] - pts[4]) / (12 * h * h)
        res = -d2 + kernel.lam * _phase_factor(kernel, c) * iv - k * k * pts[2]
        worst = max(worst, abs(res))
    return worst


class TestWavefunction:
    def test_zero_strength_plane_wave(self):
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, lam=0.0)
        grid = np.linspace(-5, 5, 101)
        wf = nonlocal_wavefunction(kernel, 1.0, "left", grid)
        assert np.max(np.abs(wf.psi - np.exp(1j * grid))) < 1e-14

    def test_left_asymptotics_match_coefficients(self):
        k = 1.0
        c = nonlocal_coefficients(DEFAULT, k)
        far = 40.0
        grid = np.array([-far, -far + np.pi / (2 * k), far, far + np.pi / (2 * k)])
        wf = nonlocal_wavefunction(DEFAULT, k, "left", grid)

        def solve_pair(x1, x2, p1, p2):
            m = np.array([[np.exp(1j * k * x1), np.exp(-1j * k * x1)],
                          [np.exp(1j * k * x2), np.exp(-1j * k * x2)]])
            return np.linalg.solve(m, np.array([p1, p2]))

        a_m, b_m = solve_pair(grid[0], grid[1], wf.psi[0], wf.psi[1])
        a_p, b_p = solve_pair(grid[2], grid[3], wf.psi[2], wf.psi[3])
        assert abs(a_m - 1.0) < 1e-8 and abs(b_m - c.r_lr) < 1e-8
        assert abs(a_p - c.t_lr) < 1e-8 and abs(b_p) < 1e-8

    def test_right_asymptotics_match_coefficients(self):
        k = 1.0
        c = nonlocal_coefficients(ASYMMETRIC, k)
        far = 40.0
        grid = np.array([-far, -far + np.pi / (2 * k), far, far + np.pi / (2 * k)])
        wf = nonlocal_wavefunction(ASYMMETRIC, k, "right", grid)
        m_m = np.array([[np.exp(1j * k * grid[0]), np.exp(-1j * k * grid[0])],
                        [np.exp(1j * k * grid[1]), np.exp(-1j * k * grid[1])]])
        a_m, b_m = np.linalg.solve(m_m, wf.psi[:2])
        m_p = np.array([[np.exp(1j * k * grid[2]), np.exp(-1j * k * grid[2])],
                        [np.exp(1j * k * grid[3]), np.exp(-1j * k * grid[3])]])
        a_p, b_p = np.linalg.solve(m_p, wf.psi[2:])
        assert abs(a_m) < 1e-8 and abs(b_m - c.t_rl) < 1e-8
        assert abs(b_p - 1.0) < 1e-8 and abs(a_p - c.r_rl) < 1e-8

    def test_derivative_consistent_with_values(self):
        grid = np.linspace(-3, 3, 46)  # avoids x = 0 (psi''' jumps there)
        wf = nonlocal_wavefunction(DEFAULT, 1.0, "left", grid)
        h = 1e-5
        for idx in (5, 20, 40):
            x = grid[idx]
            plus = nonlocal_wavefunction(DEFAULT, 1.0, "left", np.array([x + h])).psi[0]
            minus = nonlocal_wavefunction(DEFAULT, 1.0, "left", np.array([x - h])).psi[0]
            assert abs((plus - minus) / (2 * h) - wf.dpsi[idx]) < 1e-7

    @pytest.mark.parametrize("direction", ["left", "right"])
    def test_generic_kernel_matches_fast_path(self, direction):
        """The panel rule's A and B at every x, inside and beyond the support,
        against the closed-form convolution."""
        grid = np.concatenate([np.linspace(-6.0, 6.0, 61), [-45.0, -40.0, 39.99, 45.0]])
        a = nonlocal_wavefunction(_yamaguchi_as_generic(1.0, 2.0, 0.3, 0.7), 1.3, direction, grid)
        b = nonlocal_wavefunction(ASYMMETRIC, 1.3, direction, grid)
        assert np.max(np.abs(a.psi - b.psi)) < 1e-12
        assert np.max(np.abs(a.dpsi - b.dpsi)) < 1e-12

    def test_integro_differential_residual_left(self):
        assert integro_differential_residual(DEFAULT, 1.0, "left") < 1e-5

    def test_integro_differential_residual_right(self):
        assert integro_differential_residual(ASYMMETRIC, 1.0, "right") < 1e-5


class TestSkewedKernel:
    """Form factors that are not even, e^{-p|x| + s x}, against the mpmath
    causal route of ``oracle.skewed_kernel_coefficients``: every decay rate
    p -+ s is at least 1, so cutting the support at 40 costs nothing."""

    G, H = (1.5, 0.4), (2.0, -0.5)
    KERNEL = SeparableKernel.from_form_factors(
        g=lambda x: math.exp(-1.5 * abs(x) + 0.4 * x), h=lambda y: math.exp(-2.0 * abs(y) - 0.5 * y),
        alpha=0.3, beta=-0.6, lam=1.2)

    def test_coefficients_match_oracle(self):
        ks = np.array([0.05, 1.7, 20.0])
        got = nonlocal_coefficients(self.KERNEL, ks)
        for i, k in enumerate(ks):
            want = oracle.skewed_kernel_coefficients(self.G, self.H, 0.3, -0.6, 1.2, k)
            for name, w in zip(("t_lr", "r_lr", "t_rl", "r_rl"), want):
                assert abs(getattr(got, name)[i] - w) < 1e-12
        assert abs(got.t_lr[1] - got.t_rl[1]) > 1e-2

    @pytest.mark.parametrize("direction", ["left", "right"])
    def test_integro_differential_residual(self, direction):
        kernel = SeparableKernel.from_form_factors(
            g=lambda x: math.exp(-(x - 0.5) ** 2), h=lambda y: math.exp(-abs(y)) * (1 + 0.3 * math.tanh(y)),
            alpha=0.3, beta=-0.6, lam=1.2)
        assert integro_differential_residual(kernel, 1.0, direction) < 1e-5
