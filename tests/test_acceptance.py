"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import cmath
import math
import time

import numpy as np
import oracle

from ptscatter import (
    CentrifugalParams,
    IntegrationConfig,
    LatticeParams,
    ScarfParams,
    SeparableKernel,
    SquareWellParams,
    asymptotic_current,
    centrifugal_coefficients,
    complex_log_gamma,
    exact_asymptotic_pt_check,
    integrate_batch,
    coefficients_from_amplitudes,
    lattice_potential,
    multi_well_coefficients,
    nonlocal_coefficients,
    nonlocal_intermediates,
    numeric_coefficients,
    phase_relation_residual,
    pt_current,
    scarf_coefficients,
    scarf_potential,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
    wavefunction_on_grid,
)
from ptscatter.potentials import lattice_transfer

PT_WELL = SquareWellParams(1.0, 0.5, 1.0)


def _report(num, desc, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {desc}: {verdict} ({detail})"
    print(line)
    assert ok, line


def _longdouble_well_det(v0, v1, b, k):
    """det M with the closed forms evaluated in 80-bit precision.

    In double precision |det - 1| is limited by eps * (element scale)^2,
    so the identity itself is checked with extended-precision arithmetic.
    """
    ld = np.longdouble
    e = ld(k) * ld(k)
    alpha = np.sqrt(np.sqrt((e + ld(v0)) ** 2 + ld(v1) ** 2))
    phi = np.arctan2(ld(v1), e + ld(v0)) / 2
    c = 2 * alpha * ld(b) * np.cos(phi)
    s = 2 * alpha * ld(b) * np.sin(phi)
    cp, sp = np.cos(phi), np.sin(phi)
    even = cp * cp * np.cos(c) + sp * sp * np.cosh(s)
    km = (ld(k) * ld(k) - alpha * alpha) / (2 * ld(k) * alpha)
    kp = (ld(k) * ld(k) + alpha * alpha) / (2 * ld(k) * alpha)
    odd = km * sp * np.sinh(s) + kp * cp * np.sin(c)
    cross = sp * cp * (np.cos(c) - np.cosh(s))
    off = km * cp * np.sin(c) + kp * sp * np.sinh(s)
    i = np.clongdouble(1j)
    m_rr = np.exp(2 * i * ld(k) * ld(b)) * (even - i * odd)
    m_ll = np.exp(-2 * i * ld(k) * ld(b)) * (even + i * odd)
    m_rl = i * (cross + off)
    m_lr = i * (cross - off)
    return m_rr * m_ll - m_rl * m_lr


def test_criterion_01_square_well_det(rng):
    worst = 0.0
    for _ in range(1000):
        v0, v1 = rng.uniform(0, 5), rng.uniform(-3, 3)
        b, k = rng.uniform(0.1, 3), rng.uniform(0.1, 5)
        det = _longdouble_well_det(v0, v1, b, k)
        worst = max(worst, float(abs(det - 1.0)))
        # the double-precision route stays at rounding level of its scale
        m = square_well_transfer(SquareWellParams(v0, v1, b), k)
        scale = max(1.0, float(np.max(np.abs(m))))
        assert abs(np.linalg.det(m) - 1.0) < 1e-13 * scale * scale
    _report(1, "square-well det M = 1 over 1000 random draws", worst < 1e-12,
            f"max |det-1| = {worst:.3e} < 1e-12")


def test_criterion_02_analytic_vs_numeric_square_well():
    t0 = time.time()
    ks = np.linspace(0.2, 4.0, 50)
    amps = integrate_batch(square_well_potential(PT_WELL), ks, IntegrationConfig(step=1e-3))
    got = coefficients_from_amplitudes(amps)
    worst = 0.0
    for j, k in enumerate(ks):
        want = square_well_coefficients(PT_WELL, float(k))
        for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
            x, y = getattr(want, name), getattr(got, name)[j]
            worst = max(worst, abs(x - y) / abs(x))
    elapsed = time.time() - t0
    _report(2, "analytic vs numeric square well on 50-point k grid",
            worst < 1e-13 and elapsed < 10.0,
            f"max rel diff = {worst:.3e} < 1e-13, runtime {elapsed:.2f}s < 10s")


def test_criterion_03_hermitian_scarf_unitarity():
    worst = 0.0
    for s in np.linspace(0.0, 3.0, 5):
        for lam in np.linspace(-2.0, 2.0, 5):
            for k in np.linspace(0.2, 4.0, 8):
                c = scarf_coefficients(ScarfParams(float(s), float(lam)), float(k))
                worst = max(worst, abs(abs(c.t_lr) ** 2 + abs(c.r_lr) ** 2 - 1.0))
    _report(3, "hermitian Scarf unitarity on 200-point grid", worst < 1e-9,
            f"max | |T|^2+|R|^2 - 1 | = {worst:.3e} < 1e-9")


def test_criterion_04_reflectionless_scarf():
    worst_r, worst_t = 0.0, 0.0
    for n in (1, 2, 3):
        for m in (1, 2):
            for k in np.linspace(0.2, 4.0, 9):
                c = scarf_coefficients(ScarfParams(float(n), 1j * m), float(k))
                worst_r = max(worst_r, abs(c.r_lr), abs(c.r_rl))
                worst_t = max(worst_t, abs(abs(c.t_lr) - 1.0))
    worst_numeric = 0.0
    cfg = IntegrationConfig(step=4e-3)
    for n in (1, 2, 3):
        for m in (1, 2):
            pot = scarf_potential(ScarfParams(float(n), 1j * m), cutoff=20.0)
            c = numeric_coefficients(pot, 1.1, cfg)
            worst_numeric = max(worst_numeric, abs(c.r_lr), abs(c.r_rl))
    ok = worst_r < 1e-11 and worst_t < 1e-11 and worst_numeric < 1e-4
    _report(4, "reflectionless Scarf (integer strengths)", ok,
            f"max |R| = {worst_r:.3e} < 1e-11, max ||T|-1| = {worst_t:.3e} < 1e-11, "
            f"numeric |R| = {worst_numeric:.3e} < 1e-4")


def test_criterion_05_complex_shift_laws():
    worst = 0.0
    for eps in (0.1, -0.1, 0.3, -0.3):
        for k in (0.7, 1.0, 1.9):
            base = scarf_coefficients(ScarfParams(1.2, 0.5j, 0.0), k)
            shifted = scarf_coefficients(ScarfParams(1.2, 0.5j, eps), k)
            swapped = scarf_coefficients(ScarfParams(1.2, -0.5j, eps), k)
            worst = max(worst,
                        abs(shifted.t_lr - base.t_lr),
                        abs(shifted.r_lr - base.r_lr * math.exp(2 * k * eps)),
                        abs(shifted.r_rl - swapped.r_lr * math.exp(-4 * k * eps)))
    _report(5, "complex-shift laws for T, R(L->R), R(R->L)", worst < 1e-9,
            f"max residual = {worst:.3e} < 1e-9 over eps in {{+-0.1, +-0.3}}")


def test_criterion_06_pt_relation_suite():
    worst_sinv, worst_det, worst_teq, worst_phase = 0.0, 0.0, 0.0, 0.0
    for k in np.linspace(0.2, 4.0, 50):
        c = square_well_coefficients(PT_WELL, float(k))
        s = c.as_array()
        worst_sinv = max(worst_sinv, float(np.max(np.abs(s @ s.conj() - np.eye(2)))))
        worst_det = max(worst_det, abs(abs(np.linalg.det(s)) - 1.0))
        worst_teq = max(worst_teq, abs(c.t_lr - c.t_rl) / abs(c.t_lr))
        worst_phase = max(worst_phase, phase_relation_residual(c))
    # "exact" equality of the transmissions: t_rl = det(M)/M_RR carries a
    # few ulp of rounding relative to t_lr = 1/M_RR (see decisions ledger)
    ok = (worst_sinv < 1e-10 and worst_det < 1e-10 and worst_teq < 5e-15
          and worst_phase < 1e-9)
    _report(6, "combined-symmetry suite for the complex square well", ok,
            f"S^-1=S* {worst_sinv:.3e} < 1e-10, |det S|-1 {worst_det:.3e} < 1e-10, "
            f"T equality {worst_teq:.3e} (round-off), phase {worst_phase:.3e} < 1e-9")


def test_criterion_07_multi_well():
    t0 = time.time()
    well = SquareWellParams(1.0, 0.3, 0.5)
    k = 1.2
    p2 = LatticeParams(well, a=0.5, n=2)
    m = square_well_transfer(well, k)
    centre = well.b + p2.a
    explicit = oracle.sandwich(m, k, -centre, -centre) @ oracle.sandwich(m, k, centre, centre)
    t2 = next(lattice_transfer(p2, [k])[1])[1][0, 0]
    got2 = oracle.sandwich(t2, np.longdouble(k), p2.u1, p2.u1 + p2.n * p2.period)
    diff2 = float(np.max(np.abs(got2 - explicit)))

    p8 = LatticeParams(well, a=0.5, n=8)
    t_analytic = multi_well_coefficients(p8, k).t_lr
    c = numeric_coefficients(lattice_potential(p8), k, IntegrationConfig(step=1e-3))
    diff8 = abs(abs(c.t_lr) - abs(t_analytic)) / abs(t_analytic)
    elapsed = time.time() - t0
    ok = diff2 < 1e-12 and diff8 < 1e-5 and elapsed < 30.0
    _report(7, "multi-well lattice consistency", ok,
            f"n=2 product diff = {diff2:.3e} < 1e-12, n=8 vs numeric = {diff8:.3e} < 1e-5, "
            f"runtime {elapsed:.2f}s < 30s")


def test_criterion_08_nonlocal_yamaguchi():
    symmetric = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, alpha=0.5, beta=0.5, lam=1.0)
    worst_sym = max(abs(nonlocal_coefficients(symmetric, float(k)).t_rl
                        - nonlocal_coefficients(symmetric, float(k)).t_lr)
                    for k in np.linspace(0.5, 2.0, 7))
    q_part = nonlocal_intermediates(symmetric, np.linspace(0.5, 2.0, 7)).q_part
    q_imag = float(np.max(np.abs(q_part.imag)))
    asym = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
    best_gap = max(abs(nonlocal_coefficients(asym, float(k)).t_rl
                       - nonlocal_coefficients(asym, float(k)).t_lr)
                   for k in np.linspace(0.5, 2.0, 7))
    from test_separable import integro_differential_residual

    res_left = integro_differential_residual(asym, 1.0, "left")
    res_right = integro_differential_residual(asym, 1.0, "right")
    ok = (worst_sym < 1e-10 and q_imag < 1e-9 and best_gap > 1e-3
          and res_left < 1e-5 and res_right < 1e-5)
    _report(8, "separable non-local kernel checks", ok,
            f"symmetric T gap = {worst_sym:.3e} < 1e-10, Im Q = {q_imag:.3e} < 1e-9, "
            f"asymmetric T gap = {best_gap:.3e} > 1e-3, "
            f"residual oracle = {max(res_left, res_right):.3e} < 1e-5")


def test_criterion_09_exact_asymptotic_pt():
    c_cf = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0)
    s_cf = c_cf
    c_rs = scarf_coefficients(ScarfParams(2.0, 1j), 1.0)
    s_rs = c_rs
    flags_ok = (exact_asymptotic_pt_check(s_cf).is_exact
                and exact_asymptotic_pt_check(s_rs).is_exact)
    well_flags = [exact_asymptotic_pt_check(
        square_well_coefficients(PT_WELL, k)).is_exact
        for k in (0.7, 1.0, 1.9)]
    worst_unit = 0.0
    for s in (s_cf, s_rs):
        m = s.as_array()
        worst_unit = max(worst_unit, float(np.max(np.abs(m.conj().T @ m - np.eye(2)))))
    ok = flags_ok and not any(well_flags) and worst_unit < 1e-9
    _report(9, "exact-asymptotic-symmetry detector", ok,
            f"centrifugal/reflectionless True, square well False, "
            f"unitarity defect = {worst_unit:.3e} < 1e-9")


def test_criterion_10_current_diagnostics():
    wf = wavefunction_on_grid(square_well_potential(PT_WELL), 1.0, "left-incident",
                              IntegrationConfig(step=1e-3))
    prof = pt_current(wf)
    mid = np.argmin(np.abs(prof.grid))
    spread = float(np.max(np.abs(prof.j - prof.j[mid])) / abs(prof.j[mid]))
    edge_mismatch = abs(prof.j[0] + np.conj(prof.j[-1]))
    ac = asymptotic_current(centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0), 1.0)
    ok = (spread < 1e-6 and edge_mismatch < 1e-8
          and ac.j_plus_inf == 0.0 and ac.j_minus_inf == 0.0)
    _report(10, "current diagnostics", ok,
            f"j spread = {spread:.3e} < 1e-6, j(-inf)+conj(j(+inf)) = {edge_mismatch:.3e} "
            f"< 1e-8, reflectionless j = 0")


def test_criterion_11_specfun(rng):
    worst_rec, worst_ref = 0.0, 0.0
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 1e-2 and (z.real < 0.5 or abs(z.real - round(z.real)) < 1e-2):
            continue
        w = complex_log_gamma(z + 1) - complex_log_gamma(z) - cmath.log(z)
        w -= 2j * math.pi * round(w.imag / (2 * math.pi))
        worst_rec = max(worst_rec, abs(w))
        w2 = (complex_log_gamma(z) + complex_log_gamma(1 - z)
              - cmath.log(math.pi / cmath.sin(math.pi * z)))
        w2 -= 2j * math.pi * round(w2.imag / (2 * math.pi))
        worst_ref = max(worst_ref, abs(w2))
        count += 1
    from test_specfun import GOLDEN

    worst_gold = max(abs(complex_log_gamma(z) - want) / max(1.0, abs(want))
                     for z, want in GOLDEN)
    ok = worst_rec < 1e-11 and worst_ref < 1e-11 and worst_gold < 1e-12
    _report(11, "log-gamma identities and golden values", ok,
            f"recurrence = {worst_rec:.3e} < 1e-11, reflection = {worst_ref:.3e} < 1e-11, "
            f"goldens = {worst_gold:.3e} < 1e-12")
