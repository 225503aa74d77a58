"""Classification of potentials and the symmetry-conditional S relations."""

import math

import numpy as np
import oracle
import pytest

from ptscatter import (
    CentrifugalParams,
    LocalPotential,
    ScarfParams,
    ScatteringCoefficients,
    SeparableKernel,
    SquareWellParams,
    SymmetryClass,
    centrifugal_coefficients,
    check_s_relations,
    classify_local_potential,
    exact_asymptotic_pt_check,
    nonlocal_coefficients,
    scarf_coefficients,
    scarf_potential,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
)
from ptscatter.errors import PrecisionLoss

PT_WELL = SquareWellParams(1.0, 0.5, 1.0)
HERMITIAN_WELL = SquareWellParams(1.0, 0.0, 1.0)


def _shifted_well_smatrix(k) -> ScatteringCoefficients:
    """S of the hermitian well centred at 2: its M displaced by the edge phases."""
    m = oracle.sandwich(square_well_transfer(HERMITIAN_WELL, k), k, 2.0, 2.0)
    return ScatteringCoefficients(*map(complex, oracle.smatrix(*m.ravel())))


class TestClassification:
    def test_real_even_potential_has_all_flags(self):
        pot = LocalPotential(evaluate=lambda x: -1.0 / math.cosh(x) ** 2,
                             x_left=-20.0, x_right=20.0)
        cls = classify_local_potential(pot)
        assert cls.hermitian and cls.parity and cls.time_reversal and cls.pt
        assert cls.parity_generalized and cls.x0 == 0.0

    def test_complex_square_well_is_pt_only(self):
        cls = classify_local_potential(square_well_potential(PT_WELL))
        assert cls.pt
        assert not cls.parity and not cls.time_reversal and not cls.hermitian
        assert not cls.parity_generalized

    def test_shifted_well_generalized_parity(self):
        """A hermitian well centred at 2 is symmetric about x = 2: x0 = 4."""
        cls = classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0))
        assert not cls.parity
        assert cls.parity_generalized
        assert abs(cls.x0 - 4.0) < 1e-3

    def test_scarf_classification(self):
        hermitian = classify_local_potential(scarf_potential(ScarfParams(1.3, 0.7)))
        assert hermitian.hermitian and hermitian.time_reversal and not hermitian.parity
        complex_one = classify_local_potential(scarf_potential(ScarfParams(1.3, 0.7j)))
        assert complex_one.pt and not complex_one.hermitian

    def test_non_finite_profile_raises_precision_loss(self):
        """A profile that overflows on the sample grid is not classified from NaN."""
        with pytest.raises(PrecisionLoss, match="not finite"):
            classify_local_potential(scarf_potential(ScarfParams(s=1e200, lam=0.7)))

    def test_centrifugal_classification(self):
        from ptscatter import centrifugal_potential

        cls = classify_local_potential(centrifugal_potential(CentrifugalParams(2.0, 0.1)))
        assert cls.pt and not cls.hermitian


class TestRelationSuites:
    def test_pt_square_well_suite(self):
        cls = classify_local_potential(square_well_potential(PT_WELL))
        s = square_well_coefficients(PT_WELL, 1.0)
        report = check_s_relations(s, cls, local=True)
        assert report.by_name("pt_inverse_conjugate").residual < 1e-10
        assert report.by_name("pt_local_equal_transmission").residual < 1e-14
        assert report.by_name("pt_unimodular_det").residual < 1e-10
        assert report.all_hold
        names = {r.name for r in report}
        assert not any(n.startswith("p_") for n in names)
        assert not any(n.startswith("ht_") for n in names)

    def test_hermitian_scarf_unitarity_suite(self):
        cls = classify_local_potential(scarf_potential(ScarfParams(1.3, 0.7)))
        s = scarf_coefficients(ScarfParams(1.3, 0.7), 0.9)
        report = check_s_relations(s, cls, local=True, tol=1e-9)
        assert report.by_name("ht_unitarity").residual < 1e-9
        assert report.all_hold

    def test_hermitian_even_potential_p_suite(self):
        pot = LocalPotential(evaluate=lambda x: -1.0 / math.cosh(x) ** 2,
                             x_left=-20.0, x_right=20.0)
        cls = classify_local_potential(pot)
        # Poeschl-Teller-like: use the Scarf closed form at lam = 0
        s = scarf_coefficients(ScarfParams(1.3, 0.0), 0.9)
        report = check_s_relations(s, cls, local=True, tol=1e-9)
        assert report.by_name("p_equal_transmission").holds
        assert report.by_name("p_equal_reflection").holds

    def test_generalized_parity_suite_for_shifted_well(self):
        """Well centred at 2: S_RR = S_LL and the reflection phases lock at X0 = 4."""
        k = 1.1
        s = _shifted_well_smatrix(k)
        cls = classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0))
        assert cls.parity_generalized and abs(cls.x0 - 4.0) < 1e-6
        report = check_s_relations(s, cls, local=True, k=k)
        assert report.by_name("pg_equal_transmission").holds
        assert report.by_name("pg_reflection_phase").holds
        # a wrong centre breaks the phase relation
        wrong = SymmetryClass(hermitian=True, time_reversal=True,
                              parity_generalized=True, x0=1.0)
        bad = check_s_relations(s, wrong, local=True, k=k)
        assert not bad.by_name("pg_reflection_phase").holds

    def test_generalized_parity_suite_needs_k(self):
        """Without k the suite's two relations would be dropped and the rest
        reported as all holding: the class asks for k, so its absence raises."""
        k = 1.1
        s = _shifted_well_smatrix(k)
        cls = classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0))
        with pytest.raises(ValueError, match="generalised-parity suite .* needs the wave numbers k"):
            check_s_relations(s, cls, local=True)
        assert len(check_s_relations(s, cls, local=True, k=k).records) == 9

    def test_asymmetric_nonlocal_pt_kernel(self):
        """|det S| = 1 and |T_lr| = |T_rl| hold; T_lr = T_rl fails (non-local)."""
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        c = nonlocal_coefficients(kernel, 1.0)
        s = c
        cls = SymmetryClass(pt=True)
        report = check_s_relations(s, cls, local=False)
        assert report.by_name("pt_unimodular_det").holds
        assert report.by_name("pt_transmission_moduli").holds
        assert report.by_name("pt_inverse_conjugate").holds
        assert report.all_hold
        # the local-only equality genuinely fails here
        assert abs(s.t_lr - s.t_rl) > 1e-3
        assert not any(r.name == "pt_local_equal_transmission" for r in report)

    def test_suites_follow_flags_over_k_grid(self):
        """Detected flags imply sub-tolerance residuals across k in [0.2, 4]."""
        from ptscatter import centrifugal_potential

        cf = CentrifugalParams(2.0, 0.1)
        cases = [
            (square_well_potential(PT_WELL),
             lambda k: square_well_coefficients(PT_WELL, k)),
            (square_well_potential(HERMITIAN_WELL),
             lambda k: square_well_coefficients(HERMITIAN_WELL, k)),
            (scarf_potential(ScarfParams(1.3, 0.7)),
             lambda k: scarf_coefficients(ScarfParams(1.3, 0.7), k)),
            (centrifugal_potential(cf),
             lambda k: centrifugal_coefficients(cf, k)),
        ]
        for pot, solver in cases:
            cls = classify_local_potential(pot)
            for k in np.linspace(0.2, 4.0, 50):
                s = solver(float(k))
                report = check_s_relations(s, cls, local=True, tol=1e-9)
                assert report.all_hold, (cls, k, [(r.name, r.residual) for r in report
                                                  if r.applicable and not r.holds])

    def test_tightening_tolerance_never_flips_to_true(self):
        cls = classify_local_potential(square_well_potential(PT_WELL))
        s = square_well_coefficients(PT_WELL, 1.0)
        loose = check_s_relations(s, cls, local=True, tol=1e-6)
        tight = check_s_relations(s, cls, local=True, tol=1e-12)
        for rl, rt in zip(loose, tight):
            if rl.applicable and not rl.holds:
                assert not rt.holds

    def test_reflectionless_marks_ratio_relations_not_applicable(self):
        c = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0)
        s = c
        cls = SymmetryClass(pt=True)
        report = check_s_relations(s, cls, local=True)
        lock = report.by_name("pt_local_lr_phase_lock")
        assert not lock.applicable and math.isnan(lock.residual)


class TestExactAsymptoticPt:
    def test_centrifugal_is_exact(self):
        c = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0)
        res = exact_asymptotic_pt_check(c)
        assert res.is_exact
        assert abs(res.theta_lr) < 1e-12  # T = 1 exactly

    def test_reflectionless_scarf_is_exact(self):
        c = scarf_coefficients(ScarfParams(2.0, 1j), 1.0)
        res = exact_asymptotic_pt_check(c)
        assert res.is_exact
        # T = e^{-i theta}: the reported angle reproduces the transmission
        assert abs(np.exp(-1j * res.theta_lr) - c.t_lr) < 1e-12

    def test_pt_square_well_is_not_exact(self):
        c = square_well_coefficients(PT_WELL, 1.0)
        assert not exact_asymptotic_pt_check(c).is_exact

    def test_exactness_implies_unitarity(self):
        for c in (centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0),
                  scarf_coefficients(ScarfParams(3.0, 2j), 0.7)):
            s = c
            if exact_asymptotic_pt_check(s).is_exact:
                m = s.as_array()
                assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-9


class TestRelationSuiteField:
    # the suite each relation belongs to, as the report once read it off the name
    PREFIXES = {"local": "local_", "p": "p_", "p_generalized": "pg_", "t": "t_",
                "hermitian_t": "ht_", "pt": "pt_"}

    def test_suite_field_matches_name_prefix(self):
        from ptscatter import centrifugal_potential
        from ptscatter.symmetry import SUITES

        cf = CentrifugalParams(2.0, 0.1)
        even = LocalPotential(evaluate=lambda x: -1.0 / math.cosh(x) ** 2,
                              x_left=-20.0, x_right=20.0)
        k = 1.1
        shifted = _shifted_well_smatrix(k)
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        cases = [
            (classify_local_potential(square_well_potential(PT_WELL)),
             square_well_coefficients(PT_WELL, k), True),
            (classify_local_potential(square_well_potential(HERMITIAN_WELL)),
             square_well_coefficients(HERMITIAN_WELL, k), True),
            (classify_local_potential(scarf_potential(ScarfParams(1.3, 0.7))),
             scarf_coefficients(ScarfParams(1.3, 0.7), k), True),
            (classify_local_potential(even), scarf_coefficients(ScarfParams(1.3, 0.0), k), True),
            (classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0)),
             shifted, True),
            (SymmetryClass(hermitian=True, time_reversal=True, parity_generalized=True, x0=1.0),
             shifted, True),
            (SymmetryClass(pt=True), nonlocal_coefficients(kernel, k), False),
            (SymmetryClass(pt=True), centrifugal_coefficients(cf, k), True),
            (SymmetryClass(time_reversal=True), centrifugal_coefficients(cf, k), True),
            (classify_local_potential(centrifugal_potential(cf)),
             centrifugal_coefficients(cf, k), True),
        ]
        seen = set()
        for cls, s, local in cases:
            for r in check_s_relations(s, cls, local=local, k=k):
                want = [suite for suite, prefix in self.PREFIXES.items()
                        if r.name.startswith(prefix)]
                assert [r.suite] == want, (r.name, r.suite)
                seen.add(r.suite)
        assert seen == set(SUITES) == set(self.PREFIXES)
