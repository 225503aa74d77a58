"""Classification of potentials and the symmetry-conditional S relations."""

import math

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    kernel_symmetry_class,
    nonlocal_coefficients,
    scarf_coefficients,
    scarf_potential,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
)
from ptscatter.errors import PrecisionLoss
from ptscatter.symmetry import SUITES

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
        assert cls.symmetric_xy          # V(x) delta(x - y) is symmetric in x and y

    def test_complex_square_well_is_pt_only(self):
        cls = classify_local_potential(square_well_potential(PT_WELL))
        assert cls.pt and cls.symmetric_xy
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
        report = check_s_relations(s, cls)
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
        report = check_s_relations(s, cls, tol=1e-9)
        assert report.by_name("ht_unitarity").residual < 1e-9
        assert report.all_hold

    def test_hermitian_even_potential_p_suite(self):
        pot = LocalPotential(evaluate=lambda x: -1.0 / math.cosh(x) ** 2,
                             x_left=-20.0, x_right=20.0)
        cls = classify_local_potential(pot)
        # Poeschl-Teller-like: use the Scarf closed form at lam = 0
        s = scarf_coefficients(ScarfParams(1.3, 0.0), 0.9)
        report = check_s_relations(s, cls, tol=1e-9)
        assert report.by_name("p_equal_transmission").holds
        assert report.by_name("p_equal_reflection").holds

    def test_generalized_parity_suite_for_shifted_well(self):
        """Well centred at 2: S_RR = S_LL and the reflection phases lock at X0 = 4."""
        k = 1.1
        s = _shifted_well_smatrix(k)
        cls = classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0))
        assert cls.parity_generalized and abs(cls.x0 - 4.0) < 1e-6
        report = check_s_relations(s, cls, k=k)
        assert report.by_name("pg_equal_transmission").holds
        assert report.by_name("pg_reflection_phase").holds
        # a wrong centre breaks the phase relation
        wrong = SymmetryClass(hermitian=True, time_reversal=True,
                              parity_generalized=True, x0=1.0, symmetric_xy=True)
        bad = check_s_relations(s, wrong, k=k)
        assert not bad.by_name("pg_reflection_phase").holds

    def test_generalized_parity_suite_needs_k(self):
        """Without k the suite's two relations would be dropped and the rest
        reported as all holding: the class asks for k, so its absence raises."""
        k = 1.1
        s = _shifted_well_smatrix(k)
        cls = classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0))
        with pytest.raises(ValueError, match="generalised-parity suite .* needs the wave numbers k"):
            check_s_relations(s, cls)
        assert len(check_s_relations(s, cls, k=k).records) == 9

    def test_asymmetric_nonlocal_pt_kernel(self):
        """|det S| = 1 and |T_lr| = |T_rl| hold; T_lr = T_rl fails (K(x, y) != K(y, x))."""
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        c = nonlocal_coefficients(kernel, 1.0)
        s = c
        cls = SymmetryClass(pt=True)
        report = check_s_relations(s, cls)
        assert report.by_name("pt_unimodular_det").holds
        assert report.by_name("pt_transmission_moduli").holds
        assert report.by_name("pt_inverse_conjugate").holds
        assert report.all_hold
        # the equality of a symmetric kernel genuinely fails here
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
                report = check_s_relations(s, cls, tol=1e-9)
                assert report.all_hold, (cls, k, [(r.name, r.residual) for r in report
                                                  if r.applicable and not r.holds])

    def test_tightening_tolerance_never_flips_to_true(self):
        cls = classify_local_potential(square_well_potential(PT_WELL))
        s = square_well_coefficients(PT_WELL, 1.0)
        loose = check_s_relations(s, cls, tol=1e-6)
        tight = check_s_relations(s, cls, tol=1e-12)
        for rl, rt in zip(loose, tight):
            if rl.applicable and not rl.holds:
                assert not rt.holds

    def test_reflectionless_marks_ratio_relations_not_applicable(self):
        c = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), 1.0)
        s = c
        cls = SymmetryClass(pt=True, symmetric_xy=True)
        report = check_s_relations(s, cls)
        lock = report.by_name("pt_local_lr_phase_lock")
        assert not lock.applicable and math.isnan(lock.residual)


class TestHermitianKernel:
    """A kernel with g = h and alpha = -beta is hermitian but not T invariant:
    hermiticity alone switches unitarity on, T_lr = T_rl needs T as well."""

    KS = [0.5, 1.0, 2.0]

    def test_hermitian_kernel_is_unitary(self):
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, alpha=0.3, beta=-0.3)
        cls = kernel_symmetry_class(kernel)
        assert cls.hermitian and not cls.time_reversal
        s = nonlocal_coefficients(kernel, self.KS)
        report = check_s_relations(s, cls, k=self.KS)
        assert [r.name for r in report if r.suite == "hermitian_t"] == ["ht_unitarity",
                                                                       "ht_reflection_moduli"]
        assert np.all(report.by_name("ht_unitarity").residual < 1e-15)
        assert np.all(report.by_name("ht_reflection_moduli").residual == 0)
        assert report.suites["hermitian_t"] == "holds" and report.all_hold
        assert np.max(np.abs(s.t_lr - s.t_rl)) > 1      # equal transmission stays off

    def test_forced_hermitian_class_fails_unitarity(self):
        """beta = 0.7 alpha is not hermitian: forcing the flag shows it."""
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=1.0, alpha=0.3, beta=0.21)
        s = nonlocal_coefficients(kernel, self.KS)
        report = check_s_relations(s, SymmetryClass(hermitian=True), k=self.KS)
        assert not np.any(report.by_name("ht_unitarity").holds)
        assert report.suites["hermitian_t"] == "violated" and not report.all_hold


#: the relations that K(x, y) = K(y, x) switches on, with PT for the last three
RECIPROCITY = ("local_equal_transmission", "pt_local_equal_transmission",
               "pt_local_lr_phase_lock", "pt_local_rl_phase_lock")


def _kernel(form: str, width: float, alpha: float, beta: float, lam: float) -> SeparableKernel:
    """A kernel with g = h: Yamaguchi with gamma = delta = width, or a generic
    even form factor of that width."""
    if form == "yamaguchi":
        return SeparableKernel.yamaguchi(gamma=width, delta=width, alpha=alpha, beta=beta, lam=lam)
    f = {"gauss": lambda x: np.exp(-width * x * x),
         "lorentz": lambda x: (1 + width * x * x) ** -2.0}[form]
    return SeparableKernel.from_form_factors(f, f, alpha=alpha, beta=beta, lam=lam)


class TestSymmetricKernel:
    """g = h and alpha = beta make K(x, y) = K(y, x): the class alone switches
    reciprocity on, T_lr = T_rl, and with PT the phase locks."""

    KS = np.linspace(0.2, 4.0, 12)

    @settings(max_examples=30, deadline=None)
    @given(form=st.sampled_from(["yamaguchi", "gauss", "lorentz"]), width=st.floats(0.5, 2.0),
           alpha=st.floats(-1.0, 1.0),
           shift=st.one_of(st.just(0.0), st.floats(0.1, 1.0), st.floats(-1.0, -0.1)),
           lam=st.one_of(st.floats(-2.0, -0.2), st.floats(0.2, 2.0)))
    def test_symmetric_kernels_are_reciprocal(self, form, width, alpha, shift, lam):
        kernel = _kernel(form, width, alpha, alpha + shift, lam)
        cls = kernel_symmetry_class(kernel)
        s = nonlocal_coefficients(kernel, self.KS)
        report = check_s_relations(s, cls, k=self.KS)
        reported = {r.name for r in report} & set(RECIPROCITY)
        if shift == 0:
            assert cls.symmetric_xy and cls.pt and reported == set(RECIPROCITY)
            assert report.suites["local"] == report.suites["pt"] == "holds"
            assert report.all_hold, [(r.name, r.residual) for r in report]
        else:
            assert not cls.symmetric_xy and not reported
            forced = check_s_relations(s, SymmetryClass(**{**vars(cls), "symmetric_xy": True}),
                                       k=self.KS)
            assert forced.suites["local"] == "violated"

    def test_locality_is_not_an_argument(self):
        """A positional third argument is refused, not read as the tolerance."""
        s = square_well_coefficients(PT_WELL, 1.0)
        with pytest.raises(TypeError):
            check_s_relations(s, classify_local_potential(square_well_potential(PT_WELL)), True)


def _at(s: ScatteringCoefficients, i: int) -> ScatteringCoefficients:
    """The one-k record of element i of a grid record."""
    return ScatteringCoefficients(*(complex(z[i]) for z in vars(s).values()))


def _grid(*records) -> ScatteringCoefficients:
    """One grid record of the elements of several records, end to end."""
    return ScatteringCoefficients(*map(np.hstack, zip(*(vars(r).values() for r in records))))


class TestSuiteVerdicts:
    """``RelationReport.suites`` and ``all_hold`` over a k grid against one
    report per k: a suite is violated where it is violated at some k, holds
    where it holds at some k and is violated at none, else is not applicable."""

    KS = np.linspace(0.5, 2.5, 5)

    @staticmethod
    def per_k(s, cls, ks) -> tuple:
        verdicts, all_hold = dict.fromkeys(SUITES, "not-applicable"), True
        for i, k in enumerate(ks):
            report = check_s_relations(_at(s, i), cls, k=float(k))
            all_hold &= all(r.holds for r in report if r.applicable)
            for suite in SUITES:
                held = [r.holds for r in report if r.suite == suite and r.applicable]
                if held and verdicts[suite] != "violated":
                    verdicts[suite] = "holds" if all(held) else "violated"
        return verdicts, all_hold

    def cases(self):
        ks = self.KS
        pt_well, hermitian_well = (square_well_coefficients(w, ks) for w in (PT_WELL, HERMITIAN_WELL))
        reflectionless = centrifugal_coefficients(CentrifugalParams(2.0, 0.1), ks)
        shifted = _grid(*(_shifted_well_smatrix(k) for k in ks))
        return [
            # the PT well holds its own class; a wrong class is violated
            (pt_well, classify_local_potential(square_well_potential(PT_WELL)), ks),
            (pt_well, SymmetryClass(hermitian=True, parity=True, time_reversal=True,
                                    symmetric_xy=True), ks),
            # T relations on a reflectionless S apply at no k
            (reflectionless, SymmetryClass(time_reversal=True, symmetric_xy=True), ks),
            # the phase locks apply on the well's half of the grid only
            (_grid(pt_well, reflectionless), SymmetryClass(pt=True, symmetric_xy=True),
             np.concatenate([ks, ks])),
            # unitary on one half and not on the other: violated
            (_grid(hermitian_well, pt_well),
             SymmetryClass(hermitian=True, time_reversal=True, symmetric_xy=True),
             np.concatenate([ks, ks])),
            (shifted, SymmetryClass(hermitian=True, time_reversal=True, parity_generalized=True,
                                    x0=4.0, symmetric_xy=True), ks),
        ]

    def test_grid_verdicts_equal_the_per_k_loop(self):
        """Also on the one-k record of the grid's first k."""
        seen = set()
        for s, cls, ks in self.cases():
            report = check_s_relations(s, cls, k=ks)
            verdicts, all_hold = self.per_k(s, cls, ks)
            assert report.suites == verdicts, cls
            assert list(report.suites) == list(SUITES)
            assert report.all_hold == all_hold
            seen.update(verdicts.values())
            one = check_s_relations(_at(s, 0), cls, k=float(ks[0]))
            assert (one.suites, one.all_hold) == self.per_k(s, cls, ks[:1])
        assert seen == {"holds", "violated", "not-applicable"}


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

        cf = CentrifugalParams(2.0, 0.1)
        even = LocalPotential(evaluate=lambda x: -1.0 / math.cosh(x) ** 2,
                              x_left=-20.0, x_right=20.0)
        k = 1.1
        shifted = _shifted_well_smatrix(k)
        kernel = SeparableKernel.yamaguchi(gamma=1.0, delta=2.0, alpha=0.3, beta=0.7, lam=1.0)
        cases = [
            (classify_local_potential(square_well_potential(PT_WELL)),
             square_well_coefficients(PT_WELL, k)),
            (classify_local_potential(square_well_potential(HERMITIAN_WELL)),
             square_well_coefficients(HERMITIAN_WELL, k)),
            (classify_local_potential(scarf_potential(ScarfParams(1.3, 0.7))),
             scarf_coefficients(ScarfParams(1.3, 0.7), k)),
            (classify_local_potential(even), scarf_coefficients(ScarfParams(1.3, 0.0), k)),
            (classify_local_potential(square_well_potential(HERMITIAN_WELL, x0=2.0)), shifted),
            (SymmetryClass(hermitian=True, time_reversal=True, parity_generalized=True, x0=1.0,
                           symmetric_xy=True), shifted),
            (SymmetryClass(pt=True), nonlocal_coefficients(kernel, k)),
            (SymmetryClass(pt=True, symmetric_xy=True), centrifugal_coefficients(cf, k)),
            (SymmetryClass(time_reversal=True, symmetric_xy=True), centrifugal_coefficients(cf, k)),
            (classify_local_potential(centrifugal_potential(cf)),
             centrifugal_coefficients(cf, k)),
        ]
        seen = set()
        for cls, s in cases:
            for r in check_s_relations(s, cls, k=k):
                want = [suite for suite, prefix in self.PREFIXES.items()
                        if r.name.startswith(prefix)]
                assert [r.suite] == want, (r.name, r.suite)
                seen.add(r.suite)
        assert seen == set(SUITES) == set(self.PREFIXES)
