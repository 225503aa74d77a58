"""Symmetry classification and the symmetry-conditional S-matrix relation suites.

A local potential is classified by sampling: T invariance means real V,
parity means V(x) = V(-x), the combined reflection-conjugation invariance
means V*(-x) = V(x), and generalised parity means V(X0 - x) = V(x) for
some centre X0/2.  Each detected class switches on a suite of relations
among the S-matrix elements; ``check_s_relations`` evaluates every
applicable relation and reports one residual per relation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ScatteringCoefficients, as_wavenumber
from .numeric import LocalPotential


#: the relation suites, in report order
SUITES = ("local", "p", "p_generalized", "t", "hermitian_t", "pt")


@dataclass(frozen=True)
class SymmetryClass:
    """Detected invariances of a potential (or kernel) at sampling tolerance.

    ``parity_generalized`` and ``x0`` are found for local potentials only;
    ``reality`` and ``symmetric_xy`` (K(x,y) = K(y,x)) for kernels only.
    """

    hermitian: bool = False
    parity: bool = False
    time_reversal: bool = False
    pt: bool = False
    parity_generalized: bool = False
    x0: float | None = None
    reality: bool = False
    symmetric_xy: bool = False


@dataclass(frozen=True)
class RelationRecord:
    """One relation: its residual against its tolerance.

    ``applicable`` is False when the relation presupposes non-vanishing
    S elements that are absent (it is then reported, not evaluated).
    ``suite`` is the entry of ``SUITES`` whose class switched it on.
    """

    name: str
    anchor: str
    residual: float
    tolerance: float
    holds: bool
    suite: str
    applicable: bool = True


@dataclass(frozen=True)
class RelationReport:
    records: tuple

    def __iter__(self):
        return iter(self.records)

    def by_name(self, name: str) -> RelationRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records if r.applicable)


def _sample_grid(v: LocalPotential, count: int) -> np.ndarray:
    half = max(abs(v.x_left), abs(v.x_right)) * 1.05 + 0.5
    return np.linspace(-half, half, count)


def classify_local_potential(v: LocalPotential, sample_count: int = 512,
                             tol: float = 1e-10, search_x0: bool = True) -> SymmetryClass:
    """Flag the invariances of a local potential by symmetric sampling.

    Hermiticity coincides with T invariance for local potentials.  The
    generalised-parity search minimises max|V(x) - V(x0 - x)| over the
    candidate shift x0 (skipped when plain parity already holds).
    """
    xs = _sample_grid(v, sample_count)
    vals = v.sample(xs)
    rev = vals[::-1]  # V(-x) on a symmetric grid
    t_flag = float(np.max(np.abs(vals.imag))) < tol
    p_flag = float(np.max(np.abs(vals - rev))) < tol
    pt_flag = float(np.max(np.abs(vals - np.conj(rev)))) < tol

    pg_flag, x0 = p_flag, (0.0 if p_flag else None)
    if not p_flag and search_x0:
        def mismatch(c):
            ref = v.sample(c - xs)
            return float(np.max(np.abs(vals - ref)))

        # a reflection-symmetric potential has a symmetric support and a
        # symmetric |V| profile, so both give the centre directly; the
        # max-mismatch criterion then verifies the candidate exactly
        # (a blind scan cannot find the centre of a discontinuous well)
        candidates = [v.x_left + v.x_right]
        weight = np.abs(vals)
        if weight.sum() > 0:
            candidates.append(2.0 * float((xs * weight).sum() / weight.sum()))
        span = 2 * max(abs(v.x_left), abs(v.x_right))
        coarse = list(np.linspace(-span, span, 81))
        candidates.append(min(coarse, key=mismatch))
        for cand in candidates:
            if mismatch(cand) < tol:
                pg_flag, x0 = True, float(cand)
                break
    return SymmetryClass(
        hermitian=t_flag, parity=p_flag, time_reversal=t_flag, pt=pt_flag,
        parity_generalized=pg_flag, x0=x0,
    )


def check_s_relations(s: ScatteringCoefficients, cls: SymmetryClass, local: bool,
                      tol: float = 1e-10, k=None) -> RelationReport:
    """Evaluate every relation suite switched on by the detected class.

    ``local`` gates the intertwining-dependent relations (equality of the
    two transmissions and the reflection/transmission phase locks), which
    hold for local potentials but not for non-local kernels.  Relations
    whose derivation presupposes non-vanishing S elements are reported as
    not applicable when any element is below tolerance.
    """
    records: list = []
    mat = s.as_array()
    det = s.det
    all_nonzero = bool(np.min(np.abs(mat)) >= tol)

    def record(suite, name, anchor, residual, applicable=True):
        residual = float(residual) if applicable else float("nan")
        records.append(RelationRecord(name=name, anchor=anchor, residual=residual,
                                      tolerance=tol, holds=applicable and residual <= tol,
                                      applicable=applicable, suite=suite))

    if local:
        record("local", "local_equal_transmission", "T_lr = T_rl", abs(s.t_lr - s.t_rl))

    if cls.parity:
        record("p", "p_equal_transmission", "S_RR = S_LL", abs(s.t_lr - s.t_rl))
        record("p", "p_equal_reflection", "S_RL = S_LR", abs(s.r_rl - s.r_lr))

    if cls.parity_generalized and not cls.parity and cls.x0 is not None and k is not None:
        kv = as_wavenumber(k).k
        record("p_generalized", "pg_equal_transmission", "S_RR = S_LL", abs(s.t_lr - s.t_rl))
        record("p_generalized", "pg_reflection_phase", "R_rl e^{ikX0} = R_lr e^{-ikX0}",
               abs(s.r_rl * cmath.exp(1j * kv * cls.x0) - s.r_lr * cmath.exp(-1j * kv * cls.x0)))

    if cls.time_reversal:
        record("t", "t_reflection_moduli", "|S_LR| = |S_RL|",
               abs(abs(s.r_lr) - abs(s.r_rl)), all_nonzero)
        record("t", "t_transmission_product_real", "Im(T_rl conj(T_lr)) = 0",
               abs((s.t_rl * s.t_lr.conjugate()).imag), all_nonzero)
        record("t", "t_unimodular_det", "|det S| = 1", abs(abs(det) - 1.0), all_nonzero)

    if cls.hermitian and cls.time_reversal:
        record("hermitian_t", "ht_unitarity", "S^dag S = 1",
               np.max(np.abs(mat.conj().T @ mat - np.eye(2))))
        record("hermitian_t", "ht_equal_transmission", "S_RR = S_LL", abs(s.t_lr - s.t_rl))
        record("hermitian_t", "ht_reflection_moduli", "|R_lr| = |R_rl|",
               abs(abs(s.r_lr) - abs(s.r_rl)))

    if cls.pt:
        record("pt", "pt_inverse_conjugate", "S^-1 = S*",
               np.max(np.abs(mat @ mat.conj() - np.eye(2))))
        record("pt", "pt_unimodular_det", "|det S| = 1", abs(abs(det) - 1.0))
        record("pt", "pt_transmission_moduli", "|T_lr| = |T_rl|", abs(abs(s.t_lr) - abs(s.t_rl)))
        record("pt", "pt_reflection_product_real", "Im(R_rl conj(R_lr)) = 0",
               abs((s.r_rl * s.r_lr.conjugate()).imag))
        if local:
            record("pt", "pt_local_equal_transmission", "T_lr = T_rl", abs(s.t_lr - s.t_rl))
            record("pt", "pt_local_lr_phase_lock", "R_lr conj(T_lr) + conj(R_lr) T_lr = 0",
                   abs(s.r_lr * s.t_lr.conjugate() + s.r_lr.conjugate() * s.t_lr), all_nonzero)
            record("pt", "pt_local_rl_phase_lock", "R_rl conj(T_rl) + conj(R_rl) T_rl = 0",
                   abs(s.r_rl * s.t_rl.conjugate() + s.r_rl.conjugate() * s.t_rl), all_nonzero)

    return RelationReport(records=tuple(records))


@dataclass(frozen=True)
class ExactPtResult:
    """Outcome of the exact-asymptotic-symmetry test on the S matrix."""

    is_exact: bool
    theta_lr: float
    theta_rl: float


def exact_asymptotic_pt_check(s: ScatteringCoefficients, tol: float = 1e-10) -> ExactPtResult:
    """Detect reflectionless, unimodular-transmission S matrices.

    The scattering states are themselves eigenstates of the combined
    reflection-conjugation operation exactly when both reflections vanish
    and both transmissions are unimodular; the reported angles are the
    combined transmission phases theta with T = e^{-i theta}, modulo 2 pi
    (the split between the eigenvalue phase and the incident-amplitude
    phase is not observable from S alone).
    """
    is_exact = (abs(s.r_lr) < tol and abs(s.r_rl) < tol
                and abs(abs(s.t_lr) - 1.0) < tol and abs(abs(s.t_rl) - 1.0) < tol)
    theta_lr = (-cmath.phase(s.t_lr)) % (2 * math.pi) if s.t_lr != 0 else float("nan")
    theta_rl = (-cmath.phase(s.t_rl)) % (2 * math.pi) if s.t_rl != 0 else float("nan")
    return ExactPtResult(is_exact=is_exact, theta_lr=theta_lr, theta_rl=theta_rl)
