"""Symmetry classification and the symmetry-conditional S-matrix relation suites.

A local potential is classified by sampling: T invariance means real V,
parity means V(x) = V(-x), the combined reflection-conjugation invariance
means V*(-x) = V(x), and generalised parity means V(X0 - x) = V(x) for
some centre X0/2.  Each detected class switches on a suite of relations
among the S-matrix elements; ``check_s_relations`` evaluates every
applicable relation and reports one residual per relation, or one residual
column per relation when the S matrix holds columns over a k grid.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import COLUMN, ScatteringCoefficients, _frozen, _PyComplex, _raise_first, _wavenumbers
from .errors import PrecisionLoss, TransferOverflow

if TYPE_CHECKING:
    from .numeric import LocalPotential


#: the relation suites, in report order
SUITES = ("local", "p", "p_generalized", "t", "hermitian_t", "pt")


@_frozen
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


@_frozen
class RelationRecord:
    """One relation: its residual against its tolerance.

    ``applicable`` is False when the relation presupposes non-vanishing
    S elements that are absent (it is then reported, not evaluated).
    ``suite`` is the entry of ``SUITES`` whose class switched it on.  Over a
    k grid ``residual``, ``holds`` and ``applicable`` are columns.
    """

    name: str
    anchor: str
    residual: float
    tolerance: float
    holds: bool
    suite: str
    applicable: bool = True


@_frozen
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


#: points of the symmetric grid a potential is classified on, and the largest
#: max|V(x) - V(x')| that counts as an invariance
SAMPLE_COUNT, CLASSIFY_TOL = 512, 1e-10


def classify_local_potential(v: LocalPotential) -> SymmetryClass:
    """Flag the invariances of a local potential by symmetric sampling.

    Hermiticity coincides with T invariance for local potentials.  The
    generalised-parity search minimises max|V(x) - V(x0 - x)| over the
    candidate shift x0 (skipped when plain parity already holds).
    """
    half = max(abs(v.x_left), abs(v.x_right)) * 1.05 + 0.5
    xs = np.linspace(-half, half, SAMPLE_COUNT)
    with np.errstate(all="ignore"):
        vals = v.sample(xs)
    if not np.all(np.isfinite(vals)):
        raise PrecisionLoss("potential profile is not finite on the sample grid; cannot classify it")
    rev = vals[::-1]  # V(-x) on a symmetric grid
    t_flag = float(np.max(np.abs(vals.imag))) < CLASSIFY_TOL
    p_flag = float(np.max(np.abs(vals - rev))) < CLASSIFY_TOL
    pt_flag = float(np.max(np.abs(vals - np.conj(rev)))) < CLASSIFY_TOL

    pg_flag, x0 = p_flag, (0.0 if p_flag else None)
    if not p_flag:
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
            if mismatch(cand) < CLASSIFY_TOL:
                pg_flag, x0 = True, float(cand)
                break
    return SymmetryClass(
        hermitian=t_flag, parity=p_flag, time_reversal=t_flag, pt=pt_flag,
        parity_generalized=pg_flag, x0=x0,
    )


def _columns(s: ScatteringCoefficients) -> tuple:
    """(t_lr, r_lr, t_rl, r_rl) as complex columns, and whether s is one matrix."""
    one = np.ndim(s.t_lr) == 0
    return tuple(_PyComplex.of(np.atleast_1d(np.asarray(z, dtype=complex)))
                 for z in (s.t_lr, s.r_lr, s.t_rl, s.r_rl)), one


def check_s_relations(s: ScatteringCoefficients, cls: SymmetryClass, local: bool,
                      tol: float = 1e-10, k=None) -> RelationReport:
    """Evaluate every relation suite switched on by the detected class.

    ``local`` gates the intertwining-dependent relations (equality of the
    two transmissions and the reflection/transmission phase locks), which
    hold for local potentials but not for non-local kernels.  Relations
    whose derivation presupposes non-vanishing S elements are reported as
    not applicable when any element is below tolerance.

    ``s`` may hold columns over a k grid ``k`` (a scalar k is repeated);
    every residual is then a column, computed with CPython's rounding at
    each k.  A modulus of finite parts or a generalised-parity phase k*x0
    beyond the float range raises TransferOverflow naming the first such k.
    """
    (t_lr, r_lr, t_rl, r_rl), one = _columns(s)
    ks = None if k is None else np.broadcast_to(_wavenumbers(k)[0], t_lr.real.shape)
    records, overflow = [], []          # overflow: where |z| is infinite, z finite

    def modulus(z: _PyComplex) -> np.ndarray:
        m = abs(z)
        overflow.append(np.isinf(m) & np.isfinite(z.real) & np.isfinite(z.imag))
        return m

    with np.errstate(all="ignore"):
        mat = np.stack([np.stack([t_lr.array(), r_rl.array()], -1),
                        np.stack([r_lr.array(), t_rl.array()], -1)], -2)
        det = t_lr * t_rl - r_rl * r_lr
        all_nonzero = np.min(np.abs(mat), axis=(1, 2)) >= tol

        def record(suite, name, anchor, residual, applicable=True):
            applicable = np.broadcast_to(applicable, all_nonzero.shape)
            residual = np.where(applicable, residual, np.nan)
            records.append(RelationRecord(name=name, anchor=anchor, residual=residual,
                                          tolerance=tol, holds=applicable & (residual <= tol),
                                          applicable=applicable, suite=suite))

        if local:
            record("local", "local_equal_transmission", "T_lr = T_rl", modulus(t_lr - t_rl))

        if cls.parity:
            record("p", "p_equal_transmission", "S_RR = S_LL", modulus(t_lr - t_rl))
            record("p", "p_equal_reflection", "S_RL = S_LR", modulus(r_rl - r_lr))

        if cls.parity_generalized and not cls.parity and cls.x0 is not None and k is not None:
            kv = _PyComplex(ks)
            arg = 1j * kv * cls.x0
            overflow.append(np.isinf(arg.imag))
            record("p_generalized", "pg_equal_transmission", "S_RR = S_LL",
                   modulus(t_lr - t_rl))
            record("p_generalized", "pg_reflection_phase", "R_rl e^{ikX0} = R_lr e^{-ikX0}",
                   modulus(r_rl * arg.exp() - r_lr * (-1j * kv * cls.x0).exp()))

        if cls.time_reversal:
            record("t", "t_reflection_moduli", "|S_LR| = |S_RL|",
                   np.abs(modulus(r_lr) - modulus(r_rl)), all_nonzero)
            record("t", "t_transmission_product_real", "Im(T_rl conj(T_lr)) = 0",
                   np.abs((t_rl * t_lr.conjugate()).imag), all_nonzero)
            record("t", "t_unimodular_det", "|det S| = 1", np.abs(modulus(det) - 1.0),
                   all_nonzero)

        if cls.hermitian and cls.time_reversal:
            record("hermitian_t", "ht_unitarity", "S^dag S = 1",
                   np.max(np.abs(np.conj(mat).transpose(0, 2, 1) @ mat - np.eye(2)), axis=(1, 2)))
            record("hermitian_t", "ht_equal_transmission", "S_RR = S_LL", modulus(t_lr - t_rl))
            record("hermitian_t", "ht_reflection_moduli", "|R_lr| = |R_rl|",
                   np.abs(modulus(r_lr) - modulus(r_rl)))

        if cls.pt:
            record("pt", "pt_inverse_conjugate", "S^-1 = S*",
                   np.max(np.abs(mat @ np.conj(mat) - np.eye(2)), axis=(1, 2)))
            record("pt", "pt_unimodular_det", "|det S| = 1", np.abs(modulus(det) - 1.0))
            record("pt", "pt_transmission_moduli", "|T_lr| = |T_rl|",
                   np.abs(modulus(t_lr) - modulus(t_rl)))
            record("pt", "pt_reflection_product_real", "Im(R_rl conj(R_lr)) = 0",
                   np.abs((r_rl * r_lr.conjugate()).imag))
            if local:
                record("pt", "pt_local_equal_transmission", "T_lr = T_rl",
                       modulus(t_lr - t_rl))
                record("pt", "pt_local_lr_phase_lock", "R_lr conj(T_lr) + conj(R_lr) T_lr = 0",
                       modulus(r_lr * t_lr.conjugate() + r_lr.conjugate() * t_lr), all_nonzero)
                record("pt", "pt_local_rl_phase_lock", "R_rl conj(T_rl) + conj(R_rl) T_rl = 0",
                       modulus(r_rl * t_rl.conjugate() + r_rl.conjugate() * t_rl), all_nonzero)

    _raise_first([(np.logical_or.reduce(overflow, initial=False),
                   lambda i: TransferOverflow("a modulus or the phase k*x0 exceeded the float range"))], ks)
    if one:
        records = [RelationRecord(r.name, r.anchor, float(r.residual[0]), r.tolerance,
                                  bool(r.holds[0]), r.suite, bool(r.applicable[0]))
                   for r in records]
    return RelationReport(records=tuple(records))


@_frozen
class ExactPtResult:
    """Outcome of the exact-asymptotic-symmetry test on the S matrix
    (columns over a k grid when the S matrix holds columns)."""

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
    phase is not observable from S alone).  The test has no failure to name
    a k for, so it takes no k grid.
    """
    (t_lr, r_lr, t_rl, r_rl), one = _columns(s)
    with np.errstate(all="ignore"):
        is_exact = ((abs(r_lr) < tol) & (abs(r_rl) < tol)
                    & (np.abs(abs(t_lr) - 1.0) < tol) & (np.abs(abs(t_rl) - 1.0) < tol))
        theta_lr, theta_rl = (np.where((z.real == 0) & (z.imag == 0), np.nan,
                                       np.mod(-COLUMN.atan2(z.imag, z.real), 2 * math.pi))
                              for z in (t_lr, t_rl))
    if one:
        return ExactPtResult(is_exact=bool(is_exact[0]), theta_lr=float(theta_lr[0]),
                             theta_rl=float(theta_rl[0]))
    return ExactPtResult(is_exact=is_exact, theta_lr=theta_lr, theta_rl=theta_rl)
