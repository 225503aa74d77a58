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

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ScatteringCoefficients, WaveNumber, _PyComplex
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


class _Failures:
    """Errors the per-k code would raise, as (mask over k, error maker) in
    the order that code meets them; ``raise_first`` raises the first error
    at the lowest k where any mask holds."""

    def __init__(self, k, n: int):
        k = k.k if isinstance(k, WaveNumber) else k
        self.k = None if k is None else np.broadcast_to(np.asarray(k, dtype=float), (n,))
        self.n = n
        self.found = []

    def add(self, mask, make):
        self.found.append((np.broadcast_to(mask, (self.n,)), make))

    def modulus(self, z: _PyComplex, reached=True) -> np.ndarray:
        """|z| as Python's abs, which raises where hypot overflows."""
        m = abs(z)
        self.add(reached & np.isinf(m) & np.isfinite(z.re) & np.isfinite(z.im),
                 lambda i: OverflowError("absolute value too large"))
        return m

    def phases(self, z: _PyComplex) -> list:
        """(-arg z) mod 2 pi per element (NaN where z = 0), by cmath.phase,
        which raises where the angle underflows."""
        out, errors = [], {}
        for i, v in enumerate(z.array().tolist()):
            try:
                out.append((-cmath.phase(v)) % (2 * math.pi) if v != 0 else math.nan)
            except (ArithmeticError, ValueError) as exc:
                out.append(math.nan)
                errors[i] = exc
        mask = np.zeros(self.n, dtype=bool)
        mask[list(errors)] = True
        self.add(mask, errors.get)
        return out

    def raise_first(self):
        hit = np.logical_or.reduce([mask for mask, _ in self.found], initial=False)
        if np.any(hit):
            i = int(np.argmax(hit))
            exc = next(make(i) for mask, make in self.found if mask[i])
            exc.k = None if self.k is None else float(self.k[i])
            raise exc


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

    ``s`` may hold columns over a k grid ``k``; every residual is then a
    column, computed with the per-k code's rounding, and an error names the
    lowest k the per-k code would fail at.
    """
    (t_lr, r_lr, t_rl, r_rl), one = _columns(s)
    records: list = []
    fail = _Failures(k, len(t_lr.re))
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
            record("local", "local_equal_transmission", "T_lr = T_rl", fail.modulus(t_lr - t_rl))

        if cls.parity:
            record("p", "p_equal_transmission", "S_RR = S_LL", fail.modulus(t_lr - t_rl))
            record("p", "p_equal_reflection", "S_RL = S_LR", fail.modulus(r_rl - r_lr))

        if cls.parity_generalized and not cls.parity and cls.x0 is not None and k is not None:
            kv = _PyComplex(fail.k)
            fail.add(~((kv.re > 0) & np.isfinite(kv.re)),
                     lambda i: ValueError(f"wave number must be finite and > 0, got {fail.k[i]}"))
            arg = 1j * kv * cls.x0
            fail.add(np.isinf(arg.im), lambda i: ValueError("math domain error"))
            record("p_generalized", "pg_equal_transmission", "S_RR = S_LL",
                   fail.modulus(t_lr - t_rl))
            record("p_generalized", "pg_reflection_phase", "R_rl e^{ikX0} = R_lr e^{-ikX0}",
                   fail.modulus(r_rl * arg.exp() - r_lr * (-1j * kv * cls.x0).exp()))

        if cls.time_reversal:
            record("t", "t_reflection_moduli", "|S_LR| = |S_RL|",
                   np.abs(fail.modulus(r_lr) - fail.modulus(r_rl)), all_nonzero)
            record("t", "t_transmission_product_real", "Im(T_rl conj(T_lr)) = 0",
                   np.abs((t_rl * t_lr.conjugate()).im), all_nonzero)
            record("t", "t_unimodular_det", "|det S| = 1", np.abs(fail.modulus(det) - 1.0),
                   all_nonzero)

        if cls.hermitian and cls.time_reversal:
            record("hermitian_t", "ht_unitarity", "S^dag S = 1",
                   np.max(np.abs(np.conj(mat).transpose(0, 2, 1) @ mat - np.eye(2)), axis=(1, 2)))
            record("hermitian_t", "ht_equal_transmission", "S_RR = S_LL", fail.modulus(t_lr - t_rl))
            record("hermitian_t", "ht_reflection_moduli", "|R_lr| = |R_rl|",
                   np.abs(fail.modulus(r_lr) - fail.modulus(r_rl)))

        if cls.pt:
            record("pt", "pt_inverse_conjugate", "S^-1 = S*",
                   np.max(np.abs(mat @ np.conj(mat) - np.eye(2)), axis=(1, 2)))
            record("pt", "pt_unimodular_det", "|det S| = 1", np.abs(fail.modulus(det) - 1.0))
            record("pt", "pt_transmission_moduli", "|T_lr| = |T_rl|",
                   np.abs(fail.modulus(t_lr) - fail.modulus(t_rl)))
            record("pt", "pt_reflection_product_real", "Im(R_rl conj(R_lr)) = 0",
                   np.abs((r_rl * r_lr.conjugate()).im))
            if local:
                record("pt", "pt_local_equal_transmission", "T_lr = T_rl",
                       fail.modulus(t_lr - t_rl))
                record("pt", "pt_local_lr_phase_lock", "R_lr conj(T_lr) + conj(R_lr) T_lr = 0",
                       fail.modulus(r_lr * t_lr.conjugate() + r_lr.conjugate() * t_lr), all_nonzero)
                record("pt", "pt_local_rl_phase_lock", "R_rl conj(T_rl) + conj(R_rl) T_rl = 0",
                       fail.modulus(r_rl * t_rl.conjugate() + r_rl.conjugate() * t_rl), all_nonzero)

    fail.raise_first()
    if one:
        records = [replace(r, residual=float(r.residual[0]), holds=bool(r.holds[0]),
                           applicable=bool(r.applicable[0])) for r in records]
    return RelationReport(records=tuple(records))


@dataclass(frozen=True)
class ExactPtResult:
    """Outcome of the exact-asymptotic-symmetry test on the S matrix
    (columns over a k grid when the S matrix holds columns)."""

    is_exact: bool
    theta_lr: float
    theta_rl: float


def exact_asymptotic_pt_check(s: ScatteringCoefficients, tol: float = 1e-10,
                              k=None) -> ExactPtResult:
    """Detect reflectionless, unimodular-transmission S matrices.

    The scattering states are themselves eigenstates of the combined
    reflection-conjugation operation exactly when both reflections vanish
    and both transmissions are unimodular; the reported angles are the
    combined transmission phases theta with T = e^{-i theta}, modulo 2 pi
    (the split between the eigenvalue phase and the incident-amplitude
    phase is not observable from S alone).  ``k``, the grid of a column S
    matrix, only names the k of an error.
    """
    (t_lr, r_lr, t_rl, r_rl), one = _columns(s)
    fail = _Failures(k, len(t_lr.re))
    is_exact = True
    with np.errstate(all="ignore"):
        # the per-k test stops at its first false condition
        for z, unit in ((r_lr, 0.0), (r_rl, 0.0), (t_lr, 1.0), (t_rl, 1.0)):
            m = fail.modulus(z, reached=is_exact)
            is_exact = is_exact & ((np.abs(m - 1.0) if unit else m) < tol)
    theta_lr, theta_rl = fail.phases(t_lr), fail.phases(t_rl)
    fail.raise_first()
    if one:
        return ExactPtResult(is_exact=bool(is_exact[0]), theta_lr=theta_lr[0], theta_rl=theta_rl[0])
    return ExactPtResult(is_exact=is_exact, theta_lr=np.array(theta_lr),
                         theta_rl=np.array(theta_rl))
