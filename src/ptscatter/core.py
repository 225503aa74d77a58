"""S-matrix / transfer-matrix algebra in the right/left plane-wave basis.

Conventions (units hbar = 2m = 1, energy E = k^2, k > 0 strictly):

* asymptotic solutions  F_m(x) -> a_{m+-} e^{ikx} + b_{m+-} e^{-ikx},
* S maps incoming to outgoing amplitudes,
      S = [[T_lr, R_rl], [R_lr, T_rl]],
* M maps the amplitudes at x -> +inf to those at x -> -inf,
      (A_-, B_-)^T = M (A_+, B_+)^T,   det M = T_rl / T_lr.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSolutions, TransmissionPole, ZeroTransmission

#: default absolute tolerance on dimensionless matrix elements
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class WaveNumber:
    """Wave number k > 0 of a scattering state with energy E = k^2."""

    k: float

    def __post_init__(self):
        if not (self.k > 0.0) or not np.isfinite(self.k):
            raise ValueError(f"wave number must be finite and > 0, got {self.k}")

    @property
    def energy(self) -> float:
        return self.k * self.k


def _require_finite(owner: str, **values):
    """ValueError naming the first non-finite (real or complex) parameter."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{owner} parameter {name} must be finite, got {value}")


def as_wavenumber(k) -> WaveNumber:
    """Coerce a float or WaveNumber to WaveNumber (validates k > 0)."""
    if isinstance(k, WaveNumber):
        return k
    return WaveNumber(float(k))


@dataclass(frozen=True)
class AsymptoticAmplitudes:
    """The eight plane-wave amplitudes of two independent solutions.

    ``a1p`` is the e^{+ikx} amplitude of solution 1 at x -> +inf, ``b1m``
    the e^{-ikx} amplitude at x -> -inf, and so on.
    """

    a1p: complex
    b1p: complex
    a1m: complex
    b1m: complex
    a2p: complex
    b2p: complex
    a2m: complex
    b2m: complex

    def rescaled(self, c1: complex, c2: complex) -> "AsymptoticAmplitudes":
        """Rescale solution 1 by c1 and solution 2 by c2."""
        return AsymptoticAmplitudes(
            c1 * self.a1p, c1 * self.b1p, c1 * self.a1m, c1 * self.b1m,
            c2 * self.a2p, c2 * self.b2p, c2 * self.a2m, c2 * self.b2m,
        )


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Transmission/reflection coefficients for both incidence directions.

    Read as the S matrix [[T_lr, R_rl], [R_lr, T_rl]] (rows/columns ordered
    (R, L)), which maps incoming to outgoing amplitudes.
    """

    t_lr: complex
    r_lr: complex
    t_rl: complex
    r_rl: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.t_lr, self.r_rl], [self.r_lr, self.t_rl]])

    @property
    def det(self) -> complex:
        return self.t_lr * self.t_rl - self.r_rl * self.r_lr


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 transfer matrix; det M = T_rl / T_lr for any local potential."""

    m_rr: complex
    m_rl: complex
    m_lr: complex
    m_ll: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.m_rr, self.m_rl], [self.m_lr, self.m_ll]])

    @classmethod
    def from_array(cls, m: np.ndarray) -> "TransferMatrix":
        return cls(m_rr=complex(m[0, 0]), m_rl=complex(m[0, 1]),
                   m_lr=complex(m[1, 0]), m_ll=complex(m[1, 1]))

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> complex:
        return self.m_rr * self.m_ll - self.m_rl * self.m_lr


def coefficients_from_amplitudes(amps: AsymptoticAmplitudes) -> ScatteringCoefficients:
    """Form the four coefficient quotients from two independent solutions.

    Raises DegenerateSolutions when the shared denominator
    d = a2m*b1p - a1m*b2p vanishes relative to its constituent terms.
    """
    t1 = amps.a2m * amps.b1p
    t2 = amps.a1m * amps.b2p
    d = t1 - t2
    if abs(d) < 1e-12 * max(abs(t1), abs(t2), 1e-300):
        raise DegenerateSolutions(f"denominator |{d}| too small; solutions not independent")
    return ScatteringCoefficients(
        t_lr=(amps.a2p * amps.b1p - amps.a1p * amps.b2p) / d,
        r_lr=(amps.b1p * amps.b2m - amps.b1m * amps.b2p) / d,
        t_rl=(amps.a2m * amps.b1m - amps.a1m * amps.b2m) / d,
        r_rl=(amps.a1p * amps.a2m - amps.a1m * amps.a2p) / d,
    )


def smatrix_from_transfer(m: TransferMatrix, tol: float = 1e-12) -> ScatteringCoefficients:
    """Invert the transfer matrix into S; the pole of 1/M_RR is a spectral singularity."""
    if abs(m.m_rr) < tol:
        raise TransmissionPole(f"|M_RR| = {abs(m.m_rr)} below {tol}")
    return ScatteringCoefficients(
        t_lr=1.0 / m.m_rr,
        r_lr=m.m_lr / m.m_rr,
        t_rl=m.det / m.m_rr,
        r_rl=-m.m_rl / m.m_rr,
    )


def transfer_from_smatrix(s: ScatteringCoefficients, tol: float = 1e-300) -> TransferMatrix:
    """Exact algebraic inverse of ``smatrix_from_transfer``."""
    t_lr, r_lr, t_rl, r_rl = s.t_lr, s.r_lr, s.t_rl, s.r_rl
    if abs(t_lr) <= tol:
        raise ZeroTransmission("T(L->R) = 0, transfer matrix undefined")
    return TransferMatrix(
        m_rr=1.0 / t_lr,
        m_rl=-r_rl / t_lr,
        m_lr=r_lr / t_lr,
        m_ll=t_rl - r_rl * r_lr / t_lr,
    )


def shift_transfer(m: TransferMatrix, x0: float, k) -> TransferMatrix:
    """Transfer matrix of the same scatterer displaced so its centre sits at x0.

    Diagonal elements are unchanged; off-diagonal ones pick up phases
    e^{-2ik x0} (RL) and e^{+2ik x0} (LR).
    """
    kv = as_wavenumber(k).k
    return TransferMatrix(
        m_rr=m.m_rr,
        m_rl=cmath.exp(-2j * kv * x0) * m.m_rl,
        m_lr=cmath.exp(2j * kv * x0) * m.m_lr,
        m_ll=m.m_ll,
    )


def compose_transfer(m1: TransferMatrix, m2: TransferMatrix) -> TransferMatrix:
    """Matrix product m1 @ m2 for spatially ordered, non-overlapping regions.

    The caller is responsible for the ordering; it cannot be checked from
    the matrices alone.
    """
    return TransferMatrix(
        m_rr=m1.m_rr * m2.m_rr + m1.m_rl * m2.m_lr,
        m_rl=m1.m_rr * m2.m_rl + m1.m_rl * m2.m_ll,
        m_lr=m1.m_lr * m2.m_rr + m1.m_ll * m2.m_lr,
        m_ll=m1.m_lr * m2.m_rl + m1.m_ll * m2.m_ll,
    )


def wronskian_residual(amps: AsymptoticAmplitudes, k) -> float:
    """Relative mismatch of the solution-pair Wronskian between x -> -inf and +inf.

    W(-inf) = -2ik T_rl and W(+inf) = -2ik T_lr for the unit-normalised
    physical solutions, so the residual is zero exactly when the two
    transmission coefficients agree (any local potential).
    """
    as_wavenumber(k)
    c = coefficients_from_amplitudes(amps)
    denom = max(abs(c.t_rl), abs(c.t_lr))
    if denom == 0.0:
        return 0.0
    return abs(c.t_rl - c.t_lr) / denom
