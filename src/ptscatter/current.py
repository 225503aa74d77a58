"""Probability density/current diagnostics for combined reflection-conjugation symmetry.

For potentials with V*(-x) = V(x) the conserved pair is

    rho(x) = conj(psi(x)) psi(-x),
    j(x)   = (1/i) [conj(psi(x)) d/dx psi(-x) - psi(-x) d/dx conj(psi(x))],

with j constant in x for stationary solutions and j*(-x) = -j(x).  Both are
complex-valued in general; no reality is coerced.  The ordinary hermitian
current (the U = identity member of the same family) is provided alongside.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import COLUMN, ScatteringCoefficients, _frozen, _PyComplex, _raise_first, _record, _wavenumbers
from .errors import AsymmetricGrid, VacuousForReflectionless

if TYPE_CHECKING:
    from .numeric import WavefunctionGrid


@_frozen
class CurrentProfile:
    """rho and j sampled on a symmetric grid."""

    grid: np.ndarray
    rho: np.ndarray
    j: np.ndarray


def pt_current(wf: WavefunctionGrid) -> CurrentProfile:
    """Density and current of the reflection-conjugation continuity equation.

    Requires a grid symmetric about x = 0 so psi(-x) comes from index
    reversal, and the supplied derivatives (no numerical differentiation).
    """
    x = np.asarray(wf.x, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x + x[::-1])) > 1e-9 * scale:
        raise AsymmetricGrid("grid is not symmetric about x = 0")
    psi, dpsi = wf.psi, wf.dpsi
    psi_rev, dpsi_rev = psi[::-1], dpsi[::-1]
    rho = np.conj(psi) * psi_rev
    # d/dx psi(-x) = -psi'(-x), so (1/i)[...] = i[conj(psi) psi'(-x) + psi(-x) conj(psi')]
    j = 1j * (np.conj(psi) * dpsi_rev + psi_rev * np.conj(dpsi))
    return CurrentProfile(grid=x, rho=rho, j=j)


def hermitian_current(wf: WavefunctionGrid) -> np.ndarray:
    """Ordinary probability current (1/i)(conj(psi) psi' - psi conj(psi'))."""
    return 2.0 * np.imag(np.conj(wf.psi) * wf.dpsi)


@_frozen
class AsymptoticCurrent:
    j_plus_inf: complex
    j_minus_inf: complex


def asymptotic_current(coeffs: ScatteringCoefficients, k,
                       a_plus: complex | None = None,
                       b_minus: complex | None = None) -> AsymptoticCurrent:
    """Asymptotic values j(+inf) = 2k conj(A+) B- and j(-inf) = -2k A+ conj(B-),
    at one k or as columns over a k grid (with coefficient columns over it).

    Defaults assume the left-incident normalisation A- = 1, B+ = 0, where
    A+ = T_lr and B- = R_lr; the two values satisfy j(-inf) = -conj(j(+inf))
    identically.
    """
    ks, one = _wavenumbers(k)
    a_plus = _PyComplex.of(coeffs.t_lr if a_plus is None else a_plus)
    b_minus = _PyComplex.of(coeffs.r_lr if b_minus is None else b_minus)
    with np.errstate(all="ignore"):
        return _record(ks, one, (2.0 * ks * a_plus.conjugate() * b_minus,
                                 -2.0 * ks * a_plus * b_minus.conjugate()), record=AsymptoticCurrent)


def phase_relation_residual(coeffs: ScatteringCoefficients):
    """Distance of phi_r - phi_t - pi/2 to the nearest multiple of pi: a float
    at one k, else a column over the coefficient columns.

    Zero for potentials with V*(-x) = V(x) and a conserved (purely
    imaginary) current; undefined for reflectionless potentials, so
    VacuousForReflectionless at the first element with
    |R_lr| <= 1e-15 max(1, |T_lr|).
    """
    r, t = _PyComplex.of(coeffs.r_lr), _PyComplex.of(coeffs.t_lr)
    _raise_first([(np.atleast_1d(abs(r) <= 1e-15 * np.maximum(1.0, abs(t))),
                   lambda i: VacuousForReflectionless("R_lr = 0, the phase relation is vacuous"))])
    d = COLUMN.atan2(r.imag, r.real) - COLUMN.atan2(t.imag, t.real) - math.pi / 2
    residual = np.abs(d - math.pi * np.round(d / math.pi))
    return float(residual) if np.ndim(coeffs.r_lr) == 0 else residual
