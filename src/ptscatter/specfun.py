"""Complex log-gamma and log-space gamma ratios.

The closed-form transmission amplitudes are ratios of gamma functions whose
individual factors overflow or hit poles long before the ratio does, so
everything is evaluated as exp(sum log-gamma - sum log-gamma) on the
principal branch (real on the positive real axis).  That sum cancels: a
ratio whose log-gamma terms are too large for its digits to survive raises
PrecisionLoss.  ``scipy.special`` is imported on first use.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _PyComplex
from .errors import GammaPole, NumeratorPole, PrecisionLoss

#: how close to a non-positive integer counts as sitting on a pole
POLE_TOL = 1e-12
#: largest rounding error of a log-gamma sum (eps times the sum of the terms'
#: moduli) a ratio may carry; a bigger one leaves fewer than 8 digits
CANCELLATION_TOL = 1e-8


def _loggamma(z):
    from scipy.special import loggamma

    return loggamma(z)


def is_gamma_pole(z: complex, tol: float = POLE_TOL) -> bool:
    """True when z is within tol of a non-positive integer."""
    z = complex(z)
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol and abs(z.imag) <= tol


def complex_log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z).

    Raises GammaPole at the non-positive integers.
    """
    z = complex(z)
    if is_gamma_pole(z):
        raise GammaPole(f"log-gamma pole at z = {z}")
    return complex(_loggamma(z))


@dataclass(frozen=True)
class GammaRatio:
    """Product of gamma factors over a product of gamma factors."""

    numerator_args: tuple
    denominator_args: tuple

    def __init__(self, numerator_args: Sequence[complex], denominator_args: Sequence[complex]):
        object.__setattr__(self, "numerator_args", tuple(complex(z) for z in numerator_args))
        object.__setattr__(self, "denominator_args", tuple(complex(z) for z in denominator_args))


def gamma_ratio(r: GammaRatio) -> complex:
    """Evaluate a GammaRatio in log space.

    A pole among the numerator factors raises NumeratorPole; a pole among
    the denominator factors contributes a factor 1/Gamma = 0, so the whole
    ratio evaluates to 0 (1/Gamma is entire).  Log-gamma terms so large that
    the sum keeps an error above CANCELLATION_TOL raise PrecisionLoss.
    """
    for z in r.numerator_args:
        if is_gamma_pole(z):
            raise NumeratorPole(f"numerator gamma pole at z = {z}")
    for z in r.denominator_args:
        if is_gamma_pole(z):
            return 0.0
    logs = [complex(_loggamma(z)) for z in r.numerator_args + r.denominator_args]
    size = sum(abs(lg) for lg in logs)
    if size * sys.float_info.epsilon > CANCELLATION_TOL:
        raise PrecisionLoss(f"log-gamma terms of total size {size:.3g} cancel; "
                            f"the ratio would carry an error above {CANCELLATION_TOL:g}")
    log_sum = 0.0 + 0.0j
    for lg in logs[:len(r.numerator_args)]:
        log_sum += lg
    for lg in logs[len(r.numerator_args):]:
        log_sum -= lg
    return cmath.exp(log_sum)


def gamma_ratio_columns(numerator_args, denominator_args):
    """``gamma_ratio`` over columns of arguments (``core._PyComplex``).

    Returns the ratio column, equal to ``gamma_ratio`` elementwise where
    finite, and the mask of the elements where ``gamma_ratio`` raises or
    returns early (poles, cancellation) or the exponential overflows.
    """
    unsure = False
    log_sum, size = 0.0 + 0.0j, 0.0
    for j, z in enumerate(numerator_args + denominator_args):
        n = np.round(z.re)
        unsure = unsure | ~np.isfinite(n) | ((n <= 0) & (np.abs(z.re - n) <= 2 * POLE_TOL)
                                             & (np.abs(z.im) <= 2 * POLE_TOL))
        lg = _PyComplex.of(_loggamma(z.array()))
        log_sum = log_sum + lg if j < len(numerator_args) else log_sum - lg
        size = size + abs(lg)
    # cmath.exp scales its argument differently from numpy's above ~709
    unsure = unsure | ~(size * sys.float_info.epsilon <= CANCELLATION_TOL / 2) | ~(log_sum.re < 700)
    return log_sum.exp().array(), unsure
