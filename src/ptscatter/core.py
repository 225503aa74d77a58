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
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateSolutions, ScatteringError, TransmissionPole, ZeroTransmission

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


def _require_support(x_left: float, x_right: float):
    """ValueError unless [x_left, x_right] is a support: x_left < x_right."""
    if not x_left < x_right:
        raise ValueError("x_left must be < x_right")


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
    (R, L)), which maps incoming to outgoing amplitudes.  Over a k grid
    each coefficient is a complex column (an array over k).
    """

    t_lr: complex
    r_lr: complex
    t_rl: complex
    r_rl: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.t_lr, self.r_rl], [self.r_lr, self.t_rl]])

    @property
    def det(self) -> complex:
        if np.ndim(self.t_lr):
            t_lr, r_rl = _PyComplex.of(self.t_lr), _PyComplex.of(self.r_rl)
            return (t_lr * self.t_rl - r_rl * self.r_lr).array()
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
    return _smatrix(m.m_rr, m.m_rl, m.m_lr, m.m_ll)


def _smatrix(m_rr, m_rl, m_lr, m_ll) -> ScatteringCoefficients:
    det = m_rr * m_ll - m_rl * m_lr
    return ScatteringCoefficients(t_lr=1.0 / m_rr, r_lr=m_lr / m_rr, t_rl=det / m_rr,
                                  r_rl=-m_rl / m_rr)


def smatrix_columns(m_rr, m_rl, m_lr, m_ll, tol: float = 1e-12):
    """``smatrix_from_transfer`` over columns of M elements (``_PyComplex``).

    Returns the four coefficient columns and the mask of the k where the
    per-k inversion raises (|M_RR| < tol) or |M_RR| is out of range.
    """
    size = abs(m_rr)
    c = _smatrix(m_rr, m_rl, m_lr, m_ll)
    return [z.array() for z in (c.t_lr, c.r_lr, c.t_rl, c.r_rl)], ~((size >= tol) & (size < 1e300))


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


# -- k grids as columns ---------------------------------------------------------

class _PyComplex:
    """A column of complex numbers whose arithmetic rounds as CPython's does.

    numpy's complex product and quotient round differently from CPython's
    (fused multiply-adds), so a grid computed with them would differ from
    the per-k code in the last bits.  These follow CPython's ``_Py_c_prod``
    and ``_Py_c_quot`` step by step in float64 array operations, which round
    exactly as Python floats do.  Python floats and complex numbers and numpy
    arrays mix in as CPython promotes them (a real x is (x, 0.0)), so every
    element equals the Python expression at its k, signed zeros included.
    ``abs`` is ``np.hypot``, CPython's own formula, but gives inf where
    Python's raises OverflowError.  The parts are ``real`` and ``imag``, as
    on a Python complex, so that one formula serves both.
    """

    __array_ufunc__ = None      # numpy defers mixed operators to this class
    __slots__ = ("real", "imag")

    def __init__(self, re, im=0.0):
        self.real, self.imag = re, im

    @classmethod
    def of(cls, z) -> "_PyComplex":
        if isinstance(z, cls):
            return z
        if np.iscomplexobj(z):
            return cls(np.real(z), np.imag(z))
        return cls(z)

    def array(self) -> np.ndarray:
        out = np.empty(np.broadcast(self.real, self.imag).shape, dtype=complex)
        out.real, out.imag = self.real, self.imag
        return out

    def conjugate(self) -> "_PyComplex":
        return _PyComplex(self.real, -self.imag)

    def exp(self) -> "_PyComplex":
        # numpy's complex exp is cmath.exp's formula below the overflow range
        return _PyComplex.of(np.exp(self.array()))

    def __neg__(self):
        return _PyComplex(-self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def __add__(self, other):
        other = _PyComplex.of(other)
        return _PyComplex(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__          # IEEE addition commutes exactly

    def __sub__(self, other):
        other = _PyComplex.of(other)
        return _PyComplex(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return _PyComplex.of(other) - self

    def __mul__(self, other):
        b = _PyComplex.of(other)
        return _PyComplex(self.real * b.real - self.imag * b.imag, self.real * b.imag + self.imag * b.real)

    __rmul__ = __mul__          # so do the products and their sum

    def __truediv__(self, other):
        return _quotient(self, _PyComplex.of(other))

    def __rtruediv__(self, other):
        return _quotient(_PyComplex.of(other), self)


def _quotient(a: _PyComplex, b: _PyComplex) -> _PyComplex:
    """CPython's complex division: scale by the larger part of b.  NaN where
    b = 0 (Python raises ZeroDivisionError) or b has a NaN part."""
    by_real = np.abs(b.real) >= np.abs(b.imag)
    by_imag = np.abs(b.imag) >= np.abs(b.real)
    ratio = b.imag / b.real
    denom = b.real + b.imag * ratio
    re_r, im_r = (a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom
    ratio = b.real / b.imag
    denom = b.real * ratio + b.imag
    re_i, im_i = (a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom
    return _PyComplex(np.where(by_real, re_r, np.where(by_imag, re_i, np.nan)),
                      np.where(by_real, im_r, np.where(by_imag, im_i, np.nan)))


def _mapped(fn, *args) -> np.ndarray:
    """fn over float columns element by element, on Python floats, so that
    it rounds as the per-k code does; NaN where fn raises.  Scalars among
    the arguments are repeated."""
    n = max(np.size(a) for a in args)
    cols = [np.broadcast_to(a, (n,)).tolist() for a in args]
    try:
        return np.fromiter(map(fn, *cols), dtype=float, count=n)
    except (ArithmeticError, ValueError):
        return np.array([_or_nan(fn, *row) for row in zip(*cols)], dtype=float)


def _or_nan(fn, *args) -> float:
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        return math.nan


#: the functions a closed form evaluates, at one Python float k ...
SCALAR = SimpleNamespace(cos=math.cos, sin=math.sin, cosh=math.cosh, sinh=math.sinh,
                         exp=math.exp, atan2=math.atan2, pow=operator.pow, cexp=cmath.exp,
                         complex=lambda z: z)
#: ... and over a float column, with the same rounding (numpy's cos and sin
#: are libm's; cosh, sinh, exp, atan2 and ** are not, so they are mapped)
COLUMN = SimpleNamespace(
    cos=np.cos, sin=np.sin,
    cosh=lambda x: _mapped(math.cosh, x), sinh=lambda x: _mapped(math.sinh, x),
    exp=lambda x: _mapped(math.exp, x), atan2=lambda y, x: _mapped(math.atan2, y, x),
    pow=lambda x, y: _mapped(operator.pow, x, y),
    cexp=lambda z: _PyComplex.of(z).exp(), complex=_PyComplex.of)


def _blame(exc, k):
    """Name k as the failing wave number unless the error names one already."""
    if getattr(exc, "k", None) is None:
        exc.k = k


def on_grid(ks, at, columns=None) -> ScatteringCoefficients:
    """One record of coefficient columns over the k grid ``ks``.

    ``at(i)`` gives the record at ``ks[i]`` by the per-k code.  ``columns``,
    if given, computes the whole grid at once: ``columns(ks)`` returns the
    four coefficient columns, equal to the per-k values where they are
    finite, and the mask of the k where the per-k code raises or branches
    (poles, overflow).  Those k and every k with a non-finite coefficient
    (all k if ``columns`` raises) are evaluated by ``at`` in grid order, so
    the lowest failing k raises what the per-k loop raises, with the k
    attached when the error names none.
    """
    ks = np.asarray(ks, dtype=float)
    redo = ~((ks > 0) & np.isfinite(ks))
    cols = None
    if columns is not None:
        try:
            with np.errstate(all="ignore"):
                values, unsure = columns(ks)
            cols = [np.array(np.broadcast_to(c, ks.shape), dtype=complex) for c in values]
            redo |= unsure | ~np.logical_and.reduce([np.isfinite(c) for c in cols])
        except (ScatteringError, ArithmeticError, ValueError):
            cols = None
    if cols is None:
        cols = [np.zeros(ks.shape, dtype=complex) for _ in range(4)]
        redo[:] = True
    for i in np.flatnonzero(redo):
        try:
            c = at(i)
        except (ScatteringError, ArithmeticError) as exc:
            _blame(exc, float(ks[i]))
            raise
        for col, z in zip(cols, (c.t_lr, c.r_lr, c.t_rl, c.r_rl)):
            col[i] = z
    return ScatteringCoefficients(*cols)
