"""Scattering records and their column arithmetic in the right/left plane-wave basis.

Conventions (units hbar = 2m = 1, energy E = k^2, k > 0 strictly):

* asymptotic solutions  F_m(x) -> a_{m+-} e^{ikx} + b_{m+-} e^{-ikx},
* S maps incoming to outgoing amplitudes,
      S = [[T_lr, R_rl], [R_lr, T_rl]],
* M maps the amplitudes at x -> +inf to those at x -> -inf,
      (A_-, B_-)^T = M (A_+, B_+)^T,   det M = T_rl / T_lr;
  a transfer matrix is a complex (..., 2, 2) array, one M per k.

The closed forms take one wave number or a grid of them and evaluate the
grid as columns (``_PyComplex``, ``COLUMN``); a scalar k is a one-element
grid whose record holds Python complex numbers.  A failure is the named
ScatteringError at the first failing k (``_record``).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import operator
import sys
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateSolutions, TransferOverflow, TransmissionPole


def _frozen(cls):
    """Make ``cls`` an immutable record of its annotated fields, as
    ``dataclass(frozen=True)`` would, from plain functions: no method source is
    generated and compiled, so the class costs ~10 us to create, not ~0.6 ms.

    The constructor takes the fields positionally or by keyword, in order,
    with the class's own values as defaults, then calls ``__post_init__``.
    ``==``, ``hash`` and ``repr`` go field by field, ``vars()`` lists the
    fields in order, and assigning or deleting an attribute raises
    AttributeError.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments {missing}")
        return [values[name] if name in values else defaults[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                f"{', '.join(f'{n}={v!r}' for n, v in zip(names, fields(self)))})")

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_assignment
    return cls


def _refuse_assignment(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} "
                         f"of the immutable {self.__class__.__name__}")


def _require_finite(owner: str, **values):
    """ValueError naming the first non-finite (real or complex) parameter."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{owner} parameter {name} must be finite, got {value}")


def _values_at(f, xs) -> np.ndarray:
    """f at each point of the float array xs: one call where f takes arrays and
    gives a value per point, else one call per point (with a Python float)."""
    with contextlib.suppress(TypeError, ValueError):
        if (vals := np.asarray(f(xs))).shape == xs.shape:
            return vals
    return np.array([f(x) for x in xs.ravel().tolist()]).reshape(xs.shape)


def _require_support(x_left: float, x_right: float):
    """ValueError unless [x_left, x_right] is a support: x_left < x_right."""
    if not x_left < x_right:
        raise ValueError("x_left must be < x_right")


@_frozen
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


@_frozen
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
        t_lr, r_rl = _PyComplex.of(self.t_lr), _PyComplex.of(self.r_rl)
        with np.errstate(all="ignore"):     # Python's complex product overflows silently
            det = (t_lr * self.t_rl - r_rl * self.r_lr).array()
        return det if det.ndim else complex(det)


def coefficients_from_amplitudes(amps: AsymptoticAmplitudes) -> ScatteringCoefficients:
    """Form the four coefficient quotients from two independent solutions.

    Raises DegenerateSolutions when the shared denominator
    d = a2m*b1p - a1m*b2p vanishes relative to its constituent terms, and
    TransferOverflow where a quotient is not finite.
    """
    return _record(None, np.ndim(amps.a1p) == 0, *_quotients(amps))


def _quotients(amps: AsymptoticAmplitudes) -> tuple:
    """The four coefficient columns of amplitude columns (or of one solution
    pair), and their fault: DegenerateSolutions where d is too small."""
    a = SimpleNamespace(**{name: _PyComplex.of(np.atleast_1d(z)) for name, z in vars(amps).items()})
    with np.errstate(all="ignore"):
        t1, t2 = a.a2m * a.b1p, a.a1m * a.b2p
        d = t1 - t2
        degenerate = abs(d) < 1e-12 * np.maximum(np.maximum(abs(t1), abs(t2)), 1e-300)
        columns = ((a.a2p * a.b1p - a.a1p * a.b2p) / d, (a.b1p * a.b2m - a.b1m * a.b2p) / d,
                   (a.a2m * a.b1m - a.a1m * a.b2m) / d, (a.a1p * a.a2m - a.a1m * a.a2p) / d)
    return columns, [(degenerate, lambda i: DegenerateSolutions(
        f"denominator |{complex(d.real[i], d.imag[i])}| too small; solutions not independent"))]


def _smatrix(m_rr, m_rl, m_lr, m_ll):
    """The four coefficients of columns of M elements (``_PyComplex``), and
    their faults: TransmissionPole where |M_RR| < 1e-12, TransferOverflow
    where |M_RR| is not finite."""
    size = abs(m_rr)
    det = m_rr * m_ll - m_rl * m_lr
    faults = [_pole(size), (~np.isfinite(size), lambda i: TransferOverflow(OUT_OF_RANGE))]
    return (1.0 / m_rr, m_lr / m_rr, det / m_rr, -m_rl / m_rr), faults


def _pole(size) -> tuple:
    """The fault of a column of |M_RR| ``size``: TransmissionPole where it is below 1e-12."""
    return size < 1e-12, lambda i: TransmissionPole(f"|M_RR| = {float(size[i])} below 1e-12")


def wronskian_residual(amps: AsymptoticAmplitudes, k):
    """Relative mismatch of the solution-pair Wronskian between x -> -inf and +inf.

    W(-inf) = -2ik T_rl and W(+inf) = -2ik T_lr for the unit-normalised
    physical solutions, so the residual is zero exactly when the two
    transmission coefficients agree (any local potential).  A float at one
    k and one amplitude set, else a column over the amplitude columns.
    """
    ks, one = _wavenumbers(k)
    c = _record(ks, False, *_quotients(amps))
    t_lr, t_rl = _PyComplex.of(c.t_lr), _PyComplex.of(c.t_rl)
    with np.errstate(all="ignore"):
        denom = np.maximum(abs(t_rl), abs(t_lr))
        residual = np.where(denom == 0.0, 0.0, abs(t_rl - t_lr) / denom)
    return float(residual[0]) if one and residual.size == 1 else residual


# -- k grids as columns ---------------------------------------------------------


class _PyComplex:
    """A column of complex numbers whose arithmetic rounds as CPython's does.

    numpy's complex product and quotient round differently from CPython's
    (fused multiply-adds).  These follow CPython's ``_Py_c_prod`` and
    ``_Py_c_quot`` step by step in float64 array operations, which round
    exactly as Python floats do.  Python floats and complex numbers and numpy
    arrays mix in as CPython promotes them (a real x is (x, 0.0)), so every
    element equals the Python expression at its k, signed zeros included.
    ``abs`` is ``np.hypot``, CPython's own formula, but gives inf where
    Python's raises OverflowError.  Callers ignore floating-point warnings.
    """

    __array_ufunc__ = None      # numpy defers mixed operators to this class
    __slots__ = ("real", "imag")

    def __init__(self, re, im=0.0):
        self.real, self.imag = re, im

    @classmethod
    def of(cls, z) -> "_PyComplex":
        if isinstance(z, cls):
            return z
        if isinstance(z, float) or not (isinstance(z, complex) or np.iscomplexobj(z)):
            return cls(z)
        return cls(z.real, z.imag)

    def array(self) -> np.ndarray:
        out = np.empty(np.broadcast(self.real, self.imag).shape, dtype=complex)
        out.real, out.imag = self.real, self.imag
        return out

    def conjugate(self) -> "_PyComplex":
        return _PyComplex(self.real, -self.imag)

    def exp(self) -> "_PyComplex":
        """cmath.exp: numpy's (glibc's) complex exp, but for x = Re z above
        log(DBL_MAX / 4), where cmath rounds exp(x - 1) cos y e and
        exp(x - 1) sin y e; not finite where cmath.exp raises."""
        z = self.array()
        out = _PyComplex.of(np.asarray(np.exp(z)))
        big = z.real > _LOG_LARGE
        if np.any(big):
            scale = COLUMN.exp(z.real[big] - 1.0)
            out.real[big] = scale * np.cos(z.imag[big]) * math.e
            out.imag[big] = scale * np.sin(z.imag[big]) * math.e
        return out

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
    # (c, d) = (b_re, b_im) where |b_re| >= |b_im|, else (b_im, b_re)
    c, d = np.where(by_real, b.real, b.imag), np.where(by_real, b.imag, b.real)
    ratio = d / c
    denom = c + d * ratio
    re = np.where(by_real, a.real + a.imag * ratio, a.imag + a.real * ratio) / denom
    im = np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom
    return _PyComplex(re, im)


def _int_powers(z, ns) -> np.ndarray:
    """z ** n as CPython's complex ** int gives it, over the complex column z
    (columns) and the column of ints n >= 1 ``ns`` (rows), NaN where a part is
    infinite (where Python raises OverflowError).  n <= 100 takes CPython's
    binary powers from (1.0, 0.0) in ``_PyComplex`` products (``c_powu``), a
    larger n its polar form (``_Py_c_pow``): |z| ** n (cos n arg z, sin n arg z),
    and 0 at z = 0.  Callers ignore floating-point warnings."""
    z = _PyComplex.of(np.asarray(z, dtype=complex))
    ns = np.asarray(ns, dtype=np.int64)[:, None]
    out = np.empty((len(ns), len(z.real)), dtype=complex)
    small = ns[:, 0] <= 100
    r, p, mask = _PyComplex(np.ones(out[small].shape), np.zeros(out[small].shape)), z, 1
    while mask <= ns[small].max(initial=0):
        bit = (ns[small] & mask) != 0
        prod = r * p
        r = _PyComplex(np.where(bit, prod.real, r.real), np.where(bit, prod.imag, r.imag))
        mask, p = mask << 1, p * p
    out[small] = r.array()
    n, size = np.broadcast_to(ns[~small], out[~small].shape), np.broadcast_to(abs(z), out[~small].shape)
    length = COLUMN.pow(size, n).reshape(n.shape)
    length[np.isnan(length) & ~np.isnan(size)] = math.inf    # where Python's float ** overflows
    phase = COLUMN.atan2(z.imag, z.real) * n
    big = _PyComplex(length * COLUMN.cos(phase), length * COLUMN.sin(phase))
    zero = (z.real == 0) & (z.imag == 0)
    big.real[:, zero], big.imag[:, zero] = 0.0, 0.0
    out[~small] = big.array()
    out[np.isinf(out.real) | np.isinf(out.imag)] = math.nan
    return out


def _mapped(fn, *args) -> np.ndarray:
    """fn over float columns element by element, on Python floats, so that
    it rounds as Python's math does; NaN where fn raises.  Scalars among
    the arguments are repeated."""
    cols = [np.ravel(a).tolist() for a in args]
    n = max(map(len, cols))
    cols = [col * n if len(col) == 1 else col for col in cols]
    try:
        return np.fromiter(map(fn, *cols), dtype=float, count=n)
    except (ArithmeticError, ValueError):
        return np.array([_or_nan(fn, *row) for row in zip(*cols)], dtype=float)


def _or_nan(fn, *args) -> float:
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        return math.nan


def _real_part(fn, libm):
    """libm's function over a float column, as the real part of numpy's
    complex loop ``fn`` at x + 0i, which is the C library's fn(x) cos 0;
    mapped beyond |x| = 709, where the complex loop scales (and gives inf
    where libm's overflow raises)."""

    def column(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(x.astype(complex)).real
        big = np.abs(x) > 709
        if big.any():
            out[big] = _mapped(libm, x[big])
        return out
    return column


def _atan2(y, x) -> np.ndarray:
    """libm's atan2 over float columns: the imaginary part of numpy's
    complex log of x + iy, the C library's carg."""
    with np.errstate(all="ignore"):
        return np.log(_PyComplex(x, y).array()).imag


#: the functions a closed form evaluates over a float column, rounded as
#: Python's math rounds them at one float: numpy's cos and sin are libm's,
#: its real cosh, sinh, exp and atan2 are not, so these four come from its
#: complex loops (mapped beyond |x| = 709), and ** is mapped; ``real`` takes
#: a parameter into the column's type
COLUMN = SimpleNamespace(
    cos=np.cos, sin=np.sin, cosh=_real_part(np.cosh, math.cosh), sinh=_real_part(np.sinh, math.sinh),
    exp=_real_part(np.exp, math.exp), atan2=_atan2, pow=lambda x, y: _mapped(operator.pow, x, y),
    cexp=lambda z: _PyComplex.of(z).exp(), complex=_PyComplex.of, real=float)
#: the same functions over an ``np.longdouble`` column: numpy's own, in the
#: platform's extended precision (a 64-bit mantissa on x86-64 Linux)
EXTENDED = SimpleNamespace(
    cos=np.cos, sin=np.sin, cosh=np.cosh, sinh=np.sinh, atan2=np.arctan2, pow=np.power,
    cexp=np.exp, complex=np.asarray, real=np.longdouble)
#: cmath.exp scales exp(x) by e^-1 above this
_LOG_LARGE = math.log(sys.float_info.max / 4)

#: the message of a TransferOverflow where a closed form is not finite
OUT_OF_RANGE = "a closed-form intermediate exceeded the float range"


def _closed_form(formula, record=ScatteringCoefficients):
    """The closed form of one wave number k or a sequence of them whose
    ``formula(params, ks)`` gives the columns of a ``record`` over the float
    column ks and their faults (``_record``).  A scalar k is a one-element
    grid whose record holds Python complex numbers."""

    @functools.wraps(formula)
    def closed_form(params, k):
        ks, one = _wavenumbers(k)
        with np.errstate(all="ignore"):
            columns, faults = formula(params, ks)
            return _record(ks, one, columns, faults, record)
    return closed_form


def _wavenumbers(k) -> tuple:
    """k, one wave number or a sequence, as a float column, and whether it is
    one; ValueError names the first that is not finite and > 0."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    for bad in ks[~((ks > 0) & np.isfinite(ks))][:1]:
        raise ValueError(f"wave number must be finite and > 0, got {float(bad)}")
    return ks, np.ndim(k) == 0


def _raise_first(faults, ks=None):
    """Raise the error of the first element where one of ``faults`` holds,
    naming that element's k in ``ks``.  Faults are (mask, make) pairs in the
    order the formula meets them; make(i) gives the error at element i, and
    the first fault that holds at the element makes it."""
    hits = []
    for n, (mask, _) in enumerate(faults):
        at = np.flatnonzero(mask)
        if at.size:
            hits.append((at[0], n))
    if hits:
        i, n = min(hits)
        exc = faults[n][1](i)
        exc.k = None if ks is None else float(ks[i])
        raise exc


def _record(ks, one: bool, columns, faults=(), record=ScatteringCoefficients):
    """The columns over the grid ``ks`` as one ``record``, by default the
    coefficients (t_lr, r_lr, t_rl, r_rl), of Python complex numbers if
    ``one`` and no column is longer, after raising the first of ``faults`` and
    TransferOverflow where a value is not finite.  A one-element ``ks`` is
    the k of every element of longer columns."""
    cols = np.broadcast_arrays(*(_PyComplex.of(z).array() for z in columns),
                               *(() if ks is None else (ks,)))
    ks, cols = (None if ks is None else cols[-1]), cols[:len(columns)]
    finite = np.logical_and.reduce([np.isfinite(c) for c in cols])
    _raise_first([*faults, (~finite, lambda i: TransferOverflow(OUT_OF_RANGE))], ks)
    return record(*(complex(c[0]) if one and c.size == 1 else np.array(c) for c in cols))
