"""Complex log-gamma and log-space gamma ratios.

The closed-form transmission amplitudes are ratios of gamma functions whose
individual factors overflow or hit poles long before the ratio does, so
everything is evaluated as exp(sum log-gamma - sum log-gamma) on the
principal branch (real on the positive real axis).  That sum cancels: a
ratio whose log-gamma terms are too large for its digits to survive raises
PrecisionLoss.

log Gamma is Hare's algorithm (D. E. G. Hare, "Computing the principal branch
of log-Gamma", J. Algorithms 25 (1997) 221) as ``scipy.special.loggamma``
implements it, transcribed operation by operation so that it gives scipy's
values bit for bit without importing ``scipy.special``: the series' fused
multiply-adds round once, complex quotients round as libgcc's ``__divdc3``,
and log, sin, cosh and sinh are glibc's.  Each branch is written once, over
one Python complex (``_SCALAR``) or a column (``_COLUMN``).
"""

from __future__ import annotations

import cmath
import math
import struct
import sys
from types import SimpleNamespace

import numpy as np

from .core import COLUMN, _PyComplex, _quotient
from .errors import GammaPole, NonFiniteArgument, NumeratorPole, PrecisionLoss, TransferOverflow

#: how close to a non-positive integer counts as sitting on a pole
POLE_TOL = 1e-12
#: largest rounding error of a log-gamma sum (eps times the sum of the terms'
#: moduli) a ratio may carry; a bigger one leaves fewer than 8 digits
CANCELLATION_TOL = 1e-8
#: columns shorter than this are evaluated one element at a time: the column
#: code makes a few thousand numpy calls (~5 ms) whatever the length, one
#: element takes ~0.25 ms on Python complex numbers for the eight arguments of T
ELEMENTWISE_BELOW = 20

# scipy's series coefficients, as scipy/special/_precompute/loggamma.py prints
# them from mpmath: B_2n / (2n (2n - 1)) for n = 8..1 ...
_STIRLING = (-2.955065359477124183e-2, 6.4102564102564102564e-3, -1.9175269175269175269e-3,
             8.4175084175084175084e-4, -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2)
# ... and (-1)^n zeta(n) / n for n = 23..2, then -euler: log Gamma(1 + w) / w
_TAYLOR = (-4.3478266053040259361e-2, 4.5454556293204669442e-2, -4.7619070330142227991e-2,
           5.000004769810169364e-2, -5.2631679379616660734e-2, 5.5555767627403611102e-2,
           -5.8823978658684582339e-2, 6.2500955141213040742e-2, -6.6668705882420468033e-2,
           7.1432946295361336059e-2, -7.6932516411352191473e-2, 8.3353840546109004025e-2,
           -9.0954017145829042233e-2, 1.0009945751278180853e-1, -1.1133426586956469049e-1,
           1.2550966952474304242e-1, -1.4404989676884611812e-1, 1.6955717699740818995e-1,
           -2.0738555102867398527e-1, 2.7058080842778454788e-1, -4.0068563438653142847e-1,
           8.2246703342411321824e-1, -5.7721566490153286061e-1)
_HLOG2PI = 0.918938533204672742          # log(2 pi) / 2
_LOGPI = 1.1447298858494001741434262     # log(pi)


# -- exact arithmetic the transcription needs --------------------------------------

def _split(x):
    """Veltkamp's split: x = hi + lo exactly, each with at most 26 bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x, y, xh, xl):
    """(p, e): p = x*y rounded and p + e = x*y exactly (Dekker), given x's
    split halves."""
    p = x * y
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _two_sum(x, y):
    """(s, e): s = x + y rounded and s + e = x + y exactly (Knuth)."""
    s = x + y
    yy = s - x
    return s, (x - (s - yy)) + (y - yy)


def _fma_by(x: float):
    """y, z -> x*y + z rounded once, as C's fma (but for the sign of a zero),
    for products that neither overflow nor underflow: the exact product's two
    halves summed by fsum."""
    xh, xl = _split(x)

    def fma(y, z):
        return math.fsum((*_two_product(x, y, xh, xl), z))
    return fma


def _fma_by_columns(x):
    """``_fma_by`` over columns: Boldo and Melquiond's emulation, which adds
    the two error terms rounded to odd (IEEE Trans. Comput. 57 (2008) 462)."""
    xh, xl = _split(x)

    def fma(y, z):
        p, e = _two_product(x, y, xh, xl)
        s, t = _two_sum(z, p)
        v, w = _two_sum(t, e)
        inexact = w != 0
        # truncate v towards zero, then set its last bit if it was inexact
        odd = (v.view(np.uint64) - (inexact & (np.signbit(w) != np.signbit(v)))) | inexact
        return s + odd.view(float)
    return fma


_RBIG = sys.float_info.max / 2
_RMIN = sys.float_info.min
_RMIN2 = sys.float_info.epsilon
_RMAX2 = _RBIG * _RMIN2


def _divdc3(a: complex, b: complex) -> complex:
    """a / b for a finite b != 0, rounded as libgcc's ``__divdc3`` (GCC 12 and
    later), which scales tiny and huge operands by powers of 2 first."""
    a, b, c, d = a.real, a.imag, b.real, b.imag
    big = max(abs(c), abs(d))
    if big >= _RBIG:
        a, b, c, d = a / 2, b / 2, c / 2, d / 2
    elif big < _RMIN2 or big < _RMAX2 and (abs(a) < _RMIN and abs(b) < _RMAX2
                                          or abs(b) < _RMIN and abs(a) < _RMAX2):
        a, b, c, d = a / _RMIN2, b / _RMIN2, c / _RMIN2, d / _RMIN2
    if abs(c) < abs(d):
        ratio = c / d
        denom = c * ratio + d
        if abs(ratio) > _RMIN:
            return complex((a * ratio + b) / denom, (b * ratio - a) / denom)
        return complex((c * (a / d) + b) / denom, (c * (b / d) - a) / denom)
    ratio = d / c
    denom = d * ratio + c
    if abs(ratio) > _RMIN:
        return complex((b * ratio + a) / denom, (b - a * ratio) / denom)
    return complex((a + d * (b / c)) / denom, (b - d * (a / c)) / denom)


#: parts within which libgcc's scaling and its subnormal-ratio order change
#: nothing, so that CPython's quotient (``core._quotient``) rounds the same
_PLAIN = (2.0 ** -250, 2.0 ** 250)


def _divdc3_columns(a, b) -> _PyComplex:
    """``_divdc3`` over columns: CPython's quotient, and ``_divdc3`` itself
    at the elements with a part outside ``_PLAIN`` (NaN where b = 0)."""
    a, b = _PyComplex.of(a), _PyComplex.of(b)
    q = _quotient(a, b)
    plain = True
    for x in (a.real, a.imag, b.real, b.imag):
        plain = plain & ((x == 0) | ((_PLAIN[0] <= np.abs(x)) & (np.abs(x) <= _PLAIN[1])))
    edge = np.flatnonzero(~np.broadcast_to(plain, q.real.shape))
    if edge.size:
        a, b = (np.broadcast_to(z.array(), q.real.shape) for z in (a, b))
        for i in edge:
            try:
                got = _divdc3(complex(a[i]), complex(b[i]))
            except ZeroDivisionError:
                got = complex(math.nan, math.nan)
            q.real[i], q.imag[i] = got.real, got.imag
    return q


# -- the branches of scipy's loggamma ---------------------------------------------

def _poly(f, coeffs, z):
    """The real polynomial ``coeffs`` (highest power first) at complex z by
    Knuth's recurrence (TAOCP 4.6.4 (3)), as scipy's ``cevalpoly``."""
    a, b = coeffs[0], coeffs[1]
    r, s = 2 * z.real, z.real * z.real + z.imag * z.imag
    by_r, by_minus_s = f.fma_by(r), f.fma_by(-s)
    for c in coeffs[2:]:
        a, b = by_r(a, b), by_minus_s(a, c)
    return f.cpair(z.real * a + b, z.imag * a)


def _stirling(f, z):
    """Re z > 7 or |Im z| > 7: the Stirling series."""
    rz = f.div(1 + 0j, z)
    rzz = f.div(rz, z)
    head = f.cpair(z.real - 0.5, z.imag) * f.log(z) - z
    return f.cpair(head.real + _HLOG2PI, head.imag) + rz * _poly(f, _STIRLING, rzz)


def _taylor(f, z):
    """|z - 1| < 0.2: the Taylor series at 1."""
    w = f.cpair(z.real - 1.0, z.imag)
    return w * _poly(f, _TAYLOR, w)


def _zlog1(f, z):
    """log z, by its series at 1 within 0.1 of 1 (scipy's ``zlog1``).  scipy
    also leaves the loop once |res/coeff| < eps, which never happens there:
    |res| > 0.9 |z - 1| >= |coeff|."""
    w = f.cpair(z.real - 1.0, z.imag)
    coeff, res = f.cpair(-1.0, 0.0), f.cpair(0.0, 0.0)
    for n in range(1, 17):
        coeff = coeff * f.cpair(-w.real, -w.imag)
        res = res + f.cpair(coeff.real / n, coeff.imag / n)
    return f.pick(abs(w) > 0.1, f.log(z), res)


def _near_two(f, z):
    """|z - 2| < 0.2: log(z - 1) plus the Taylor series at z - 1."""
    w = f.cpair(z.real - 1.0, z.imag)
    return _zlog1(f, w) + _taylor(f, w)


def _sinpi(f, z):
    """sin(pi z) as scipy's ``sinpi``, for |pi Im z| < 700."""
    x, piy = z.real, math.pi * z.imag
    r = f.fmod(f.where(x < 0.0, -x, x), 2.0)
    sin = f.where(x < 0.0, -1.0, 1.0) * f.sin(
        math.pi * f.where(r < 0.5, r, f.where(r > 1.5, r - 2.0, r - 1.0)))
    sin = f.where((r < 0.5) | (r > 1.5), sin, -sin)
    cos = f.where(r == 0.5, 0.0, f.where(r < 1.0, -f.sin(math.pi * (r - 0.5)),
                                         f.sin(math.pi * (r - 1.5))))
    return f.cpair(sin * f.cosh(piy), cos * f.sinh(piy))


def _reflection(f, z, log_gamma):
    """Re z < 0.1: log pi - log sin(pi z) - log Gamma(1 - z), moved onto the
    principal branch (Hare, Proposition 3.1)."""
    turns = f.copysign(2 * math.pi, z.imag) * f.floor(0.5 * z.real + 0.25)
    log_sin = f.log(_sinpi(f, z))
    reflected = log_gamma(f.cpair(1.0 - z.real, -z.imag))
    return f.cpair((_LOGPI - log_sin.real) - reflected.real,
                   (turns - log_sin.imag) - reflected.imag)


def _recurrence(f, z):
    """Im z >= +0, 0.1 <= Re z <= 7: the Stirling series at z + m, Re(z + m) > 7,
    less the log of z (z + 1) ... (z + m - 1), counting the times that product
    crosses the negative real axis (Hare, Proposition 2.2)."""
    shiftprod, signflips, below = z, 0, False
    z = f.cpair(z.real + 1.0, z.imag)
    for _ in range(6):                      # Re z >= 0.1 passes 7 in six steps
        more = z.real <= 7
        if not f.any(more):
            break
        shiftprod = f.pick(more, shiftprod * z, shiftprod)
        now_below = f.signbit(shiftprod.imag)
        signflips = signflips + f.where(below, False, more & now_below)
        below = f.where(more, now_below, below)
        z = f.cpair(f.where(more, z.real + 1.0, z.real), z.imag)
    head, log_prod = _stirling(f, z), f.log(shiftprod)
    return f.cpair(head.real - log_prod.real, (head.imag - log_prod.imag) - signflips * 2 * math.pi)


def _by_recurrence(f, z):
    """The recurrence in the upper half plane, conjugated into the lower."""
    lower = f.signbit(z.imag)
    got = _recurrence(f, f.pick(lower, z.conjugate(), z))
    return f.pick(lower, got.conjugate(), got)


def _branches(f, z, log_gamma):
    """(taken, branch) pairs in scipy's order; the first taken branch gives
    log Gamma(z), and ``log_gamma`` evaluates the reflected arguments."""
    return (((z.real > 7) | (abs(z.imag) > 7), _stirling),
            (abs(f.cpair(z.real - 1.0, z.imag)) < 0.2, _taylor),
            (abs(f.cpair(z.real - 2.0, z.imag)) < 0.2, _near_two),
            (z.real < 0.1, lambda f, z: _reflection(f, z, log_gamma)),
            (True, _by_recurrence))


def _at_one(f, z, mirror, log_gamma):
    """log Gamma at a Python complex z: the conjugate of ``mirror``, the value
    at conj(z), if that is exact, else the first branch z takes."""
    if mirror is not None and mirror.imag != 0:
        return mirror.conjugate()
    for taken, branch in _branches(f, z, log_gamma):
        if taken:
            return branch(f, z)


def _over_column(f, z, mirror, log_gamma):
    """log Gamma over a column: the conjugate of ``mirror`` where exact, and
    each branch over the other elements that take it."""
    if mirror is None:
        out = _PyComplex(np.full(z.real.shape, math.nan), np.full(z.real.shape, math.nan))
        left = np.ones(z.real.shape, dtype=bool)
    else:
        out = _PyComplex(mirror.real.copy(), -mirror.imag)
        left = out.imag == 0
    with np.errstate(all="ignore"):
        for taken, branch in _branches(f, z, log_gamma):
            at = left & taken
            if at.any():
                got = branch(f, _PyComplex(z.real[at], z.imag[at]))
                out.real[at], out.imag[at] = got.real, got.imag
                left &= ~at
    return out


#: the functions the branches evaluate, at one Python complex ...
_SCALAR = SimpleNamespace(
    sin=math.sin, cosh=math.cosh, sinh=math.sinh, cpair=complex, log=lambda z: complex(np.log(z)),
    fma_by=_fma_by, div=_divdc3, where=lambda c, x, y: x if c else y,
    pick=lambda c, z, w: z if c else w, any=bool, fmod=math.fmod, floor=math.floor,
    copysign=math.copysign, signbit=lambda x: math.copysign(1.0, x) < 0,
    key=lambda z: struct.pack("dd", z.real, z.imag), lowest=float, evaluate=_at_one)
#: ... and over equal-length columns, rounded the same (numpy's complex log is
#: glibc's clog)
_COLUMN = SimpleNamespace(
    **vars(COLUMN), cpair=_PyComplex, log=lambda z: _PyComplex.of(np.log(z.array())),
    fma_by=_fma_by_columns, div=_divdc3_columns, where=np.where,
    pick=lambda c, z, w: _PyComplex(np.where(c, z.real, w.real), np.where(c, z.imag, w.imag)),
    any=np.any, fmod=np.fmod, floor=np.floor, copysign=np.copysign, signbit=np.signbit,
    key=lambda z: (z.real.tobytes(), z.imag.tobytes()),
    lowest=lambda x: np.min(x, initial=np.inf), evaluate=_over_column)


def _log_gammas(f, args) -> list:
    """``scipy.special.loggamma`` at each argument off the poles: Python
    complex numbers with ``f = _SCALAR``, equal-length columns with
    ``f = _COLUMN``.  An argument equal to an earlier one is not evaluated
    again, nor one equal to the conjugate of an earlier one: scipy's log
    Gamma is conjugate-symmetric but for the sign of a zero imaginary part,
    and that is evaluated.  The reflection 1 - z of one argument is often
    the conjugate of another, so the larger real parts go first."""
    done = {}

    def log_gamma(z):
        key = f.key(z)
        if key not in done:
            done[key] = f.evaluate(f, z, done.get(f.key(z.conjugate())), log_gamma)
        return done[key]

    for z in sorted(args, key=lambda z: -f.lowest(z.real)):
        log_gamma(z)
    return [log_gamma(z) for z in args]


# -- public API ---------------------------------------------------------------------

def _on_pole(z, tol: float = POLE_TOL):
    """Where z (a complex number or a ``_PyComplex`` column) is within tol of
    a non-positive integer."""
    n = np.round(z.real)
    with np.errstate(invalid="ignore"):
        return (n <= 0) & (np.abs(z.real - n) <= tol) & (np.abs(z.imag) <= tol)


def is_gamma_pole(z: complex, tol: float = POLE_TOL) -> bool:
    """True when z is within tol of a non-positive integer."""
    return bool(_on_pole(complex(z), tol))


def complex_log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z).

    Raises GammaPole at the non-positive integers and NonFiniteArgument at
    a NaN or infinite part.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFiniteArgument(f"log-gamma argument {z} is not finite")
    if is_gamma_pole(z):
        raise GammaPole(f"log-gamma pole at z = {z}")
    return _log_gammas(_SCALAR, [z])[0]


def gamma_ratio_columns(numerator_args, denominator_args):
    """Gamma(numerator_args) / Gamma(denominator_args), products of gamma
    factors, evaluated in log space over columns of arguments
    (``core._PyComplex``, or Python complex numbers for arguments that do not
    depend on k): the ratio column and its faults (see ``core._raise_first``).

    A pole among the numerator factors is a NumeratorPole; a pole among the
    denominator factors contributes a factor 1/Gamma = 0, so the ratio is 0
    there (1/Gamma is entire).  Log-gamma terms so large that their sum keeps
    an error above CANCELLATION_TOL are a PrecisionLoss, and a ratio beyond
    the float range a TransferOverflow.  A NaN or infinite argument raises
    NonFiniteArgument."""
    args, m = [*numerator_args, *denominator_args], len(numerator_args)
    length = max((np.size(z.real) for z in args), default=1)
    re, im = np.empty((len(args), length)), np.empty((len(args), length))
    for j, z in enumerate(args):
        re[j], im[j] = z.real, z.imag
    for j, i in np.argwhere(~(np.isfinite(re) & np.isfinite(im)))[:1]:
        raise NonFiniteArgument(f"log-gamma argument {complex(re[j, i], im[j, i])} is not finite")
    with np.errstate(all="ignore"):
        if 0 < length < ELEMENTWISE_BELOW:
            rows = [_log_gammas(_SCALAR, [complex(*parts) for parts in zip(re[:, i].tolist(), im[:, i].tolist())])
                    for i in range(length)]
            logs = [_PyComplex.of(np.array(lgs)) for lgs in zip(*rows)]
        else:
            logs = _log_gammas(_COLUMN, [_PyComplex(*parts) for parts in zip(re, im)])
        log_sum, size = _PyComplex(np.zeros(length), np.zeros(length)), np.zeros(length)
        for j, lg in enumerate(logs):
            log_sum = log_sum + lg if j < m else log_sum - lg
            size = size + abs(lg)
        poles = _on_pole(_PyComplex(re, im))
        zero = np.any(poles[m:], axis=0)
        ratio = np.where(zero, 0j, log_sum.exp().array())
        lossy = ~zero & (size * sys.float_info.epsilon > CANCELLATION_TOL)

    def pole_at(j):
        return lambda i: NumeratorPole(f"numerator gamma pole at z = {complex(re[j, i], im[j, i])}")
    faults = [(poles[j], pole_at(j)) for j in range(m)]
    return ratio, faults + [
        (lossy, lambda i: PrecisionLoss(f"log-gamma terms of total size {float(size[i]):.3g} cancel; "
                                        f"the ratio would carry an error above {CANCELLATION_TOL:g}")),
        (~np.isfinite(ratio), lambda i: TransferOverflow("the gamma ratio exceeded the float range"))]
