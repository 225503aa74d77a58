"""Analytic catalog: closed-form transfer matrices and coefficients.

Covers the complex square well with an antisymmetric imaginary part, the
periodic n-well lattice built from it, the hyperbolic Scarf (Scarf II)
potential including complex coordinate shifts, and the regularised
inverse-square (centrifugal) potential.  Each entry also provides a
LocalPotential factory so the direct integrator can be run on the same
physics as an independent cross-check.  ``numeric`` is imported when such a
profile is built and ``specfun`` when a Scarf value is evaluated, so the
closed forms alone load neither.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    COLUMN,
    EXTENDED,
    AsymptoticAmplitudes,
    OUT_OF_RANGE,
    ScatteringCoefficients,
    _closed_form,
    _frozen,
    _mapped,
    _or_nan,
    _pole,
    _PyComplex,
    _raise_first,
    _require_finite,
    _smatrix,
    _wavenumbers,
)
from .errors import TransferOverflow

if TYPE_CHECKING:
    from .numeric import LocalPotential

OVERFLOW_LIMIT = 1e300


# ---------------------------------------------------------------------------
# complex square well:  V = -V0 + iV1 on [-b, 0],  -V0 - iV1 on [0, b]
# ---------------------------------------------------------------------------

@_frozen
class SquareWellParams:
    """Depth v0 >= 0, imaginary strength v1 (antisymmetric), half-width b > 0."""

    v0: float
    v1: float
    b: float

    def __post_init__(self):
        _require_finite("square-well", v0=self.v0, v1=self.v1, b=self.b)
        if self.v0 < 0:
            raise ValueError("v0 must be >= 0")
        if not self.b > 0:
            raise ValueError("b must be > 0")


def square_well_transfer(p: SquareWellParams, k) -> np.ndarray:
    """Closed-form transfer matrix of the well centred at the origin, as a
    complex (2, 2) array at one k or a (K, 2, 2) stack over a k grid; a
    matrix that is not finite raises TransferOverflow at its k.

    The diagonal elements are invariant under v1 -> -v1, which swaps the
    interior wave numbers sqrt(E + v0 -+ i v1) of the two halves, and
    det M = 1 identically.
    """
    ks, one = _wavenumbers(k)
    with np.errstate(all="ignore"):
        m = np.stack([z.array() for z in _square_well_elements(p, ks)], -1).reshape(-1, 2, 2)
    _raise_first([(~np.isfinite(m).all(axis=(1, 2)), lambda i: TransferOverflow(OUT_OF_RANGE))], ks)
    return m[0] if one else m


def _square_well_elements(p: SquareWellParams, kv, f=COLUMN) -> tuple:
    """(M_RR, M_RL, M_LR, M_LL) over the column kv, evaluated with the
    functions of ``f`` (``COLUMN`` over floats, ``EXTENDED`` over np.longdouble).

    The interior wave numbers are alpha e^{-+i phi} = sqrt(E + v0 -+ i v1) in
    the left and right halves: alpha^4 = (E + v0)^2 + v1^2 and
    phi = arctan(v1 / (E + v0)) / 2.
    """
    v0, v1, b = f.real(p.v0), f.real(p.v1), f.real(p.b)
    e = kv * kv
    alpha = f.pow(f.pow(e + v0, 2) + f.pow(v1, 2), 0.25)
    phi = 0.5 * f.atan2(v1, e + v0)
    cp, sp = f.cos(phi), f.sin(phi)
    c, s = 2 * alpha * b * cp, 2 * alpha * b * sp
    cos_c, sin_c, cosh_s, sinh_s = f.cos(c), f.sin(c), f.cosh(s), f.sinh(s)
    even = cp * cp * cos_c + sp * sp * cosh_s
    km = (kv * kv - alpha * alpha) / (2 * kv * alpha)
    kp = (kv * kv + alpha * alpha) / (2 * kv * alpha)
    odd = km * sp * sinh_s + kp * cp * sin_c
    cross = sp * cp * (cos_c - cosh_s)
    off = km * cp * sin_c + kp * sp * sinh_s
    return (f.cexp(2j * kv * b) * (even - 1j * odd), f.complex(1j * (cross + off)),
            f.complex(1j * (cross - off)), f.cexp(-2j * kv * b) * (even + 1j * odd))


@_closed_form
def square_well_coefficients(p: SquareWellParams, k) -> ScatteringCoefficients:
    """Coefficients via the transfer matrix; T equals 1/M_RR in both directions.

    ``k`` may be an array of wave numbers: the record then holds columns.
    """
    return _smatrix(*_square_well_elements(p, k))


def square_well_potential(p: SquareWellParams, x0: float = 0.0) -> LocalPotential:
    """LocalPotential of the well centred at x0 (for the numeric oracle)."""
    return _wells_potential(p, [(x0 - p.b, x0, x0 + p.b)])


def _wells_potential(p: SquareWellParams, wells) -> LocalPotential:
    """Piecewise-constant LocalPotential of the wells (lo, mid, hi), in
    increasing order: -v0 + i v1 on [lo, mid), -v0 - i v1 on [mid, hi], and 0
    outside every well."""
    from .numeric import LocalPotential

    v_left = complex(-p.v0, p.v1)
    v_right = complex(-p.v0, -p.v1)
    los, mids, his = (np.array(col) for col in zip(*wells))

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        j = np.maximum(np.searchsorted(los, x, side="right") - 1, 0)   # last well with lo <= x
        inside = (x >= los[j]) & (x <= his[j])
        return np.where(inside, np.where(x < mids[j], v_left, v_right), 0.0)[()]

    return LocalPotential(evaluate=evaluate, x_left=wells[0][0], x_right=wells[-1][2],
                          breakpoints=tuple(edge for well in wells for edge in well))


# ---------------------------------------------------------------------------
# n identical wells of width 2b separated by gaps of width 2a
# ---------------------------------------------------------------------------

@_frozen
class LatticeParams:
    """Finite lattice of n identical wells; first well spans [u1, u1 + 2b]."""

    well: SquareWellParams
    a: float
    n: int

    def __post_init__(self):
        _require_finite("lattice", a=self.a)
        if not self.a > 0:
            raise ValueError("half-gap a must be > 0")
        if self.n < 1:
            raise ValueError("well count n must be >= 1")
        if not all(map(math.isfinite, (self.period, self.u1, self.u1 + self.n * self.period))):
            raise ValueError(f"half-gap a = {self.a} and half-width b = {self.well.b} put the "
                             f"lattice period or well edges beyond the float range")

    @property
    def period(self) -> float:
        return 2 * (self.a + self.well.b)

    @property
    def u1(self) -> float:
        return -self.a - 2 * self.well.b


def _cell(p: LatticeParams, kv) -> tuple:
    """The elements of the cell matrix T over a column kv, in np.clongdouble."""
    kv = np.asarray(kv, dtype=np.longdouble)
    m_rr, m_rl, m_lr, m_ll = _square_well_elements(p.well, kv, EXTENDED)
    a, b = np.longdouble(p.a), np.longdouble(p.well.b)
    return (m_rr * np.exp(-2j * kv * (a + b)), m_rl * np.exp(2j * kv * a),
            m_lr * np.exp(-2j * kv * a), m_ll * np.exp(2j * kv * (a + b)))


#: most (n, k) rows of one chunk of ``lattice_transfer``
CHUNK_ROWS = 4096


def lattice_transfer(p: LatticeParams, ks, n_max: int | None = None):
    """The cell matrices T over the k column ``ks`` as a (K, 2, 2) stack and a
    generator of chunks (ns, T^n, overflow, |T^n|) for n = p.n..n_max, each
    of at most ``CHUNK_ROWS`` (n, k) rows: ns the chunk's n, T^n the
    (len(ns), K, 2, 2) stack of the cell's powers, overflow, sticky over n,
    marks the (n, k) where the cell or a product so far had an element above
    1e300 or not finite, and |T^n| is the np.longdouble stack of the moduli
    that the chunk's flags were read from.  T^{p.n} comes by repeated
    squaring, as for one n at one k, each further power as T @ T^{n-1}.  The
    edge phases of the lattice's transfer matrix conj(D(u1)) T^n
    D(u1 + n*period) are left to the caller (``multi_well_coefficients``):
    they have unit modulus and unit det, so the moduli of the matrix's
    elements and its det are those of T^n.  T and T^n are np.clongdouble:
    the caller rounds what it keeps to complex once."""
    kv = _wavenumbers(ks)[0].astype(np.longdouble)
    with np.errstate(all="ignore"):
        t = np.stack(_cell(p, kv), axis=-1).reshape(-1, 2, 2)

    def flags(moduli):              # per matrix: an element above the limit or not finite
        return ~(np.max(moduli, axis=(-2, -1)) <= OVERFLOW_LIMIT)

    def chunks():
        last, size = p.n if n_max is None else n_max, max(1, CHUNK_ROWS // len(kv))
        with np.errstate(over="ignore", invalid="ignore"):
            power, base, n = np.broadcast_to(np.eye(2, dtype=t.dtype), t.shape), t, p.n
            overflow = flags(np.abs(t))
            while n:
                if n & 1:
                    power = power @ base
                    overflow |= flags(np.abs(power))
                n >>= 1
                if n:
                    base = base @ base
                    overflow |= flags(np.abs(base))
        for lo in range(p.n, last + 1, size):
            ns = np.arange(lo, min(lo + size, last + 1))
            powers = np.empty((len(ns), *t.shape), dtype=t.dtype)
            with np.errstate(over="ignore", invalid="ignore"):
                powers[0] = power if lo == p.n else t @ power
                for j in range(1, len(ns)):
                    np.matmul(t, powers[j - 1], out=powers[j])
                moduli = np.abs(powers)
                rows = flags(moduli)
                rows[0] |= overflow
                rows = np.logical_or.accumulate(rows, axis=0)
            power, overflow = powers[-1].copy(), rows[-1].copy()
            yield ns, powers, rows, moduli

    return t, chunks()


def lattice_rows(p: LatticeParams, ks, n_max: int):
    """The ``lattice`` table over the k column ``ks`` for n = p.n..n_max, in
    ``lattice_transfer``'s chunks of (n, k) rows, n major: (ns, values,
    overflow), values the rows |t_lr| = 1/|T_RR|, |r_lr| = |T_LR|/|T_RR|,
    |t_rl| = |det M|/|T_RR|, |r_rl| = |T_RL|/|T_RR| (the np.longdouble moduli
    of T^n, which the edge phases leave as they are) and Re and Im det M, NaN
    where overflow is set.  det M = det(T)^n is CPython's complex ** int of
    the cell's det, taken in Python's complex arithmetic from the cell rounded
    to complex once, and NaN where Python raises OverflowError.
    TransferOverflow names the first k where the rounded cell is not finite;
    then, in (n, k) order, a row that is not flagged raises TransmissionPole
    where |T_RR| < 1e-12 and TransferOverflow where a value is not finite."""
    cells, chunks = lattice_transfer(p, ks, n_max)
    ks = _wavenumbers(ks)[0]
    with np.errstate(over="ignore"):    # the extended cell may hold what no float does
        cells = cells.astype(complex)
    _raise_first([(~np.all(np.isfinite(cells), axis=(1, 2)), lambda i: TransferOverflow(OUT_OF_RANGE))], ks)
    dets = [rr * ll - rl * lr for rr, rl, lr, ll in cells.reshape(-1, 4).tolist()]
    for ns, _, overflow, size in chunks:
        size, overflow = size.reshape(-1, 4), overflow.ravel()
        with np.errstate(all="ignore"):
            det = _mapped(operator.pow, dets * len(ns), np.repeat(ns, len(dets)), dtype=complex)
            rr = size[:, 0]                 # |T_RR|, then |T_RL| and |T_LR|, in np.longdouble
            values = np.array([1 / rr, size[:, 2] / rr, np.abs(det.astype(np.clongdouble)) / rr,
                               size[:, 1] / rr, det.real, det.imag], dtype=float)
        faults = [_pole(rr), (~np.all(np.isfinite(values), axis=0), lambda i: TransferOverflow(OUT_OF_RANGE))]
        _raise_first([(mask & ~overflow, make) for mask, make in faults], np.tile(ks, len(ns)))
        values[:, overflow] = np.nan
        yield ns, values, overflow


@_closed_form
def multi_well_coefficients(p: LatticeParams, k) -> ScatteringCoefficients:
    """Coefficients of the n-well lattice from its transfer matrix
    conj(D(u1)) T^n D(u1 + n*period), each element a phase times an element
    of T^n times a phase, in np.clongdouble; ``k`` may be an array of wave
    numbers."""
    kv = k.astype(np.longdouble)
    _, power, overflow, _ = next(lattice_transfer(p, k)[1])

    def phases(x):                  # (e^{ikx}, e^{-ikx}), the diagonal of D(x), over k
        return np.exp(np.stack([1j * kv, -1j * kv], axis=-1) * x)

    m = phases(-p.u1)[:, :, None] * power[0] * phases(p.u1 + p.n * p.period)[:, None, :]
    columns, faults = _smatrix(*(m[:, i // 2, i % 2] for i in range(4)))
    return columns, [(overflow[0], lambda i: TransferOverflow("transfer-matrix element exceeded 1e300")),
                     *faults]


def lattice_potential(p: LatticeParams) -> LocalPotential:
    """Piecewise profile of the assembled lattice (for the numeric oracle)."""
    b = p.well.b
    los = [p.u1 + j * p.period for j in range(p.n)]
    return _wells_potential(p.well, [(lo, lo + b, lo + 2 * b) for lo in los])


def _truncated(profile, cutoff: float):
    """``evaluate`` for V = profile(x) on |x| <= cutoff and 0 beyond, at a
    scalar or an array x; ``profile`` gets an array of the inside points."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        inside = np.abs(x) <= cutoff
        out[inside] = profile(x[inside])
        return out[()]

    return evaluate


# ---------------------------------------------------------------------------
# hyperbolic Scarf potential
#   V(x) = (lam^2 - s(s+1))/cosh^2 x + lam(2s+1) sinh x / cosh^2 x
# ---------------------------------------------------------------------------

@_frozen
class ScarfParams:
    """Strengths (s, lam) and complex coordinate shift eps, |eps| < pi/2.

    Real lam gives the hermitian well; purely imaginary lam the complex
    one with V*(-x) = V(x).
    """

    s: float
    lam: complex
    eps: float = 0.0

    def __post_init__(self):
        _require_finite("Scarf", s=self.s, lam=self.lam, eps=self.eps)
        if not abs(self.eps) < math.pi / 2:
            raise ValueError("|eps| must be < pi/2 to keep the potential regular")


@functools.partial(_closed_form, record=AsymptoticAmplitudes)
def scarf_amplitudes(p: ScarfParams, k) -> AsymptoticAmplitudes:
    """Asymptotic amplitudes of the two hypergeometric solutions, at one k or
    as columns over a k grid.

    Each amplitude is an exponential times a gamma ratio, and the amplitudes
    pair up on shared ratios: a1p/b1m, b1p/a1m, a2p/b2m and b2p/a2m.  The
    complex shift multiplies every e^{+ikx} amplitude by e^{-k*eps} and every
    e^{-ikx} amplitude by e^{+k*eps}.  Parameter combinations that put a gamma
    pole into a solution's overall normalisation (e.g. integer s with
    half-integer lam/i) raise GammaPole at that k; the coefficient quotients
    stay finite there and are available from ``scarf_coefficients``.
    """
    from .specfun import gamma_ratio_columns

    s, lam, i, half, ln2 = p.s, complex(p.lam), 1j, 0.5, math.log(2.0)
    kc = _PyComplex(k)
    ik = i * kc
    g1, g2 = i * lam - s + half, s + 1.5 - i * lam       # the shared factors of each solution
    (r1p, r1m, r2p, r2m), faults = zip(*(gamma_ratio_columns(num, den) for num, den in (
        ((g1, 2 * ik), (-s + ik, half + i * lam + ik)), ((g1, -2 * ik), (-s - ik, half + i * lam - ik)),
        ((g2, 2 * ik), (half - i * lam + ik, s + 1 + ik)), ((g2, -2 * ik), (half - i * lam - ik, s + 1 - ik)))))
    q = (math.pi / 2) * (lam - kc + i * s)               # e^{-+q} links a1p and b1m
    w = (math.pi / 2) * (lam + kc + i * s)               # e^{-+w} links b1p and a1m
    q2, w2 = (math.pi / 2) * (lam - kc + i * (s + 1)), (math.pi / 2) * (lam + kc + i * (s + 1))
    plus, minus = (s + 2 * ik) * ln2, (s - 2 * ik) * ln2
    plus2, minus2 = (2 * ik + i * lam - half) * ln2, (-2 * ik + i * lam - half) * ln2
    ea, eb = COLUMN.exp(-k * p.eps), COLUMN.exp(k * p.eps)
    return ((-q - plus).exp() * r1p * ea, (-w - minus).exp() * r1m * eb,
            (w - minus).exp() * r1m * ea, (q - plus).exp() * r1p * eb,
            (w2 - plus2).exp() * r2p * ea, (q2 - minus2).exp() * r2m * eb,
            (-q2 - minus2).exp() * r2m * ea, (-w2 - plus2).exp() * r2p * eb), sum(faults, [])


def _scarf_t_args(s: float, lam: complex, ik):
    """Numerator and denominator gamma arguments of T, given ik = 1j*k."""
    half = 0.5
    return ((-s - ik, s + 1 - ik, half + 1j * lam - ik, half - 1j * lam - ik),
            (-ik, 1 - ik, half - ik, half - ik))


def _scarf_rfac_parts(s: float, lam: complex) -> tuple:
    """(a, b) with R/T = a/cosh(pi k) + b/sinh(pi k), NaN where sinh or cosh
    of pi lam overflows.  cos(pi s) and sin(pi s) take s mod 2, exactly, so
    that a huge s keeps its phase."""
    s = math.fmod(s, 2.0)
    return (math.cos(math.pi * s) * _or_nan(cmath.sinh, math.pi * lam),
            1j * math.sin(math.pi * s) * _or_nan(cmath.cosh, math.pi * lam))


@_closed_form
def scarf_coefficients(p: ScarfParams, k) -> ScatteringCoefficients:
    """Closed-form coefficients, valid where individual amplitudes may pole.

    T is eps-independent and symmetric under lam -> -lam, so equal in both
    directions; the reflections obey R_lr(eps) = R_lr(0) e^{+2k eps} and
    R_rl(eps, lam) = R_lr(eps, -lam) e^{-4k eps}.  ``k`` may be an array of
    wave numbers: the record then holds columns.
    """
    from .specfun import gamma_ratio_columns

    lam = complex(p.lam)
    t, faults = gamma_ratio_columns(*_scarf_t_args(p.s, lam, 1j * _PyComplex(k)))
    t = _PyComplex.of(t)
    ch, sh = _PyComplex(COLUMN.cosh(math.pi * k)), _PyComplex(COLUMN.sinh(math.pi * k))
    reflections = []
    for signed_lam, shift in ((lam, 2 * k * p.eps), (-lam, -2 * k * p.eps)):
        a, b = _scarf_rfac_parts(p.s, signed_lam)
        reflections.append(t * (a / ch + b / sh) * COLUMN.exp(shift))
    return (t, reflections[0], t, reflections[1]), faults


def _scarf_tail(c0: complex, c1: complex, phase: complex) -> tuple:
    """Coefficients w_1, w_2, ... of V = sum_n w_n e^{-n|x|} on one side.

    With q = e^{-(x + i eps)} on the right, V = (4 c0 q^2 + 2 c1 q (1 - q^2)) / (1 + q^2)^2,
    expanded through 1/(1 + q^2)^2 = sum_j (-1)^j (j + 1) q^{2j}; ``phase`` is
    q e^{|x|}.  The left side is the same with c1 -> -c1 and q = e^{x + i eps}.
    """
    from .numeric import MAX_TAIL_TERMS

    inverse = np.zeros(MAX_TAIL_TERMS + 1, dtype=complex)
    inverse[::2] = [(-1) ** j * (j + 1) for j in range(MAX_TAIL_TERMS // 2 + 1)]
    v = np.convolve([0.0, 2 * c1, 4 * c0, -2 * c1], inverse)[1:MAX_TAIL_TERMS + 1]
    return tuple(v * phase ** np.arange(1, MAX_TAIL_TERMS + 1))


def scarf_potential(p: ScarfParams, cutoff: float = 20.0) -> LocalPotential:
    """Profile on [-cutoff, cutoff] for the numeric oracle, with its exact
    exponential tails beyond: the integrator matches the Jost solutions at
    +-cutoff, so ``cutoff`` is a matching radius, not a truncation.
    ``evaluate`` is zero beyond the cutoff.

    A non-zero eps is a complex coordinate shift: the profile evaluated on
    the real line is V(x + i*eps), a complex potential in its own right.
    """
    from .numeric import LocalPotential

    lam = complex(p.lam)
    c0 = lam * lam - p.s * (p.s + 1)
    c1 = lam * (2 * p.s + 1)
    shift = complex(0.0, p.eps)

    def profile(x):
        z = x + shift
        ch = np.cosh(z)
        return (c0 + c1 * np.sinh(z)) / (ch * ch)

    tails = (_scarf_tail(c0, -c1, cmath.exp(shift)), _scarf_tail(c0, c1, cmath.exp(-shift)))
    return LocalPotential(evaluate=_truncated(profile, cutoff), x_left=-cutoff, x_right=cutoff,
                          tails=tails)


# ---------------------------------------------------------------------------
# regularised centrifugal potential  V(x) = strength / (x + i eps)^2
# ---------------------------------------------------------------------------

@_frozen
class CentrifugalParams:
    """Strength alpha and a non-zero regulator eps removing the x = 0 pole."""

    alpha_strength: float
    eps: float

    def __post_init__(self):
        _require_finite("centrifugal", alpha_strength=self.alpha_strength, eps=self.eps)
        if self.eps == 0.0:
            raise ValueError("eps must be non-zero")

    @property
    def nu(self) -> complex:
        """Effective index, nu^2 = strength + 1/4 (principal square root)."""
        return cmath.sqrt(self.alpha_strength + 0.25)


@functools.partial(_closed_form, record=AsymptoticAmplitudes)
def centrifugal_amplitudes(p: CentrifugalParams, k) -> AsymptoticAmplitudes:
    """Amplitudes of the incoming/outgoing Hankel-type solutions, at one k or
    as columns over a k grid."""
    up = (_PyComplex(-k * p.eps) - 1j * math.pi * p.nu / 2 - 1j * math.pi / 4).exp()
    dn = (_PyComplex(k * p.eps) + 1j * math.pi * p.nu / 2 + 1j * math.pi / 4).exp()
    return (up, 0j, up, 0j, 0j, dn, 0j, dn), []


@_closed_form
def centrifugal_coefficients(p: CentrifugalParams, k) -> ScatteringCoefficients:
    """T = 1 and R = 0 in both directions at every k (or k array), which is exact only
    at strength = l(l+1): elsewhere R_rl (eps > 0) or R_lr (eps < 0) is -2i cos(pi nu)
    e^{-2k|eps|}, |R_rl| = 1.35, 1.00, 0.55 at k = 0.5, 1, 2 for strength 0.5, eps 0.3."""
    return (1.0, 0.0, 1.0, 0.0), []


def centrifugal_pt_phase(p: CentrifugalParams) -> complex:
    """Eigenstate phase conj(A+)/A- = e^{i pi (nu + 1/2)} of the combined-reflection eigencheck."""
    return cmath.exp(1j * math.pi * (p.nu + 0.5))


def centrifugal_potential(p: CentrifugalParams, cutoff: float = 50.0) -> LocalPotential:
    """Truncated profile; the 1/x^2 tail makes truncation the accuracy limit."""
    from .numeric import LocalPotential

    def profile(x):
        z = x + 1j * p.eps
        return p.alpha_strength / (z * z)

    return LocalPotential(evaluate=_truncated(profile, cutoff), x_left=-cutoff, x_right=cutoff)
