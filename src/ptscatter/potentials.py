"""Analytic catalog: closed-form transfer matrices and coefficients.

Covers the complex square well with an antisymmetric imaginary part, the
periodic n-well lattice built from it, the hyperbolic Scarf (Scarf II)
potential including complex coordinate shifts, and the regularised
inverse-square (centrifugal) potential.  Each entry also provides a
LocalPotential factory so the direct integrator can be run on the same
physics as an independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COLUMN,
    SCALAR,
    AsymptoticAmplitudes,
    ScatteringCoefficients,
    TransferMatrix,
    _PyComplex,
    _require_finite,
    as_wavenumber,
    on_grid,
    smatrix_columns,
    smatrix_from_transfer,
)
from .errors import InvalidNu, TransferOverflow
from .numeric import LocalPotential
from .specfun import GammaRatio, gamma_ratio, gamma_ratio_columns

OVERFLOW_LIMIT = 1e300


# ---------------------------------------------------------------------------
# complex square well:  V = -V0 + iV1 on [-b, 0],  -V0 - iV1 on [0, b]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    def alpha(self, k) -> float:
        """Modulus of the interior wave numbers: alpha^2 = sqrt((E+V0)^2 + V1^2)."""
        e = as_wavenumber(k).energy
        return ((e + self.v0) ** 2 + self.v1 ** 2) ** 0.25

    def phi(self, k) -> float:
        """Interior phase: phi = arctan(V1/(E+V0)) / 2."""
        e = as_wavenumber(k).energy
        return 0.5 * math.atan2(self.v1, e + self.v0)

    def alpha0(self, k) -> complex:
        """Interior wave number of the left half (emissive for v1 > 0)."""
        return self.alpha(k) * cmath.exp(-1j * self.phi(k))

    def alpha1(self, k) -> complex:
        """Interior wave number of the right half (absorptive for v1 > 0)."""
        return self.alpha(k) * cmath.exp(1j * self.phi(k))


def square_well_transfer(p: SquareWellParams, k) -> TransferMatrix:
    """Closed-form transfer matrix of the well centred at the origin.

    The diagonal elements are invariant under v1 -> -v1 (alpha0 <-> alpha1)
    and det M = 1 identically.
    """
    return TransferMatrix(*_square_well_elements(p, as_wavenumber(k).k))


def _square_well_elements(p: SquareWellParams, kv, f=SCALAR) -> tuple:
    """(M_RR, M_RL, M_LR, M_LL) at a float kv, or over a float column kv
    with ``f = COLUMN`` (the same operations, rounded as at one k)."""
    e = kv * kv
    alpha = f.pow(f.pow(e + p.v0, 2) + p.v1 ** 2, 0.25)     # SquareWellParams.alpha
    phi = 0.5 * f.atan2(p.v1, e + p.v0)                     # SquareWellParams.phi
    c = 2 * alpha * p.b * f.cos(phi)
    s = 2 * alpha * p.b * f.sin(phi)
    cp, sp = f.cos(phi), f.sin(phi)
    even = cp * cp * f.cos(c) + sp * sp * f.cosh(s)
    km = (kv * kv - alpha * alpha) / (2 * kv * alpha)
    kp = (kv * kv + alpha * alpha) / (2 * kv * alpha)
    odd = km * sp * f.sinh(s) + kp * cp * f.sin(c)
    cross = sp * cp * (f.cos(c) - f.cosh(s))
    off = km * cp * f.sin(c) + kp * sp * f.sinh(s)
    return (f.cexp(2j * kv * p.b) * (even - 1j * odd), f.complex(1j * (cross + off)),
            f.complex(1j * (cross - off)), f.cexp(-2j * kv * p.b) * (even + 1j * odd))


def square_well_transfer_interfaces(p: SquareWellParams, k) -> TransferMatrix:
    """Transfer matrix built from the three continuity systems directly.

    Independent route used to cross-check the transcribed closed forms
    against possible sign slips.
    """
    kv = as_wavenumber(k).k
    a0, a1 = p.alpha0(k), p.alpha1(k)

    def j(q, x):
        ep, em = cmath.exp(1j * q * x), cmath.exp(-1j * q * x)
        return np.array([[ep, em], [q * ep, -q * em]], dtype=complex)

    m = (np.linalg.solve(j(kv, -p.b), j(a0, -p.b))
         @ np.linalg.solve(j(a0, 0.0), j(a1, 0.0))
         @ np.linalg.solve(j(a1, p.b), j(kv, p.b)))
    return TransferMatrix.from_array(m)


def square_well_coefficients(p: SquareWellParams, k) -> ScatteringCoefficients:
    """Coefficients via the transfer matrix; T equals 1/M_RR in both directions.

    ``k`` may be an array of wave numbers: the record then holds columns.
    """
    if np.ndim(k):
        return on_grid(k, lambda i: square_well_coefficients(p, k[i]),
                       lambda ks: smatrix_columns(*_square_well_elements(p, ks, COLUMN)))
    return smatrix_from_transfer(square_well_transfer(p, k))


def square_well_potential(p: SquareWellParams, x0: float = 0.0) -> LocalPotential:
    """LocalPotential of the well centred at x0 (for the numeric oracle)."""
    v_left = complex(-p.v0, p.v1)
    v_right = complex(-p.v0, -p.v1)
    lo, mid, hi = x0 - p.b, x0, x0 + p.b

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.where((x < lo) | (x > hi), 0.0, np.where(x < mid, v_left, v_right))[()]

    return LocalPotential(evaluate=evaluate, x_left=lo, x_right=hi, breakpoints=(mid,))


# ---------------------------------------------------------------------------
# n identical wells of width 2b separated by gaps of width 2a
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    @property
    def period(self) -> float:
        return 2 * (self.a + self.well.b)

    @property
    def u1(self) -> float:
        return -self.a - 2 * self.well.b

    @property
    def length(self) -> float:
        return self.n * self.period


def lattice_tmatrix(p: LatticeParams, k) -> TransferMatrix:
    """Cell transfer matrix T absorbing the per-period displacement phases."""
    kv = as_wavenumber(k).k
    m = square_well_transfer(p.well, k)
    a, b = p.a, p.well.b
    return TransferMatrix(
        m_rr=m.m_rr * cmath.exp(-2j * kv * (a + b)),
        m_rl=m.m_rl * cmath.exp(2j * kv * a),
        m_lr=m.m_lr * cmath.exp(-2j * kv * a),
        m_ll=m.m_ll * cmath.exp(2j * kv * (a + b)),
    )


def _check_overflow(m: np.ndarray):
    biggest = np.max(np.abs(m))
    if not np.isfinite(biggest) or biggest > OVERFLOW_LIMIT:
        raise TransferOverflow("transfer-matrix element exceeded 1e300")


def _matrix_power(t: np.ndarray, n: int) -> np.ndarray:
    """Repeated squaring with overflow detection (lattices can amplify flux)."""
    result = np.eye(2, dtype=complex)
    base = t.copy()
    _check_overflow(base)
    with np.errstate(over="ignore", invalid="ignore"):
        while n:
            if n & 1:
                result = result @ base
                _check_overflow(result)
            n >>= 1
            if n:
                base = base @ base
                _check_overflow(base)
    return result


def multi_well_transfer(p: LatticeParams, k) -> TransferMatrix:
    """Transfer matrix of the n-well lattice: conj(D(u1)) T^n D(u1 + n*period)."""
    kv = as_wavenumber(k).k
    t = lattice_tmatrix(p, k).as_array()
    tn = _matrix_power(t, p.n)
    u1 = p.u1
    d_left = np.diag([cmath.exp(-1j * kv * u1), cmath.exp(1j * kv * u1)])
    v = u1 + p.n * p.period
    d_right = np.diag([cmath.exp(1j * kv * v), cmath.exp(-1j * kv * v)])
    return TransferMatrix.from_array(d_left @ tn @ d_right)


def lattice_potential(p: LatticeParams) -> LocalPotential:
    """Piecewise profile of the assembled lattice (for the numeric oracle)."""
    w = p.well
    edges = []
    for j in range(p.n):
        lo = p.u1 + j * p.period
        edges.append((lo, lo + w.b, lo + 2 * w.b))
    v_left = complex(-w.v0, w.v1)
    v_right = complex(-w.v0, -w.v1)
    los, mids, his = (np.array(col) for col in zip(*edges))

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        j = np.maximum(np.searchsorted(los, x, side="right") - 1, 0)   # last well with lo <= x
        inside = (x >= los[j]) & (x <= his[j])
        return np.where(inside, np.where(x < mids[j], v_left, v_right), 0.0)[()]

    breakpoints = tuple(b for e in edges for b in e)
    return LocalPotential(evaluate=evaluate, x_left=edges[0][0], x_right=edges[-1][2],
                          breakpoints=breakpoints)


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

@dataclass(frozen=True)
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


def _scarf_raw_amplitudes(s: float, lam: complex, k: float):
    """The eight eps = 0 amplitudes as (log-prefactor, GammaRatio) pairs."""
    i = 1j
    ln2 = math.log(2.0)
    half = 0.5

    def amp(pref, num, den):
        return cmath.exp(pref) * gamma_ratio(GammaRatio(num, den))

    g1 = i * lam - s + half          # shared first-solution factor
    g2 = s + 1.5 - i * lam           # shared second-solution factor
    a1p = amp(-(math.pi / 2) * (lam - k + i * s) - (s + 2 * i * k) * ln2,
              (g1, 2 * i * k), (-s + i * k, half + i * lam + i * k))
    b1p = amp(-(math.pi / 2) * (lam + k + i * s) - (s - 2 * i * k) * ln2,
              (g1, -2 * i * k), (-s - i * k, half + i * lam - i * k))
    a1m = amp((math.pi / 2) * (lam + k + i * s) - (s - 2 * i * k) * ln2,
              (g1, -2 * i * k), (-s - i * k, half + i * lam - i * k))
    b1m = amp((math.pi / 2) * (lam - k + i * s) - (s + 2 * i * k) * ln2,
              (g1, 2 * i * k), (-s + i * k, half + i * lam + i * k))
    a2p = amp((math.pi / 2) * (lam + k + i * (s + 1)) - (2 * i * k + i * lam - half) * ln2,
              (g2, 2 * i * k), (half - i * lam + i * k, s + 1 + i * k))
    b2p = amp((math.pi / 2) * (lam - k + i * (s + 1)) - (-2 * i * k + i * lam - half) * ln2,
              (g2, -2 * i * k), (half - i * lam - i * k, s + 1 - i * k))
    a2m = amp(-(math.pi / 2) * (lam - k + i * (s + 1)) - (-2 * i * k + i * lam - half) * ln2,
              (g2, -2 * i * k), (half - i * lam - i * k, s + 1 - i * k))
    b2m = amp(-(math.pi / 2) * (lam + k + i * (s + 1)) - (2 * i * k + i * lam - half) * ln2,
              (g2, 2 * i * k), (half - i * lam + i * k, s + 1 + i * k))
    return a1p, b1p, a1m, b1m, a2p, b2p, a2m, b2m


def scarf_amplitudes(p: ScarfParams, k) -> AsymptoticAmplitudes:
    """Asymptotic amplitudes of the two hypergeometric solutions.

    The complex shift multiplies every e^{+ikx} amplitude by e^{-k*eps}
    and every e^{-ikx} amplitude by e^{+k*eps}.  Parameter combinations
    that put a gamma pole into a solution's overall normalisation (e.g.
    integer s with half-integer lam/i) raise GammaPole; the coefficient
    quotients stay finite there and are available from
    ``scarf_coefficients``.
    """
    kv = as_wavenumber(k).k
    a1p, b1p, a1m, b1m, a2p, b2p, a2m, b2m = _scarf_raw_amplitudes(p.s, complex(p.lam), kv)
    ea = math.exp(-kv * p.eps)
    eb = math.exp(kv * p.eps)
    return AsymptoticAmplitudes(
        a1p=a1p * ea, b1p=b1p * eb, a1m=a1m * ea, b1m=b1m * eb,
        a2p=a2p * ea, b2p=b2p * eb, a2m=a2m * ea, b2m=b2m * eb,
    )


def _scarf_t_args(s: float, lam: complex, ik):
    """Numerator and denominator gamma arguments of T, given ik = 1j*k."""
    half = 0.5
    return ((-s - ik, s + 1 - ik, half + 1j * lam - ik, half - 1j * lam - ik),
            (-ik, 1 - ik, half - ik, half - ik))


def _scarf_t(s: float, lam: complex, k: float) -> complex:
    return gamma_ratio(GammaRatio(*_scarf_t_args(s, lam, 1j * k)))


def _scarf_rfac_parts(s: float, lam: complex) -> tuple:
    """(a, b) with R/T = a/cosh(pi k) + b/sinh(pi k).  cos(pi s) and sin(pi s)
    take s mod 2, exactly, so that a huge s keeps its phase."""
    s = math.fmod(s, 2.0)
    return (math.cos(math.pi * s) * cmath.sinh(math.pi * lam),
            1j * math.sin(math.pi * s) * cmath.cosh(math.pi * lam))


def _scarf_rfac(s: float, lam: complex, k: float) -> complex:
    a, b = _scarf_rfac_parts(s, lam)
    return a / math.cosh(math.pi * k) + b / math.sinh(math.pi * k)


def scarf_coefficients(p: ScarfParams, k) -> ScatteringCoefficients:
    """Closed-form coefficients, valid where individual amplitudes may pole.

    T is eps-independent and symmetric under lam -> -lam, so equal in both
    directions; the reflections obey R_lr(eps) = R_lr(0) e^{+2k eps} and
    R_rl(eps, lam) = R_lr(eps, -lam) e^{-4k eps}.  ``k`` may be an array of
    wave numbers: the record then holds columns.
    """
    if np.ndim(k):
        return on_grid(k, lambda i: scarf_coefficients(p, k[i]), lambda ks: _scarf_columns(p, ks))
    kv = as_wavenumber(k).k
    lam = complex(p.lam)
    t = _scarf_t(p.s, lam, kv)
    r_lr = t * _scarf_rfac(p.s, lam, kv) * math.exp(2 * kv * p.eps)
    r_rl = t * _scarf_rfac(p.s, -lam, kv) * math.exp(-2 * kv * p.eps)
    return ScatteringCoefficients(t_lr=t, r_lr=r_lr, t_rl=t, r_rl=r_rl)


def _scarf_columns(p: ScarfParams, ks: np.ndarray):
    """``scarf_coefficients`` over a k column, and where the per-k code may differ."""
    lam = complex(p.lam)
    t, unsure = gamma_ratio_columns(*_scarf_t_args(p.s, lam, 1j * _PyComplex(ks)))
    t = _PyComplex.of(t)
    ch, sh = _PyComplex(COLUMN.cosh(math.pi * ks)), _PyComplex(COLUMN.sinh(math.pi * ks))
    reflections = []
    for signed_lam, shift in ((lam, 2 * ks * p.eps), (-lam, -2 * ks * p.eps)):
        a, b = _scarf_rfac_parts(p.s, signed_lam)
        reflections.append((t * (a / ch + b / sh) * COLUMN.exp(shift)).array())
    t = t.array()
    return [t, reflections[0], t, reflections[1]], unsure


def scarf_potential(p: ScarfParams, cutoff: float = 20.0) -> LocalPotential:
    """Truncated profile on [-cutoff, cutoff] for the numeric oracle.

    A non-zero eps is a complex coordinate shift: the profile evaluated on
    the real line is V(x + i*eps), a complex potential in its own right.
    """
    lam = complex(p.lam)
    c0 = lam * lam - p.s * (p.s + 1)
    c1 = lam * (2 * p.s + 1)
    shift = complex(0.0, p.eps)

    def profile(x):
        z = x + shift
        ch = np.cosh(z)
        return (c0 + c1 * np.sinh(z)) / (ch * ch)

    return LocalPotential(evaluate=_truncated(profile, cutoff), x_left=-cutoff, x_right=cutoff)


# ---------------------------------------------------------------------------
# regularised centrifugal potential  V(x) = strength / (x + i eps)^2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentrifugalParams:
    """Strength alpha and a non-zero regulator eps removing the x = 0 pole."""

    alpha_strength: float
    eps: float

    def __post_init__(self):
        _require_finite("centrifugal", alpha_strength=self.alpha_strength, eps=self.eps)
        if self.eps == 0.0:
            raise ValueError("eps must be non-zero")
        if self.nu.real <= -0.5:
            raise InvalidNu(f"Re(nu) = {self.nu.real} outside the validity window")

    @property
    def nu(self) -> complex:
        """Effective index, nu^2 = strength + 1/4 (principal square root)."""
        return cmath.sqrt(self.alpha_strength + 0.25)


def centrifugal_amplitudes(p: CentrifugalParams, k) -> AsymptoticAmplitudes:
    """Amplitudes of the incoming/outgoing Hankel-type solutions."""
    kv = as_wavenumber(k).k
    up = cmath.exp(-kv * p.eps - 1j * math.pi * p.nu / 2 - 1j * math.pi / 4)
    dn = cmath.exp(kv * p.eps + 1j * math.pi * p.nu / 2 + 1j * math.pi / 4)
    return AsymptoticAmplitudes(
        a1p=up, b1p=0.0, a1m=up, b1m=0.0,
        a2p=0.0, b2p=dn, a2m=0.0, b2m=dn,
    )


def centrifugal_coefficients(p: CentrifugalParams, k) -> ScatteringCoefficients:
    """T = 1 and R = 0 in both directions, exactly, at every k (or k array)."""
    if np.ndim(k):
        return on_grid(k, lambda i: centrifugal_coefficients(p, k[i]),
                       lambda ks: ((1.0, 0.0, 1.0, 0.0), False))
    as_wavenumber(k)
    return ScatteringCoefficients(t_lr=1.0, r_lr=0.0, t_rl=1.0, r_rl=0.0)


def centrifugal_pt_phase(p: CentrifugalParams) -> complex:
    """Eigenstate phase conj(A+)/A- = e^{i pi (nu + 1/2)} of the combined-reflection eigencheck."""
    return cmath.exp(1j * math.pi * (p.nu + 0.5))


def centrifugal_potential(p: CentrifugalParams, cutoff: float = 50.0) -> LocalPotential:
    """Truncated profile; the 1/x^2 tail makes truncation the accuracy limit."""

    def profile(x):
        z = x + 1j * p.eps
        return p.alpha_strength / (z * z)

    return LocalPotential(evaluate=_truncated(profile, cutoff), x_left=-cutoff, x_right=cutoff)
