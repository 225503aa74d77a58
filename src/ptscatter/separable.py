"""Scattering from separable non-local kernels K(x,y) = g(x)e^{i a x} h(y)e^{i b y}.

The stationary equation -psi'' + lam * Int K(x,y) psi(y) dy = k^2 psi is
solved with outgoing/incoming Green's functions; everything reduces to the
form-factor Fourier transforms taken with the convention

    f~(q) = Int f(x) e^{-iqx} dx        (sign convention matters: e^{-iqx})

For the Yamaguchi form factors g(x) = e^{-gamma|x|}, h(y) = e^{-delta|y|}
(transforms 2*gamma/(gamma^2+q^2) etc.) the double integrals N+- and the
Green's-function convolution are evaluated in closed form by piecewise
exponential integration; generic kernels fall back to adaptive quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (COLUMN, OUT_OF_RANGE, ScatteringCoefficients, _closed_form, _PyComplex,
                   _raise_first, _record, _require_finite, _wavenumbers, as_wavenumber)
from .errors import QuadratureFailure, ResonancePole, TransferOverflow

if TYPE_CHECKING:
    from .numeric import WavefunctionGrid
    from .symmetry import SymmetryClass


@dataclass(frozen=True)
class SeparableKernel:
    """Separable kernel with real form factors vanishing at +-infinity.

    ``g_ft``/``h_ft`` are the form-factor transforms under the e^{-iqx}
    convention; analytic ones for the Yamaguchi case, numeric fallbacks
    otherwise.  ``support`` is the truncation radius used by quadrature.
    """

    g: Callable[[float], float]
    h: Callable[[float], float]
    g_ft: Callable[[float], float]
    h_ft: Callable[[float], float]
    alpha: float
    beta: float
    lam: float
    gamma: float | None = None   # set for the Yamaguchi fast path
    delta: float | None = None
    support: float = 40.0

    @classmethod
    def yamaguchi(cls, gamma: float, delta: float, alpha: float = 0.0,
                  beta: float = 0.0, lam: float = 1.0) -> "SeparableKernel":
        _require_finite("Yamaguchi", gamma=gamma, delta=delta, alpha=alpha, beta=beta, lam=lam)
        if gamma <= 0 or delta <= 0:
            raise ValueError("gamma and delta must be > 0")
        return cls(
            g=lambda x: math.exp(-gamma * abs(x)),
            h=lambda y: math.exp(-delta * abs(y)),
            g_ft=lambda q: 2 * gamma / (gamma * gamma + q * q),
            h_ft=lambda q: 2 * delta / (delta * delta + q * q),
            alpha=alpha, beta=beta, lam=lam,
            gamma=gamma, delta=delta,
            support=max(40.0 / gamma, 40.0 / delta),
        )

    @classmethod
    def from_form_factors(cls, g, h, alpha=0.0, beta=0.0, lam=1.0,
                          g_ft=None, h_ft=None, support=40.0) -> "SeparableKernel":
        def numeric_ft(f):
            # even real form factors have real transforms, and the
            # scattering solution is only valid for those (checked at use)
            def ft(q: float) -> float:
                from scipy.integrate import quad

                return quad(lambda x: f(x) * math.cos(q * x), -support, support,
                            points=[0.0], limit=400)[0]
            return ft

        return cls(g=g, h=h, g_ft=g_ft or numeric_ft(g), h_ft=h_ft or numeric_ft(h),
                   alpha=alpha, beta=beta, lam=lam, support=support)

    @property
    def is_yamaguchi(self) -> bool:
        return self.gamma is not None and self.delta is not None


def _same_function(f, g, support, tol):
    xs = np.linspace(-support, support, 257)
    return max(abs(f(float(x)) - g(float(x))) for x in xs) < tol


def _even_function(f, support, tol):
    xs = np.linspace(0.0, support, 129)
    return max(abs(f(float(x)) - f(float(-x))) for x in xs) < tol


def kernel_symmetry_class(kernel: SeparableKernel, tol: float = 1e-10) -> SymmetryClass:
    """Classify the kernel: phases decide reality/T, form factors the rest.

    Reality and T invariance need alpha = beta = 0; x<->y symmetry needs
    alpha = beta with g = h; hermiticity alpha = -beta with g = h; P needs
    vanishing phases and even factors; PT needs only even factors.
    """
    from .symmetry import SymmetryClass

    if kernel.is_yamaguchi:
        g_eq_h = abs(kernel.gamma - kernel.delta) < tol
        g_even = h_even = True
    else:
        g_eq_h = _same_function(kernel.g, kernel.h, kernel.support, tol)
        g_even = _even_function(kernel.g, kernel.support, tol)
        h_even = _even_function(kernel.h, kernel.support, tol)
    zero_phases = abs(kernel.alpha) < tol and abs(kernel.beta) < tol
    return SymmetryClass(
        reality=zero_phases,
        symmetric_xy=abs(kernel.alpha - kernel.beta) < tol and g_eq_h,
        hermitian=abs(kernel.alpha + kernel.beta) < tol and g_eq_h,
        parity=zero_phases and g_even and h_even,
        time_reversal=zero_phases,
        pt=g_even and h_even,
    )


def green_function(sign: str, x_minus_y: float, k) -> complex:
    """Outgoing (+) or incoming (-) free Green's function G(x - y).

    G+(u) = -(i/2k) e^{ik|u|}; G- is its complex conjugate.
    """
    kv = as_wavenumber(k).k
    if sign == "plus":
        return -0.5j / kv * cmath.exp(1j * kv * abs(x_minus_y))
    if sign == "minus":
        return 0.5j / kv * cmath.exp(-1j * kv * abs(x_minus_y))
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


# -- Yamaguchi closed forms -------------------------------------------------
#
# Inner(x) = Int e^{ik|x-y|} e^{-gamma|y|} e^{i alpha y} dy splits into at
# most three exponential pieces; the remaining x integral against
# e^{-delta|x| + i beta x} is again piecewise exponential.  All denominators
# contain +-gamma or +-delta in their real part, so the expressions are
# regular for every real alpha, beta, k and positive gamma, delta.

def _yamaguchi_pieces(alpha: float, gamma: float, k):
    """Coefficients of the piecewise-exponential inner integral over a float
    column k.

    Inner(x >= 0) = gt * e^{ikx} + c2 * e^{(-gamma + i alpha) x} and
    Inner(x < 0) = gt_m * e^{-ikx} + c3 * e^{(gamma + i alpha) x}.
    """
    gt = 2 * gamma / (gamma * gamma + COLUMN.pow(k - alpha, 2))
    gt_m = 2 * gamma / (gamma * gamma + COLUMN.pow(k + alpha, 2))
    c2 = 1.0 / _PyComplex.of(-gamma + 1j * (alpha - k)) + 1.0 / _PyComplex.of(gamma - 1j * (alpha + k))
    c3 = 1.0 / _PyComplex.of(gamma + 1j * (alpha - k)) - 1.0 / _PyComplex.of(gamma + 1j * (alpha + k))
    return gt, gt_m, c2, c3


def _yamaguchi_inner(x: float, alpha: float, gamma: float, k: float) -> tuple:
    """(Inner(x), d/dx Inner(x)) at one k."""
    with np.errstate(all="ignore"):
        pieces = _yamaguchi_pieces(alpha, gamma, np.array([k]))
    gt, gt_m, c2, c3 = (complex(_PyComplex.of(z).array()[0]) for z in pieces)
    if x >= 0:
        rate = -gamma + 1j * alpha
        wave, decay = cmath.exp(1j * k * x), cmath.exp(rate * x)
        return gt * wave + c2 * decay, 1j * k * gt * wave + rate * c2 * decay
    rate = gamma + 1j * alpha
    wave, decay = cmath.exp(-1j * k * x), cmath.exp(rate * x)
    return gt_m * wave + c3 * decay, -1j * k * gt_m * wave + rate * c3 * decay


def _yamaguchi_j(alpha: float, beta: float, gamma: float, delta: float, k) -> _PyComplex:
    """The double integral Int h e^{i beta x} e^{ik|x-y|} g e^{i alpha y} over
    a float column k."""
    gt, gt_m, c2, c3 = _yamaguchi_pieces(alpha, gamma, k)
    return (gt_m / _PyComplex.of(delta + 1j * (beta - k))
            + gt / _PyComplex.of(delta - 1j * (beta + k))
            + c3 / (gamma + delta + 1j * (alpha + beta))
            + c2 / (gamma + delta - 1j * (alpha + beta)))


def _yamaguchi_n(kernel: SeparableKernel, ks) -> tuple:
    """(N+, N-) of a Yamaguchi kernel over the float column ks, from the
    double integral at k and -k in one column."""
    j = _yamaguchi_j(kernel.alpha, kernel.beta, kernel.gamma, kernel.delta, np.concatenate([ks, -ks]))
    n = len(ks)
    return (_PyComplex.of(-0.5j) / ks * _PyComplex(j.real[:n], j.imag[:n]),
            _PyComplex.of(0.5j) / ks * _PyComplex(j.real[n:], j.imag[n:]))


def compute_n(kernel: SeparableKernel, sign: str, k) -> complex:
    """The double integral N+- = -(+)(i/2k) Int h e^{i b x} e^{+-ik|x-y|} g e^{i a y}.

    Yamaguchi kernels use the frozen closed form; other kernels evaluate
    the double integral by nested adaptive quadrature (kinks at y = 0,
    y = x and x = 0 supplied as split points), truncated at the kernel
    support.
    """
    kv = as_wavenumber(k).k
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if kernel.is_yamaguchi:
        with np.errstate(all="ignore"):
            n = _yamaguchi_n(kernel, np.array([kv]))[sign == "minus"]
        return complex(n.array()[0])
    from scipy.integrate import quad

    s = 1.0 if sign == "plus" else -1.0
    L = kernel.support
    inner_cache: dict = {}

    def inner(x: float) -> complex:
        # Int dy e^{+-ik|x-y|} g(y) e^{i a y}, kinks at y = 0 and y = x
        if x not in inner_cache:
            def f(y):
                return cmath.exp(s * 1j * kv * abs(x - y)) * kernel.g(y) * cmath.exp(
                    1j * kernel.alpha * y)

            pts = sorted(p for p in (0.0, x) if -L < p < L)
            re = quad(lambda y: f(y).real, -L, L, points=pts, limit=400,
                      epsabs=1e-11, epsrel=1e-11)[0]
            im = quad(lambda y: f(y).imag, -L, L, points=pts, limit=400,
                      epsabs=1e-11, epsrel=1e-11)[0]
            inner_cache[x] = complex(re, im)
        return inner_cache[x]

    def outer(x):
        return kernel.h(x) * cmath.exp(1j * kernel.beta * x) * inner(x)

    re, re_err = quad(lambda x: outer(x).real, -L, L, points=[0.0], limit=400,
                      epsabs=1e-10, epsrel=1e-10)
    im, im_err = quad(lambda x: outer(x).imag, -L, L, points=[0.0], limit=400,
                      epsabs=1e-10, epsrel=1e-10)
    val = complex(re, im)
    if max(re_err, im_err) > 1e-8 * max(abs(val), 1.0):
        raise QuadratureFailure(
            f"quadrature error {max(re_err, im_err):.2e} too large for N {sign}")
    pref = -0.5j / kv if sign == "plus" else 0.5j / kv
    return pref * val


@dataclass(frozen=True)
class NonlocalIntermediates:
    """All building blocks of the non-local coefficients at one k."""

    n_plus: complex
    n_minus: complex
    d_plus: complex
    script_d_minus: complex
    q_part: complex
    i_plus: complex
    i_minus: complex
    omega: float
    delta_t: complex


def nonlocal_intermediates(kernel: SeparableKernel, k) -> NonlocalIntermediates:
    """Evaluate N+-, the resolvent factors and the transmission-difference numerator.

    lam*N+- = -+(i*omega/2)[g~(k-a)h~(k+b) + g~(k+a)h~(k-b)] + Q with Q real
    for even form factors; delta_t is the numerator of T_rl - T_lr.  ``k``
    may be an array of wave numbers: every field is then a column.
    """
    ks, one = _wavenumbers(k)
    with np.errstate(all="ignore"):
        mid, _, faults = _intermediates(kernel, ks)
    _raise_first(faults, ks)
    fields = (np.asarray(getattr(z, "array", lambda: z)()) for z in vars(mid).values())
    return NonlocalIntermediates(*(z[0].item() if one else z for z in fields))


def _intermediates(kernel: SeparableKernel, ks) -> tuple:
    """``nonlocal_intermediates`` over the float column ks (``_PyComplex``
    columns, omega a float column), the coefficient columns (T_lr, R_lr,
    T_rl, R_rl) and the faults: ResonancePole where a denominator vanishes,
    TransferOverflow where an intermediate or its modulus is not finite."""
    if kernel.is_yamaguchi:
        (n_plus, n_minus), faults = _yamaguchi_n(kernel, ks), []
    else:
        # the Green's-function solution uses h~(-k-b) = h~(k+b) and
        # g~(-k-a) = g~(k+a), which hold only for even form factors
        if not (_even_function(kernel.g, kernel.support, 1e-9)
                and _even_function(kernel.h, kernel.support, 1e-9)):
            raise ValueError("nonlocal coefficients require even form factors")
        (n_plus, n_minus), faults = _quadrature_n(kernel, ks)

    def ft(f, q):       # Yamaguchi's transforms take a column, the others one q
        return f(q) if kernel.is_yamaguchi else np.array([f(x) for x in q.tolist()])
    al, be, lam = kernel.alpha, kernel.beta, kernel.lam
    g_m, g_p, h_p, h_m = (ft(kernel.g_ft, ks - al), ft(kernel.g_ft, ks + al),
                          ft(kernel.h_ft, ks + be), ft(kernel.h_ft, ks - be))
    omega = lam / (2 * ks)
    om = _PyComplex(omega)
    g1, g2 = g_m * h_p, g_p * h_m
    lam_plus, lam_minus = lam * n_plus, lam * n_minus
    den_plus = 1.0 - lam_plus
    den_minus = 1.0 - lam_minus + 1j * om * (g2 + g1)
    d_plus, script_d_minus = 1.0 / den_plus, 1.0 / den_minus
    # I- needs the right-incident constants (c-, d-) = (R_rl, T_rl)
    t_rl = 1.0 - 1j * om * g2 * script_d_minus
    r_rl = -1j * om * g_m * h_m * script_d_minus
    mid = NonlocalIntermediates(
        n_plus=n_plus, n_minus=n_minus, d_plus=d_plus, script_d_minus=script_d_minus,
        q_part=lam * (n_plus + n_minus) / 2, i_plus=h_p * d_plus,
        i_minus=(r_rl * h_p + t_rl * h_m) * (1.0 / (1.0 - lam_minus)), omega=omega,
        delta_t=g1 - g2 + lam * (n_plus * g2 - n_minus * g1) + 1j * om * g1 * (g2 + g1))
    coefficients = (1.0 - 1j * om * g_m * h_p * d_plus, -1j * om * g_p * h_p * d_plus,
                    1.0 - 1j * om * g_p * h_m * script_d_minus,
                    -1j * om * g_m * h_m * script_d_minus)
    finite = np.logical_and.reduce([np.isfinite(_PyComplex.of(z).array())
                                    for z in (*vars(mid).values(), abs(den_plus), abs(den_minus))])
    pole_plus = abs(den_plus) < 1e-12 * np.maximum(1.0, abs(lam_plus))
    pole_minus = abs(den_minus) < 1e-12 * np.maximum(1.0, abs(lam_minus))
    return mid, coefficients, faults + [
        (pole_plus, lambda i: ResonancePole(f"1 - lam*N+ vanishes at k = {float(ks[i])}")),
        (pole_minus, lambda i: ResonancePole(f"script-D denominator vanishes at k = {float(ks[i])}")),
        (~finite, lambda i: TransferOverflow(OUT_OF_RANGE))]


def _quadrature_n(kernel: SeparableKernel, ks) -> tuple:
    """(N+, N-) of a generic kernel at each k by quadrature, in grid order up
    to the first k where it fails: NaN from there on, and the fault that
    names that k."""
    n = np.full((2, len(ks)), complex(math.nan, math.nan))
    for i, kv in enumerate(ks.tolist()):
        try:
            n[:, i] = compute_n(kernel, "plus", kv), compute_n(kernel, "minus", kv)
        except QuadratureFailure as exc:
            # bound as a default: Python deletes ``exc`` when the handler exits
            return (_PyComplex.of(n[0]), _PyComplex.of(n[1])), [(np.arange(len(ks)) == i,
                                                                 lambda _, exc=exc: exc)]
    return (_PyComplex.of(n[0]), _PyComplex.of(n[1])), []


@_closed_form
def nonlocal_coefficients(kernel: SeparableKernel, k) -> ScatteringCoefficients:
    """All four coefficients of the separable kernel.

    T_lr = 1 - i*omega g~(k-a)h~(k+b) D+ and the right-to-left pair uses
    the dressed resolvent script-D-; for symmetric kernels (g = h, a = b)
    the two transmissions coincide identically, otherwise they differ by
    i*omega*delta_t*D+*script-D-.  ``k`` may be an array of wave numbers:
    the record then holds columns.
    """
    _, coefficients, faults = _intermediates(kernel, k)
    return coefficients, faults


def _convolution(kernel: SeparableKernel, sign: str, x: float, kv: float) -> tuple:
    """(value, d/dx) of Int G_sign(x - y) g(y) e^{i alpha y} dy."""
    if kernel.is_yamaguchi:
        pref = -0.5j / kv if sign == "plus" else 0.5j / kv
        inner, inner_d = _yamaguchi_inner(x, kernel.alpha, kernel.gamma,
                                          kv if sign == "plus" else -kv)
        return pref * inner, pref * inner_d
    from scipy.integrate import quad

    L = kernel.support
    s = 1.0 if sign == "plus" else -1.0
    pref = -0.5j / kv if sign == "plus" else 0.5j / kv

    def f(y):
        return cmath.exp(s * 1j * kv * abs(x - y)) * kernel.g(y) * cmath.exp(1j * kernel.alpha * y)

    def fd(y):
        # dG/dx = (sgn(x-y)/2) e^{+-ik|x-y|}; the +-i/2k prefactors cancel
        return (0.5 * math.copysign(1.0, x - y) * cmath.exp(s * 1j * kv * abs(x - y))
                * kernel.g(y) * cmath.exp(1j * kernel.alpha * y))

    pts = [p for p in (x,) if -L < p < L]
    val = complex(quad(lambda y: f(y).real, -L, L, points=pts, limit=400)[0],
                  quad(lambda y: f(y).imag, -L, L, points=pts, limit=400)[0])
    dval = complex(quad(lambda y: fd(y).real, -L, L, points=pts, limit=400)[0],
                   quad(lambda y: fd(y).imag, -L, L, points=pts, limit=400)[0])
    return pref * val, dval


def nonlocal_wavefunction(kernel: SeparableKernel, k, direction: str,
                          grid: np.ndarray) -> WavefunctionGrid:
    """Explicit solution psi_+- on a grid; asymptotics reproduce the coefficients.

    ``direction`` 'left' builds the left-incident solution (c=1, d=0) from
    the outgoing Green's function, 'right' the right-incident one from the
    incoming Green's function with (c, d) = (R_rl, T_rl).
    """
    from .numeric import WavefunctionGrid

    ks = np.array([as_wavenumber(k).k])
    kv = float(ks[0])
    grid = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):
        mid, coefficients, faults = _intermediates(kernel, ks)
        coeffs = _record(ks, True, coefficients, faults)
    if direction == "left":
        c, d, i_pm, sign = 1.0, 0.0, mid.i_plus, "plus"
    elif direction == "right":
        c, d, i_pm, sign = coeffs.r_rl, coeffs.t_rl, mid.i_minus, "minus"
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    i_pm = complex(i_pm.array()[0])
    psi = np.empty(len(grid), dtype=complex)
    dpsi = np.empty(len(grid), dtype=complex)
    lam = kernel.lam
    for j, x in enumerate(grid):
        conv, dconv = _convolution(kernel, sign, float(x), kv)
        psi[j] = c * cmath.exp(1j * kv * x) + d * cmath.exp(-1j * kv * x) + lam * i_pm * conv
        dpsi[j] = (1j * kv * c * cmath.exp(1j * kv * x) - 1j * kv * d * cmath.exp(-1j * kv * x)
                   + lam * i_pm * dconv)
    name = "left-incident" if direction == "left" else "right-incident"
    return WavefunctionGrid(x=grid, psi=psi, dpsi=dpsi, k=kv, direction=name)
