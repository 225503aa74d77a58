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

from .core import (COLUMN, SCALAR, ScatteringCoefficients, _PyComplex, _require_finite,
                   as_wavenumber, on_grid)
from .errors import QuadratureFailure, ResonancePole

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

def _yamaguchi_pieces(alpha: float, gamma: float, k, f=SCALAR):
    """Coefficients of the piecewise-exponential inner integral.

    Inner(x >= 0) = gt * e^{ikx} + c2 * e^{(-gamma + i alpha) x} and
    Inner(x < 0) = gt_m * e^{-ikx} + c3 * e^{(gamma + i alpha) x}.
    ``k`` may be a float column with ``f = core.COLUMN``.
    """
    gt = 2 * gamma / (gamma * gamma + f.pow(k - alpha, 2))
    gt_m = 2 * gamma / (gamma * gamma + f.pow(k + alpha, 2))
    c2 = 1.0 / f.complex(-gamma + 1j * (alpha - k)) + 1.0 / f.complex(gamma - 1j * (alpha + k))
    c3 = 1.0 / f.complex(gamma + 1j * (alpha - k)) - 1.0 / f.complex(gamma + 1j * (alpha + k))
    return gt, gt_m, c2, c3


def _yamaguchi_inner(x: float, alpha: float, gamma: float, k: float) -> complex:
    gt, gt_m, c2, c3 = _yamaguchi_pieces(alpha, gamma, k)
    if x >= 0:
        return gt * cmath.exp(1j * k * x) + c2 * cmath.exp((-gamma + 1j * alpha) * x)
    return gt_m * cmath.exp(-1j * k * x) + c3 * cmath.exp((gamma + 1j * alpha) * x)


def _yamaguchi_inner_d(x: float, alpha: float, gamma: float, k: float) -> complex:
    gt, gt_m, c2, c3 = _yamaguchi_pieces(alpha, gamma, k)
    if x >= 0:
        return (1j * k * gt * cmath.exp(1j * k * x)
                + (-gamma + 1j * alpha) * c2 * cmath.exp((-gamma + 1j * alpha) * x))
    return (-1j * k * gt_m * cmath.exp(-1j * k * x)
            + (gamma + 1j * alpha) * c3 * cmath.exp((gamma + 1j * alpha) * x))


def _yamaguchi_j(alpha: float, beta: float, gamma: float, delta: float, k, f=SCALAR) -> complex:
    """The double integral Int h e^{i beta x} e^{ik|x-y|} g e^{i alpha y}."""
    gt, gt_m, c2, c3 = _yamaguchi_pieces(alpha, gamma, k, f)
    return (gt_m / f.complex(delta + 1j * (beta - k))
            + gt / f.complex(delta - 1j * (beta + k))
            + c3 / (gamma + delta + 1j * (alpha + beta))
            + c2 / (gamma + delta - 1j * (alpha + beta)))


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
        if sign == "plus":
            return -0.5j / kv * _yamaguchi_j(kernel.alpha, kernel.beta, kernel.gamma,
                                             kernel.delta, kv)
        return 0.5j / kv * _yamaguchi_j(kernel.alpha, kernel.beta, kernel.gamma,
                                        kernel.delta, -kv)
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
    for even form factors; delta_t is the numerator of T_rl - T_lr.
    """
    kv = as_wavenumber(k).k
    if not kernel.is_yamaguchi:
        # the Green's-function solution uses h~(-k-b) = h~(k+b) and
        # g~(-k-a) = g~(k+a), which hold only for even form factors
        if not (_even_function(kernel.g, kernel.support, 1e-9)
                and _even_function(kernel.h, kernel.support, 1e-9)):
            raise ValueError("nonlocal coefficients require even form factors")
    lam = kernel.lam
    omega = lam / (2 * kv)
    np_ = compute_n(kernel, "plus", kv)
    nm_ = compute_n(kernel, "minus", kv)
    g1 = kernel.g_ft(kv - kernel.alpha) * kernel.h_ft(kv + kernel.beta)
    g2 = kernel.g_ft(kv + kernel.alpha) * kernel.h_ft(kv - kernel.beta)
    den_plus = 1.0 - lam * np_
    if abs(den_plus) < 1e-12 * max(1.0, abs(lam * np_)):
        raise ResonancePole(f"1 - lam*N+ vanishes at k = {kv}")
    den_minus = 1.0 - lam * nm_ + 1j * omega * (g2 + g1)
    if abs(den_minus) < 1e-12 * max(1.0, abs(lam * nm_)):
        raise ResonancePole(f"script-D denominator vanishes at k = {kv}")
    d_plus = 1.0 / den_plus
    script_d_minus = 1.0 / den_minus
    q_part = lam * (np_ + nm_) / 2
    i_plus = kernel.h_ft(kv + kernel.beta) * d_plus
    delta_t = (g1 - g2 + lam * (np_ * g2 - nm_ * g1) + 1j * omega * g1 * (g2 + g1))
    # I- needs the right-incident constants (c-, d-) = (R_rl, T_rl)
    t_rl = 1.0 - 1j * omega * g2 * script_d_minus
    r_rl = -1j * omega * kernel.g_ft(kv - kernel.alpha) * kernel.h_ft(kv - kernel.beta) * script_d_minus
    dm = 1.0 / (1.0 - lam * nm_)
    i_minus = (r_rl * kernel.h_ft(kv + kernel.beta) + t_rl * kernel.h_ft(kv - kernel.beta)) * dm
    return NonlocalIntermediates(
        n_plus=np_, n_minus=nm_, d_plus=d_plus, script_d_minus=script_d_minus,
        q_part=q_part, i_plus=i_plus, i_minus=i_minus, omega=omega, delta_t=delta_t,
    )


def nonlocal_coefficients(kernel: SeparableKernel, k) -> ScatteringCoefficients:
    """All four coefficients of the separable kernel.

    T_lr = 1 - i*omega g~(k-a)h~(k+b) D+ and the right-to-left pair uses
    the dressed resolvent script-D-; for symmetric kernels (g = h, a = b)
    the two transmissions coincide identically, otherwise they differ by
    i*omega*delta_t*D+*script-D-.  ``k`` may be an array of wave numbers:
    the record then holds columns.
    """
    if np.ndim(k):
        columns = (lambda ks: _yamaguchi_columns(kernel, ks)) if kernel.is_yamaguchi else None
        return on_grid(k, lambda i: nonlocal_coefficients(kernel, k[i]), columns)
    kv = as_wavenumber(k).k
    mid = nonlocal_intermediates(kernel, kv)
    omega = mid.omega
    g_m = kernel.g_ft(kv - kernel.alpha)
    g_p = kernel.g_ft(kv + kernel.alpha)
    h_p = kernel.h_ft(kv + kernel.beta)
    h_m = kernel.h_ft(kv - kernel.beta)
    return ScatteringCoefficients(
        t_lr=1.0 - 1j * omega * g_m * h_p * mid.d_plus,
        r_lr=-1j * omega * g_p * h_p * mid.d_plus,
        t_rl=1.0 - 1j * omega * g_p * h_m * mid.script_d_minus,
        r_rl=-1j * omega * g_m * h_m * mid.script_d_minus,
    )


def _yamaguchi_columns(kernel: SeparableKernel, ks: np.ndarray):
    """``nonlocal_coefficients`` of a Yamaguchi kernel over a k column, the
    same operations as ``nonlocal_intermediates`` and ``nonlocal_coefficients``,
    and the mask of the k where those raise or may overflow."""
    al, be, lam, g_ft, h_ft = kernel.alpha, kernel.beta, kernel.lam, kernel.g_ft, kernel.h_ft
    form = (al, be, kernel.gamma, kernel.delta)
    om = _PyComplex(lam / (2 * ks))
    n_plus = _PyComplex.of(-0.5j) / ks * _yamaguchi_j(*form, ks, COLUMN)
    n_minus = _PyComplex.of(0.5j) / ks * _yamaguchi_j(*form, -ks, COLUMN)
    g_m, g_p, h_p, h_m = g_ft(ks - al), g_ft(ks + al), h_ft(ks + be), h_ft(ks - be)
    g1, g2 = g_m * h_p, g_p * h_m
    den_plus = 1.0 - lam * n_plus
    den_minus = 1.0 - lam * n_minus + 1j * om * (g2 + g1)
    d_plus, script_d_minus = 1.0 / den_plus, 1.0 / den_minus
    unsure = ((abs(den_plus) < 2e-12 * np.maximum(1.0, abs(lam * n_plus)))
              | (abs(den_minus) < 2e-12 * np.maximum(1.0, abs(lam * n_minus)))
              | (abs(1.0 - lam * n_minus) == 0.0) | ~(np.abs(ks) < 1e150))
    for z in (n_plus, n_minus, lam * n_plus, lam * n_minus, den_plus, den_minus):
        unsure |= ~(abs(z) < 1e300)
    unsure |= ~(np.abs(g1) < 1e300) | ~(np.abs(g2) < 1e300)
    columns = (1.0 - 1j * om * g_m * h_p * d_plus, -1j * om * g_p * h_p * d_plus,
               1.0 - 1j * om * g_p * h_m * script_d_minus, -1j * om * g_m * h_m * script_d_minus)
    return [z.array() for z in columns], unsure


def _convolution(kernel: SeparableKernel, sign: str, x: float, kv: float) -> tuple:
    """(value, d/dx) of Int G_sign(x - y) g(y) e^{i alpha y} dy."""
    if kernel.is_yamaguchi:
        kk = kv if sign == "plus" else -kv
        pref = -0.5j / kv if sign == "plus" else 0.5j / kv
        return (pref * _yamaguchi_inner(x, kernel.alpha, kernel.gamma, kk),
                pref * _yamaguchi_inner_d(x, kernel.alpha, kernel.gamma, kk))
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

    kv = as_wavenumber(k).k
    grid = np.asarray(grid, dtype=float)
    mid = nonlocal_intermediates(kernel, kv)
    coeffs = nonlocal_coefficients(kernel, kv)
    if direction == "left":
        c, d, i_pm, sign = 1.0, 0.0, mid.i_plus, "plus"
    elif direction == "right":
        c, d, i_pm, sign = coeffs.r_rl, coeffs.t_rl, mid.i_minus, "minus"
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
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
