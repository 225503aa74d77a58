"""Scattering from separable non-local kernels K(x,y) = g(x)e^{i a x} h(y)e^{i b y}.

The stationary equation -psi'' + lam * Int K(x,y) psi(y) dy = k^2 psi is
solved with the Green's functions G+-(u) = -+(i/2k) e^{+-ik|u|}: everything
reduces to N+- and the transforms f~(q) = Int f(x) e^{-iqx} dx (the sign
matters).  Yamaguchi form factors g(x) = e^{-gamma|x|}, h(y) = e^{-delta|y|}
give closed forms by piecewise exponential integration.  Other kernels use
one Gauss-Legendre rule over the k column itself (``_rule``: 20 nodes per
panel on [-support, support], panels split at 0).  Split at y = x,
Int e^{ik|x-y|} G(y) dy = e^{ikx} A(x) + e^{-ikx} B(x), with A and B the
integrals of e^{-+iky} G(y) from -support to x and from x to support, which
cumulative panel sums and the Legendre integration matrix give at every node
(for N+) and at every point of a wavefunction's grid, at k and, from the same
sums, at -k.  The sums over the whole support give g~(k -+ alpha) and
h~(k -+ beta), and N- = N+ + (i/2k)(g~(k-alpha)h~(k+beta) + g~(k+alpha)h~(k-beta)).
The sums at twice the order estimate the error of N+ (which N- shares) and of
the transforms: QuadratureFailure names the lowest k where one exceeds
1e-8 max(|value|, 1).  Form factors may be non-smooth only at 0; a kink
elsewhere raises QuadratureFailure, not a wrong number.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (COLUMN, OUT_OF_RANGE, ScatteringCoefficients, _closed_form, _frozen, _PyComplex,
                   _raise_first, _record, _require_finite, _values_at, _wavenumbers, as_wavenumber)
from .errors import QuadratureFailure, ResonancePole, TransferOverflow

if TYPE_CHECKING:
    from .numeric import WavefunctionGrid
    from .symmetry import SymmetryClass


@_frozen
class SeparableKernel:
    """Separable kernel with real form factors vanishing at +-infinity.

    ``support`` truncates the panel rule of other than Yamaguchi kernels.
    """

    g: Callable[[float], float]
    h: Callable[[float], float]
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
        return cls(g=lambda x: math.exp(-gamma * abs(x)), h=lambda y: math.exp(-delta * abs(y)),
                   alpha=alpha, beta=beta, lam=lam, gamma=gamma, delta=delta,
                   support=max(40.0 / gamma, 40.0 / delta))

    @classmethod
    def from_form_factors(cls, g, h, alpha=0.0, beta=0.0, lam=1.0, support=40.0) -> "SeparableKernel":
        _require_finite("separable kernel", alpha=alpha, beta=beta, lam=lam)
        if not (math.isfinite(support) and support > 0):
            raise ValueError(f"support must be finite and > 0, got {support}")
        return cls(g=g, h=h, alpha=alpha, beta=beta, lam=lam, support=support)

    @property
    def is_yamaguchi(self) -> bool:
        return self.gamma is not None and self.delta is not None


def _same_function(f, g, support, tol):
    xs = np.linspace(-support, support, 257)
    return bool(np.max(np.abs(_values_at(f, xs) - _values_at(g, xs))) < tol)


def _even_factors(kernel: SeparableKernel, tol) -> bool:
    return kernel.is_yamaguchi or all(_same_function(f, lambda x, f=f: f(-x), kernel.support, tol)
                                      for f in (kernel.g, kernel.h))


def kernel_symmetry_class(kernel: SeparableKernel, tol: float = 1e-10) -> SymmetryClass:
    """Classify the kernel: phases decide reality/T, form factors the rest.

    Reality and T invariance need alpha = beta = 0; x<->y symmetry needs
    alpha = beta with g = h; hermiticity alpha = -beta with g = h; P needs
    vanishing phases and even factors; PT needs only even factors.
    """
    from .symmetry import SymmetryClass

    g_eq_h = (abs(kernel.gamma - kernel.delta) < tol if kernel.is_yamaguchi
              else _same_function(kernel.g, kernel.h, kernel.support, tol))
    even = _even_factors(kernel, tol)
    zero_phases = abs(kernel.alpha) < tol and abs(kernel.beta) < tol
    return SymmetryClass(reality=zero_phases, time_reversal=zero_phases,
                         symmetric_xy=abs(kernel.alpha - kernel.beta) < tol and g_eq_h,
                         hermitian=abs(kernel.alpha + kernel.beta) < tol and g_eq_h,
                         parity=zero_phases and even, pt=even)


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


def _yamaguchi_j(alpha: float, beta: float, gamma: float, delta: float, k) -> _PyComplex:
    """The double integral Int h e^{i beta x} e^{ik|x-y|} g e^{i alpha y} over
    a float column k."""
    gt, gt_m, c2, c3 = _yamaguchi_pieces(alpha, gamma, k)
    return (gt_m / _PyComplex.of(delta + 1j * (beta - k))
            + gt / _PyComplex.of(delta - 1j * (beta + k))
            + c3 / (gamma + delta + 1j * (alpha + beta))
            + c2 / (gamma + delta - 1j * (alpha + beta)))


# -- generic kernels: one Gauss-Legendre panel rule over the k column -----------

#: nodes per panel (the error estimate repeats the sums at twice the order), most
#: panels of a rule, and most values per (k, node) array of one block of k
_ORDER, _MAX_PANELS, _BLOCK_VALUES = 20, 8192, 1 << 18


def _rule(support: float, freq, order: int) -> tuple:
    """Nodes (panel, node) and weights of the rule for the frequencies freq,
    the panels' half-widths, the edges, and where freq is in reach: panels
    split [-support, support] at 0, no wider than min(0.5, 20 / f) for the
    largest f that needs at most _MAX_PANELS."""
    from numpy.polynomial import legendre

    reach = support * np.maximum(freq, 40.0) <= 10 * _MAX_PANELS
    count = math.ceil(min(_MAX_PANELS / 2, support * np.max(freq[reach], initial=40.0) / 20))
    half = np.linspace(0.0, support, count + 1)
    edges = np.unique(np.concatenate([-half, half]))
    t, w = legendre.leggauss(order)
    width = np.diff(edges)[:, None] / 2
    return edges[:-1, None] + width * (t + 1), width * w, width, edges, reach


def _panel_j(kernel: SeparableKernel, ks, order: int, xs=()) -> np.ndarray:
    """Rows: the double integral Int h e^{i b x} e^{ik|x-y|} g e^{i a y}, then
    Int e^{-+iky} g e^{i a y} and Int h e^{i b y} e^{-+iky}, at each k of ks by
    the rule of ``order`` nodes; then A(x) and B(x) (module docstring) at
    each x of xs, at k and at -k; NaN past its reach."""
    from numpy.polynomial import legendre

    y, weights, width, edges, reach = _rule(kernel.support, ks + abs(kernel.alpha) + abs(kernel.beta), order)
    t = legendre.leggauss(order)[0]
    x = np.clip(xs, -kernel.support, kernel.support)
    at = np.clip(np.searchsorted(edges, x, "right") - 1, 0, len(width) - 1)     # the panel of each x
    # upto(s) @ f: the integrals from -1 to each s of the interpolant of f at the nodes t
    upto = lambda s: (legendre.legval(s, legendre.legint(np.eye(order), lbnd=-1)).T
                      @ np.linalg.inv(legendre.legvander(t, order - 1)))
    within, within_x = upto(t), width[at] * upto((x - edges[at]) / width[at, 0] - 1)
    g = _values_at(kernel.g, y) * np.exp(1j * kernel.alpha * y)
    hw = _values_at(kernel.h, y) * np.exp(1j * kernel.beta * y) * weights

    def running(f):     # Int_{-L}^{y} f at every node y and at each x, and Int_{-L}^{L} f
        panel = np.sum(f * weights, axis=-1)
        total = np.cumsum(panel, axis=-1)
        return ((total - panel)[..., None] + width * (f @ within.T),
                (total - panel)[:, at] + np.sum(f[:, at] * within_x, axis=-1), total[:, -1:, None])

    def block(kb):
        e = np.exp(-1j * kb[:, None, None] * y)                 # e^{-iky}
        (a, a_x, a_total), (b, b_x, b_total) = running(e * g), running(e.conj() * g)
        j = np.sum(hw * (e.conj() * a + e * (b_total - b)), axis=(1, 2))
        return np.vstack([j, a_total.ravel(), b_total.ravel(), np.sum(hw * e, axis=(1, 2)),
                          np.sum(hw * e.conj(), axis=(1, 2)),
                          a_x.T, (b_total[:, 0] - b_x).T, b_x.T, (a_total[:, 0] - a_x).T])
    size = max(1, _BLOCK_VALUES // y.size)     # at most _BLOCK_VALUES values per (k, node) array
    blocks = [block(ks[i:i + size]) for i in range(0, max(len(ks), 1), size)]
    return np.where(reach, np.concatenate(blocks, axis=-1), math.nan)


def _n_columns(kernel: SeparableKernel, ks, xs=()) -> tuple:
    """(N+, N-) over the float column ks as ``_PyComplex`` columns, the float
    columns g~(k -+ a) and h~(k -+ b), their faults (a generic kernel's
    QuadratureFailure where the doubled-order estimate of N+, which N- shares,
    or of a transform exceeds 1e-8 max(|value|, 1) or is NaN) and the rows of
    A and B at each x of xs (``_panel_j``; None for Yamaguchi)."""
    if kernel.is_yamaguchi:
        kk, m = np.concatenate([ks, -ks]), len(ks)
        j = _yamaguchi_j(kernel.alpha, kernel.beta, kernel.gamma, kernel.delta, kk)
        fts = [2 * c / (c * c + q * q) for c, a in ((kernel.gamma, kernel.alpha), (kernel.delta, kernel.beta))
               for q in (ks - a, ks + a)]
        return (_PyComplex.of(-0.5j) / ks * _PyComplex(j.real[:m], j.imag[:m]),
                _PyComplex.of(0.5j) / ks * _PyComplex(j.real[m:], j.imag[m:])), fts, [], None
    # the sums over e^{+iky} are g~(-k - a) = g~(k + a) and h~(-k - b) = h~(k + b): even factors
    sums = _panel_j(kernel, ks, _ORDER, xs), _panel_j(kernel, ks, 2 * _ORDER)
    (n, *fts), (n_high, *fts_high) = ([-0.5j / ks * rows[0], *rows[1:5].real] for rows in sums)
    n_minus = n + 0.5j / ks * (fts[0] * fts[3] + fts[1] * fts[2])      # the identity of the module docstring
    errors = [abs(n_high - n)] * 2 + [abs(high - low) for high, low in zip(fts_high, fts)]
    names = ("N plus", "N minus", "g~(k-alpha)", "g~(k+alpha)", "h~(k-beta)", "h~(k+beta)")
    return (_PyComplex.of(n), _PyComplex.of(n_minus)), fts, [
        (~(e <= 1e-8 * np.maximum(abs(v), 1.0)),
         lambda i, e=e, s=s: QuadratureFailure(f"quadrature error {e[i]:.2e} too large for {s}"))
        for v, e, s in zip((n, n_minus, *fts), errors, names)], sums[0][5:]


@_frozen
class NonlocalIntermediates:
    """All building blocks of the non-local coefficients at one k, or columns
    over a k grid."""

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

    N+- = -(+)(i/2k) Int h e^{i b x} e^{+-ik|x-y|} g e^{i a y}: the closed form
    for Yamaguchi kernels and the panel rule, truncated at the kernel
    support, for the others (module docstring).  lam*N+- = -+(i*omega/2)[g~(k-a)h~(k+b) + g~(k+a)h~(k-b)] + Q with Q real
    for even form factors; delta_t is the numerator of T_rl - T_lr.  ``k``
    may be an array of wave numbers: every field is then a column.
    """
    ks, one = _wavenumbers(k)
    with np.errstate(all="ignore"):
        mid, _, faults, _ = _intermediates(kernel, ks)
    _raise_first(faults, ks)
    fields = (np.asarray(getattr(z, "array", lambda: z)()) for z in vars(mid).values())
    return NonlocalIntermediates(*(z[0].item() if one else z for z in fields))


def _intermediates(kernel: SeparableKernel, ks, xs=()) -> tuple:
    """``nonlocal_intermediates`` over the float column ks (``_PyComplex``
    columns, omega a float column), the coefficient columns (T_lr, R_lr,
    T_rl, R_rl), the faults (ResonancePole where a denominator vanishes,
    TransferOverflow where a value or modulus is not finite) and A, B at xs."""
    # the solution uses h~(-k-b) = h~(k+b) and g~(-k-a) = g~(k+a): even form factors
    if not _even_factors(kernel, 1e-9):
        raise ValueError("nonlocal coefficients require even form factors")
    (n_plus, n_minus), (g_m, g_p, h_m, h_p), faults, at_x = _n_columns(kernel, ks, xs)
    lam = kernel.lam
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
        (~finite, lambda i: TransferOverflow(OUT_OF_RANGE))], at_x


@_closed_form
def nonlocal_coefficients(kernel: SeparableKernel, k) -> ScatteringCoefficients:
    """All four coefficients of the separable kernel.

    T_lr = 1 - i*omega g~(k-a)h~(k+b) D+ and the right-to-left pair uses
    the dressed resolvent script-D-; for symmetric kernels (g = h, a = b)
    the two transmissions coincide identically, otherwise they differ by
    i*omega*delta_t*D+*script-D-.  ``k`` may be an array of wave numbers:
    the record then holds columns.
    """
    _, coefficients, faults, _ = _intermediates(kernel, k)
    return coefficients, faults


def _convolution(kernel: SeparableKernel, kk: float, xs) -> tuple:
    """(value, d/dx) of Int G(x - y) g(y) e^{i alpha y} dy at each x of the
    array xs for a Yamaguchi kernel, G the outgoing Green's function at the
    signed k kk (incoming for kk < 0), by piecewise exponential integration:
    e^{-+ikx} and e^{(-+gamma + i alpha) x} for x >= 0 and x < 0."""
    pieces = _yamaguchi_pieces(kernel.alpha, kernel.gamma, np.array([kk]))
    gt, gt_m, c2, c3 = (complex(_PyComplex.of(z).array()[0]) for z in pieces)
    right = xs >= 0
    kx, amp, c = np.where(right, kk, -kk), np.where(right, gt, gt_m), np.where(right, c2, c3)
    rate = np.where(right, -kernel.gamma, kernel.gamma) + 1j * kernel.alpha
    wave, decay = np.exp(1j * kx * xs), np.exp(rate * xs)
    return -0.5j / kk * (amp * wave + c * decay), 0.5 / kk * (kx * amp * wave - 1j * rate * c * decay)


def nonlocal_wavefunction(kernel: SeparableKernel, k, direction: str,
                          grid: np.ndarray) -> WavefunctionGrid:
    """Explicit solution psi_+- on a grid; asymptotics reproduce the coefficients.

    ``direction`` 'left' builds the left-incident solution (c=1, d=0) from
    the outgoing Green's function, 'right' the right-incident one from the
    incoming Green's function with (c, d) = (R_rl, T_rl).
    """
    from .numeric import WavefunctionGrid

    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    ks = np.array([kv := as_wavenumber(k).k])
    grid = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):
        mid, coefficients, faults, at_x = _intermediates(kernel, ks, grid.ravel())
        coeffs = _record(ks, True, coefficients, faults)
        left = direction == "left"
        c, d, i_pm = (1.0, 0.0, mid.i_plus) if left else (coeffs.r_rl, coeffs.t_rl, mid.i_minus)
        kk = kv if left else -kv
        if at_x is None:
            conv, dconv = _convolution(kernel, kk, grid)
        else:       # the derivative is -i/2kk ikk (e^{ikkx} A - e^{-ikkx} B): the G(x) terms cancel
            wave, (a, b) = np.exp(1j * kk * grid), at_x.reshape(2, 2, *grid.shape)[0 if left else 1]
            conv, dconv = -0.5j / kk * (wave * a + wave.conj() * b), 0.5 * (wave * a - wave.conj() * b)
    source = kernel.lam * complex(i_pm.array()[0])
    wave = np.exp(1j * kv * grid)
    psi = c * wave + d * wave.conj() + source * conv
    dpsi = 1j * kv * (c * wave - d * wave.conj()) + source * dconv
    return WavefunctionGrid(x=grid, psi=psi, dpsi=dpsi, k=kv,
                            direction="left-incident" if left else "right-incident")
