"""Direct integration of the stationary Schroedinger equation.

Brute-force oracle for the analytic catalog: two solutions are started as
exact plane waves e^{+-ikx} in the free region left of the support,
propagated across it, and their plane-wave amplitudes are read off from
(psi, psi') on the far side.  Fixed-step RK4 with steps aligned to
potential discontinuities is the default; an adaptive mode built on
scipy's DOP853 exists for potentials with sharp but smooth features.

Each RK4 step is linear in (psi, psi'), so it is a 2x2 matrix per k.  The
fixed-step mode samples V on the whole half-step grid in one call, builds
the step matrices for a block of steps in one array pass, and composes
them by pairwise products (prefix products when every node is recorded);
the result is the per-step RK4 recursion up to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AsymptoticAmplitudes,
    ScatteringCoefficients,
    as_wavenumber,
    coefficients_from_amplitudes,
    wronskian_residual,
)
from .errors import DegenerateSolutions, NonDecayedPotential, StepTooLarge

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LocalPotential:
    """Complex local potential with finite support [x_left, x_right].

    ``evaluate`` maps real x to complex V(x).  It may receive an array of
    positions and should then return V elementwise; ``sample`` passes it
    whole grids that way and falls back to one call per point for a
    callable that only accepts scalars.  Outside the support |V| must be
    below the integration config's decay tolerance.  Interior
    discontinuities go into ``breakpoints`` so integration steps never
    straddle them.
    """

    evaluate: Callable
    x_left: float
    x_right: float
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.x_left < self.x_right:
            raise ValueError("x_left must be < x_right")

    def sample(self, xs) -> np.ndarray:
        """V at every position of ``xs`` as a complex array of the same shape."""
        xs = np.asarray(xs, dtype=float)
        try:
            vals = np.asarray(self.evaluate(xs), dtype=complex)
        except (TypeError, ValueError):
            vals = None
        if vals is None or vals.shape != xs.shape:
            vals = np.array([self.evaluate(float(x)) for x in xs.ravel()],
                            dtype=complex).reshape(xs.shape)
        return vals


@dataclass(frozen=True)
class IntegrationConfig:
    """Step control for the integrator.

    The fixed step must resolve the free-space wavelength with at least
    ten points; ``match_margin`` is how far beyond the support the
    plane-wave initialisation/extraction points sit.
    """

    step: float = 1e-3
    method: str = "rk4"  # "rk4" (fixed step) or "adaptive"
    rtol: float = 1e-10
    decay_tol: float = 1e-14
    match_margin: float = 1.0

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.method not in ("rk4", "adaptive"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class WavefunctionGrid:
    """Sampled (psi, psi') of a physical scattering solution."""

    x: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    k: float
    direction: str


def _segments(v: LocalPotential, cfg: IntegrationConfig):
    x0 = v.x_left - cfg.match_margin
    x1 = v.x_right + cfg.match_margin
    pts = sorted({x0, v.x_left, v.x_right, x1}
                 | {b for b in v.breakpoints if x0 < b < x1})
    return list(zip(pts[:-1], pts[1:]))


def _check_decay(v: LocalPotential, cfg: IntegrationConfig):
    eps = 1e-9
    for x in (v.x_left - eps * (1 + abs(v.x_left)),
              v.x_right + eps * (1 + abs(v.x_right)),
              v.x_left - cfg.match_margin,
              v.x_right + cfg.match_margin):
        if abs(v.evaluate(x)) >= cfg.decay_tol:
            raise NonDecayedPotential(
                f"|V({x})| = {abs(v.evaluate(x)):.3e} >= decay_tol {cfg.decay_tol}")


def _rk4_increment(psi, dpsi, w, h):
    """Change of (psi, psi') over one RK4 step for psi'' = w * psi.

    ``w`` holds V - E at the step start, midpoint and end; all arguments
    broadcast, so one call covers many steps, solutions and k.
    """
    w0, w1, w2 = w
    k1p = dpsi
    k1d = w0 * psi
    k2p = dpsi + (h / 2) * k1d
    k2d = w1 * (psi + (h / 2) * k1p)
    k3p = dpsi + (h / 2) * k2d
    k3d = w1 * (psi + (h / 2) * k2p)
    k4p = dpsi + h * k3d
    k4d = w2 * (psi + h * k3p)
    return (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p), (h / 6) * (k1d + 2 * k2d + 2 * k3d + k4d)


#: steps x wave numbers per block of step matrices (bounds the block's memory)
_BLOCK_SIZE = 4096


def _step_grid(v: LocalPotential, cfg: IntegrationConfig):
    """Width, end node and V at start/midpoint/end of every RK4 step.

    Returns (h, x_end, vv) with vv of shape (3, nsteps); V is sampled on
    the whole half-step grid in one ``sample`` call.
    """
    hs, ends, xs, starts = [], [], [], []
    offset = 0
    for a, c in _segments(v, cfg):
        n = max(1, int(np.ceil((c - a) / cfg.step)))
        h = (c - a) / n
        # half-grid potential samples, nudged inside so one-sided values
        # are used at the segment edges
        nudge = 1e-9 * (c - a)
        xs.append(np.clip(a + (h / 2) * np.arange(2 * n + 1), a + nudge, c - nudge))
        hs.append(np.full(n, h))
        ends.append(a + np.arange(1, n + 1) * h)
        starts.append(offset + 2 * np.arange(n))
        offset += 2 * n + 1
    vv = v.sample(np.concatenate(xs))
    i = np.concatenate(starts)
    return np.concatenate(hs), np.concatenate(ends), np.stack([vv[i], vv[i + 1], vv[i + 2]])


def _compose(b, a):
    """(I + b)(I + a) - I for stacks of 2x2 matrices held as (2, 2, ...) arrays.

    Step matrices are kept as their deviation from the identity: rounding
    I + O(h) to double would repeat the same error at every step of a
    constant stretch of V, where those errors add up coherently.  Written
    out, since ``@`` on stacks of 2x2 matrices is ~30x slower.
    """
    out = a + b
    out[0, 0] += b[0, 0] * a[0, 0] + b[0, 1] * a[1, 0]
    out[0, 1] += b[0, 0] * a[0, 1] + b[0, 1] * a[1, 1]
    out[1, 0] += b[1, 0] * a[0, 0] + b[1, 1] * a[1, 0]
    out[1, 1] += b[1, 0] * a[0, 1] + b[1, 1] * a[1, 1]
    return out


def _product(d):
    """Deviation from I of the product of all steps I + d[:, :, i] (latest leftmost).

    Pairwise: each pass multiplies neighbouring pairs, halving the count.
    """
    while d.shape[2] > 1:
        n = d.shape[2]
        pairs = _compose(d[:, :, 1:n:2], d[:, :, 0:n - 1:2])
        d = np.concatenate([pairs, d[:, :, n - 1:]], axis=2) if n % 2 else pairs
    return d[:, :, 0]


def _prefix_products(d):
    """Deviations from I of the products of steps 0..i, for every i.

    Hillis-Steele scan: pass j folds in the product ending 2^j steps back.
    """
    span = 1
    while span < d.shape[2]:
        d = np.concatenate([d[:, :, :span], _compose(d[:, :, span:], d[:, :, :-span])], axis=2)
        span *= 2
    return d


def _propagate_rk4(v, ks, cfg, record):
    """Propagate both basis solutions for every k at once.

    Returns (xs, psi, dpsi) where psi/dpsi have shape (2, nk) at the end
    point, or shape (nnodes, 2, nk) when ``record`` is set.
    """
    ks = np.asarray(ks, dtype=float)
    e = ks * ks
    x_start = v.x_left - cfg.match_margin
    psi = np.stack([np.exp(1j * ks * x_start), np.exp(-1j * ks * x_start)])
    dpsi = np.stack([1j * ks * psi[0], -1j * ks * psi[1]])

    hs, ends, vv = _step_grid(v, cfg)
    nodes_psi, nodes_dpsi = [psi[None]], [dpsi[None]]
    block = max(1, _BLOCK_SIZE // len(ks))
    for s in range(0, len(hs), block):
        h = hs[s:s + block, None]
        w = vv[:, s:s + block, None] - e
        # the step's change of the unit vectors (1, 0) and (0, 1) gives the
        # columns of d = (step matrix - I); d has shape (2, 2, steps, nk)
        d = np.stack([np.stack(_rk4_increment(1.0, 0.0, w, h)),
                      np.stack(_rk4_increment(0.0, 1.0, w, h))], axis=1)
        if record:
            p = _prefix_products(d)[:, :, :, None]     # broadcast over the solution axis
            nodes_psi.append(psi + (p[0, 0] * psi + p[0, 1] * dpsi))
            nodes_dpsi.append(dpsi + (p[1, 0] * psi + p[1, 1] * dpsi))
            psi, dpsi = nodes_psi[-1][-1], nodes_dpsi[-1][-1]
        else:
            p = _product(d)
            psi, dpsi = (psi + (p[0, 0] * psi + p[0, 1] * dpsi),
                         dpsi + (p[1, 0] * psi + p[1, 1] * dpsi))
    if record:
        return (np.concatenate([[x_start], ends]), np.concatenate(nodes_psi),
                np.concatenate(nodes_dpsi))
    return np.array([v.x_right + cfg.match_margin]), psi, dpsi


def _propagate_adaptive(v, ks, cfg, record):
    from scipy.integrate import solve_ivp

    ks = np.asarray(ks, dtype=float)
    x_start = v.x_left - cfg.match_margin
    out_psi, out_dpsi, xs_ref = [], [], None
    for k in ks:
        e = k * k

        def rhs(x, y):
            w = v.evaluate(float(x)) - e
            return [y[1], w * y[0]]

        y = np.array([[np.exp(1j * k * x_start), np.exp(-1j * k * x_start)],
                      [1j * k * np.exp(1j * k * x_start), -1j * k * np.exp(-1j * k * x_start)]],
                     dtype=complex)
        xs_acc, psi_acc, dpsi_acc = [x_start], [y[0].copy()], [y[1].copy()]
        for a, c in _segments(v, cfg):
            t_eval = None
            if record:
                n = max(1, int(np.ceil((c - a) / cfg.step)))
                t_eval = np.linspace(a, c, n + 1)
            cols = []
            for j in range(2):
                sol = solve_ivp(rhs, (a, c), [y[0, j], y[1, j]], method="DOP853",
                                rtol=cfg.rtol, atol=cfg.rtol * 1e-2, t_eval=t_eval)
                cols.append(sol)
            if record:
                for m in range(1, len(cols[0].t)):
                    xs_acc.append(cols[0].t[m])
                    psi_acc.append(np.array([cols[0].y[0, m], cols[1].y[0, m]]))
                    dpsi_acc.append(np.array([cols[0].y[1, m], cols[1].y[1, m]]))
            y = np.array([[cols[0].y[0, -1], cols[1].y[0, -1]],
                          [cols[0].y[1, -1], cols[1].y[1, -1]]])
        if not record:
            xs_acc, psi_acc, dpsi_acc = [v.x_right + cfg.match_margin], [y[0]], [y[1]]
        out_psi.append(np.stack(psi_acc))
        out_dpsi.append(np.stack(dpsi_acc))
        xs_ref = np.array(xs_acc)
    psi = np.stack(out_psi, axis=-1)   # (nnodes, 2, nk)
    dpsi = np.stack(out_dpsi, axis=-1)
    if record:
        return xs_ref, psi, dpsi
    return xs_ref[-1:], psi[-1], dpsi[-1]


def _propagate(v, ks, cfg, record=False):
    ks = np.asarray(ks, dtype=float)
    unresolved = ks[cfg.step >= 2 * np.pi / (10 * ks)]
    if cfg.method == "rk4" and unresolved.size:
        k = float(np.min(unresolved))
        raise StepTooLarge(
            f"step {cfg.step} exceeds 2*pi/(10*k) = {2 * np.pi / (10 * k):.4g} at k = {k}", k=k)
    _check_decay(v, cfg)
    if cfg.method == "adaptive":
        return _propagate_adaptive(v, ks, cfg, record)
    return _propagate_rk4(v, ks, cfg, record)


def _extract(psi, dpsi, k, x):
    """Plane-wave amplitudes (a, b) from (psi, psi') at position x."""
    ika = 1j * k
    a = 0.5 * (psi + dpsi / ika) * np.exp(-ika * x)
    b = 0.5 * (psi - dpsi / ika) * np.exp(ika * x)
    return a, b


def integrate_batch(v: LocalPotential, ks: Sequence[float], cfg: IntegrationConfig | None = None):
    """Amplitudes for many wave numbers in one sweep (shared x-grid).

    A k-dependent failure names the lowest failing k in the error's ``k``.
    """
    cfg = cfg or IntegrationConfig()
    ks = np.asarray([as_wavenumber(k).k for k in ks], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # a solution that overflows leaves a non-finite Wronskian, caught below
        xs, psi, dpsi = _propagate(v, ks, cfg, record=False)
        x_end = xs[-1]
        a, b = _extract(psi, dpsi, ks, x_end)
        wr = np.abs(psi[0] * dpsi[1] - psi[1] * dpsi[0])
    lost = ks[~(np.isfinite(wr) & (wr >= 1e-8 * 2 * ks))]
    if lost.size:
        raise DegenerateSolutions("solution pair lost independence during integration",
                                  k=float(np.min(lost)))
    out = []
    for j in range(len(ks)):
        out.append(AsymptoticAmplitudes(
            a1p=complex(a[0, j]), b1p=complex(b[0, j]), a1m=1.0, b1m=0.0,
            a2p=complex(a[1, j]), b2p=complex(b[1, j]), a2m=0.0, b2m=1.0,
        ))
    return out


def integrate_two_solutions(v: LocalPotential, k, cfg: IntegrationConfig | None = None) -> AsymptoticAmplitudes:
    """Integrate the e^{+-ikx}-initialised pair across the support.

    The left amplitudes are the exact initial conditions (1,0) and (0,1);
    the right ones are solved from (psi, psi') at the matching point.
    """
    return integrate_batch(v, [as_wavenumber(k).k], cfg)[0]


def numeric_coefficients(v: LocalPotential, k, cfg: IntegrationConfig | None = None) -> ScatteringCoefficients:
    """Transmission/reflection coefficients by direct integration."""
    kv = as_wavenumber(k)
    amps = integrate_two_solutions(v, kv, cfg)
    res = wronskian_residual(amps, kv)
    log.debug("numeric_coefficients k=%g wronskian residual %.3e", kv.k, res)
    return coefficients_from_amplitudes(amps)


def wavefunction_on_grid(v: LocalPotential, k, direction: str = "left-incident",
                         cfg: IntegrationConfig | None = None) -> WavefunctionGrid:
    """Physical scattering solution with unit incident amplitude, sampled
    on the discontinuity-aligned grid covering support +- match_margin."""
    cfg = cfg or IntegrationConfig()
    kv = as_wavenumber(k).k
    xs, psi, dpsi = _propagate(v, np.array([kv]), cfg, record=True)
    f1, df1 = psi[:, 0, 0], dpsi[:, 0, 0]
    f2, df2 = psi[:, 1, 0], dpsi[:, 1, 0]
    x_end = xs[-1]
    _, b1p = _extract(f1[-1], df1[-1], kv, x_end)
    _, b2p = _extract(f2[-1], df2[-1], kv, x_end)
    if direction == "left-incident":
        if abs(b2p) == 0.0:
            raise DegenerateSolutions("b2+ = 0, cannot null the regressive wave")
        beta = -b1p / b2p
        w, dw = f1 + beta * f2, df1 + beta * df2
    elif direction == "right-incident":
        if abs(b2p) == 0.0:
            raise DegenerateSolutions("b2+ = 0, cannot normalise the incident wave")
        w, dw = f2 / b2p, df2 / b2p
    else:
        raise ValueError(f"direction must be 'left-incident' or 'right-incident', got {direction!r}")
    return WavefunctionGrid(x=xs, psi=w, dpsi=dw, k=kv, direction=direction)


def sampled_potential(x: Sequence[float], v: Sequence[complex]) -> LocalPotential:
    """Interpolate tabulated (x, V) samples into a LocalPotential."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=complex)
    if x.ndim != 1 or x.shape != v.shape or len(x) < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if np.any(np.diff(x) <= 0):
        raise ValueError("sample positions must be strictly increasing")

    def evaluate(xx):
        xx = np.asarray(xx, dtype=float)
        out = np.zeros(xx.shape, dtype=complex)
        inside = (xx > x[0]) & (xx < x[-1])
        out.real[inside] = np.interp(xx[inside], x, v.real)
        out.imag[inside] = np.interp(xx[inside], x, v.imag)
        return out[()]

    return LocalPotential(evaluate=evaluate, x_left=float(x[0]), x_right=float(x[-1]))
