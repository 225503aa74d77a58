"""Direct integration of the stationary Schroedinger equation.

Brute-force oracle for the analytic catalog: two solutions are started as
exact plane waves e^{+-ikx} in the free region left of the support,
propagated across it, and their plane-wave amplitudes are read off from
(psi, psi') on the far side.

One propagator: the fourth-order Magnus step (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009) 151) on fixed steps aligned to potential
discontinuities, with V at the two Gauss nodes of each step; it is exact
where V is constant on a step.  V is sampled for the whole sweep in one
call, and the 2x2 step matrices per k are composed in blocks by pairwise
products (prefix products when every node is recorded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AsymptoticAmplitudes,
    ScatteringCoefficients,
    _require_support,
    _values_at,
    as_wavenumber,
    coefficients_from_amplitudes,
    wronskian_residual,
)
from .errors import DegenerateSolutions, NonDecayedPotential, StepTooLarge


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
        _require_support(self.x_left, self.x_right)

    def sample(self, xs) -> np.ndarray:
        """V at every position of ``xs`` as a complex array of the same shape."""
        return _values_at(self.evaluate, np.asarray(xs, dtype=float)).astype(complex)


@dataclass(frozen=True)
class IntegrationConfig:
    """Step control for the integrator.

    The fixed step must resolve the free-space wavelength with at least
    ten points; ``match_margin`` is how far beyond the support the
    plane-wave initialisation/extraction points sit.
    """

    step: float = 1e-3
    decay_tol: float = 1e-14
    match_margin: float = 1.0

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be > 0")


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


#: steps x wave numbers per block of step matrices (bounds the block's memory)
_BLOCK_SIZE = 4096
#: most steps one sweep may take: its grid and V samples are allocated whole
MAX_STEPS = 10 ** 7
#: Gauss nodes of a step, as offsets from its midpoint in units of its width
_GAUSS = np.array([[-0.5 / np.sqrt(3.0)], [0.5 / np.sqrt(3.0)]])


def _step_grid(v: LocalPotential, cfg: IntegrationConfig):
    """Width, end node and V at the two Gauss nodes of every step.

    Returns (h, x_end, vv) with vv of shape (2, nsteps); V is sampled at
    every node of the sweep in one ``sample`` call.  A sweep of more than
    MAX_STEPS steps raises ValueError before anything is allocated.
    """
    segments = _segments(v, cfg)
    counts = [max(1.0, np.ceil((c - a) / cfg.step)) for a, c in segments]
    if not sum(counts) <= MAX_STEPS:
        raise ValueError(f"step {cfg.step} cuts [{segments[0][0]}, {segments[-1][1]}] into "
                         f"{sum(counts):.4g} steps, more than the {MAX_STEPS} one sweep may take")
    hs, ends, mids = [], [], []
    for (a, c), n in zip(segments, map(int, counts)):
        h = (c - a) / n
        hs.append(np.full(n, h))
        ends.append(a + np.arange(1, n + 1) * h)
        mids.append(a + np.arange(0.5, n) * h)
    hs, mids = np.concatenate(hs), np.concatenate(mids)
    vv = v.sample((mids + _GAUSS * hs).ravel()).reshape(2, -1)
    return hs, np.concatenate(ends), vv


def _magnus_steps(h, v, ks, kappa):
    """exp(Omega) - I of the fourth-order Magnus step, stacked as (2, 2, steps, nk).

    ``h`` (steps, 1) holds the step widths, ``v`` (2, steps, 1) V at each
    step's two Gauss nodes.  In (psi, psi'), Omega = [[c, h], [h (w1 + w2) / 2, -c]]
    with w = V - k^2 and c = (sqrt 3 / 12) h^2 (w1 - w2).  The state is held
    as (alpha, beta), psi = alpha + beta and psi' = i kappa (alpha - beta),
    where Omega = [[i kappa h + n, c + n], [c - n, -i kappa h - n]] with
    n = h (V1 + V2) / (4 i kappa) + (i h / 2) (k - kappa)(k + kappa) / kappa.
    Omega^2 = theta^2 I, so exp(Omega) - I = 2 sinh^2(theta / 2) I + (sinh theta / theta) Omega.
    """
    v1, v2 = v
    c = (np.sqrt(3.0) / 12) * h * h * (v1 - v2)
    n = h * (v1 + v2) / (4j * kappa) + 0.5j * h * (ks - kappa) * (ks + kappa) / kappa
    theta = np.sqrt(c * c + h * h * ((v1 + v2) / 2 - ks * ks))
    sinhc = np.sinh(theta) / np.where(theta == 0, 1, theta)
    sinhc[theta == 0] = 1
    diag = 2 * np.sinh(theta / 2) ** 2
    p = 1j * kappa * h + n
    return np.stack([np.stack([diag + sinhc * p, sinhc * (c + n)]),
                     np.stack([sinhc * (c - n), diag - sinhc * p])])


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


def _propagate(v, ks, cfg, record=False):
    """Propagate the solutions started as e^{ikx} and e^{-ikx} for every k.

    Returns (xs, psi, dpsi) where psi/dpsi have shape (2, nk) at the end
    point, or shape (nnodes, 2, nk) when ``record`` is set.
    """
    ks = np.asarray(ks, dtype=float)
    unresolved = ks[cfg.step >= 2 * np.pi / (10 * ks)]
    if unresolved.size:
        k = float(np.min(unresolved))
        raise StepTooLarge(
            f"step {cfg.step} exceeds 2*pi/(10*k) = {2 * np.pi / (10 * k):.4g} at k = {k}", k=k)
    _check_decay(v, cfg)
    x_start = v.x_left - cfg.match_margin
    # at kappa = k, alpha and beta are the e^{ikx} and e^{-ikx} parts of psi: a free-space
    # step is diagonal, so no rounding mixes them; kappa >= 1 stays well conditioned as k -> 0
    kappa = np.maximum(ks, 1.0)
    waves = np.stack([np.exp(1j * ks * x_start), np.exp(-1j * ks * x_start)])
    alpha = 0.5 * np.stack([1 + ks / kappa, 1 - ks / kappa]) * waves
    beta = 0.5 * np.stack([1 - ks / kappa, 1 + ks / kappa]) * waves

    hs, ends, vv = _step_grid(v, cfg)
    nodes_alpha, nodes_beta = [alpha[None]], [beta[None]]
    block = max(1, _BLOCK_SIZE // len(ks))
    for s in range(0, len(hs), block):
        # d = (step matrix - I) of every step and k, shape (2, 2, steps, nk)
        d = _magnus_steps(hs[s:s + block, None], vv[:, s:s + block, None], ks, kappa)
        if record:
            p = _prefix_products(d)[:, :, :, None]     # broadcast over the solution axis
            nodes_alpha.append(alpha + (p[0, 0] * alpha + p[0, 1] * beta))
            nodes_beta.append(beta + (p[1, 0] * alpha + p[1, 1] * beta))
            alpha, beta = nodes_alpha[-1][-1], nodes_beta[-1][-1]
        else:
            p = _product(d)
            alpha, beta = (alpha + (p[0, 0] * alpha + p[0, 1] * beta),
                           beta + (p[1, 0] * alpha + p[1, 1] * beta))
    if record:
        xs, alpha, beta = (np.concatenate([[x_start], ends]), np.concatenate(nodes_alpha),
                           np.concatenate(nodes_beta))
    else:
        xs = np.array([v.x_right + cfg.match_margin])
    return xs, alpha + beta, 1j * kappa * (alpha - beta)


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
        a, b = _extract(psi, dpsi, ks, xs[-1])
        wr = np.abs(psi[0] * dpsi[1] - psi[1] * dpsi[0])
    lost = ks[~(np.isfinite(wr) & (wr >= 1e-8 * 2 * ks))]
    if lost.size:
        raise DegenerateSolutions("solution pair lost independence during integration",
                                  k=float(np.min(lost)))
    return [AsymptoticAmplitudes(a1p=complex(a[0, j]), b1p=complex(b[0, j]), a1m=1.0, b1m=0.0,
                                 a2p=complex(a[1, j]), b2p=complex(b[1, j]), a2m=0.0, b2m=1.0)
            for j in range(len(ks))]


def integrate_two_solutions(v: LocalPotential, k, cfg: IntegrationConfig | None = None) -> AsymptoticAmplitudes:
    """Integrate the e^{+-ikx}-initialised pair across the support.

    The left amplitudes are the exact initial conditions (1,0) and (0,1);
    the right ones are solved from (psi, psi') at the matching point.
    """
    return integrate_batch(v, [as_wavenumber(k).k], cfg)[0]


def numeric_coefficients(v: LocalPotential, k, cfg: IntegrationConfig | None = None) -> ScatteringCoefficients:
    """Transmission/reflection coefficients by direct integration.  The
    Wronskian residual goes to this module's logger at DEBUG level; logging
    loads on the first call, not with the module."""
    import logging

    kv = as_wavenumber(k)
    amps = integrate_two_solutions(v, kv, cfg)
    res = wronskian_residual(amps, kv)
    logging.getLogger(__name__).debug("numeric_coefficients k=%g wronskian residual %.3e", kv.k, res)
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
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(v)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"sample row {i} is not finite: x = {x[i]}, V = {v[i]}")
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
