"""Direct integration of the stationary Schroedinger equation.

Brute-force oracle for the analytic catalog: two solutions are started at
the left edge as the exact solutions that behave as e^{+-ikx} at -inf,
propagated across the support, and projected on the far edge onto the exact
solutions that behave as e^{+-ikx} at +inf.  Every edge is matched to the
Jost pair of its tail (``LocalPotential.tails``), summed as a series: an
exponential tail at the edge itself, and an empty tail, whose Jost pair is
plane waves, a free margin beyond the support.

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
    _frozen,
    _quotients,
    _record,
    _require_support,
    _values_at,
    _wavenumbers,
)
from .errors import DegenerateSolutions, NonDecayedPotential, StepTooLarge


@dataclass(frozen=True)        # a dataclass, so that dataclasses.replace applies
class LocalPotential:
    """Complex local potential integrated over [x_left, x_right].

    ``evaluate`` maps real x to complex V(x).  It may receive an array of
    positions and should then return V elementwise; ``sample`` passes it
    whole grids that way and falls back to one call per point for a
    callable that only accepts scalars.  Interior discontinuities go into
    ``breakpoints`` so integration steps never straddle them.

    ``tails`` = (left, right) gives the exact exterior: V(x) = sum_n w_n
    e^{-n|x|} beyond each edge, with the coefficients w_1, w_2, ... of that
    side.  An empty tail, the default, means V vanishes beyond that edge:
    |V| must be below ``DECAY_TOL`` there, and the edge is matched to plane
    waves ``IntegrationConfig.match_margin`` beyond it.
    """

    evaluate: Callable
    x_left: float
    x_right: float
    breakpoints: tuple = ()
    tails: tuple = ((), ())

    def __post_init__(self):
        _require_support(self.x_left, self.x_right)
        if len(self.tails) != 2:
            raise ValueError("tails must be a (left, right) pair of coefficient sequences")

    def sample(self, xs) -> np.ndarray:
        """V at every position of ``xs`` as a complex array of the same shape."""
        return _values_at(self.evaluate, np.asarray(xs, dtype=float)).astype(complex)


#: largest |V| allowed beyond an edge whose tail is empty, out to its matching point
DECAY_TOL = 1e-14


@_frozen
class IntegrationConfig:
    """Step control for the integrator.

    The fixed step must resolve the free-space wavelength with at least
    ten points; ``match_margin`` is how far beyond an edge with an empty
    tail the sweep starts or ends on plane waves.  An edge with an
    exponential tail is matched at the edge and not checked against ``DECAY_TOL``.
    """

    step: float = 1e-3
    match_margin: float = 1.0

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be > 0")


@_frozen
class WavefunctionGrid:
    """Sampled (psi, psi') of a physical scattering solution."""

    x: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    k: float
    direction: str


def _segments(v: LocalPotential, cfg: IntegrationConfig):
    left, right = (0.0 if len(tail) else cfg.match_margin for tail in v.tails)
    x0, x1 = v.x_left - left, v.x_right + right
    pts = sorted({x0, v.x_left, v.x_right, x1}
                 | {b for b in v.breakpoints if x0 < b < x1})
    return list(zip(pts[:-1], pts[1:]))


def _check_decay(v: LocalPotential, cfg: IntegrationConfig):
    """|V| below DECAY_TOL just beyond each edge whose tail is empty and at its matching point."""
    eps = 1e-9
    for x, side, tail in zip((v.x_left, v.x_right), (-1, 1), v.tails):
        for y in () if len(tail) else (x + side * eps * (1 + abs(x)), x + side * cfg.match_margin):
            if abs(v.evaluate(y)) >= DECAY_TOL:
                raise NonDecayedPotential(
                    f"|V({y})| = {abs(v.evaluate(y)):.3e} >= DECAY_TOL {DECAY_TOL}")


#: most terms of a tail's Jost series
MAX_TAIL_TERMS = 64


def _jost_pair(tail, x, ks, side):
    """Jost pair of a tail at its matching point x, over the k column.

    Beyond the edge V = sum_n w_n r^n with r = e^{-|x|} and w_n = tail[n - 1]
    (V = 0 for an empty tail), and the solutions that behave as e^{+-ikx}
    towards ``side`` (+1 right, -1 left) are f = e^{+-ikx} sum_m a_m r^m,
    a_0 = 1, where a_m (m^2 -+ 2ikm side) = sum_{n=1..m} w_n a_{m-n}
    (Newton, Scattering Theory of Waves and Particles, 2nd ed., ch. 12).
    Terms are added until two in a row fall below 2^-53 of the partial sums
    of f and f' for every k.  Returns (phase, s, t), each of shape (2, nk):
    f = phase s and f' = ik phase t, with s summed from 1 and t from +-1, so
    an empty tail leaves s = 1 and t = +-1 exactly: plane waves.  A series
    that has not converged in MAX_TAIL_TERMS terms raises NonDecayedPotential.
    """
    r = np.exp(-abs(x))
    ik = np.stack([1j * ks, -1j * ks])
    coef = np.zeros((8,) + ik.shape, dtype=complex)     # a_0, a_1, ...: doubles as terms are used
    coef[0] = 1.0
    s = np.ones(ik.shape, dtype=complex)
    t = s * np.array([[1.0], [-1.0]])
    w = np.zeros(MAX_TAIL_TERMS, dtype=complex)
    w[:len(tail)] = tail[:MAX_TAIL_TERMS]
    small = 0
    for m in range(1, MAX_TAIL_TERMS + 1):
        if m == len(coef):
            coef = np.concatenate([coef, np.zeros_like(coef)])
        rate = (ik - side * m) / ik[0]          # d/dx of e^{+-ikx} r^m over ik e^{+-ikx} r^m
        coef[m] = np.tensordot(w[m - 1::-1], coef[:m], axes=1) / (m * m - side * 2 * m * ik)
        term = coef[m] * r ** m
        slope = np.where(term == 0, 0, rate * term)     # no inf * 0 where a subnormal k overflows the rate
        s, t = s + term, t + slope
        tiny = np.all(np.abs(term) <= 2.0 ** -53 * np.abs(s)) and \
            np.all(np.abs(slope) <= 2.0 ** -53 * np.abs(t))
        small = small + 1 if tiny else 0
        if small == 2:
            return np.exp(ik * x), s, t
    edge = "right" if side > 0 else "left"
    raise NonDecayedPotential(
        f"the Jost series of the {edge} tail has not converged in {MAX_TAIL_TERMS} terms "
        f"at the {edge} edge x = {x} (matching radius {abs(x)})")


#: steps x wave numbers per block of step matrices (bounds the block's memory)
_BLOCK_SIZE = 4096
#: most steps one sweep may take: its grid and V samples are allocated whole
MAX_STEPS = 10 ** 7
#: Gauss nodes of a step, as offsets from its midpoint in units of its width
_GAUSS = np.array([[-0.5 / np.sqrt(3.0)], [0.5 / np.sqrt(3.0)]])


def _step_grid(v: LocalPotential, segments, step):
    """Width, end node and V at the two Gauss nodes of every step of ``segments``.

    Returns (h, x_end, vv) with vv of shape (2, nsteps); V is sampled at every node
    in one ``sample`` call.  A sweep of more than MAX_STEPS steps raises ValueError
    before anything is allocated.
    """
    counts = [max(1.0, np.ceil((c - a) / step)) for a, c in segments]
    if not sum(counts) <= MAX_STEPS:
        raise ValueError(f"step {step} cuts [{segments[0][0]}, {segments[-1][1]}] into "
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


def _start(ks, kappa, jost):
    """(alpha, beta) of the solutions behaving as e^{ikx} and e^{-ikx} at
    -inf, from the left Jost pair ``jost`` (``_jost_pair``) at the start."""
    # at kappa = k, alpha and beta are the e^{ikx} and e^{-ikx} parts of psi: a free-space
    # step is diagonal, so no rounding mixes them; kappa >= 1 stays well conditioned as k -> 0
    phase, s, t = jost
    return 0.5 * phase * (s + t * (ks / kappa)), 0.5 * phase * (s - t * (ks / kappa))


def _propagate(v, ks, cfg, record=False):
    """Propagate the solutions behaving as e^{ikx} and e^{-ikx} at -inf for
    every k of the float column ks.

    Returns (xs, psi, dpsi, ends) where psi/dpsi have shape (2, nk) at the
    end point, or shape (nnodes, 2, nk) when ``record`` is set; ``ends`` is
    the right Jost pair at the end point (``_jost_pair``).
    """
    unresolved = ks[cfg.step >= 2 * np.pi / (10 * ks)]
    if unresolved.size:
        k = float(np.min(unresolved))
        raise StepTooLarge(
            f"step {cfg.step} exceeds 2*pi/(10*k) = {2 * np.pi / (10 * k):.4g} at k = {k}", k=k)
    _check_decay(v, cfg)
    segments = _segments(v, cfg)
    (x_start, _), (_, x_stop) = segments[0], segments[-1]
    kappa = np.maximum(ks, 1.0)
    alpha, beta = _start(ks, kappa, _jost_pair(v.tails[0], x_start, ks, -1))
    ends = _jost_pair(v.tails[1], x_stop, ks, 1)
    hs, x_end, vv = _step_grid(v, segments, cfg.step)

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
        xs, alpha, beta = (np.concatenate([[x_start], x_end]), np.concatenate(nodes_alpha),
                           np.concatenate(nodes_beta))
    else:
        xs = np.array([x_stop])
    return xs, alpha + beta, 1j * kappa * (alpha - beta), ends


def _extract(psi, dpsi, ks, ends):
    """Amplitudes (a, b) of (psi, psi') on the solutions behaving as e^{ikx}
    and e^{-ikx} at +inf, the right Jost pair ``ends``: Cramer's rule with
    q = psi'/(ik) and W = s_0 t_1 - s_1 t_0 (-2 for plane waves), where the
    phase of one solution stands for the inverse of the other's."""
    phase, s, t = ends
    q = dpsi / (1j * ks)
    w = s[0] * t[1] - s[1] * t[0]
    return (psi * t[1] - q * s[1]) * (phase[1] / w), (q * s[0] - psi * t[0]) * (phase[0] / w)


def integrate_batch(v: LocalPotential, ks: Sequence[float], cfg: IntegrationConfig | None = None):
    """Amplitudes of the pair behaving as e^{ikx} and e^{-ikx} at -inf, for
    one wave number or many in one sweep (shared x-grid), as one
    ``AsymptoticAmplitudes`` of k columns.

    The left amplitudes are exactly (1, 0) and (0, 1); the right ones are
    solved from (psi, psi') at the far edge.  A k-dependent failure names
    the lowest failing k in the error's ``k``.
    """
    cfg = cfg or IntegrationConfig()
    ks = _wavenumbers(ks)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        # a solution that overflows leaves a non-finite Wronskian, caught below
        xs, psi, dpsi, ends = _propagate(v, ks, cfg, record=False)
        a, b = _extract(psi, dpsi, ks, ends)
        wr = np.abs(psi[0] * dpsi[1] - psi[1] * dpsi[0])
    lost = ks[~(np.isfinite(wr) & (wr >= 1e-8 * 2 * ks))]
    if lost.size:
        raise DegenerateSolutions("solution pair lost independence during integration",
                                  k=float(np.min(lost)))
    one, zero = np.ones(len(ks)), np.zeros(len(ks))
    return AsymptoticAmplitudes(a1p=a[0], b1p=b[0], a1m=one, b1m=zero,
                                a2p=a[1], b2p=b[1], a2m=zero, b2m=one)


def numeric_coefficients(v: LocalPotential, k, cfg: IntegrationConfig | None = None) -> ScatteringCoefficients:
    """Transmission/reflection coefficients by direct integration at one wave
    number or over a grid of them, from one ``integrate_batch`` sweep; a
    scalar k gives a record of Python complex numbers, a grid one of complex
    columns.  A quotient that fails names its k."""
    ks, one = _wavenumbers(k)
    return _record(ks, one, *_quotients(integrate_batch(v, ks, cfg)))


def wavefunction_on_grid(v: LocalPotential, k, direction: str = "left-incident",
                         cfg: IntegrationConfig | None = None) -> WavefunctionGrid:
    """Physical scattering solution with unit incident amplitude, sampled
    on the discontinuity-aligned grid of the sweep: from edge to edge, each
    moved out by match_margin where its tail is empty."""
    cfg = cfg or IntegrationConfig()
    ks, one = _wavenumbers(k)
    if not one:
        raise ValueError("wavefunction_on_grid takes one wave number k, not a grid")
    xs, psi, dpsi, ends = _propagate(v, ks, cfg, record=True)
    f1, df1 = psi[:, 0, 0], dpsi[:, 0, 0]
    f2, df2 = psi[:, 1, 0], dpsi[:, 1, 0]
    _, b = _extract(psi[-1], dpsi[-1], ks, ends)
    b1p, b2p = b[:, 0]
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
    return WavefunctionGrid(x=xs, psi=w, dpsi=dw, k=float(ks[0]), direction=direction)


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
