"""High-precision references, computed with mpmath and independent of ptscatter.

Each function returns plain Python complex numbers (or floats) so the
checker can compare them with the program's 17-digit output directly.
Conventions follow the package: E = k^2, S = [[T_lr, R_rl], [R_lr, T_rl]],
and M maps the plane-wave amplitudes at x -> +inf to those at x -> -inf.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _c(z) -> complex:
    return complex(z)


def _coefficients_from_m(m):
    """(T_lr, R_lr, T_rl, R_rl) from M, derived from the asymptotic boundary
    conditions (1, R_lr) = M (T_lr, 0) and (0, T_rl) = M (R_rl, 1)."""
    m_rr, m_rl, m_lr, m_ll = m
    t_lr = 1 / m_rr
    r_rl = -m_rl / m_rr
    return t_lr, m_lr * t_lr, m_lr * r_rl + m_ll, r_rl


def _interface(q_left, q_right, x):
    """J(q_left, x)^-1 J(q_right, x) for J(q, x) = [[e, 1/e], [q e, -q/e]], e = e^{iqx}.

    Continuity of (psi, psi') at x maps right-side amplitudes to left-side ones.
    """
    el = mp.exp(1j * q_left * x)
    er = mp.exp(1j * q_right * x)
    ratio = q_right / q_left
    return (er / (2 * el) * (1 + ratio), (1 - ratio) / (2 * el * er),
            el * er / 2 * (1 - ratio), el / (2 * er) * (1 + ratio))


def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _well_wavenumbers(v0, v1, k):
    """Interior wave numbers of V = -v0 + i v1 (left half) and -v0 - i v1 (right half)."""
    e = mp.mpf(k) ** 2
    return mp.sqrt(e + v0 - 1j * v1), mp.sqrt(e + v0 + 1j * v1)


def _well_matrix(q0, q1, k, lo, b):
    """Transfer matrix of one well occupying [lo, lo + 2b], by interface matching."""
    m = _interface(k, q0, lo)
    m = _mul(m, _interface(q0, q1, lo + b))
    return _mul(m, _interface(q1, k, lo + 2 * b))


def square_well(v0: float, v1: float, b: float, k: float):
    """(T_lr, R_lr, T_rl, R_rl) of the complex square well centred at 0."""
    with mp.workdps(DPS):
        k = mp.mpf(k)
        q0, q1 = _well_wavenumbers(mp.mpf(v0), mp.mpf(v1), k)
        m = _well_matrix(q0, q1, k, -mp.mpf(b), mp.mpf(b))
        return tuple(_c(z) for z in _coefficients_from_m(m))


def lattice(v0: float, v1: float, b: float, a: float, n_max: int, k: float, dps: int = 40):
    """Per n = 1..n_max: (|T_lr|, |R_lr|, |R_rl|, max |M_ij|) of the n-well lattice.

    Wells of width 2b are separated by gaps 2a and the first one spans
    [-a - 2b, -a]; the transfer matrix is the running product of the
    interface matrices of every well, left to right.
    """
    out = []
    with mp.workdps(dps):
        k, a, b = mp.mpf(k), mp.mpf(a), mp.mpf(b)
        q0, q1 = _well_wavenumbers(mp.mpf(v0), mp.mpf(v1), k)
        period = 2 * (a + b)
        lo = -a - 2 * b
        m = (mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1))
        for n in range(n_max):
            m = _mul(m, _well_matrix(q0, q1, k, lo + n * period, b))
            t_lr, r_lr, _, r_rl = _coefficients_from_m(m)
            out.append((float(abs(t_lr)), float(abs(r_lr)), float(abs(r_rl)),
                        float(max(abs(z) for z in m))))
    return out


def scarf(s: float, lam: complex, eps: float, k: float):
    """(T_lr, R_lr, T_rl, R_rl) of V = (lam^2 - s(s+1))/cosh^2 x + lam(2s+1) sinh x/cosh^2 x,
    shifted by x -> x + i eps, from the gamma-function formula."""
    with mp.workdps(DPS):
        s, k, eps = mp.mpf(s), mp.mpf(k), mp.mpf(eps)
        lam = mp.mpc(lam)
        ik = 1j * k
        g = mp.gamma
        t = (g(-s - ik) * g(s + 1 - ik) * g(0.5 + 1j * lam - ik) * g(0.5 - 1j * lam - ik)
             / (g(-ik) * g(1 - ik) * g(0.5 - ik) ** 2))

        def rfac(lm):
            return (mp.cos(mp.pi * s) * mp.sinh(mp.pi * lm) / mp.cosh(mp.pi * k)
                    + 1j * mp.sin(mp.pi * s) * mp.cosh(mp.pi * lm) / mp.sinh(mp.pi * k))

        r_lr = t * rfac(lam) * mp.exp(2 * k * eps)
        r_rl = t * rfac(-lam) * mp.exp(-2 * k * eps)
        return _c(t), _c(r_lr), _c(t), _c(r_rl)


def _exp_integral_below(gamma, c, x):
    """Int_{-inf}^{x} e^{-gamma|y| + i c y} dy."""
    up, dn = gamma + 1j * c, -gamma + 1j * c
    if x <= 0:
        return mp.exp(up * x) / up
    return 1 / up + (mp.exp(dn * x) - 1) / dn


def _exp_integral_above(gamma, c, x):
    """Int_{x}^{inf} e^{-gamma|y| + i c y} dy."""
    up, dn = gamma + 1j * c, -gamma + 1j * c
    if x >= 0:
        return -mp.exp(dn * x) / dn
    return (1 - mp.exp(up * x)) / up - 1 / dn


def yamaguchi(gamma: float, delta: float, alpha: float, beta: float, lam: float, k: float):
    """(T_lr, R_lr, T_rl, R_rl) of the kernel lam e^{-delta|x|+i beta x} e^{-gamma|y|+i alpha y}.

    Both incidence directions are solved with the outgoing Green's function
    G(u) = -(i/2k) e^{ik|u|}.  The inner y integral is elementary; the outer
    x integral of N = Int Int h e^{i beta x} G(x - y) g e^{i alpha y} is done
    by mpmath quadrature.
    """
    with mp.workdps(DPS):
        gamma, delta, alpha, beta, lam, k = (mp.mpf(v) for v in (gamma, delta, alpha, beta, lam, k))

        def inner(x):
            return (mp.exp(1j * k * x) * _exp_integral_below(gamma, alpha - k, x)
                    + mp.exp(-1j * k * x) * _exp_integral_above(gamma, alpha + k, x))

        def outer(x):
            return mp.exp(-delta * abs(x) + 1j * beta * x) * inner(x)

        n_plus = -1j / (2 * k) * mp.quad(outer, [-mp.inf, 0, mp.inf])
        d = 1 / (1 - lam * n_plus)
        omega = lam / (2 * k)

        def g_ft(q):
            return 2 * gamma / (gamma ** 2 + q ** 2)

        def h_ft(q):
            return 2 * delta / (delta ** 2 + q ** 2)

        return (_c(1 - 1j * omega * g_ft(k - alpha) * h_ft(k + beta) * d),
                _c(-1j * omega * g_ft(k + alpha) * h_ft(k + beta) * d),
                _c(1 - 1j * omega * g_ft(k + alpha) * h_ft(k - beta) * d),
                _c(-1j * omega * g_ft(k - alpha) * h_ft(k - beta) * d))
