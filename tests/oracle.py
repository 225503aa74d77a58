"""Per-k reference formulas for the closed forms.

The package evaluates every closed form over a column of wave numbers.
These are the same formulas written once more at one Python float k, with
``math``, ``cmath`` and CPython's complex arithmetic, so that each column
element can be checked against them bit for bit.  They raise where Python
raises (``OverflowError`` from ``math.cosh``, ``ZeroDivisionError``, ...);
the package raises a named ``ScatteringError`` at such a k, and at a k
where these give a coefficient that is not finite.  The lattice takes its
cell and products in np.clongdouble, as the package does, with numpy's
scalar arithmetic, and rounds to complex at the end.
"""

import cmath
import math
import operator
import sys
from types import SimpleNamespace

import numpy as np

from ptscatter import potentials, specfun
from ptscatter.errors import NumeratorPole, PrecisionLoss, ResonancePole, TransferOverflow, TransmissionPole


def smatrix(m_rr, m_rl, m_lr, m_ll, tol=1e-12) -> tuple:
    """(T_lr, R_lr, T_rl, R_rl) from the transfer-matrix elements."""
    if abs(m_rr) < tol:
        raise TransmissionPole(f"|M_RR| = {float(abs(m_rr))} below {tol}")
    det = m_rr * m_ll - m_rl * m_lr
    return 1.0 / m_rr, m_lr / m_rr, det / m_rr, -m_rl / m_rr


# -- square well, lattice ----------------------------------------------------------

#: the square well's functions at one Python float, and at one np.longdouble
FLOAT = SimpleNamespace(real=float, cos=math.cos, sin=math.sin, cosh=math.cosh, sinh=math.sinh,
                        atan2=math.atan2, pow=operator.pow, cexp=cmath.exp)
EXTENDED = SimpleNamespace(real=np.longdouble, cos=np.cos, sin=np.sin, cosh=np.cosh, sinh=np.sinh,
                           atan2=np.arctan2, pow=np.power, cexp=np.exp)


def square_well_elements(p, kv, f=FLOAT) -> tuple:
    v0, v1, b = f.real(p.v0), f.real(p.v1), f.real(p.b)
    e = kv * kv
    alpha = f.pow(f.pow(e + v0, 2) + v1 ** 2, 0.25)
    phi = 0.5 * f.atan2(v1, e + v0)
    c = 2 * alpha * b * f.cos(phi)
    s = 2 * alpha * b * f.sin(phi)
    cp, sp = f.cos(phi), f.sin(phi)
    even = cp * cp * f.cos(c) + sp * sp * f.cosh(s)
    km = (kv * kv - alpha * alpha) / (2 * kv * alpha)
    kp = (kv * kv + alpha * alpha) / (2 * kv * alpha)
    odd = km * sp * f.sinh(s) + kp * cp * f.sin(c)
    cross = sp * cp * (f.cos(c) - f.cosh(s))
    off = km * cp * f.sin(c) + kp * sp * f.sinh(s)
    return (f.cexp(2j * kv * b) * (even - 1j * odd), 1j * (cross + off),
            1j * (cross - off), f.cexp(-2j * kv * b) * (even + 1j * odd))


def square_well_coefficients(p, kv) -> tuple:
    return smatrix(*square_well_elements(p, kv))


def square_well_transfer_interfaces(p, kv) -> np.ndarray:
    """The well's transfer matrix from its three continuity systems, solved
    directly: a route independent of the transcribed closed form, with the
    interior wave numbers sqrt(E + v0 -+ i v1) of the left and right halves."""
    a0, a1 = cmath.sqrt(kv * kv + p.v0 - 1j * p.v1), cmath.sqrt(kv * kv + p.v0 + 1j * p.v1)

    def j(q, x):
        ep, em = cmath.exp(1j * q * x), cmath.exp(-1j * q * x)
        return np.array([[ep, em], [q * ep, -q * em]], dtype=complex)

    return (np.linalg.solve(j(kv, -p.b), j(a0, -p.b))
            @ np.linalg.solve(j(a0, 0.0), j(a1, 0.0))
            @ np.linalg.solve(j(a1, p.b), j(kv, p.b)))


def lattice_cell(p, kv) -> np.ndarray:
    """The cell matrix T, the well's M with the per-period displacement
    phases, in np.clongdouble."""
    kv = np.longdouble(kv)
    with np.errstate(all="ignore"):
        m_rr, m_rl, m_lr, m_ll = square_well_elements(p.well, kv, EXTENDED)
        a, b = np.longdouble(p.a), np.longdouble(p.well.b)
        return np.array([[m_rr * np.exp(-2j * kv * (a + b)), m_rl * np.exp(2j * kv * a)],
                         [m_lr * np.exp(-2j * kv * a), m_ll * np.exp(2j * kv * (a + b))]])


def checked(m):
    biggest = np.max(np.abs(m))
    if not np.isfinite(biggest) or biggest > 1e300:
        raise TransferOverflow("transfer-matrix element exceeded 1e300")
    return m


def matrix_power(t, n):
    """T^n by repeated squaring, raising where a product overflows."""
    result, base = np.eye(2, dtype=t.dtype), checked(t.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        while n:
            if n & 1:
                result = checked(result @ base)
            n >>= 1
            if n:
                base = checked(base @ base)
    return result


def edge_phases(kv, x) -> np.ndarray:
    """(e^{ikx}, e^{-ikx}), the diagonal of D(x), over the np.longdouble k (last axis)."""
    return np.exp(np.stack([1j * kv, -1j * kv], axis=-1) * x)


def sandwich(m, kv, x_left, x_right) -> np.ndarray:
    """conj(D(x_left)) m D(x_right), each element a phase times an element of m
    times a phase: m displaced by x_left = x_right, or a lattice's edges."""
    return edge_phases(kv, -x_left)[..., :, None] * m * edge_phases(kv, x_right)[..., None, :]


def lattice_power(p, kv) -> np.ndarray:
    """T^n at n = p.n and one k by repeated squaring of the cell."""
    return matrix_power(lattice_cell(p, kv), p.n)


def multi_well_transfer(p, kv) -> np.ndarray:
    """conj(D(u1)) T^n D(u1 + n*period) at one n and one k by its own power
    of T, each element a phase times an element of T^n times a phase."""
    return sandwich(lattice_power(p, kv), np.longdouble(kv), p.u1, p.u1 + p.n * p.period)


def multi_well_coefficients(p, kv) -> tuple:
    with np.errstate(all="ignore"):
        return tuple(complex(z) for z in smatrix(*multi_well_transfer(p, kv).ravel()))


def lattice_sweep(p, ks, n_max):
    """(n, T^n, overflow) for n = p.n..n_max, one n at a time, over the k
    column ks: T^{p.n} by repeated squaring, then T @ T^{n-1}; overflow,
    sticky over n, marks the k where the cell or a product so far had an
    element above 1e300 or not finite.  T is the package's cell stack."""
    t = potentials.lattice_transfer(p, ks)[0]
    overflow = np.zeros(len(t), dtype=bool)

    def checked(m):
        nonlocal overflow
        overflow = overflow | ~(np.max(np.abs(m), axis=(1, 2)) <= 1e300)
        return m

    with np.errstate(over="ignore", invalid="ignore"):
        power, base, n = np.broadcast_to(np.eye(2, dtype=t.dtype), t.shape), checked(t), p.n
        while n:
            if n & 1:
                power = checked(power @ base)
            n >>= 1
            if n:
                base = checked(base @ base)
    for n in range(p.n, n_max + 1):
        if n > p.n:
            with np.errstate(over="ignore", invalid="ignore"):
                power = checked(t @ power)
        yield n, power, overflow


def extended_bits(x) -> np.ndarray:
    """The bytes that hold the value of each real and imaginary part of the
    np.clongdouble array x (x87's 80-bit long double pads them to 16)."""
    parts = np.stack([x.real, x.imag], axis=-1)
    size = 10 if np.finfo(np.longdouble).nmant == 63 else parts.itemsize
    return parts.view(np.uint8).reshape(*parts.shape, -1)[..., :size]


def exact(cells) -> list:
    """The np.clongdouble array ``cells`` as nested lists of mpmath numbers,
    exactly: each part is its integer significand times a power of two."""
    import mpmath

    digits = np.finfo(np.longdouble).nmant + 1

    def part(x):
        significand, exponent = np.frexp(x)
        return mpmath.ldexp(int(np.ldexp(significand, digits)), int(exponent) - digits)

    with mpmath.workprec(digits):
        return np.frompyfunc(lambda z: mpmath.mpc(part(z.real), part(z.imag)), 1, 1)(cells).tolist()


def lattice_sweep_mp(cells, n_max, dps=40) -> np.ndarray:
    """T^n for n = 1..n_max (rows) over the extended cell stack ``cells``
    (columns), taken exactly, from a running product in mpmath at ``dps``
    digits, rounded to complex at the end."""
    import mpmath

    out = np.empty((n_max, len(cells), 2, 2), dtype=complex)
    with mpmath.workdps(dps):
        for i, t in enumerate(exact(cells)):
            power = [[mpmath.mpc(1), mpmath.mpc(0)], [mpmath.mpc(0), mpmath.mpc(1)]]
            for n in range(1, n_max + 1):
                power = [[t[r][0] * power[0][c] + t[r][1] * power[1][c] for c in range(2)]
                         for r in range(2)]
                out[n - 1, i] = [[complex(power[r][c]) for c in range(2)] for r in range(2)]
    return out


def lattice_mp(p, k, n_max, dps=40) -> list:
    """(|T_lr|, |R_lr|, |R_rl|) of n = 1..n_max wells at one k, from the
    parameters alone: a running product in mpmath at ``dps`` digits of the
    matrices that carry the plane-wave amplitudes across each interface,
    left to right, with no use of the closed-form cell."""
    import mpmath

    with mpmath.workdps(dps):
        k, v0, v1, a, b = (mpmath.mpf(x) for x in (k, p.well.v0, p.well.v1, p.a, p.well.b))
        q_left, q_right = mpmath.sqrt(k * k + v0 - 1j * v1), mpmath.sqrt(k * k + v0 + 1j * v1)

        def interface(q, r, x):     # (A, B) of e^{iqx}, e^{-iqx} from those of r at x
            eq, er, ratio = mpmath.exp(1j * q * x), mpmath.exp(1j * r * x), r / q
            return [[er / eq * (1 + ratio) / 2, (1 - ratio) / (2 * eq * er)],
                    [eq * er * (1 - ratio) / 2, eq / er * (1 + ratio) / 2]]

        m, out = [[1, 0], [0, 1]], []
        for n in range(n_max):
            lo = -a - 2 * b + 2 * n * (a + b)
            for q, r, x in ((k, q_left, lo), (q_left, q_right, lo + b), (q_right, k, lo + 2 * b)):
                f = interface(q, r, x)
                m = [[m[i][0] * f[0][j] + m[i][1] * f[1][j] for j in range(2)] for i in range(2)]
            out.append((float(1 / abs(m[0][0])), float(abs(m[1][0] / m[0][0])),
                        float(abs(m[0][1] / m[0][0]))))
    return out


# -- Scarf -------------------------------------------------------------------------

def is_gamma_pole(z, tol=specfun.POLE_TOL) -> bool:
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol and abs(z.imag) <= tol


def gamma_ratio(numerator_args, denominator_args):
    """exp(sum log Gamma(numerator) - sum log Gamma(denominator)): a pole
    among the numerator arguments raises, among the denominator ones gives
    0, and terms so large that their sum keeps an error above
    ``specfun.CANCELLATION_TOL`` raise."""
    for z in numerator_args:
        if is_gamma_pole(z):
            raise NumeratorPole(f"numerator gamma pole at z = {z}")
    for z in denominator_args:
        if is_gamma_pole(z):
            return 0.0
    logs = specfun._log_gammas(specfun._SCALAR, list(numerator_args) + list(denominator_args))
    size = 0.0
    for lg in logs:
        size += abs(lg)
    if size * sys.float_info.epsilon > specfun.CANCELLATION_TOL:
        raise PrecisionLoss(f"log-gamma terms of total size {size:.3g} cancel; "
                            f"the ratio would carry an error above {specfun.CANCELLATION_TOL:g}")
    log_sum = 0.0 + 0.0j
    for lg in logs[:len(numerator_args)]:
        log_sum += lg
    for lg in logs[len(numerator_args):]:
        log_sum -= lg
    return cmath.exp(log_sum)


def scarf_reflection_factor(s, lam, kv) -> complex:
    """R/T = cos(pi s) sinh(pi lam) / cosh(pi k) + i sin(pi s) cosh(pi lam) / sinh(pi k)."""
    s = math.fmod(s, 2.0)
    a = math.cos(math.pi * s) * cmath.sinh(math.pi * lam)
    b = 1j * math.sin(math.pi * s) * cmath.cosh(math.pi * lam)
    return a / math.cosh(math.pi * kv) + b / math.sinh(math.pi * kv)


def scarf_coefficients(p, kv) -> tuple:
    s, lam, ik, half = p.s, complex(p.lam), 1j * kv, 0.5
    t = gamma_ratio((-s - ik, s + 1 - ik, half + 1j * lam - ik, half - 1j * lam - ik),
                    (-ik, 1 - ik, half - ik, half - ik))
    r_lr = t * scarf_reflection_factor(s, lam, kv) * math.exp(2 * kv * p.eps)
    r_rl = t * scarf_reflection_factor(s, -lam, kv) * math.exp(-2 * kv * p.eps)
    return t, r_lr, t, r_rl


# -- Yamaguchi kernels ---------------------------------------------------------------

def yamaguchi_j(alpha, beta, gamma, delta, k) -> complex:
    """Int h e^{i beta x} e^{ik|x-y|} g e^{i alpha y} in closed form."""
    gt = 2 * gamma / (gamma * gamma + (k - alpha) ** 2)
    gt_m = 2 * gamma / (gamma * gamma + (k + alpha) ** 2)
    c2 = 1.0 / (-gamma + 1j * (alpha - k)) + 1.0 / (gamma - 1j * (alpha + k))
    c3 = 1.0 / (gamma + 1j * (alpha - k)) - 1.0 / (gamma + 1j * (alpha + k))
    return (gt_m / (delta + 1j * (beta - k)) + gt / (delta - 1j * (beta + k))
            + c3 / (gamma + delta + 1j * (alpha + beta)) + c2 / (gamma + delta - 1j * (alpha + beta)))


def yamaguchi_ft(c, q) -> float:
    """The transform Int e^{-c|x|} e^{-iqx} dx = 2c / (c^2 + q^2)."""
    return 2 * c / (c * c + q * q)


def nonlocal_coefficients(kernel, kv) -> tuple:
    """The coefficients of a Yamaguchi kernel, after every intermediate of
    ``nonlocal_intermediates`` and its resonance checks."""
    form = (kernel.alpha, kernel.beta, kernel.gamma, kernel.delta)
    lam = kernel.lam
    omega = lam / (2 * kv)
    np_ = -0.5j / kv * yamaguchi_j(*form, kv)
    nm_ = 0.5j / kv * yamaguchi_j(*form, -kv)
    g_m, g_p = yamaguchi_ft(kernel.gamma, kv - kernel.alpha), yamaguchi_ft(kernel.gamma, kv + kernel.alpha)
    h_p, h_m = yamaguchi_ft(kernel.delta, kv + kernel.beta), yamaguchi_ft(kernel.delta, kv - kernel.beta)
    g1, g2 = g_m * h_p, g_p * h_m
    den_plus = 1.0 - lam * np_
    if abs(den_plus) < 1e-12 * max(1.0, abs(lam * np_)):
        raise ResonancePole(f"1 - lam*N+ vanishes at k = {kv}")
    den_minus = 1.0 - lam * nm_ + 1j * omega * (g2 + g1)
    if abs(den_minus) < 1e-12 * max(1.0, abs(lam * nm_)):
        raise ResonancePole(f"script-D denominator vanishes at k = {kv}")
    d_plus = 1.0 / den_plus
    script_d_minus = 1.0 / den_minus
    t_rl = 1.0 - 1j * omega * g2 * script_d_minus
    r_rl = -1j * omega * g_m * h_m * script_d_minus
    intermediates = (np_, nm_, d_plus, script_d_minus, lam * (np_ + nm_) / 2, h_p * d_plus,
                     (r_rl * h_p + t_rl * h_m) * (1.0 / (1.0 - lam * nm_)),
                     g1 - g2 + lam * (np_ * g2 - nm_ * g1) + 1j * omega * g1 * (g2 + g1))
    if not all(map(cmath.isfinite, intermediates)):
        raise OverflowError("a non-local intermediate is not finite")
    return (1.0 - 1j * omega * g_m * h_p * d_plus, -1j * omega * g_p * h_p * d_plus,
            1.0 - 1j * omega * g_p * h_m * script_d_minus, -1j * omega * g_m * h_m * script_d_minus)


# -- command-line moduli, phases -------------------------------------------------------

def moduli(t_lr, r_lr, det) -> tuple:
    """|T_lr|^2, |R_lr|^2 and |det S| as a scan row holds them."""
    return abs(t_lr) ** 2, abs(r_lr) ** 2, abs(det)


def phase(t) -> float:
    """theta with t = |t| e^{-i theta}, in [0, 2 pi); NaN at t = 0."""
    return (-math.atan2(t.imag, t.real)) % (2 * math.pi) if t != 0 else math.nan


# -- separable kernels with exponential form factors that are not even -----------------

def exponential_transform(p, s, w):
    """Int e^{-p|x| + s x} e^{iwx} dx = 1/(p - s - iw) + 1/(p + s + iw), p > |s|."""
    return 1 / (p - s - 1j * w) + 1 / (p + s + 1j * w)


def skewed_kernel_coefficients(g, h, alpha, beta, lam, k, dps=30) -> tuple:
    """(T_lr, R_lr, T_rl, R_rl) of the kernel with form factors
    e^{-p|x| + s x}, (p, s) = g and h, in mpmath at ``dps`` digits, by the
    causal route: u = Int_{-inf}^{x} sin(k(x - y))/k g(y) e^{i alpha y} dy in
    closed form, U = Int h e^{i beta x} u by one quadrature, the transforms
    G-+ = Int g e^{i alpha y} e^{-+iky} and H-+ likewise in closed form;
    den = 1 - lam (U - (i/2k) G+ H-), c = H+/den from the left and H-/den
    from the right, T_lr = 1 - lam c (i/2k) G-, R_lr = -lam c (i/2k) G+,
    T_rl = 1 - lam c (i/2k) G+ and R_rl = -lam c (i/2k) G-."""
    import mpmath as mp

    with mp.workdps(dps):
        (pg, sg), (ph, sh) = ([mp.mpf(x) for x in f] for f in (g, h))
        k, alpha, beta = mp.mpf(k), mp.mpf(alpha), mp.mpf(beta)
        g_m, g_p = (exponential_transform(pg, sg, alpha - sign * k) for sign in (1, -1))
        h_m, h_p = (exponential_transform(ph, sh, beta - sign * k) for sign in (1, -1))

        def upto(kappa, x):     # Int_{-inf}^{x} g e^{i alpha y} e^{i kappa y} dy
            left, right = pg + sg + 1j * (alpha + kappa), -pg + sg + 1j * (alpha + kappa)
            if x <= 0:
                return mp.exp(left * x) / left
            return 1 / left + mp.expm1(right * x) / right

        def hu(x):
            u = (mp.exp(1j * k * x) * upto(-k, x) - mp.exp(-1j * k * x) * upto(k, x)) / (2j * k)
            return mp.exp(-ph * abs(x) + sh * x + 1j * beta * x) * u

        n_plus = mp.quad(hu, [-mp.inf, 0, mp.inf]) - 0.5j / k * g_p * h_m
        den, free = 1 - lam * n_plus, 0.5j / k
        c_left, c_right = h_p / den, h_m / den
        return tuple(complex(z) for z in (1 - lam * c_left * free * g_m, -lam * c_left * free * g_p,
                                          1 - lam * c_right * free * g_p, -lam * c_right * free * g_m))
