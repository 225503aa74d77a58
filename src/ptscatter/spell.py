"""Numbers spelled as CPython spells them, a whole column at a time.

``floats(x, style)`` turns a float64 column into fixed-width ASCII fields,
padded with NULs, one per value: with the NULs deleted, a field reads as
``"%.17g" % v`` (style ``"%.17g"``) or ``json.dumps(v)`` (``"json"``, which
is ``float.__repr__(v)`` but at NaN and +-inf), byte for byte.  ``integers``
and ``words`` do the same for int and for index columns.  A field array has
one row per character slot and one column per value, so that one slot of
every field is one contiguous row.

Finite values with 1e-250 <= |v| <= 1e250 are spelled here.  Each is
scaled to v = |x| 10^(16 - X), X = floor(log10 |x|), by a Dekker product
with a double-double power of ten: v = Vi + f with Vi an exact int64 of 17
digits and f in [0, 1), off by less than 1e-13.  ``%.17g`` rounds Vi + f to
an integer; json takes repr's digits, the fewest leading digits whose
rounded value lies strictly inside x's rounding interval (half an ulp
either side, a quarter below a power of two), as David Gay's shortest mode
does, deciding each rounding from the int64 remainder plus f.  CPython spells, one at a time,
every value outside the range and each value these cannot decide: f or a
candidate's distance within 1e-6 of a tie or an interval edge, and below a
power of two a farther candidate above x that may fit.
"""

from __future__ import annotations

import numpy as np

from .core import _split, _two_product

_CPYTHON = {"%.17g": "%.17g".__mod__, "json": float.__repr__}
_NAMES = {"%.17g": ("nan", "inf", "-inf", "0", "-0"),
          "json": ("NaN", "Infinity", "-Infinity", "0.0", "-0.0")}
#: the largest decimal exponent spelled in fixed notation
_FIXED_UP_TO = {"%.17g": 16, "json": 15}
_P10 = 10 ** np.arange(19, dtype=np.int64)
_LOW, _HIGH = _P10[16], _P10[17]
#: a tie or an interval edge nearer than this, in units of the 17th digit,
#: is left to CPython; the scaled value is off by less than 1e-13
_MARGIN = 1e-6
_MANTISSA = np.uint64((1 << 52) - 1)

# 10^q as a double-double hi + lo for |q| <= _Q, each q filled when first used
_Q = 300
_TEN_HI, _TEN_LO = np.full(2 * _Q + 1, np.nan), np.zeros(2 * _Q + 1)


def _field(text: str, width: int) -> np.ndarray:
    return np.frombuffer(text.encode("ascii").ljust(width, b"\0"), dtype=np.uint8)


def _tens(q: np.ndarray):
    """(hi, lo) of 10^q over a column of q: hi correctly rounded and lo the
    correctly rounded rest, since int true division rounds correctly."""
    for j in range(int(q.min()), int(q.max()) + 1):
        if np.isnan(_TEN_HI[j + _Q]):
            num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
            hi = num / den
            n, d = hi.as_integer_ratio()
            _TEN_HI[j + _Q], _TEN_LO[j + _Q] = hi, (num * d - n * den) / (den * d)
    return _TEN_HI[q + _Q], _TEN_LO[q + _Q]


def _scaled(a, exp10):
    """a 10^(16 - exp10) as (Vi, f, 10^(16 - exp10)): an int64 column, one
    in [0, 1) and the power of ten rounded."""
    hi, lo = _tens(16 - exp10)
    p, err = _two_product(a, hi, *_split(a))      # p + err = a hi exactly
    whole = np.floor(p)
    t = (p - whole) + err + a * lo
    floor_t = np.floor(t)
    return whole.astype(np.int64) + floor_t.astype(np.int64), t - floor_t, hi


def _decimal(a):
    """(X, Vi, f, 10^(16 - X)) over a column of 1e-250 <= a <= 1e250:
    a = (Vi + f) 10^(X - 16)."""
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    vi, f, scale = _scaled(a, exp10)
    bad = np.flatnonzero((vi < _LOW) | (vi >= _HIGH))
    if bad.size:                # log10 was one off next to a power of ten
        exp10[bad] += np.where(vi[bad] >= _HIGH, 1, -1)
        vi[bad], f[bad], scale[bad] = _scaled(a[bad], exp10[bad])
        # within 1e-13 of a power of ten either scale may come out of range
        over, under = bad[vi[bad] >= _HIGH], bad[vi[bad] < _LOW]
        vi[over], f[over] = _HIGH - 1, 1.0 - 2.0 ** -53
        vi[under], f[under] = _LOW, 0.0
    return exp10, vi, f, scale


def _significant(digits) -> np.ndarray:
    """The digits of each 17-digit int less its trailing zeros."""
    sig = np.full(len(digits), 17)
    at = np.flatnonzero(digits % 10 == 0)
    rest, zeros = digits[at] // 10, 1
    for step in (8, 4, 2, 1):       # at most 16 zeros
        more = rest % _P10[step] == 0
        rest = np.where(more, rest // _P10[step], rest)
        zeros = zeros + step * more
    sig[at] -= zeros
    return sig


def _shortest(a, scale, vi, f, digits, sig, unsure):
    """Puts repr's digits of each a into ``digits`` (17-digit ints, 10^17
    where they round up to the next power of ten) and their number into
    ``sig``, searched down from the %.17g digits; ``scale`` is the power of
    ten that gave (vi, f).  Marks in ``unsure`` the values it cannot decide.

    "Some p-digit number lies inside the interval" holds for every p above
    the shortest, and a decided probe of p tells whether it holds: the
    nearest p digits fit, or neither they nor (below a power of two) the
    candidate above do.  So each value probes start - 1, start - 2, start -
    4, ... until one fails, then bisects: 16 and 17 digits take one or two
    probes, and no value more than eight.  A distance is exact while it is
    small enough to matter: the interval is < 11.2 units wide."""
    live = np.flatnonzero((sig > 1) & ~unsure)
    a, vi, f, start = a[live], vi[live], f[live], sig[live].astype(np.int8)
    half_up = 0.5 * np.spacing(a) * scale[live]     # half an ulp, in 17th-digit units
    pow2 = (a.view(np.uint64) & _MANTISSA) == 0
    half_down = np.where(pow2, 0.5 * half_up, half_up)
    lo, hi = np.zeros_like(start), start            # digit counts that fail and that fit
    while live.size:
        probe = np.where(lo > 0, (lo + hi) // 2, np.maximum(2 * hi - start - (hi == start), 1))
        m = _P10[17 - probe]
        q = vi // m
        r = vi - q * m
        half = m // 2
        down = r < half
        gap = np.where(down, r + f, (m - r) - f)
        edge = np.where(down, half_down, half_up)
        inside = gap < edge
        near = (np.abs(gap - edge) < _MARGIN) | (np.abs((r - half) + f) < _MARGIN)
        # below a power of two, the candidate above may fit where the nearer one does not
        twos = np.flatnonzero(pow2 & down & ~inside)
        near[twos] |= (m[twos] - r[twos]) - f[twos] <= half_up[twos] + _MARGIN
        unsure[live[near]] = True
        ok = inside & ~near
        at = np.flatnonzero(ok)
        digits[live[at]], sig[live[at]] = (q[at] + ~down[at]) * m[at], probe[at]
        hi, lo = np.where(ok, probe, hi), np.where(ok | near, lo, probe)
        more = np.flatnonzero(~near & (hi - lo > 1))
        live, vi, f, start, half_up, half_down, pow2, lo, hi = (
            v[more] for v in (live, vi, f, start, half_up, half_down, pow2, lo, hi))


def _digits(n) -> np.ndarray:
    """The 17 decimal digits of each int64 in [0, 10^17), a (17, N) uint8 array."""
    out = np.empty((17, len(n)), dtype=np.uint8)
    high = n // 10 ** 9
    for part, last, count in ((n - high * 10 ** 9, 16, 9), (high, 7, 8)):
        part = part.astype(np.uint32)
        for j in range(last, last - count, -1):
            q = part // 10
            out[j] = part - q * 10
            part = q
    return out


def _where(mask, char: str):
    return mask.view(np.uint8) * np.uint8(ord(char))


def _layout(negative, exp10, digits, sig, fixed_up_to: int, point_zero: bool) -> np.ndarray:
    """Fields of the 17-digit ints ``digits``, of ``sig`` significant
    digits, times 10^(exp10 - 16): fixed notation for -4 <= exp10 <=
    fixed_up_to, trailing zeros dropped, else d.ddde+XX; ``point_zero``
    writes a whole number with ".0".  A slot that no value uses is left out."""
    d = _digits(digits)
    fixed = (exp10 >= -4) & (exp10 <= fixed_up_to)
    whole, small = fixed & (exp10 >= 0), fixed & (exp10 < 0)
    keep = np.where(whole, np.maximum(sig, exp10 + 1 + point_zero), sig)
    point = np.where(whole, np.where(keep > exp10 + 1, exp10, -1), np.where(fixed | (sig == 1), -1, 0))
    rows = [_where(negative, "-")] if negative.any() else []
    if small.any():
        rows += [_where(small, "0"), _where(small, ".")]
        rows += [_where(small & (exp10 <= below), "0") for below in (-2, -3, -4)
                 if np.any(small & (exp10 <= below))]
    d += np.uint8(ord("0"))
    d *= np.arange(17)[:, None] < keep
    points = np.flatnonzero(np.bincount(point + 1, minlength=18)[1:17])
    for lo, hi in zip(np.concatenate([[0], points + 1]), np.concatenate([points + 1, [17]])):
        rows.append(d[lo:hi])
        if hi < 17:
            rows.append(_where(point == hi - 1, "."))
    exp = ~fixed
    if exp.any():
        e = np.abs(exp10)
        rows += [_where(exp, "e"), np.where(exp10 < 0, _where(exp, "-"), _where(exp, "+"))]
        hundreds = exp & (e >= 100)
        if hundreds.any():
            rows.append(_where(hundreds, "0") + hundreds * (e // 100).astype(np.uint8))
        rows += [_where(exp, "0") + exp * (e // 10 % 10).astype(np.uint8),
                 _where(exp, "0") + exp * (e % 10).astype(np.uint8)]
    return np.vstack(rows)


def floats(x, style: str = "%.17g", nulls=None) -> np.ndarray:
    """Fields, a (width, len(x)) uint8 array, of a float64 column in
    ``style`` ("%.17g" or "json"); ``nulls`` marks values spelled
    ``null``."""
    x = np.asarray(x, dtype=np.float64)
    if not len(x):
        return np.zeros((1, 0), dtype=np.uint8)
    a = np.abs(x)
    fast = (a >= 1e-250) & (a <= 1e250)
    everywhere = bool(fast.all())
    if not everywhere:
        a = np.where(fast, a, 1.0)
    exp10, vi, f, scale = _decimal(a)
    digits = vi + (f > 0.5)
    unsure = np.abs(f - 0.5) < _MARGIN
    carry = digits == _HIGH
    digits[carry] = _LOW
    sig = _significant(digits)
    if style != "%.17g":
        exp10 = exp10 + carry       # the carried values keep their one digit
        _shortest(a, scale, vi, f, digits, sig, unsure)
        carry = digits == _HIGH
        digits[carry], sig[carry] = _LOW, 1
    out = _layout(np.signbit(x), exp10 + carry, digits, sig, _FIXED_UP_TO[style], style != "%.17g")
    named = []                  # (text, mask of the values it spells), in writing order
    if not everywhere:
        nan_name, inf_name, minus_inf, zero, minus_zero = _NAMES[style]
        named += [(nan_name, np.isnan(x)), (inf_name, x == np.inf), (minus_inf, x == -np.inf),
                  (zero, (x == 0) & ~np.signbit(x)), (minus_zero, (x == 0) & np.signbit(x))]
        unsure |= ~fast & np.isfinite(x) & (x != 0)
    if nulls is not None:
        named.append(("null", nulls))
        unsure &= ~nulls
    named = [(text, mask) for text, mask in named if mask.any()]
    undecided = np.flatnonzero(unsure)
    spelled = [_CPYTHON[style](v).encode("ascii") for v in x[undecided].tolist()]
    width = max([len(text) for text, _ in named] + list(map(len, spelled)), default=0)
    if width > len(out):
        out = np.vstack([out, np.zeros((width - len(out), len(x)), dtype=np.uint8)])
    for text, mask in named:
        out[:, mask] = _field(text, len(out))[:, None]
    if spelled:
        fields = b"".join(text.ljust(len(out), b"\0") for text in spelled)
        out[:, undecided] = np.frombuffer(fields, dtype=np.uint8).reshape(-1, len(out)).T
    return out


def integers(x) -> np.ndarray:
    """Fields of an int column as ``"%d"`` and ``int.__repr__`` spell it."""
    x = np.asarray(x, dtype=np.int64)
    if not len(x):
        return np.zeros((1, 0), dtype=np.uint8)
    width = max(len(str(int(x.min()))), len(str(int(x.max()))))
    out = np.zeros((width, len(x)), dtype=np.uint8)
    magnitude = np.abs(x)
    for j in range(width - 1, -1, -1):      # a negative value leaves slot 0 for its sign
        q = magnitude // 10
        out[j] = np.where((magnitude > 0) | (j == width - 1), ord("0") + magnitude - 10 * q, 0)
        magnitude = q
    out[0] = np.where(x < 0, ord("-"), out[0])
    return out


def words(index, texts) -> np.ndarray:
    """Fields of ``texts[i]`` for each i of an int or bool column."""
    width = max(map(len, texts))
    table = np.stack([_field(t, width) for t in texts], axis=1)
    return table[:, np.asarray(index, dtype=np.intp)]
