"""The text of float64 blocks, byte for byte what ``repr`` writes.

:func:`reprs` turns an array of floats into an (n, 24) uint8 matrix whose
row i holds ``repr(float(values[i]))``, padded with NUL.  The shortest
round-trip digits of every finite nonzero float, subnormals included, come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) in
uint64 arithmetic, each step one numpy operation over the whole block; zeros,
infinities and NaN take constant rows.  Every integer constant mixed with a
uint64 array is an ``np.uint64``: before NEP 50, numpy promotes uint64 mixed
with a signed integer to float64.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest repr of a float64: "-1.2345678901234567e-100"

_U = np.uint64
_M32, _M63, _S32, _S63 = _U(2**32 - 1), _U(2**63 - 1), _U(32), _U(63)
_K_MIN, _K_MAX = -324, 292


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """Row k - _K_MIN holds g = floor(10^-k * 2^(125 - r)) + 1, r = floor(log2 10^-k),
    as its 63-bit halves: 2^125 <= g < 2^126.  Each 10^n is one multiply from
    the last."""
    g = [0] * (_K_MAX - _K_MIN + 1)
    p = 1
    for n in range(-_K_MIN + 1):  # p = 10^n
        if n:
            p *= 10
        r = p.bit_length() - 1
        g[-n - _K_MIN] = (p << (125 - r) if r <= 125 else p >> (r - 125)) + 1
        if 0 < n <= _K_MAX:  # 10^-n lies strictly between 2^-bits and 2^(1 - bits)
            g[n - _K_MIN] = (1 << (125 + p.bit_length())) // p + 1
    return (np.array([x >> 63 for x in g], dtype=_U), np.array([x & (2**63 - 1) for x in g], dtype=_U))


_G1, _G0 = _g_table()

# the text of 0..9999, four ASCII digits each
_QUADS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _place in range(4):
    _QUADS[..., _place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - _place))
_P10 = np.array([10**i for i in range(18)], dtype=_U)

# The 32-byte source row of a number, as eight 4-digit groups: its 17
# significant digits, zero-padded on the right, in slots 3..19 (_DIGIT is
# the first); the three digits of |exponent| in slots 21..23 (_EXP is the
# first); then the constant bytes, each at the slot its name gives.
_DIGIT, _EXP = 3, 21
_QUADS32 = _QUADS.reshape(10_000, 4).view(np.uint32).ravel()
_CONST32 = np.frombuffer(b".0e+-\0\0\0", dtype=np.uint32)
_DOT, _ZERO, _E, _PLUS, _MINUS, _NUL = range(24, 30)
_FORMS = 24  # layouts per (sign, digit count)


def _layouts() -> np.ndarray:
    """The source slot of each output byte, one row per (sign, digit count,
    form): forms 0..19 are fixed notation with the decimal point after
    digit -3..16, forms 20..23 exponent notation with a negative or positive
    exponent of 2 or 3 digits.  ``repr`` takes exponent notation below 1e-4
    and from 1e16 on."""
    dot, zero, e, plus, minus, nul = (bytes([slot]) for slot in (_DOT, _ZERO, _E, _PLUS, _MINUS, _NUL))
    rows = []  # bytes, not lists: building no container keeps the collector from running at import
    for n in range(1, 18):
        digits = bytes(range(_DIGIT, _DIGIT + n))
        for point in range(-3, 17):
            if point <= 0:
                rows.append(zero + dot + zero * -point + digits)
            elif point < n:
                rows.append(digits[:point] + dot + digits[point:])
            else:
                rows.append(digits + zero * (point - n) + dot + zero)
        mantissa = digits[:1] + (dot + digits[1:] if n > 1 else b"")
        for sign in (minus, plus):
            for width in (2, 3):
                rows.append(mantissa + e + sign + bytes(range(_EXP + 3 - width, _EXP + 3)))
    rows = [row.ljust(WIDTH, nul) for row in rows]
    table = b"".join(rows + [minus + row[:-1] for row in rows])
    return np.frombuffer(table, dtype=np.uint8).reshape(-1, WIDTH).astype(np.intp)


_LAYOUTS = _layouts()


def _mulhi(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves;
    b comes as its halves b0 (low) and b1."""
    a0, a1 = a & _M32, a >> _S32
    cross0, cross1 = a1 * b0, a0 * b1
    mid = ((a0 * b0) >> _S32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> _S32) + (cross1 >> _S32) + (mid >> _S32)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2^127), its last bit set where the quotient is inexact."""
    cp0, cp1 = cp & _M32, cp >> _S32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0, cp0, cp1)
    return (_mulhi(g1, cp0, cp1) + (z >> _S63)) | (((z & _M63) + _M63) >> _S63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with f * 10^e the shortest decimal that rounds to each finite
    nonzero float64 of ``bits``, the nearest of them, and the one with an even
    last digit on a tie: Schubfach, section by section of Giulietti's paper.
    Zeros, infinities and NaN get an (f, e) of no meaning, f below 10^17."""
    biased = (bits >> _U(52)) & _U(0x7FF)  # the exponent field
    # a subnormal has no hidden bit and the least normal exponent
    c = (bits & _U(2**52 - 1)) | np.minimum(biased, _U(1)) << _U(52)
    q = np.maximum(biased, _U(1)).astype(np.int64) - 1075
    # the rounding interval is narrower below a power of two, unless the
    # exponent is the least normal one
    regular = (c != _U(2**52)) | (q == -1074)
    # k = floor(log10 of the interval's width), then h = q + floor(log2 10^-k) + 2,
    # in 2..5; Giulietti's integer forms of the logarithms, exact over these exponents
    k = (q * 661_971_961_083 - np.where(regular, 0, 274_743_187_321)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)
    cb = c << _U(2)
    cp = np.stack([cb, cb - np.where(regular, _U(2), _U(1)), cb + _U(2)]) << h
    vb, vbl, vbr = _rop(_G1[k - _K_MIN], _G0[k - _K_MIN], cp)
    out = c & _U(1)  # an odd significand excludes the interval's ends
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin, wpin = vbl + out <= sp10 << _U(2), (tp10 << _U(2)) + out <= vbr
    t = s + _U(1)
    uin, win = vbl + out <= s << _U(2), (t << _U(2)) + out <= vbr
    nearer = np.where((vb < (s + t) << _U(1)) | ((vb == (s + t) << _U(1)) & (s & _U(1) == _U(0))), s, t)
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(uin != win, np.where(uin, s, t), nearer))
    return f, k


# the rows of 0.0, -0.0, inf, -inf and NaN of either sign
_SPECIAL = np.array([b"0.0", b"-0.0", b"inf", b"-inf", b"nan", b"nan"], dtype=f"S{WIDTH}").view(np.uint8).reshape(6, WIDTH)


def reprs(values) -> np.ndarray:
    """An (n, 24) uint8 matrix: row i is ``repr(float(values[i]))`` in ASCII,
    padded with NUL, for the n entries of ``values`` raveled."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = values.view(_U)
    f, e = _shortest(bits)
    m = len(f)
    length = np.searchsorted(_P10, f, side="right")  # digits of f
    f = f * _P10[17 - length]  # 17 digits, the first nonzero
    top = f // _U(10**8)
    halves = np.stack([top % _U(10**8), f - top * _U(10**8)]).astype(np.uint32)
    fours = halves // np.uint32(10**4)
    point = e + length  # the decimal point's place after the first digit's
    exponent = np.abs(point - 1)
    source = np.empty((m, 8), dtype=np.uint32)  # 32 bytes, see _DIGIT
    source[:, 0] = _QUADS32[top // _U(10**8)]
    source[:, 1:5:2] = _QUADS32[fours.T]
    source[:, 2:5:2] = _QUADS32[(halves - fours * np.uint32(10**4)).T]
    source[:, 5] = _QUADS32[exponent]
    source[:, 6:] = _CONST32
    source = source.view(np.uint8)
    significant = 17 - np.argmax(source[:, 19:2:-1] != ord("0"), axis=1)
    form = np.where((point <= -4) | (point > 16), 20 + 2 * (point > 1) + (exponent >= 100), point + 3)
    row = ((bits >> _S63).astype(np.intp) * 17 + significant - 1) * _FORMS + form
    index = _LAYOUTS[row]
    index += np.arange(0, 32 * m, 32)[:, None]
    text = source.ravel()[index]
    special = (values == 0.0) | ~np.isfinite(values)
    rare = values[special]
    text[special] = _SPECIAL[np.signbit(rare) + 2 * np.isinf(rare) + 4 * np.isnan(rare)]
    return text
