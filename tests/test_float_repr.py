"""The vectorized float text (``entscat._digits.reprs``) against ``repr``.

Each row the kernel returns must be ``repr(float(v))`` byte for byte,
padded with NUL, on the inputs where shortest-digit algorithms go wrong:
random bit patterns, powers of two (whose rounding interval is lopsided) and
of ten, the points where ``repr`` switches between fixed and exponent
notation, integers near 2^53, short decimals, and zeros, subnormals,
infinities and NaN, which go through the same kernel without ``repr``, each
also negated.  The writers built on it must still equal the plain per-cell
writers on any floats.

Run as a script, it compares 2^24 random bit patterns (or the count given
as its argument) and a quarter as many patterns of the exponent fields 0, 1,
0x7FE and 0x7FF, and exits 1 on a mismatch.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import Axis, SweepGrid, _digits, write_csv, write_json
from entscat._digits import WIDTH, reprs
from test_grid_kernel import reference_csv, reference_json

CHUNK = 2**16


def expected(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value, NUL-padded to the kernel's width."""
    text = b"".join(repr(v).encode().ljust(WIDTH, b"\0") for v in values.tolist())
    return np.frombuffer(text, dtype=np.uint8).reshape(len(values), WIDTH)


def mismatches(values) -> list[str]:
    """Each value of ``values`` and its negation whose kernel row differs
    from its ``repr``, as "repr != kernel text"."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, -values])
    bad = []
    for first in range(0, len(values), CHUNK):
        chunk = values[first : first + CHUNK]
        got = reprs(chunk)
        for i in np.flatnonzero((got != expected(chunk)).any(axis=1)).tolist():
            bad.append(f"{float(chunk[i])!r} != {got[i].tobytes()!r}")
    return bad


def random_bits(count: int, seed: int) -> np.ndarray:
    """``count`` floats of uniformly random bit patterns."""
    return np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)


def special_exponents(count: int, seed: int) -> np.ndarray:
    """``count`` floats of random sign and significand bits, the significand
    shifted right by 0 to 52 places, whose exponent fields are 0, 1, 0x7FE
    and 0x7FF in turn: zeros and subnormals, the least and the greatest
    normal binade, infinities and NaN.  Random bit patterns hold the fields
    of zeros, subnormals, infinities and NaN 2 times in 2,048."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    significand = (bits & np.uint64(2**52 - 1)) >> rng.integers(0, 53, size=count, dtype=np.uint64)
    field = np.resize(np.array([0, 1, 0x7FE, 0x7FF], dtype=np.uint64), count) << np.uint64(52)
    return ((bits & np.uint64(2**63)) | field | significand).view(np.float64)


def with_neighbours(values, steps: int = 1) -> np.ndarray:
    """``values`` and the ``steps`` floats on either side of each."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (math.inf, -math.inf):
        near = out[0]
        for _ in range(steps):
            near = np.nextafter(near, direction)
            out.append(near)
    return np.concatenate(out)


def test_random_bit_patterns():
    assert mismatches(random_bits(2**20, 2020)) == []


def test_dense_special_exponents():
    assert mismatches(special_exponents(2**16, 1074)) == []


def test_powers_of_two_from_the_least_subnormal_to_the_greatest():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert powers[0] == 5e-324 and powers[-1] == 2.0**1023
    assert mismatches(with_neighbours(powers)) == []


def test_powers_of_ten():
    powers = [float(f"1e{n}") for n in range(-323, 309)]
    assert mismatches(with_neighbours(powers)) == []


def test_where_repr_switches_notation():
    # 1e16 is the least float written "1e+16"; 1e-4 the least written "0.0001"
    assert [repr(float(v)) for v in (np.nextafter(1e16, 0), 1e16, 1e-4, np.nextafter(1e-4, 0))] == [
        "9999999999999998.0", "1e+16", "0.0001", "9.999999999999999e-05"
    ]
    assert mismatches(with_neighbours([1e16, 1e-4, 1e-5, 9999999999999998.0, 1e17, 1e-3], steps=20)) == []


def test_integers():
    near = np.arange(2**53 - 2**12, 2**53 + 2**12, dtype=np.int64).astype(np.float64)
    small = np.arange(1, 2**16, dtype=np.float64)
    powers = [float(10**n) for n in range(23)] + [float(2**n) for n in range(64)]
    rng = np.random.default_rng(53)
    tens = 10 ** rng.integers(1, 16, size=2**14)
    trailing_zeros = (rng.integers(1, 2**53 // tens) * tens).astype(np.float64)  # below 2^53
    dyadic = rng.integers(1, 2**53, size=2**14) / 2.0 ** rng.integers(1, 60, size=2**14)
    assert mismatches(np.concatenate([near, small, powers, with_neighbours(powers), trailing_zeros, dyadic])) == []


def test_decimals_rounded_to_each_digit_count():
    rng = np.random.default_rng(17)
    values = rng.random(500) * 10.0 ** rng.integers(-30, 31, size=500)
    rounded = [float(f"{v:.{digits - 1}e}") for digits in range(1, 18) for v in values.tolist()]
    assert mismatches(rounded) == []


def test_zeros_subnormals_infinities_and_nan():
    specials = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308, 1e-310]
    subnormals = (random_bits(4096, 3).view(np.uint64) & np.uint64(2**52 - 1)).view(np.float64)
    assert mismatches(specials + list(subnormals)) == []
    assert reprs([math.nan, -0.0])[:, :5].tobytes() == b"nan\0\0-0.0\0"


def test_special_values_at_every_position_without_repr(monkeypatch):
    def no_repr(value):
        raise AssertionError(f"the kernel called repr({value!r})")

    monkeypatch.setattr(_digits, "repr", no_repr, raising=False)
    greatest_subnormal = np.nextafter(2.2250738585072014e-308, 0)
    specials = np.array([0.0, 5e-324, 1e-323, greatest_subnormal, math.inf])
    specials = np.concatenate([specials, -specials, [math.nan]])
    for shift in range(len(specials)):  # each value at every position of a block
        block = np.resize(np.roll(specials, shift), 2048)
        assert (reprs(block) == expected(block)).all()


def test_shape_and_padding():
    assert reprs(np.array([[0.5, -2.0], [1e300, 3.0]])).shape == (4, WIDTH)
    assert reprs([]).shape == (0, WIDTH)
    longest = -1.2345678901234567e-100
    assert reprs([longest]).tobytes() == repr(longest).encode()


cells = st.lists(st.floats(), min_size=2, max_size=40)
ends = st.floats(-1e300, 1e300)


@given(cells=cells, a=ends, b=ends, c=ends, d=ends)
@settings(max_examples=200, deadline=None)
def test_writers_match_the_reference_on_any_floats(cells, a, b, c, d):
    column = np.array(cells + cells[::-1])
    grid = SweepGrid(
        (Axis("omegaA", a, b, 2), Axis("omegaB", c, d, len(cells))),
        {"C_t": column, "P_t": -column, "C_r": column[::-1]},
        {"tool": "t"},
    )
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(grid, Path(tmp) / "g.csv")
        write_json(grid, Path(tmp) / "g.json")
        assert (Path(tmp) / "g.csv").read_bytes() == reference_csv(grid).encode("utf-8")
        assert (Path(tmp) / "g.json").read_bytes() == reference_json(grid).encode("utf-8")


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2**24
    bad, total = [], 0
    for first in range(0, count, 2**20):
        size = min(2**20, count - first)
        bad += mismatches(random_bits(size, first)) + mismatches(special_exponents(size // 4, first + 1))
        total += 2 * (size + size // 4)
    print(f"{len(bad)} of {total} values differ from repr", *bad[:20], sep="\n")
    sys.exit(1 if bad else 0)
