"""``write_path_csv``: the exact vectorized ``%.17g`` kernel and its checks.

Every table must come out with the bytes of the plain writer below, which
formats each row with Python's ``%``: cells from arbitrary bit patterns,
signed zeros, infinities, NaN, subnormals, exact rounding ties, powers of
ten and their neighbours, and the 1e-5/1e-4 and 1e16/1e17 notation
boundaries, in tables of 1 to 30 value columns and of one row, one block
and one block plus a row.  Every draw is derandomized.
"""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantsim.errors import DimensionError
from orthantsim.paths import (
    _CELL_FIXED,
    CSV_BLOCK_CELLS,
    _cell_buffers,
    _digit_words,
    _format_cells,
    read_path_csv,
    write_path_csv,
)


def reference_csv(times, values, header) -> str:
    """One ``%.17g`` row at a time: the writer the kernel must match."""
    out = io.StringIO()
    out.write(",".join(["t", *header]) + "\n")
    row = ",".join(["%.17g"] * (values.shape[1] + 1)) + "\n"
    for t, r in zip(times.tolist(), values):
        out.write(row % (t, *r.tolist()))
    return out.getvalue()


def kernel_csv(times, values, header) -> str:
    out = io.StringIO()
    write_path_csv(out, times, values, header)
    return out.getvalue()


def assert_same_bytes(table: np.ndarray):
    header = [f"x{k + 1}" for k in range(table.shape[1] - 1)]
    want = reference_csv(table[:, 0], table[:, 1:], header)
    got = kernel_csv(table[:, 0], table[:, 1:], header)
    # as lists of lines, so that a failure reports the first row that differs
    assert got.split("\n") == want.split("\n")


def from_bits(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def tie(k: int, r: int) -> float:
    """An odd multiple N of 2^-(k+1) with decimal exponent 16 - k, k = 1..24:
    x 10^k ends in an exact .5, a tie of the 17-digit rounding."""
    a = 2 ** (k + 1) * 10 ** 16
    first = -(-a // 10 ** k) | 1  # the least odd N with x >= 10^(16-k)
    end = min(-(-10 * a // 10 ** k), 2 ** 53)
    return math.ldexp(first + 2 * (r % ((end - first + 1) // 2)), -(k + 1))


def ten_neighbours(j: int) -> list[float]:
    p = float(f"1e{j}")
    return [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
            2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-05, 99999999999999984.0]

CELL = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1).map(from_bits),
    st.sampled_from(SPECIALS),
    st.integers(1, 2 ** 52 - 1).map(lambda m: math.ldexp(m, -1074)),
    st.builds(tie, st.integers(1, 24), st.integers(0, 2 ** 40)),
    st.integers(-30, 30).flatmap(lambda j: st.sampled_from(ten_neighbours(j))),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cells=st.lists(CELL | CELL.map(lambda v: -v), min_size=1, max_size=64),
       cols=st.integers(1, 30), size=st.sampled_from(["row", "block", "block+1"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_writes_the_bytes_of_the_row_formatter(cells, cols, size, seed):
    block_rows = max(1, CSV_BLOCK_CELLS // (cols + 1))
    rows = {"row": 1, "block": block_rows, "block+1": block_rows + 1}[size]
    pool = np.asarray(cells)
    table = np.random.default_rng(seed).permutation(np.resize(pool, rows * (cols + 1)))
    assert_same_bytes(table.reshape(rows, cols + 1))


def test_kernel_matches_on_random_bit_patterns():
    rng = np.random.default_rng(20161)
    # all float64 bit patterns, then ones with decimal exponents -12..17
    table = rng.integers(-2 ** 63, 2 ** 63 - 1, (10_000, 21)).view(np.float64)
    assert_same_bytes(table)
    sign = rng.integers(0, 2, table.shape).astype(np.uint64) << np.uint64(63)
    exponent = rng.integers(983, 1080, table.shape).astype(np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2 ** 52, table.shape).astype(np.uint64)
    assert_same_bytes((sign | exponent | mantissa).view(np.float64))


def test_kernel_matches_on_ties_and_powers_of_ten():
    cells = [tie(k, r) for k in range(1, 25) for r in range(0, 2 ** 40, 2 ** 33)]
    cells += [v for j in range(-30, 31) for v in ten_neighbours(j)]
    cells += SPECIALS
    table = np.asarray(cells + [-v for v in cells])
    assert_same_bytes(np.resize(table, (len(table) // 7 + 1, 7)))


def test_written_table_reads_back_bit_for_bit():
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 700)
    values = rng.standard_normal((700, 6)) * 10.0 ** rng.integers(-12, 17, (700, 6))
    values[::5] = 0.0
    buf = io.StringIO()
    write_path_csv(buf, times, values, [f"x{k}" for k in range(6)])
    buf.seek(0)
    t, v = read_path_csv(buf)
    assert t.tobytes() == times.tobytes() and v.tobytes() == values.tobytes()


# ------------------------------------------------- cell classes and blocks

def decimal_class(v: float) -> tuple[int, int, bool]:
    """(E, K, sign) of v's 17 significant digits: the decimal exponent, the
    last nonzero digit (0 = the lead) and whether the sign bit is set."""
    digits, exponent = ("%.16e" % abs(v)).split("e")
    return (int(exponent), len(digits.replace(".", "").rstrip("0")) - 1,
            math.copysign(1.0, v) < 0)


def class_cells() -> list[float]:
    """One cell of each class (E, K, sign), E in [-10, 15] and K in 0..16,
    each drawn as a K + 1 digit decimal until its own text is of that class."""
    rng = np.random.default_rng(23)
    cells = {}
    for E in range(-10, 16):
        for K in range(17):
            for sign in ("", "-"):
                for _ in range(200):
                    d = [rng.integers(1, 10), *rng.integers(0, 10, max(K - 1, 0)),
                         *rng.integers(1, 10, min(K, 1))]
                    v = float(f"{sign}{d[0]}.{''.join(map(str, d[1:]))}e{E}")
                    if decimal_class(v) == (E, K, sign == "-"):
                        cells[E, K, sign] = v
                        break
    return list(cells.values())


# every kind of cell the integer path leaves to "%": non-finite, subnormal,
# below 1e-10, at or above 1e16, and a cell whose estimated decade is one too
# high (float 1e-7 lies below 10^-7); and the two zeros, a template row
FALLBACK_CELLS = [math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 9.9e-11,
                  -1e-300, 1e16, -3.7e250, 1e-7, -1e-6, 0.0, -0.0]


def test_cells_cover_every_exponent_and_last_digit_class():
    cells = class_cells()
    # class (E, 0) holds only d 10^E, d = 1..9; for E = -7..-5 the double
    # nearest each of them has a nonzero 17th digit, so no double is of it
    empty = {(E, 0, sign) for E in range(-10, 16) for sign in (False, True)
             if all(decimal_class(float(f"{d}e{E}")) != (E, 0, False)
                    for d in range(1, 10))}
    assert sorted({E for E, _, _ in empty}) == [-7, -6, -5]
    assert len({decimal_class(v) for v in cells} | empty) == 26 * 17 * 2
    table = np.asarray(cells + FALLBACK_CELLS)
    assert_same_bytes(np.resize(table, (len(table) // 9 + 1, 9)))


@pytest.mark.parametrize("cut", [7 * 70, 7 * 70 + 3], ids=["row_end", "inside_row"])
def test_blocks_cut_anywhere_write_the_bytes_of_the_row_formatter(cut):
    # rows of 7 cells, formatted as two blocks through one set of buffers;
    # the second block is the shorter, so the first one's cells stay behind it
    cells = np.asarray(class_cells() + FALLBACK_CELLS)[::-1].copy()
    sep = np.resize(np.frombuffer(b",,,,,,\n", np.uint8), cells.size)
    want = "".join("%.17g" % v + chr(c) for v, c in zip(cells.tolist(), sep.tolist()))
    buffers = _cell_buffers(max(cut, cells.size - cut))
    got = (_format_cells(cells[:cut], sep[:cut], *buffers)
           + _format_cells(cells[cut:], sep[cut:], *buffers))
    assert got.split("\n") == want.split("\n")


def test_digit_words_are_the_zero_padded_decimal_digits():
    # every 4-digit value in both lanes, and the 8-digit edges
    lanes = np.arange(10_000, dtype=np.uint64)
    h = np.concatenate([lanes * 10_001, [0, 9_999, 10_000, 10 ** 8 - 1]]).astype(np.uint64)
    words = h.copy()
    _digit_words(words, np.empty_like(words))
    got = (words.view(np.uint8) + ord("0")).tobytes().decode("ascii")
    assert got == "".join("%08d" % v for v in h.tolist())


def test_a_block_of_cells_stays_under_the_mmap_threshold():
    # glibc maps every allocation of 128 KiB or more afresh, and each block
    # then faults its pages in again
    assert CSV_BLOCK_CELLS * _CELL_FIXED.shape[1] * _CELL_FIXED.itemsize < 128 * 1024


# ------------------------------------------------------------- bad inputs

@pytest.mark.parametrize("times, values, header, sizes", [
    (np.arange(3.0), np.zeros((2, 1)), ["x1"], ("3 times", "2 value rows")),
    (np.arange(2.0), np.zeros((2, 3)), ["x1", "x2"], ("2 header names", "3 columns")),
    (np.arange(3.0), np.zeros(3), ["x1"], ("2-d", "(3,)")),
], ids=["times_longer_than_rows", "header_shorter_than_columns", "one_dim_values"])
def test_mismatched_inputs_raise_dimension_error(times, values, header, sizes):
    buf = io.StringIO()
    with pytest.raises(DimensionError) as err:
        write_path_csv(buf, times, values, header)
    assert all(s in str(err.value) for s in sizes)
    assert buf.getvalue() == ""
