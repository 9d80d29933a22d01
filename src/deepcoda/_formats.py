"""The text formats the program reads and writes: numbers, CSV rows, ``key = value`` lines."""

import functools
import math
from pathlib import Path

import numpy as np

# A float written with 17 significant digits reads back as the same double.
NUMBER = "%.17g"

_SPECIALS = frozenset(',"\r\n')


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, quotes doubled, if it holds , " \\r or \\n.

    ``csv.writer(..., lineterminator="\\n")`` leaves a bare \\r unquoted, and
    a reader then splits the row there.
    """
    return text if _SPECIALS.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _field_text(field) -> str:
    return NUMBER % field if isinstance(field, float) else str(field)


def csv_row(fields) -> str:
    """One CSV line, ending in \\n, of ``fields``.

    A float (numpy float64 included) is written as ``NUMBER``, any other
    field as ``str``.
    """
    return ",".join(map(csv_field, map(_field_text, fields))) + "\n"


def csv_table(header, rows) -> str:
    """The CSV lines of ``header``, then of each of ``rows``."""
    return "".join(map(csv_row, [header, *rows]))


def utf8_text(path, data: bytes) -> str:
    """``data``, the bytes of the file ``path``, decoded as UTF-8.

    A byte that is not UTF-8 raises ValueError ``path:line: ...``, with the
    line as csv counts lines and the byte's offset in the file.
    """
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].splitlines())
        raise ValueError(f"{path}:{line}: {exc}") from None


def parse_file(path, parse):
    """``parse`` of the text of the file ``path``; its ValueErrors name the file."""
    text = utf8_text(path, Path(path).read_bytes())
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def key_values(text: str, where: str):
    """Yield ``(line_no, key, value)`` for each ``key = value`` line of ``text``.

    ``#`` starts a comment anywhere on a line, and blank lines are skipped.
    Raises ValueError, prefixed ``"{where} {line_no}"``, at a line without
    ``=`` or with a key seen before.
    """
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{where} {line_no}: expected 'key = value'")
        if key in seen:
            raise ValueError(f"{where} {line_no}: duplicate key {key!r}")
        seen.add(key)
        yield line_no, key, value.strip()


# --- NUMBER for whole arrays --------------------------------------------------
#
# ``_number_cells`` writes %.17g exactly, without a Python format per number.
# A value x = m * 2**e (m the 53-bit significand) with decimal exponent X
# (10**X <= |x| < 10**(X + 1)) has the 17-digit significand round(m * 5**k *
# 2**(e + k)), k = 16 - X. For 1e-11 <= |x| < 2**52, k lies in [1, 27], so
# 5**k fits in 64 bits and m * 5**k in two 64-bit limbs (< 2**116); and e + k
# <= 0, so the product is shifted right by s = -(e + k) bits, with 0 <= s <=
# 62, and rounded half to even, as printf rounds. Everything else (zero,
# subnormals, inf, nan, tiny and huge values) is formatted by ``%``.
#
# Each number is laid out in a 48-byte cell of six little-endian uint64
# words; NUL bytes are dropped at the end, so a cell may have holes:
#   byte 0: "-" or NUL;  bytes 1-5: "0." and zeros, for -4 <= X <= -1;
#   bytes 6, 8, ..., 38: the 17 digits, each followed by a slot that holds the
#   decimal point after digit X (or after the first digit in e-notation);
#   bytes 40-43: "e-XX" for X < -4;  byte 44: the separator.
# Which literals a cell holds, and which digits it shows (%g drops trailing
# zeros after the point), depends only on X and the significant-digit count.

_U64 = np.uint64  # every operand of the integer arithmetic stays uint64 or int64, never mixed
_MIN_X, _MAX_X = -11, 15
_CELL = 48
_SEPARATOR = 44
# Cells per tile of ``cell_lines``: 768 KiB of cells, which stay in a 2 MiB L2 cache.
_TILE_CELLS = 1 << 14


def _ceil_power_of_ten(exponent: int) -> float:
    """The smallest double >= 10**exponent."""
    from fractions import Fraction  # imported on first use, as the tables are built

    power = Fraction(10) ** exponent
    nearest = float(power)
    return nearest if Fraction(nearest) >= power else math.nextafter(nearest, math.inf)


@functools.cache
def _number_tables():
    """Lookup tables, built on first use.

    (the smallest double >= 10**X for X in [_MIN_X, _MAX_X + 1], 5**k,
    4-digit chunks, their trailing zeros, layout literals, shown digits)
    """
    ceil10 = np.array([_ceil_power_of_ten(x) for x in range(_MIN_X, _MAX_X + 2)])
    pow5 = np.array([5**k for k in range(16 - _MIN_X + 1)], dtype=_U64)
    chunk = np.arange(10_000)
    digits = np.zeros((10_000, 8), dtype=np.uint8)  # 4 digits, each followed by a NUL slot
    for j, scale in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * j] = chunk // scale % 10 + ord("0")
    trailing = np.zeros(10_000, dtype=np.int64)
    for scale in (10, 100, 1000, 10_000):
        trailing += chunk % scale == 0
    n_keys = (_MAX_X - _MIN_X + 1) * 17
    literals = np.zeros((n_keys, _CELL), dtype=np.uint8)
    shown = np.full((n_keys, _CELL), 0xFF, dtype=np.uint8)
    for exponent in range(_MIN_X, _MAX_X + 1):
        for n_digits in range(1, 18):
            key = (exponent - _MIN_X) * 17 + n_digits - 1
            cell = literals[key]
            if exponent >= 0:  # ddd.ddd: the integer part keeps its zeros
                kept = max(n_digits, exponent + 1)
                if n_digits > exponent + 1:
                    cell[7 + 2 * exponent] = ord(".")
            elif exponent >= -4:  # 0.000ddd
                kept = n_digits
                cell[1 : 2 - exponent] = np.frombuffer(b"0." + b"0" * (-exponent - 1), np.uint8)
            else:  # d.ddde-XX
                kept = n_digits
                if n_digits > 1:
                    cell[7] = ord(".")
                cell[40:44] = np.frombuffer(b"e-%02d" % -exponent, np.uint8)
            shown[key, 6 + 2 * kept : 40 : 2] = 0
    tables = (ceil10, pow5, digits.view(_U64).ravel(), trailing, literals.view(_U64),
              shown.view(_U64))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _significands(bits, exponent, pow5):
    """round(x / 10**(exponent - 16)), half to even, for the bits of x > 0 in the exact range."""
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    p = np.take(pow5, 16 - exponent)
    low32 = _U64(0xFFFFFFFF)
    m_lo, m_hi = m & low32, m >> _U64(32)
    p_lo, p_hi = p & low32, p >> _U64(32)
    mid = m_hi * p_lo + m_lo * p_hi  # < 2**53 + 2**63
    low0 = m_lo * p_lo
    low = low0 + (mid << _U64(32))
    high = m_hi * p_hi + (mid >> _U64(32)) + (low < low0)
    # x = m * 2**(e - 1075) for the biased exponent e, so s = 1075 - e - k.
    shift = (_U64(1075 - 16) - (bits >> _U64(52))) + exponent.view(_U64)
    # Round half to even: add 2**(s - 1) - 1 plus the lowest kept bit, then cut.
    mask = (_U64(1) << shift) - _U64(1)
    half = mask - (mask >> _U64(1))  # 2**(s - 1), or 0 when s = 0
    low_up = low + ((half + ((low >> shift) & _U64(1)) - _U64(1)) & mask)
    high += low_up < low
    # (high << 1) << (63 - s) is high << (64 - s) without a 64-bit shift.
    return ((high << _U64(1)) << (_U64(63) - shift)) | (low_up >> shift)


def _number_cells(flat: np.ndarray) -> np.ndarray:
    """``NUMBER % x`` for each x of a 1-D float64 array, as an N x _CELL uint8 array of cells.

    Each cell's separator byte, ``_SEPARATOR``, is left NUL for its finisher.
    """
    ceil10, pow5, digit_chunks, trailing, literals, shown = _number_tables()
    magnitude = np.abs(flat)
    exact = (magnitude >= ceil10[0]) & (magnitude < 2.0**52)
    magnitude[~exact] = 1.0  # any value in range; these lanes are written by "%"
    # floor(log10|x|) may be one off next to a power of ten; the table of
    # rounded-up powers of ten gives X exactly.
    guess = np.clip(np.floor(np.log10(magnitude)).astype(np.int64), _MIN_X, _MAX_X) - _MIN_X
    exponent = guess - (magnitude < ceil10[guess]) + (magnitude >= ceil10[guess + 1]) + _MIN_X
    significand = _significands(magnitude.view(_U64), exponent, pow5)
    carried = significand == _U64(10**17)  # rounded up to the next power of ten
    significand[carried] = _U64(10**16)
    exponent += carried

    # 17 digits: the first one, then four 4-digit chunks.
    high8, low8 = np.divmod(significand.view(np.int64), 10**8)
    first, high8 = np.divmod(high8, 10**8)
    chunks = np.empty((flat.size, 4), dtype=np.int64)
    chunks[:, 0], chunks[:, 1] = np.divmod(high8, 10_000)
    chunks[:, 2], chunks[:, 3] = np.divmod(low8, 10_000)
    zeros = trailing[chunks[:, 3]]
    for j in (2, 1, 0):  # a chunk's zeros count only after an all-zero chunk
        more = np.flatnonzero(zeros == 4 * (3 - j))
        zeros[more] += trailing[chunks[more, j]]

    key = (exponent - _MIN_X) * 17 + (16 - zeros)
    cells = np.take(literals, key, axis=0)
    cells[:, 1:5] |= digit_chunks[chunks]
    short = np.flatnonzero(zeros)
    cells[short, 1:5] &= shown[key[short], 1:5]
    lead = (first.view(_U64) + _U64(ord("0"))) << _U64(48)
    lead |= (flat < 0).astype(_U64) * _U64(ord("-"))
    cells[:, 0] |= lead

    text = cells.view(np.uint8)
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        width = _SEPARATOR
        written = [(NUMBER % x).encode().ljust(width, b"\0") for x in flat[inexact].tolist()]
        text[inexact, :width] = np.frombuffer(b"".join(written), dtype=np.uint8).reshape(-1, width)
    return text


def text_cells(texts) -> np.ndarray:
    """Byte strings without NUL as an N x w uint8 array of NUL-padded cells, w the longest length."""
    cells = np.array(texts, dtype=bytes)
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def cell_lines(first, numbers, last) -> bytes:
    """One line per row: its ``first`` text, each of its ``numbers`` as ``NUMBER``, its ``last`` text.

    The fields are separated by ``,`` and each line ends in ``\\n``. ``first``
    and ``last`` are N x w uint8 cells (``text_cells``), written without their
    NUL padding; ``numbers`` is an N x k float array. Each tile of rows is
    laid out as a byte array with NUL holes, and one ``translate`` drops them.
    """
    n_rows, n_cols = np.shape(numbers)
    numbers = np.asarray(numbers, dtype=np.float64)
    tile = max(1, _TILE_CELLS // max(n_cols, 1))
    return b"".join(_tile_lines(first[i : i + tile], numbers[i : i + tile], last[i : i + tile])
                    for i in range(0, n_rows, tile))


def _tile_lines(first, numbers, last) -> bytes:
    """``cell_lines`` of one tile of rows."""
    n_rows, n_cols = numbers.shape
    head, tail = first.shape[1], last.shape[1]
    width = n_cols * _CELL
    buffer = bytearray(n_rows * (head + 1 + width + tail + 1))
    rows = np.frombuffer(buffer, dtype=np.uint8).reshape(n_rows, -1)
    rows[:, :head] = first
    rows[:, head] = ord(",")
    if n_cols:
        cells = _number_cells(np.ascontiguousarray(numbers).ravel())
        cells[:, _SEPARATOR] = ord(",")
        rows[:, head + 1 : head + 1 + width] = cells.reshape(n_rows, width)
    rows[:, head + 1 + width : -1] = last
    rows[:, -1] = ord("\n")
    return bytes(buffer.translate(None, b"\0"))
