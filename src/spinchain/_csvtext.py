"""``'%.12g'`` CSV text for a block of floats, byte for byte, from numpy tables.

Each value becomes five 8-byte words, and deleting their NUL bytes leaves
exactly the text Python's ``'%.12g' % x`` gives, followed by the separator:

- a prefix word: ``-`` for a set sign bit, and ``0.`` plus leading zeros
  when the decimal exponent X is -4..-1;
- three digit words: the 12-digit mantissa m in groups of four from a
  10,000-entry table, each digit followed by ``.``; an AND mask keeps the
  point only where ``%g`` puts one and turns the digits it drops (trailing
  zeros of the fraction) to NUL;
- an exponent word: ``e±XX`` (three digits from 100) outside -4 <= X < 12,
  then ``,`` or a newline.

The mantissa is m = rint(|x| * 10**(11 - X)) with a correctly rounded power
of ten, so the product is within 2.3e-4 of the exact one, and m is exact
unless that product is within ``_TIE_MARGIN`` of a rounding tie. Such
values, non-finite ones and those outside [1e-290, 1e300] (zeros aside) are
formatted by ``_python_g12`` instead: about 0.1% of a fidelity trace.
"""

from __future__ import annotations

import numpy as np

_TIE_MARGIN = 1e-3
_FAST_MIN, _FAST_MAX = 1e-290, 1e300
_SEPARATORS = b",\n"

# correctly rounded 10**k, k = _POW_LO .. 308 (float() parses exactly)
_POW_LO = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW_LO, 309)])
_POW_AT = 11 - _POW_LO                          # _POW10[_POW_AT - X] = 10**(11 - X)

# exponent tables are indexed by X + _X_OFF
_X_OFF = 310
_X = np.arange(-_X_OFF, _X_OFF + 1)
_X_SPAN = _X.size


def _words(byte_rows: np.ndarray) -> np.ndarray:
    """(k, 8·w) uint8 rows as (k, w) native uint64 words."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)


def _digit_tables():
    """Per 4-digit group: its text, each digit followed by ``.``, and the
    index of its last nonzero digit as the j-th group of the mantissa."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: its digits
    text = np.full((digits.shape[0], 8), ord("."), np.uint8)
    text[:, 0::2] = digits + ord("0")
    # -8 for an all-zero group, so a zero mantissa keeps its first digit:
    # max(-8, -8 + 4, -8 + 8) = 0
    nonzero = digits != 0
    last = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), -8)
    return (_words(text).ravel(),
            [(last + 4 * j).astype(np.int8) for j in range(3)])


_DIGIT_WORDS, _LAST_NONZERO = _digit_tables()
_CLASSES = 14


def _mask_tables() -> list[np.ndarray]:
    """AND words of the three digit words, per (last kept digit, point class).

    Point class c = 0..11 puts the point after digit c and keeps the digits
    up to it (fixed form, X = c); 12 is the exponent form (point after digit
    0); 13 is X = -4..-1, whose point is in the prefix. A point is kept only
    when a nonzero digit follows it.
    """
    last = np.arange(12)[:, None, None]        # last nonzero digit L
    klass = np.arange(_CLASSES)[None, :, None]
    digit = np.arange(12)[None, None, :]
    point = np.where(klass == 12, 0, np.where(klass == 13, 12, klass))
    keep = digit <= np.maximum(last, np.where(klass == 13, 0, point))
    has_point = (digit == point) & (last > point)
    span = np.zeros((12, _CLASSES, 24), np.uint8)
    span[..., 0::2] = np.where(keep, 0xFF, 0)
    span[..., 1::2] = np.where(has_point, 0xFF, 0)
    words = _words(span.reshape(-1, 24))
    return [np.ascontiguousarray(words[:, j]) for j in range(3)]


_SPAN_AND = _mask_tables()
_POINT_CLASS = np.where((_X >= 0) & (_X < 12), _X,
                        np.where((_X >= -4) & (_X < 0), 13, 12))


def _prefix_table() -> np.ndarray:
    """Words for (sign bit, X): ``-`` and, for X = -4..-1, ``0.`` and zeros."""
    text = np.zeros((2, _X_SPAN, 8), np.uint8)
    text[1, :, 0] = ord("-")
    small = (_X >= -4) & (_X < 0)
    text[:, small, 1] = ord("0")
    text[:, small, 2] = ord(".")
    for zero in range(1, 4):                    # X = -2 .. -4
        text[:, small & (_X <= -1 - zero), 2 + zero] = ord("0")
    return _words(text.reshape(-1, 8)).ravel()


def _exponent_table() -> np.ndarray:
    """Words for (separator, X): ``e±XX`` outside -4 <= X < 12, then the separator."""
    text = np.zeros((2, _X_SPAN, 8), np.uint8)
    exp = (_X < -4) | (_X >= 12)
    mag = np.abs(_X)
    text[:, exp, 0] = ord("e")
    text[:, exp, 1] = np.where(_X < 0, ord("-"), ord("+"))[exp]
    text[:, exp & (mag >= 100), 2] = (mag // 100 + ord("0"))[exp & (mag >= 100)]
    text[:, exp, 3] = (mag // 10 % 10 + ord("0"))[exp]
    text[:, exp, 4] = (mag % 10 + ord("0"))[exp]
    # the separator right after the last byte written
    sep_at = np.where(exp, 5, 0)
    for k, sep in enumerate(_SEPARATORS):
        text[k, np.arange(_X_SPAN), sep_at] = sep
    return _words(text.reshape(-1, 8)).ravel()


_PREFIX_WORDS = _prefix_table()
_EXPONENT_WORDS = _exponent_table()


def _python_g12(values: list[float]) -> list[str]:
    """The values ``%.12g`` formats one at a time: ties, non-finite, extreme."""
    return ["%.12g" % v for v in values]


def format_block(block: np.ndarray) -> bytes:
    """The ``%.12g`` CSV rows of a 2-D float64 block, comma-separated."""
    k, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    np.copyto(a, 1.0, where=~fast)

    # the decimal exponent: log10 is within an ulp, so its floor is off by
    # at most one, next to a power of ten, and one step brings m into
    # [1e11, 1e12] (m = 1e12 is the carry below)
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * _POW10[_POW_AT - e]
    off = np.flatnonzero((scaled >= 1e12) | (scaled < 1e11))
    if off.size:
        e[off] += np.where(scaled[off] >= 1e12, 1, -1)
        scaled[off] = a[off] * _POW10[_POW_AT - e[off]]
    scaled *= fast                              # m = 0 off the fast path
    m = np.rint(scaled)
    slow = np.abs(scaled - m) >= 0.5 - _TIE_MARGIN
    slow |= ~fast
    slow = np.flatnonzero(slow)
    slow = slow[x[slow] != 0]                   # m = 0, X = 0: "0" or "-0"
    carry = np.flatnonzero(m == 1e12)           # 999999999999.5 -> 1e+12
    e[carry] += 1
    m[carry] = 1e11
    xi = e + _X_OFF

    g0 = np.floor(m / 1e8)                      # exact: m < 2**53
    m -= g0 * 1e8
    g1 = np.floor(m / 1e4)
    m -= g1 * 1e4
    groups = [g.astype(np.intp) for g in (g0, g1, m)]
    last = np.maximum(_LAST_NONZERO[0][groups[0]], _LAST_NONZERO[1][groups[1]])
    span = np.maximum(last, _LAST_NONZERO[2][groups[2]], dtype=np.intp)
    span *= _CLASSES
    span += _POINT_CLASS[xi]

    out = np.empty((x.size, 5), np.uint64)
    out[:, 0] = _PREFIX_WORDS[xi + np.signbit(x) * _X_SPAN]
    for j, g in enumerate(groups):
        np.bitwise_and(_DIGIT_WORDS[g], _SPAN_AND[j][span], out=out[:, 1 + j])
    sep = np.zeros(cols, np.intp)
    sep[-1] = _X_SPAN
    out[:, 4] = _EXPONENT_WORDS[(xi.reshape(k, cols) + sep).ravel()]

    if slow.size:
        ends = np.where(slow % cols == cols - 1, _SEPARATORS[1], _SEPARATORS[0])
        text = [s.encode() + bytes((c,)) for s, c in
                zip(_python_g12(x[slow].tolist()), ends.tolist())]
        out[slow] = np.array(text, dtype="S40").view(np.uint64).reshape(-1, 5)
    return out.tobytes().translate(None, b"\0")
