"""Exception types and the input rules shared across the package.

Contract violations (bad arguments, malformed input) raise ``ValueError``;
``NumericalError`` is reserved for breakdowns inside otherwise-valid
computations, so callers (notably the CLI) can map the two onto distinct
exit codes. The rules, one message each: ``integer``, ``odd_pinch``, ``real``
(a finite float), ``positive`` (and > 0) and ``reals`` (a sequence of finite
floats). Python and numpy numbers pass; bools, strings and ``None`` do not.
"""

import math

import numpy as np


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or broke down."""


def integer(name: str, value) -> int:
    """``value`` as an ``int``: Python and numpy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def odd_pinch(p) -> int:
    """The pinch ``p`` as an ``int``, refused unless it is a positive odd integer."""
    p = integer("p", p)
    if p < 1 or p % 2 == 0:
        raise ValueError(f"pinch p must be a positive odd integer, got {p}")
    return p


def _float(x) -> float:
    """A Python or numpy real as a ``float``; NaN for anything else, bools included."""
    if isinstance(x, bool) or not isinstance(x, (float, int, np.floating, np.integer)):
        return math.nan
    try:
        return float(x)
    except OverflowError:  # an int beyond the float range
        return math.inf


def real(name: str, x) -> float:
    """``x`` as a finite ``float``."""
    if not math.isfinite(value := _float(x)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return value


def positive(name: str, x) -> float:
    """``x`` as a finite ``float`` above zero."""
    if not 0.0 < (value := _float(x)) < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return value


def reals(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats; a 1-D float64 array takes one ``tolist()``."""
    if isinstance(values, np.ndarray) and values.dtype.char == "d" and values.ndim == 1:
        out = tuple(values.tolist())
    else:
        out = tuple(values)
        if not set(map(type, out)) <= {float}:  # numpy scalars, ints or non-numbers
            out = tuple(map(_float, out))
    # a finite sum has no NaN or infinite term; an overflowing one is checked term by term
    if not (math.isfinite(sum(out)) or all(map(math.isfinite, out))):
        raise ValueError(f"{name} must be finite")
    return out
