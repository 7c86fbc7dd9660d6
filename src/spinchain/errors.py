"""Exception types and the input rules shared across the package.

Contract violations (bad arguments, malformed input) raise ``ValueError``;
``NumericalError`` is reserved for breakdowns inside otherwise-valid
computations, so callers (notably the CLI) can map the two onto distinct
exit codes.
"""

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
