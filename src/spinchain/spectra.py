"""Pinched PST spectra and the odd-integer gap condition.

Perfect state transfer needs every eigenvalue gap to be an odd multiple of
pi/t_m for a common mirror time t_m. The family used throughout is the
"pinched" spectrum: equidistant levels with the top gap compressed by 1/p
for odd p.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import integer, odd_pinch, positive, real, reals

MAX_ODD_DIVISOR = 61  # candidate gap divisors 1, 3, ..., 61
PST_TOL = 1e-9        # residual relative to the mean gap


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, optionally tagged with pinch metadata.

    The spread, top value minus bottom, must be finite. ``spacing`` is the
    base level spacing (2*alpha) and ``p`` the odd pinch denominator when the
    spectrum comes from the pinched family; ``t_m`` is the mirror time if
    known. Each is None or passes its rule (``odd_pinch`` for ``p``,
    ``positive`` for the others), which gives the value stored.
    """

    values: tuple[float, ...]
    spacing: float | None = None
    p: int | None = None
    t_m: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", reals("eigenvalues", self.values))
        if len(self.values) < 2:
            raise ValueError("spectrum needs at least 2 eigenvalues")
        if not all(map(operator.lt, self.values, self.values[1:])):
            raise ValueError("eigenvalues must be strictly ascending")
        real("eigenvalue spread", self.values[-1] - self.values[0])
        if self.p is not None:
            object.__setattr__(self, "p", odd_pinch(self.p))
        for name in ("spacing", "t_m"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, positive(name, value))

    @property
    def n(self) -> int:
        return len(self.values)

    def gaps(self) -> np.ndarray:
        values = np.array(self.values)
        return values[1:] - values[:-1]

    def to_dict(self) -> dict:
        return {
            "values": list(self.values),
            "p": self.p,
            "t_m": self.t_m,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Spectrum":
        try:
            return cls(values=d["values"], p=d.get("p"), t_m=d.get("t_m"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed spectrum object: {exc}") from exc


@dataclass(frozen=True)
class PinchSpec:
    """Recipe for a pinched spectrum: n levels, odd pinch p, scale alpha."""

    n: int
    p: int
    alpha: float

    def __post_init__(self):
        for name in ("n", "p"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.n < 2:
            raise ValueError("need at least 2 levels")
        odd_pinch(self.p)
        object.__setattr__(self, "alpha", positive("alpha", self.alpha))


def pinched_spectrum(ps: PinchSpec, shift: float = 0.0) -> Spectrum:
    """Equidistant levels with the top gap compressed to 2*alpha/p.

    Levels sit at alpha*((1-n) + 2k) for k = 0..n-2, then the top level at
    2*alpha/p above; ``shift`` moves the whole spectrum. The mirror time is
    p*pi/(2*alpha).
    """
    n, p, alpha = ps.n, ps.p, ps.alpha
    shift = real("shift", shift)
    values = alpha * np.arange(1 - n, n, 2, dtype=float) + shift
    values[-1] = values[-2] + 2.0 * alpha / p
    return Spectrum(values=values, spacing=2.0 * alpha, p=p,
                    t_m=p * np.pi / (2.0 * alpha))


@dataclass(frozen=True)
class PstCheck:
    """Outcome of the odd-integer gap test."""

    valid: bool
    t_m: float
    q: tuple[int, ...]
    max_residual: float
    delta: float


def check_pst_condition(s: Spectrum, tol: float = PST_TOL) -> PstCheck:
    """Test whether all gaps are odd multiples of a common pi/t_m.

    Candidate base gaps are odd divisors of the smallest gap; each candidate
    is scored by the worst gap mismatch relative to the mean gap, and the
    largest valid candidate wins. An invalid spectrum still gets the
    best-scoring assignment reported, with ``valid`` False.
    """
    gaps = s.gaps()
    mean_gap = float(gaps.sum() / gaps.size)  # np.mean's arithmetic, without its dispatch
    g_min = float(gaps.min())

    best = None  # (residual, delta, q)
    for odd in range(1, MAX_ODD_DIVISOR + 1, 2):
        delta = g_min / odd
        ratio = gaps / delta
        q = np.maximum(1, 2 * np.round((ratio - 1) / 2).astype(int) + 1)
        residual = float(np.abs(gaps - q * delta).max() / mean_gap)
        if best is None or residual < best[0]:
            best = (residual, delta, q)
        if residual <= tol:  # the best so far: every earlier candidate missed tol
            break

    residual, delta, q = best
    return PstCheck(
        valid=residual <= tol,
        t_m=float(np.pi / delta),
        q=tuple(q.tolist()),
        max_residual=residual,
        delta=delta,
    )


def _pinched_offsets(n: int, p: int) -> np.ndarray:
    """Pinched levels over the base spacing: 0, 1, ..., n-2, then n-2+1/p."""
    offsets = np.arange(n, dtype=float)
    offsets[-1] = n - 2 + 1.0 / p
    return offsets


def _pinched_fit(values, p: int) -> tuple[float, float]:
    """Least-squares ``(lam0, gamma)`` of lam = lam0 + gamma * ``_pinched_offsets(n, p)``."""
    k = _pinched_offsets(len(values), odd_pinch(p))
    design = np.column_stack([np.ones(k.size), k])
    (lam0, gamma), *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    if gamma <= 0:
        raise ValueError("degenerate fit: nonpositive level spacing")
    return float(lam0), float(gamma)


def snap_to_pst(s: Spectrum, p: int) -> Spectrum:
    """Round a near-pinched spectrum onto its least-squares pinched fit
    (``_pinched_fit``); the result satisfies the PST condition to machine precision."""
    if s.n < 3:
        raise ValueError("snapping needs at least 3 eigenvalues")
    p = odd_pinch(p)
    lam0, gamma = _pinched_fit(s.values, p)
    snapped = lam0 + gamma * _pinched_offsets(s.n, p)
    return Spectrum(values=snapped, spacing=gamma, p=p,
                    t_m=float(p * np.pi / gamma))


def infer_pinch(values) -> tuple[int, float]:
    """Pinch ``p`` and base spacing ``gamma`` read off a near-pinched spectrum.

    ``p`` is the odd integer nearest the lowest-to-top gap ratio (ties go to the
    smaller one) and ``gamma`` the least-squares fit for it, as ``snap_to_pst``'s.
    """
    low = float(values[1] - values[0])
    top = float(values[-1] - values[-2])
    if top <= 0 or low <= 0:
        raise ValueError("cannot infer pinch parameters from the spectrum")
    ratio = low / top
    lo = max(1, 2 * int(np.floor((ratio - 1) / 2)) + 1)
    p = lo if abs(lo - ratio) <= abs(lo + 2 - ratio) else lo + 2
    return p, _pinched_fit(values, p)[1]


def spectral_symmetry_check(s: Spectrum, tol: float = 1e-9) -> bool:
    """True iff the spectrum is symmetric about its center.

    Symmetric spectra reconstruct to chains with uniform on-site energies, so
    this flags when on-site engineering is not actually needed.
    """
    values = np.asarray(s.values)
    sums = values + values[::-1]
    return bool(np.abs(sums - sums.mean()).max() <= tol * max(1.0, np.abs(values).max()))
