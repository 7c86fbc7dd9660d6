"""Pinched PST spectra and the odd-integer gap condition.

Perfect state transfer needs every eigenvalue gap to be an odd multiple of
pi/t_m for a common mirror time t_m. The family used throughout is the
"pinched" spectrum: equidistant levels with the top gap compressed by 1/p
for odd p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ODD_DIVISOR = 61  # candidate gap divisors 1, 3, ..., 61
PST_TOL = 1e-9        # residual relative to the mean gap


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, optionally tagged with pinch metadata.

    ``spacing`` is the base level spacing (2*alpha) and ``p`` the odd pinch
    denominator when the spectrum comes from the pinched family; ``t_m`` is
    the mirror time if known.
    """

    values: tuple[float, ...]
    spacing: float | None = None
    p: int | None = None
    t_m: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise ValueError("spectrum needs at least 2 eigenvalues")
        if not all(np.isfinite(self.values)):
            raise ValueError("eigenvalues must be finite")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("eigenvalues must be strictly ascending")

    @property
    def n(self) -> int:
        return len(self.values)

    def gaps(self) -> np.ndarray:
        return np.diff(self.values)

    def to_dict(self) -> dict:
        return {
            "values": list(self.values),
            "p": self.p,
            "t_m": self.t_m,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Spectrum":
        try:
            values = tuple(d["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed spectrum object: {exc}") from exc
        return cls(values=values, p=d.get("p"), t_m=d.get("t_m"))


@dataclass(frozen=True)
class PinchSpec:
    """Recipe for a pinched spectrum: n levels, odd pinch p, scale alpha."""

    n: int
    p: int
    alpha: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 levels")
        if self.p < 1 or self.p % 2 == 0:
            raise ValueError(f"pinch p must be a positive odd integer, got {self.p}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def pinched_spectrum(ps: PinchSpec, shift: float = 0.0) -> Spectrum:
    """Equidistant levels with the top gap compressed to 2*alpha/p.

    Levels sit at alpha*((1-n) + 2k) for k = 0..n-2, then the top level at
    2*alpha/p above; ``shift`` moves the whole spectrum. The mirror time is
    p*pi/(2*alpha).
    """
    n, p, alpha = ps.n, ps.p, ps.alpha
    values = [alpha * ((1 - n) + 2 * k) + shift for k in range(n - 1)]
    values.append(values[-1] + 2.0 * alpha / p)
    return Spectrum(
        values=tuple(values),
        spacing=2.0 * alpha,
        p=p,
        t_m=p * np.pi / (2.0 * alpha),
    )


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
    mean_gap = float(gaps.mean())
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
        q=tuple(int(v) for v in q),
        max_residual=residual,
        delta=delta,
    )


def snap_to_pst(s: Spectrum, p: int) -> Spectrum:
    """Round a near-pinched spectrum onto the exact pinched family.

    Least-squares fit over (lowest level, base spacing) of the family with
    n-1 equidistant levels and a top gap compressed by 1/p; the result
    satisfies the PST condition to machine precision.
    """
    if p < 1 or p % 2 == 0:
        raise ValueError(f"pinch p must be a positive odd integer, got {p}")
    if s.n < 3:
        raise ValueError("snapping needs at least 3 eigenvalues")
    values = np.asarray(s.values)
    n = s.n
    # model: lam_k = lam0 + gamma*k for k < n-1, lam_{n-1} = lam0 + gamma*(n-2+1/p)
    k = np.append(np.arange(n - 1, dtype=float), n - 2 + 1.0 / p)
    design = np.column_stack([np.ones(n), k])
    (lam0, gamma), *_ = np.linalg.lstsq(design, values, rcond=None)
    if gamma <= 0:
        raise ValueError("degenerate fit: nonpositive level spacing")
    snapped = lam0 + gamma * k
    return Spectrum(
        values=tuple(snapped),
        spacing=float(gamma),
        p=p,
        t_m=float(p * np.pi / gamma),
    )


def infer_pinch(values) -> tuple[int, float]:
    """Pinch ``p`` and base spacing ``gamma`` read off a near-pinched spectrum.

    ``gamma`` is the lowest gap and ``p`` the odd integer nearest the ratio
    of the lowest gap to the top gap (ties go to the smaller one).
    """
    gamma = float(values[1] - values[0])
    top = float(values[-1] - values[-2])
    if top <= 0 or gamma <= 0:
        raise ValueError("cannot infer pinch parameters from the spectrum")
    ratio = gamma / top
    lo = max(1, 2 * int(np.floor((ratio - 1) / 2)) + 1)
    p = lo if abs(lo - ratio) <= abs(lo + 2 - ratio) else lo + 2
    return p, gamma


def spectral_symmetry_check(s: Spectrum, tol: float = 1e-9) -> bool:
    """True iff the spectrum is symmetric about its center.

    Symmetric spectra reconstruct to chains with uniform on-site energies, so
    this flags when on-site engineering is not actually needed.
    """
    values = np.asarray(s.values)
    sums = values + values[::-1]
    return bool(np.abs(sums - sums.mean()).max() <= tol * max(1.0, np.abs(values).max()))
