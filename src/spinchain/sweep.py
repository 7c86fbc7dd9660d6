"""Coupling-uniformity statistics of reconstructed PST chains.

Sweeps the pinched-spectrum reconstruction over chain length and pinch value
and records how far the resulting couplings depart from uniformity, with the
engineered-coupling chain (J ~ sqrt(i(N-i)), uniform on-site) as the
reference everything is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import integer, odd_pinch
from .reconstruct import _reconstruct
from .spectra import PinchSpec, pinched_spectrum


@dataclass(frozen=True)
class SweepPoint:
    n: int
    p: int
    std_j: float
    max_rel_spread_j: float
    std_eps: float
    roundtrip_err: float
    error: str | None = None


def coupling_statistics(spec: ChainSpec) -> dict:
    """Population std, relative max spread and mean of the coupling magnitudes."""
    j = np.abs(spec.couplings)
    # np.mean's and np.std's own arithmetic, without their dispatch
    mean = j.sum() / j.size
    deviation = j - mean
    return {
        "std_dev": float(np.sqrt((deviation * deviation).sum() / j.size)),
        "max_rel_spread": float((j.max() - j.min()) / j.max()),
        "mean": float(mean),
    }


def christandl_chain(n: int, j0: float, sign_convention: str = "negative") -> ChainSpec:
    """The engineered-coupling PST chain J_i = j0*sqrt(i*(n-i)), zero on-site."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    if j0 <= 0:
        raise ValueError(f"base coupling must be positive, got {j0}")
    i = np.arange(1, n, dtype=float)
    couplings = j0 * np.sqrt(i * (n - i))
    return ChainSpec(onsite=(0.0,) * n, couplings=tuple(couplings),
                     sign_convention=sign_convention)


def deviation_sweep(n_range, p_set, alpha: float = 0.5) -> list[SweepPoint]:
    """Reconstruct a pinched-spectrum chain at every (n, p) and record spreads.

    Failed reconstructions yield a point with NaN statistics and an error
    message; the sweep always completes. Points come back sorted by (n, p).
    An n or p that is not an integer, a p that is not positive and odd, or an
    alpha that is not positive and finite raises ``ValueError`` before any
    point runs.
    """
    p_values = sorted(set(map(odd_pinch, p_set)))
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    n_values = sorted(set(integer("n", v) for v in n_range))
    points = []
    for n in n_values:
        for p in p_values:
            try:
                spectrum = pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha))
                chain, miss = _reconstruct(spectrum)
                stats = coupling_statistics(chain)
                points.append(SweepPoint(
                    n=n, p=p,
                    std_j=stats["std_dev"],
                    max_rel_spread_j=stats["max_rel_spread"],
                    std_eps=float(np.std(chain.onsite)),
                    roundtrip_err=miss,
                ))
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                points.append(SweepPoint(
                    n=n, p=p, std_j=float("nan"), max_rel_spread_j=float("nan"),
                    std_eps=float("nan"), roundtrip_err=float("nan"),
                    error=str(exc),
                ))
    return points

