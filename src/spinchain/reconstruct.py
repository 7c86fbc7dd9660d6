"""Persymmetric Jacobi chain reconstruction from a prescribed spectrum.

Given simple eigenvalues, the weights w_k = prod_{j!=k} 1/|lam_k - lam_j|
define a discrete inner product; the three-term recurrence of the
orthogonal polynomials for that inner product yields the unique
mirror-symmetric tridiagonal matrix with the given spectrum. The recurrence
is run on normalized polynomials (norms carried separately) so large chains
do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, diagonalize_chain
from .errors import NumericalError
from .spectra import Spectrum

CROSS_CHECK_TOL = 1e-8


def compute_weights(values) -> np.ndarray:
    """Reconstruction weights from eigenvalue spacings, one per eigenvalue."""
    lam = np.asarray(values, dtype=float)
    spread = lam[-1] - lam[0]
    if np.diff(lam).min() <= 1e-12 * spread:
        raise ValueError("spectrum has (numerically) repeated eigenvalues; "
                         "reconstruction is undefined")
    gaps = np.abs(np.subtract.outer(lam, lam))
    np.fill_diagonal(gaps, 1.0)
    return 1.0 / np.prod(gaps, axis=1)


@dataclass(frozen=True)
class PolynomialTable:
    """Normalized recurrence polynomials evaluated on the spectrum.

    Row j of ``values`` holds P_j(lam_k)/||P_j|| for each eigenvalue;
    ``norms`` holds ||P_j|| under the weighted inner product. Sign patterns
    of successive rows interlace (row j changes sign exactly j times).
    """

    values: np.ndarray
    norms: np.ndarray

    def sign_changes(self, j: int) -> int:
        row = self.values[j]
        signs = np.sign(row[np.abs(row) > 1e-12 * np.abs(row).max()])
        return int(np.sum(signs[1:] != signs[:-1]))


def _recurrence(lam: np.ndarray, w: np.ndarray):
    """Full forward pass; returns (onsite, couplings, normalized poly values)."""
    n = len(lam)
    sqrt_w = np.sqrt(w)
    norms = np.empty(n)
    norms[0] = np.linalg.norm(sqrt_w)
    # u_j[k] = (P_j(lam_k)/||P_j||) * sqrt(w_k): orthonormal vectors
    u_prev = np.zeros(n)
    u = sqrt_w / norms[0]
    table = np.empty((n, n))
    table[0] = u / sqrt_w
    eps = np.empty(n)
    j_off = np.empty(n - 1)
    for j in range(n):
        eps[j] = float(np.sum(lam * u * u))
        if j == n - 1:
            break
        r = (lam - eps[j]) * u - (j_off[j - 1] if j > 0 else 0.0) * u_prev
        norm_r = float(np.linalg.norm(r))
        if not np.isfinite(norm_r) or norm_r <= 0.0:
            raise NumericalError(f"recurrence broke down at stage {j + 1} "
                                 f"(norm ratio {norm_r})")
        j_off[j] = norm_r
        u_prev, u = u, r / norm_r
        norms[j + 1] = norms[j] * norm_r
        table[j + 1] = u / sqrt_w
    return eps, j_off, PolynomialTable(values=table, norms=norms)


def polynomial_table(s: Spectrum) -> PolynomialTable:
    """Recurrence diagnostics for a spectrum (used to test interlacing)."""
    lam = np.asarray(s.values)
    return _recurrence(lam, compute_weights(lam))[2]


def reconstruct(s: Spectrum, sign_convention: str = "negative") -> ChainSpec:
    """The unique persymmetric chain whose Hamiltonian has this spectrum.

    On-site energies are Rayleigh quotients of the recurrence polynomials;
    coupling magnitudes are ratios of successive polynomial norms. Only the
    first half is kept and mirrored (persymmetry), with the full pass used
    as a cross-check of numerical health.
    """
    lam = np.asarray(s.values)
    n = len(lam)
    w = compute_weights(lam)
    eps, j_off, _ = _recurrence(lam, w)

    half = (n + 1) // 2
    onsite = np.concatenate([eps[:half], eps[: n - half][::-1]])
    couplings = np.concatenate([j_off[: (n - 1 + 1) // 2],
                                j_off[: (n - 1) // 2][::-1]])

    spread = lam[-1] - lam[0]
    asym = max(np.abs(onsite - eps).max(),
               np.abs(couplings - j_off).max())
    if asym > CROSS_CHECK_TOL * spread:
        raise NumericalError(
            f"half-chain mirror disagrees with the full recurrence pass by "
            f"{asym:.3e} (spectral spread {spread:.3e})"
        )
    return ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                     sign_convention=sign_convention)


def roundtrip_error(s: Spectrum) -> float:
    """Max |input eigenvalue - eigenvalue of the reconstructed chain|."""
    spec = reconstruct(s)
    es = diagonalize_chain(spec)
    return float(np.abs(es.values - np.asarray(s.values)).max())
