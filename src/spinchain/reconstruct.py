"""Persymmetric Jacobi chain reconstruction from a prescribed spectrum.

A palindromic chain is block diagonal in the basis (e_i +- e_{N+1-i})/sqrt(2)
(``chain.mirror_bands``): in the negative sign convention its even block has
the eigenvalues mu = lam[0::2] and its odd block nu = lam[1::2]. The two
blocks differ only at the centre site, so the two spectra fix the weights c_k
of the centre site in the even block's eigenvectors (the two-spectra
construction of Hochstadt and of de Boor & Golub). One LAPACK Householder
reduction (``dsytrd``) of the arrowhead [[0, sqrt(c)^T], [sqrt(c), diag(mu)]]
yields the even block read from the centre outwards; it is unfolded and
mirrored, so the chain is persymmetric by construction. The centre weights
are well conditioned, unlike the end-site weights
w_k = prod_{j!=k} 1/|lam_k - lam_j|, which span ~2^(N/2) and overflow for
long chains. Every result is checked against its input spectrum with
values-only solves of its two blocks (``chain.mirror_values``, LAPACK
``dsterf``). ``reconstruct_with_error`` returns the chain with the miss of
that check, in one reconstruction; ``reconstruct`` and ``roundtrip_error``
return one of the two. No eigenvector is computed on the inverse path.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, known_convention, mirror_values
from .errors import NumericalError
from .spectra import Spectrum

CROSS_CHECK_TOL = 1e-8


def _check_simple(lam: np.ndarray) -> float:
    """The spectral spread of ascending eigenvalues; raises if any repeat."""
    spread = lam[-1] - lam[0]
    if (lam[1:] - lam[:-1]).min() <= 1e-12 * spread:
        raise ValueError("spectrum has (numerically) repeated eigenvalues; "
                         "reconstruction is undefined")
    return spread


def compute_weights(values) -> np.ndarray:
    """End-site weights w_k = prod_{j!=k} 1/|lam_k - lam_j|, one per eigenvalue,
    unnormalized; they span ~2^(N/2), so long chains over- or underflow them."""
    lam = np.asarray(values, dtype=float)
    _check_simple(lam)
    gaps = np.abs(np.subtract.outer(lam, lam))
    np.fill_diagonal(gaps, 1.0)
    return 1.0 / np.prod(gaps, axis=1)


def _centre_weights(lam: np.ndarray) -> np.ndarray:
    """Squared centre components c_k of the even block's eigenvectors, sum 1.

    c_k = prod_j (nu_j - mu_k) / prod_{j!=k} (mu_j - mu_k) up to a common
    factor (1/(2 J_centre) for even N); interlacing makes every factor pair
    of one sign, and the products are summed as logs so they cannot overflow.
    """
    mu = lam[0::2]
    gaps = np.abs(np.subtract.outer(mu, lam))
    gaps[np.arange(mu.size), np.arange(0, lam.size, 2)] = 1.0
    logs = np.log(gaps)
    log_c = logs[:, 1::2].sum(axis=1) - logs[:, 0::2].sum(axis=1)
    c = np.exp(log_c - log_c.max())
    c /= c.sum()
    if not np.isfinite(c).all():
        raise NumericalError("reconstruct: non-finite centre-site weights")
    return c


def reconstruct_with_error(s: Spectrum,
                           sign_convention: str = "negative") -> tuple[ChainSpec, float]:
    """The unique persymmetric chain with this spectrum, and its roundtrip error.

    The chain is built from its centre out: the centre-site weights of the
    even mirror block come from the interlaced spectra lam[0::2] (even) and
    lam[1::2] (odd), one Householder tridiagonalization of their arrowhead
    gives the even block, and the block is unfolded (odd N: its last coupling
    over sqrt(2); even N: the centre coupling (sum(nu) - sum(mu))/2 added
    back to its last site) and mirrored.

    The error is max |input eigenvalue - chain eigenvalue| from values-only
    solves of the chain's two mirror blocks, the same in either convention.
    Raises ``ValueError`` for an unknown sign convention (before any work) or
    repeated eigenvalues, and ``NumericalError`` when the error exceeds
    CROSS_CHECK_TOL * spread.
    """
    known_convention(sign_convention)
    lam = np.asarray(s.values, dtype=float)
    n = lam.size
    spread = _check_simple(lam)
    mu, nu = lam[0::2], lam[1::2]

    from scipy.linalg import lapack  # loaded on the first LAPACK call
    k = mu.size
    arrow = np.zeros((k + 1, k + 1), order="F")
    arrow[1:, 0] = np.sqrt(_centre_weights(lam))
    np.fill_diagonal(arrow[1:, 1:], mu)
    # workspace for LAPACK's blocked reduction (block size 32) on long chains
    _, d, e, _, info = lapack.dsytrd(arrow, lower=1, lwork=32 * (k + 1),
                                     overwrite_a=1)
    if info:
        raise NumericalError(f"reconstruct: dsytrd failed (info {info})")
    # the reduction keeps e_0 fixed, so T[1:, 1:] is the even block as the
    # Lanczos process from the centre site builds it: reverse to end -> centre
    block_d = d[:0:-1].copy()
    block_e = np.abs(e[:0:-1])
    if n % 2:
        block_e[-1] /= np.sqrt(2.0)
        onsite = np.concatenate([block_d, block_d[-2::-1]])
        couplings = np.concatenate([block_e, block_e[::-1]])
    else:
        j_centre = 0.5 * (nu - mu).sum()
        block_d[-1] += j_centre
        onsite = np.concatenate([block_d, block_d[::-1]])
        couplings = np.concatenate([block_e, [j_centre], block_e[::-1]])

    miss = np.abs(mirror_values(onsite, -couplings) - lam).max()
    # "not <=": a NaN miss fails too
    if not miss <= CROSS_CHECK_TOL * spread:
        raise NumericalError(
            f"reconstructed chain's spectrum misses the input by {miss:.3e} "
            f"(spectral spread {spread:.3e})"
        )
    return ChainSpec(onsite=onsite, couplings=couplings,
                     sign_convention=sign_convention), float(miss)


def reconstruct(s: Spectrum, sign_convention: str = "negative") -> ChainSpec:
    """The chain of ``reconstruct_with_error``, without its error."""
    return reconstruct_with_error(s, sign_convention)[0]


def roundtrip_error(s: Spectrum) -> float:
    """Max |input eigenvalue - eigenvalue of the reconstructed chain|.

    This runs a full reconstruction; a caller that needs the chain as well
    takes both from one ``reconstruct_with_error`` call.
    """
    return reconstruct_with_error(s)[1]
