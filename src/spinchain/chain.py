"""Chain data model, single-excitation Hamiltonian and tridiagonal eigensolver.

A chain is a set of on-site energies and nearest-neighbour couplings; in the
single-excitation subspace its Hamiltonian is a real symmetric tridiagonal
matrix, held natively as its two bands (diagonal, off-diagonal); the
eigensolver checks its eigenpairs on the bands, and ``build_hamiltonian``
gives the dense matrix. Everything downstream (dynamics, spectra,
reconstruction) works with the ``EigenSystem`` produced here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError

SIGN_CONVENTIONS = ("negative", "positive")

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
MIRROR_TOL = 1e-9


@dataclass(frozen=True)
class ChainSpec:
    """An N-site chain: on-site energies and nearest-neighbour couplings.

    ``couplings`` holds coupling strengths; the sign with which they enter the
    Hamiltonian off-diagonals is dictated by ``sign_convention`` ("negative"
    puts -|J| on the off-diagonals, "positive" puts +|J|). The overall sign is
    dynamically irrelevant, but the convention is recorded so chains
    round-trip through files unambiguously.
    """

    onsite: tuple[float, ...]
    couplings: tuple[float, ...]
    sign_convention: str = "negative"

    def __post_init__(self):
        object.__setattr__(self, "onsite", tuple(float(e) for e in self.onsite))
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        if self.n < 2:
            raise ValueError(f"chain needs at least 2 sites, got {self.n}")
        if len(self.couplings) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} couplings for {self.n} sites, "
                f"got {len(self.couplings)}"
            )
        if not all(np.isfinite(self.onsite)) or not all(np.isfinite(self.couplings)):
            raise ValueError("on-site energies and couplings must be finite")
        if any(j == 0.0 for j in self.couplings):
            raise ValueError("zero coupling disconnects the chain")
        if self.sign_convention not in SIGN_CONVENTIONS:
            raise ValueError(
                f"sign_convention must be one of {SIGN_CONVENTIONS}, "
                f"got {self.sign_convention!r}"
            )

    @property
    def n(self) -> int:
        return len(self.onsite)

    @property
    def j_max(self) -> float:
        """Largest coupling magnitude; sets the dimensionless time unit t*J_max."""
        return float(np.max(np.abs(self.couplings)))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "onsite": list(self.onsite),
            "couplings": list(self.couplings),
            "sign_convention": self.sign_convention,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChainSpec":
        try:
            spec = cls(
                onsite=tuple(d["onsite"]),
                couplings=tuple(d["couplings"]),
                sign_convention=d.get("sign_convention", "negative"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed chain object: {exc}") from exc
        if "n" in d and int(d["n"]) != spec.n:
            raise ValueError(f"declared n={d['n']} but {spec.n} on-site energies given")
        return spec


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal real eigenvectors, by column."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


def _bands(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The Hamiltonian's diagonal and (signed) off-diagonal band."""
    sign = -1.0 if spec.sign_convention == "negative" else 1.0
    return np.asarray(spec.onsite, dtype=float), sign * np.abs(spec.couplings)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense single-excitation Hamiltonian: tridiagonal with the chain's profile.

    Diagonal entries are the on-site energies; off-diagonal entries are the
    coupling magnitudes signed per the chain's convention.
    """
    diagonal, off = _bands(spec)
    h = np.diag(diagonal)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def _fix_vector_signs(vectors: np.ndarray) -> np.ndarray:
    # deterministic phase, in place: first component of appreciable size made positive
    mag = np.abs(vectors)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    vectors *= np.where(vectors[first, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors


def eigendecompose(h) -> EigenSystem:
    """Diagonalize a real symmetric tridiagonal matrix.

    ``h`` is the dense N x N matrix or a tuple ``(diagonal, off_diagonal)``
    of its bands. A dense matrix is checked for structure and reduced to its
    bands, on which the eigenpair checks run.

    Returns ascending eigenvalues and orthonormal eigenvectors with a
    deterministic sign convention (first nonzero component positive). Raises
    ``NumericalError`` if the underlying solver fails to converge or its
    eigenpairs fail the orthonormality or residual check.
    """
    if isinstance(h, tuple):
        d, upper = (np.asarray(band, dtype=float) for band in h)
        if d.ndim != 1 or upper.shape != (d.size - 1,):
            raise ValueError(f"expected bands of lengths N and N-1, "
                             f"got shapes {d.shape} and {upper.shape}")
        lower = upper
    else:
        h = np.asarray(h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {h.shape}")
        if np.triu(h, 2).any() or np.tril(h, -2).any():
            raise ValueError("matrix is not tridiagonal")
        d, upper, lower = np.diag(h), np.diag(h, 1), np.diag(h, -1)
    n = d.size
    h_max = max(np.abs(d).max(), np.abs(upper).max(initial=0.0),
                np.abs(lower).max(initial=0.0))
    if np.abs(upper - lower).max(initial=0.0) > 1e-12 * max(1.0, h_max):
        raise ValueError("matrix is not symmetric")

    try:
        if n == 1:
            values, vectors = d.copy(), np.eye(1)
        else:
            values, vectors = scipy.linalg.eigh_tridiagonal(d, upper)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigendecompose: eigh_tridiagonal did not converge "
                             f"(N={n})") from exc

    vectors = _fix_vector_signs(vectors)

    gram = vectors.T @ vectors
    gram.flat[:: n + 1] -= 1.0
    ortho = np.abs(gram, out=gram).max()
    del gram  # freed before the residual's N x N buffers
    # "not <=": NaN eigenpairs fail the checks too
    if not ortho <= ORTHONORMALITY_TOL:
        raise NumericalError(f"eigendecompose: orthonormality error {ortho:.3e} (N={n})")
    # banded (H - lambda) V: (d - lambda) V plus the two shifted off-diagonal terms
    r = np.subtract.outer(d, values)
    r *= vectors
    r[:-1] += upper[:, None] * vectors[1:]
    r[1:] += lower[:, None] * vectors[:-1]
    resid = np.abs(r, out=r).max()
    if not resid <= RESIDUAL_TOL * max(h_max, 1e-300):
        raise NumericalError(f"eigendecompose: eigenpair residual {resid:.3e} (N={n})")
    return EigenSystem(values=values, vectors=vectors)


def diagonalize_chain(spec: ChainSpec) -> EigenSystem:
    """Eigendecompose the chain's Hamiltonian from its bands (no dense matrix)."""
    return eigendecompose(_bands(spec))


def mirror_operator(n: int) -> np.ndarray:
    """The anti-diagonal permutation M, M_ij = delta_{i, n+1-j}. M^2 = I."""
    return np.fliplr(np.eye(n))


def check_mirror_symmetry(spec: ChainSpec, tol: float = MIRROR_TOL) -> tuple[bool, float]:
    """Is the chain palindromic (persymmetric Hamiltonian)?

    Returns (symmetric, largest violation) comparing the on-site profile and
    the coupling-magnitude profile against their reversals.
    """
    eps = np.asarray(spec.onsite)
    j = np.abs(spec.couplings)
    violation = float(max(np.abs(eps - eps[::-1]).max(), np.abs(j - j[::-1]).max()))
    return violation <= tol, violation


def eigenstate_parity(es: EigenSystem, tol: float = 1e-8) -> list[int]:
    """Parity (+1 even / -1 odd) of each eigenstate under the mirror operator.

    Only defined for mirror-symmetric chains, where every eigenstate is
    either even or odd; a state that is neither signals a non-symmetric
    chain and raises ``ValueError``.
    """
    overlaps = np.einsum("ik,ik->k", es.vectors, es.vectors[::-1])
    bad = np.flatnonzero(np.abs(np.abs(overlaps) - 1.0) > tol)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"eigenstate {k} has |mirror overlap| - 1 = "
            f"{abs(overlaps[k]) - 1.0:.3e} (tol {tol:g}, N={es.n}); "
            "chain is not mirror-symmetric"
        )
    return [1 if overlap > 0 else -1 for overlap in overlaps]
