"""Chain data model, single-excitation Hamiltonian and tridiagonal eigensolver.

A chain is a set of on-site energies and nearest-neighbour couplings; in the
single-excitation subspace its Hamiltonian is a real symmetric tridiagonal
matrix. Everything downstream (dynamics, spectra, reconstruction) works with
the ``EigenSystem`` produced here.
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


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Single-excitation Hamiltonian: tridiagonal with the chain's profile.

    Diagonal entries are the on-site energies; off-diagonal entries are the
    coupling magnitudes signed per the chain's convention.
    """
    sign = -1.0 if spec.sign_convention == "negative" else 1.0
    off = sign * np.abs(spec.couplings)
    h = np.diag(np.asarray(spec.onsite, dtype=float))
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def _fix_vector_signs(vectors: np.ndarray) -> np.ndarray:
    # deterministic phase: first component of appreciable size made positive
    v = vectors.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if col[nz[0]] < 0.0:
            v[:, k] = -col
    return v


def eigendecompose(h: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric tridiagonal matrix.

    Returns ascending eigenvalues and orthonormal eigenvectors with a
    deterministic sign convention (first nonzero component positive). Raises
    ``NumericalError`` if the underlying solver fails to converge.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    if n > 2 and np.abs(h - np.diag(np.diag(h))
                        - np.diag(np.diag(h, 1), 1)
                        - np.diag(np.diag(h, -1), -1)).max() > 0.0:
        raise ValueError("matrix is not tridiagonal")
    if np.abs(h - h.T).max() > 1e-12 * max(1.0, np.abs(h).max()):
        raise ValueError("matrix is not symmetric")

    try:
        if n == 1:
            values, vectors = np.array([h[0, 0]]), np.eye(1)
        else:
            values, vectors = scipy.linalg.eigh_tridiagonal(np.diag(h), np.diag(h, 1))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigendecompose: eigh_tridiagonal did not converge "
                             f"(N={n})") from exc

    vectors = _fix_vector_signs(vectors)

    ortho = np.abs(vectors.T @ vectors - np.eye(n)).max()
    if ortho > ORTHONORMALITY_TOL:
        raise NumericalError(f"eigendecompose: orthonormality error {ortho:.3e} (N={n})")
    scale = max(np.abs(h).max(), 1e-300)
    resid = np.abs(h @ vectors - vectors * values[None, :]).max()
    if resid > RESIDUAL_TOL * scale:
        raise NumericalError(f"eigendecompose: eigenpair residual {resid:.3e} (N={n})")
    return EigenSystem(values=values, vectors=vectors)


def diagonalize_chain(spec: ChainSpec) -> EigenSystem:
    """Convenience: build the Hamiltonian and eigendecompose it."""
    return eigendecompose(build_hamiltonian(spec))


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
    m = mirror_operator(es.n)
    parities = []
    for k in range(es.n):
        phi = es.vectors[:, k]
        overlap = float(phi @ m @ phi)
        if abs(abs(overlap) - 1.0) > tol:
            raise ValueError(
                f"eigenstate {k} has mirror overlap {overlap:.6f}; "
                "chain is not mirror-symmetric"
            )
        parities.append(1 if overlap > 0 else -1)
    return parities
