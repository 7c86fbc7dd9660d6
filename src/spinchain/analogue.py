"""Particle-in-a-discrete-potential diagnostics.

A uniformly coupled chain obeys a discrete Schrodinger equation, so its
eigenstates behave like bound states in a potential well: the k-th state has
k nodes and alternating mirror parity. For pinched PST spectra one can also
build harmonic-oscillator-like ladder operators (one band in the energy
eigenbasis), a discrete position operator X, and verify the pairing theorem
({X, M} = 0 forces +-x eigenvalue pairs, plus a zero mode for odd length).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, EigenSystem, band_values, known_convention
from .errors import odd_pinch, positive
from .spectra import _pinched_offsets

UNIFORM_TOL = 1e-9
PINCHED_FORM_TOL = 1e-6
_PAIR_TOL = 1e-9


def schrodinger_residual(spec: ChainSpec, es: EigenSystem) -> np.ndarray:
    """Residuals of the discrete Schrodinger equation at interior sites.

    For uniform negative coupling -J the eigenproblem reads
    -J phi'' + (eps_i - 2J) phi = lambda phi with the lattice second
    difference phi''_i = phi_{i+1} + phi_{i-1} - 2 phi_i; this identity is
    exact away from the chain ends. Returns an (n_states, n-2) array; empty
    for n = 2.
    """
    j_abs = np.abs(spec.couplings)
    if np.ptp(j_abs) > UNIFORM_TOL:
        raise ValueError("chain couplings are not uniform")
    if spec.sign_convention != "negative":
        raise ValueError("particle analogue assumes the negative coupling convention")
    j = float(j_abs[0])
    eps = np.asarray(spec.onsite)

    phi = es.vectors
    second_diff = phi[2:, :] + phi[:-2, :] - 2.0 * phi[1:-1, :]
    lhs = -j * second_diff + (eps[1:-1, None] - 2.0 * j) * phi[1:-1, :]
    residual = lhs - es.values[None, :] * phi[1:-1, :]
    return residual.T


def node_count(es: EigenSystem) -> list[int]:
    """Sign changes of each eigenstate along the chain (its node count).

    Components below 1e-12 in magnitude inherit the previous sign, so the
    exact central zeros of odd-parity states count as single crossings.
    Known limit: nodes among components below that cut-off are lost. The top
    states of long pinched chains alternate in sign all along the chain and
    their end components fall below it (alpha = 1/2, p = 3: exact at N = 85,
    wrong on 2 / 4 / 143 states at N = 89 / 100 / 512; p = 1: wrong from
    N = 81). So do the tails of localised states in random uniform-coupling
    chains (on-site U[0, 5], J = 1: wrong on 2 / 11 / 72 / 100 of 100 chains
    at N = 25 / 30 / 40 / 60), and eigenvalue pairs closer than the solver
    can order. ``oscillation_nodes`` gives the exact counts; this function is
    their eigenvector-based reference.
    """
    # one eigenstate per row (C-contiguous for eigendecompose's vectors);
    # dropping the components below 1e-12 lets them inherit the previous sign
    v = es.vectors.T
    nonzero = np.abs(v) > 1e-12
    negative = np.signbit(v[nonzero])
    rows = np.repeat(np.arange(es.n), np.count_nonzero(nonzero, axis=1))
    flips = (negative[1:] != negative[:-1]) & (rows[1:] == rows[:-1])
    return np.bincount(rows[1:][flips], minlength=es.n).tolist()


def oscillation_nodes(n: int, sign_convention: str) -> list[int]:
    """Node counts of a chain's eigenstates, lowest energy first, from N alone.

    Every chain is an irreducible Jacobi matrix whose off-diagonals share one
    sign, so by the oscillation theorem (Gantmacher & Krein) the k-th lowest
    eigenstate has exactly k sign changes in the negative convention and
    N - 1 - k in the positive one. ``node_count`` reads the same numbers off
    the eigenvectors, where they resolve them.
    """
    nodes = list(range(n))
    return nodes if known_convention(sign_convention) == "negative" else nodes[::-1]


@dataclass(frozen=True)
class LadderPair:
    """Raising/lowering operators in the energy eigenbasis, held as one band.

    The raising operator has ``sub`` below its diagonal and annihilates the
    top state; ``raise_op`` and ``lower_op`` are dense views built on demand.
    """

    sub: np.ndarray
    gamma: float
    p: int

    @property
    def n(self) -> int:
        return self.sub.size + 1

    @property
    def raise_op(self) -> np.ndarray:
        return np.diag(self.sub, -1)

    @property
    def lower_op(self) -> np.ndarray:
        return np.diag(self.sub, 1)

    def number_operator(self) -> np.ndarray:
        """a_dag a; equals the ground-shifted Hamiltonian in the eigenbasis."""
        return self.raise_op @ self.lower_op

    def commutator(self) -> np.ndarray:
        """[a, a_dag] = a a_dag - a_dag a."""
        return self.lower_op @ self.raise_op - self.number_operator()

    def expected_commutator(self) -> np.ndarray:
        """Closed form of [a, a_dag]: identity with two end-of-ladder corrections."""
        return np.diag(self._commutator_diagonal())

    def _commutator_diagonal(self) -> np.ndarray:
        diag = np.ones(self.n)
        diag[-2] -= 1.0 - 1.0 / self.p
        diag[-1] -= self.n - 1.0 + 1.0 / self.p
        return self.gamma * diag


def shifted_values(es: EigenSystem) -> np.ndarray:
    """Spectrum with the ground state moved to zero."""
    return es.values - es.values[0]


def build_ladder(es: EigenSystem, p: int, gamma: float) -> LadderPair:
    """Ladder operators for a chain whose spectrum is the pinched form.

    Validates that the ground-shifted spectrum is gamma*(0, 1, ..., n-2,
    n-2+1/p) within 1e-6, then builds the raising operator, whose steps are
    sqrt(gamma) times the square roots of that form's levels 1, ..., n-1.
    """
    p = odd_pinch(p)
    gamma = positive("gamma", gamma)
    offsets = _pinched_offsets(es.n, p)
    deviation = np.abs(shifted_values(es) - gamma * offsets).max()
    if deviation > PINCHED_FORM_TOL * max(1.0, gamma):
        raise ValueError(
            f"spectrum deviates from the pinched form by {deviation:.3e}; "
            "ladder operators are not defined"
        )
    sub = np.sqrt(gamma) * np.sqrt(offsets[1:])
    return LadderPair(sub=sub, gamma=gamma, p=p)


@dataclass(frozen=True)
class PositionOperator:
    """Discrete position X = (a_dag + a)/2 in the energy eigenbasis.

    Tridiagonal there: X connects eigenstates of neighbouring energy, hence
    of opposite mirror parity, which is why it anticommutes with the mirror.
    The momentum partner P = (a - a_dag)/(2i) is kept for completeness.
    """

    x: np.ndarray
    momentum: np.ndarray


def position_operator(ladder: LadderPair) -> PositionOperator:
    x = 0.5 * (ladder.raise_op + ladder.lower_op)
    momentum = (ladder.lower_op - ladder.raise_op) / 2j
    return PositionOperator(x=x, momentum=momentum)


def mirror_in_eigenbasis(es: EigenSystem) -> np.ndarray:
    """The mirror operator expressed on the energy eigenstates (diagonal +-1)."""
    return es.vectors.T @ es.vectors[::-1]


@dataclass(frozen=True)
class PairingReport:
    """Pairing-theorem audit of the position operator."""

    anticommutes: bool
    anticommutator_norm: float
    x_values: tuple[float, ...]
    pairs: tuple[tuple[float, float], ...]
    pairing_residual: float
    zero_mode: bool


def _pair_off(x_values: np.ndarray, pair_tol: float = _PAIR_TOL) -> tuple:
    """(+-x pairs, zero mode) of X's ascending eigenvalues."""
    half = x_values.size // 2
    pairs = tuple(zip(x_values[:half].tolist(), x_values[::-1][:half].tolist()))
    return pairs, bool(x_values.size % 2 == 1 and abs(x_values[half]) <= pair_tol)


def pairing_check(xop: PositionOperator, m_eigenbasis: np.ndarray,
                  anticomm_tol: float = 1e-10,
                  pair_tol: float = _PAIR_TOL) -> PairingReport:
    """Verify {X, M} = 0 and the +-x pairing of X's spectrum.

    For odd dimension one eigenvalue must sit at zero (within ``pair_tol``);
    even dimensions pair off completely.
    """
    x = xop.x
    anti = x @ m_eigenbasis + m_eigenbasis @ x
    anorm = float(np.abs(anti).max())
    xvals = band_values(np.diag(x), np.diag(x, 1))  # X is tridiagonal
    residual = float(np.abs(xvals + xvals[::-1]).max())
    pairs, zero_mode = _pair_off(xvals, pair_tol)
    return PairingReport(
        anticommutes=bool(anorm <= anticomm_tol),
        anticommutator_norm=anorm,
        x_values=tuple(float(v) for v in xvals),
        pairs=pairs,
        pairing_residual=residual,
        zero_mode=zero_mode,
    )


def diagnostics_report(spec: ChainSpec, es: EigenSystem, p: int,
                       gamma: float) -> dict:
    """Bundle of analogue diagnostics in a JSON-friendly shape.

    Reads ``es.values`` and N only (``analyze`` passes ``vectors=None``).
    ``nodes`` (oscillation theorem), ``commutator_residual``, ``x_pairs`` and
    ``zero_mode`` (the ladder's band, bit for bit its dense composition) are
    closed-form in (N, p, gamma, sign convention). Only ``ladder_residual``
    reads the chain: ``analyze`` gives its ``dsterf`` eigenvalues
    (``chain.band_values``) and gamma from their least-squares fit for p.
    """
    ladder = build_ladder(es, p, gamma)
    squares = np.zeros(ladder.n + 1)
    np.square(ladder.sub, out=squares[1:-1])
    number = squares[:-1]  # a_dag a = diag(0, sub^2)
    # [a, a_dag] = R^T R - R R^T, with R^T R = diag(sub^2, 0)
    commutator = squares[1:] - number - ladder._commutator_diagonal()
    x_values = band_values(np.zeros(ladder.n), 0.5 * ladder.sub)
    pairs, zero_mode = _pair_off(x_values)
    return {
        "nodes": oscillation_nodes(es.n, spec.sign_convention),
        "ladder_residual": float(np.abs(shifted_values(es) - number).max()),
        "commutator_residual": float(np.abs(commutator).max()),
        "x_pairs": [list(pair) for pair in pairs],
        "zero_mode": zero_mode,
    }
