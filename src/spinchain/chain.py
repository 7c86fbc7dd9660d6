"""Chain data model, single-excitation Hamiltonian and tridiagonal eigensolver.

A chain is a set of on-site energies and nearest-neighbour couplings; in the
single-excitation subspace its Hamiltonian is a real symmetric tridiagonal
matrix, held natively as its two bands (diagonal, off-diagonal). Only this
module lays bands out and calls a tridiagonal eigensolver. One measure,
``_mirror_violation``, says how far bands are from palindromic (exactly 0
for ``eigendecompose``'s split, within a tolerance for
``check_mirror_symmetry``). ``mirror_bands``
splits palindromic chains into the bands of their even and odd half-size
blocks (basis (e_i +- e_{N+1-i})/sqrt(2)); ``eigendecompose`` (checked
eigenpairs), ``mirror_values`` (values only, the inverse path's check) and
``mirror_spectra`` (batched, the GA's) solve through that split. The
eigensolver stores eigenvectors as rows; a mirror chain's top half is signed
once and mirrored into the bottom half, so its eigenvectors are exact mirror
eigenstates. That N x N assembly is deferred: a palindromic chain's
``EigenSystem`` keeps its two checked blocks and assembles ``vectors`` on the
first read, while ``end_weights`` (V[0] * V[N-1], all that a fidelity trace
reads) come from the blocks' first components. ``simulate`` never builds the
N x N matrix.

Eigenpairs come from LAPACK ``dstevd`` and values alone from ``dsterf``,
both called directly: they treat a zero off-diagonal as a split point, so
``mirror_values`` solves both mirror blocks in one ``dsterf`` call, laid end
to end with a zero coupling between them. ``eigendecompose`` refuses
non-finite bands with ``ValueError`` before any solve.

Each solved block is checked for orthonormality, then for its banded
residual r = Hv - lambda v, in one pass over a block of at most
RESIDUAL_TILE rows and tile by tile over a larger one. A larger block forms no
dense Gram product: for computed pairs the identity
(lambda_k - lambda_j) v_j.v_k = r_j.v_k - v_j.r_k bounds every off-diagonal
Gram entry by the residual norms over the eigenvalue gap, so only pairs
closer than 2 max|r| / ORTHONORMALITY_TOL are looked at, and only those the
bound cannot clear are dotted, O(k^2) in all. A single-tile block, a
spectrum too clustered for that, and any block that fails take the dense
product V^T V, whose figure max |V^T V - I| the error message reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, integer, reals

SIGN_CONVENTIONS = ("negative", "positive")

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
RESIDUAL_TILE = 64  # eigenvector rows per tile of the banded residual check
# a block with more than k^2 / this near eigenvalue pairs is left to the
# dense Gram product: dotting that many pairs would cost about as much
PAIR_BUDGET_DIVISOR = 128
MIRROR_TOL = 1e-9
PARITY_TOL = 1e-8


def known_convention(convention) -> str:
    """``convention``, refused unless it is one of ``SIGN_CONVENTIONS``."""
    if convention not in SIGN_CONVENTIONS:
        raise ValueError(f"sign_convention must be one of {SIGN_CONVENTIONS}, "
                         f"got {convention!r}")
    return convention


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
        known_convention(self.sign_convention)
        what = "on-site energies and couplings"
        object.__setattr__(self, "onsite", reals(what, self.onsite))
        object.__setattr__(self, "couplings", reals(what, self.couplings))
        if self.n < 2:
            raise ValueError(f"chain needs at least 2 sites, got {self.n}")
        if len(self.couplings) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} couplings for {self.n} sites, "
                f"got {len(self.couplings)}"
            )
        if 0.0 in self.couplings:
            raise ValueError("zero coupling disconnects the chain")

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
                onsite=d["onsite"],
                couplings=d["couplings"],
                sign_convention=d.get("sign_convention", "negative"),
            )
            n = integer("n", d.get("n", spec.n))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed chain object: {exc}") from exc
        if n != spec.n:
            raise ValueError(f"declared n={d['n']} but {spec.n} on-site energies given")
        return spec


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal real eigenvectors, by column.

    ``vectors[:, k]`` is the eigenvector of ``values[k]``; ``eigendecompose``
    returns it in a Fortran-ordered array, so each eigenvector is contiguous.
    For a palindromic chain the array is assembled from the two mirror blocks
    on the first read of ``vectors`` and the same object is returned after;
    ``end_weights`` needs only the blocks, so a fidelity trace, which reads
    nothing else, never builds the N x N matrix. The arrays are not copied:
    treat them as read-only.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def end_weights(self) -> np.ndarray:
        """w_k = V[0, k] * V[N-1, k], the weights of the end-to-end amplitude."""
        return self.vectors[0] * self.vectors[-1]


class _MirrorSystem(EigenSystem):
    """A palindromic chain's eigensystem, held as its two checked mirror blocks.

    ``values`` are the blocks' eigenvalues, even block first, sorted, and
    ``_parity`` is each sorted state's parity (+1 even, -1 odd), its block.
    ``end_weights`` is built from the blocks; ``vectors`` is assembled from
    them on its first read, after ``end_weights``, and the blocks are dropped.
    """

    def __init__(self, values: np.ndarray, even: np.ndarray, odd: np.ndarray):
        order = np.argsort(values, kind="stable")
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "_parity", np.where(order < len(even), 1.0, -1.0))
        object.__setattr__(self, "_blocks", (order, even, odd))

    @cached_property
    def end_weights(self) -> np.ndarray:
        # V[0, k] = +-x_k and V[N-1, k] = +-x_k * parity_k, one sign for both,
        # x_k the block vector's first component over sqrt(2): the product
        # x * (x * parity) is V[0] * V[-1] bit for bit
        order, even, odd = self._blocks
        x = np.concatenate([even[:, 0], odd[:, 0]])[order] * np.sqrt(0.5)
        return x * (x * self._parity)

    @cached_property
    def vectors(self) -> np.ndarray:
        """The eigenvectors as one N x N array.

        Each block vector fills the top half of its row (sorted by eigenvalue)
        with whole-row copies, the sign rule runs once on that top half, which
        holds every vector's largest component, and the bottom half is the top
        half reversed, negated for odd rows.
        """
        self.end_weights  # built from the blocks before they are dropped
        order, even, odd = self.__dict__.pop("_blocks")
        n = order.size
        m = n // 2
        row = np.empty(n, dtype=np.intp)
        row[order] = np.arange(n)
        even_rows, odd_rows = row[: len(even)], row[len(even):]

        # row k holds its block vector u as (u[:m], +-u[m-1::-1]) / sqrt(2),
        # with the even block's unscaled u[m] as the centre entry for odd N
        vt = np.empty((n, n))
        if n % 2:
            vt[even_rows, m] = even[:, m]
            vt[odd_rows, m] = 0.0
        even *= np.sqrt(0.5)
        odd *= np.sqrt(0.5)
        vt[even_rows, :m] = even[:, :m]
        vt[odd_rows, :m] = odd
        del even, odd  # freed before the sign fix's buffers
        # the top half holds each vector's largest component
        _fix_row_signs(vt[:, : n - m])
        np.multiply(vt[:, m - 1:: -1], self._parity[:, None], out=vt[:, n - m:])
        return vt.T


def _bands(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The Hamiltonian's diagonal and (signed) off-diagonal band."""
    sign = -1.0 if spec.sign_convention == "negative" else 1.0
    return np.asarray(spec.onsite, dtype=float), sign * np.abs(spec.couplings)


def _mirror_violation(d: np.ndarray, e: np.ndarray) -> float:
    """The largest |d - reversed d| or |e - reversed e| of finite bands of at
    least 2 sites: 0 exactly when the chain is palindromic."""
    return max(np.abs(d - d[::-1]).max(), np.abs(e - e[::-1]).max())


def tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrices, batched over leading axes: ``d``
    (..., n) on the diagonal and ``e`` (..., n-1) on both off-diagonals."""
    i = np.arange(d.shape[-1])
    h = np.zeros(d.shape + i.shape)
    h[..., i, i] = d
    h[..., i[:-1], i[1:]] = h[..., i[1:], i[:-1]] = e
    return h


def mirror_bands(d: np.ndarray, e: np.ndarray, n: int):
    """Bands ``((even_d, even_e), (odd_d, odd_e))`` of palindromic chains' blocks.

    In the basis (e_i +- e_{N+1-i})/sqrt(2) an n-site palindromic chain with
    bands (d, e) is block diagonal. N = 2m: both blocks are (d[:m], e[:m-1])
    with last diagonal d[m-1] +- e[m-1]. N = 2m+1: the even block is
    (d[:m+1], e[:m]) with its last coupling times sqrt(2) (it reaches the
    centre site), the odd block is (d[:m], e[:m-1]). Batched over leading
    axes; only the top halves ``d[..., :ceil(n/2)]`` and ``e[..., :n//2]``
    are read.
    """
    m = n // 2
    odd_e = e[..., : m - 1]
    if n % 2:
        even_e = e[..., :m].copy()
        even_e[..., -1] *= np.sqrt(2.0)
        return (d[..., : m + 1], even_e), (d[..., :m], odd_e)
    even_d, odd_d = d[..., :m].copy(), d[..., :m].copy()
    even_d[..., -1] += e[..., m - 1]
    odd_d[..., -1] -= e[..., m - 1]
    return (even_d, odd_e), (odd_d, odd_e)


def band_values(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal bands (d, e), values only."""
    if d.size == 1:
        return d
    from scipy.linalg import lapack  # loaded on the first LAPACK call
    values, info = lapack.dsterf(d, e)
    if info:
        raise NumericalError(f"dsterf did not converge (info {info}, N={d.size})")
    return values


def mirror_values(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the palindromic chain with bands (d, e), so either
    sign of ``e`` gives the same: one ``band_values`` call over its two blocks
    laid end to end with a zero coupling between them, where ``dsterf`` splits
    them, solves each on its own and sorts all the values."""
    (even_d, even_e), (odd_d, odd_e) = mirror_bands(d, e, d.size)
    return band_values(np.concatenate([even_d, odd_d]),
                       np.concatenate([even_e, [0.0], odd_e]))


def mirror_spectra(d: np.ndarray, e: np.ndarray, n: int):
    """Eigenvalues ``lam`` and end weights ``w`` = V[0]*V[-1] of n-site palindromic
    chains, batched like ``mirror_bands``: one ``eigh`` per block stack, ``lam``
    in block order (even block ascending, then odd). A block vector u is the
    chain vector (u, +-u reversed)/sqrt(2), so w = +-u[0]^2/2."""
    (even_d, even_e), (odd_d, odd_e) = mirror_bands(d, e, n)
    even_lam, u_even = np.linalg.eigh(tridiagonal(even_d, even_e))
    odd_lam, u_odd = np.linalg.eigh(tridiagonal(odd_d, odd_e))
    w = 0.5 * np.concatenate([u_even[..., 0, :] ** 2, -u_odd[..., 0, :] ** 2], axis=-1)
    return np.concatenate([even_lam, odd_lam], axis=-1), w


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense single-excitation Hamiltonian: the on-site energies on the diagonal,
    the coupling magnitudes signed per the chain's convention off it."""
    return tridiagonal(*_bands(spec))


def _fix_row_signs(rows: np.ndarray) -> None:
    # deterministic phase, in place on eigenvectors stored as rows: the first
    # component above 1e-12 of the row's largest made positive. The rows are
    # (halves of) checked unit vectors, so no entry exceeds 2 and a first
    # component above 2e-12 decides; only the other rows need their maximum.
    lead = rows[:, 0].copy()
    small = np.flatnonzero(np.abs(lead) <= 2e-12)
    if small.size:
        mag = rows[small]
        np.abs(mag, out=mag)
        first = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)
        lead[small] = rows[small, first]
    np.negative(rows, out=rows, where=(lead < 0.0)[:, None])


def _residual_peak(d: np.ndarray, e: np.ndarray, values: np.ndarray, v: np.ndarray,
                   row_sq: np.ndarray | None = None, r: np.ndarray | None = None,
                   shifted: np.ndarray | None = None) -> float:
    """max |(H - lambda) v| over the eigenpairs (``values``, rows of ``v``), H the
    bands (d, e): (d - lambda) v plus the two shifted off-diagonal terms, built
    in ``r`` with ``shifted`` as scratch when they are given. ``row_sq``, if
    given, receives each row's squared residual 2-norm."""
    r = np.subtract(d, values[:, None], out=r)
    r *= v
    r[:, :-1] += np.multiply(v[:, 1:], e, out=shifted)
    r[:, 1:] += np.multiply(v[:, :-1], e, out=shifted)
    if row_sq is not None:
        np.einsum("ij,ij->i", r, r, out=row_sq)
    return np.abs(r, out=r).max()


def _banded_residual(d: np.ndarray, e: np.ndarray, values: np.ndarray,
                     vt: np.ndarray, row_sq: np.ndarray | None = None) -> float:
    """max |(H - lambda) v| over the eigenpairs, H the bands (d, e) and v the
    rows of ``vt``; ``row_sq``, if given, receives each row's squared
    residual 2-norm (``_residual_peak``).

    A block of at most RESIDUAL_TILE rows is one pass over the whole block.
    A larger one runs over tiles of RESIDUAL_TILE rows through one reused
    buffer pair, each entry computed as on the whole array, so the figure is
    the same; a NaN entry makes it NaN.
    """
    k = values.size
    if k <= RESIDUAL_TILE:
        return _residual_peak(d, e, values, vt, row_sq)
    r, shifted = np.empty((RESIDUAL_TILE, k)), np.empty((RESIDUAL_TILE, k - 1))
    peaks = np.empty(-(-k // RESIDUAL_TILE))
    for tile, start in enumerate(range(0, k, RESIDUAL_TILE)):
        rows = slice(start, start + RESIDUAL_TILE)
        v = vt[rows]
        peaks[tile] = _residual_peak(d, e, values[rows], v,
                                     None if row_sq is None else row_sq[rows],
                                     r[: len(v)], shifted[: len(v)])
    return peaks.max()


def _gram_error(vectors: np.ndarray) -> float:
    """max |V^T V - I|, the dense orthonormality figure of the columns of V."""
    gram = vectors.T @ vectors
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return np.abs(gram, out=gram).max()


def _pair_dots(vt: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """v_j . v_k for the index pairs (j, k) of rows of ``vt``, gathered a few
    at a time (64 KiB of rows per side), since large gathers run slower."""
    dots = np.empty(j.size)
    step = max(1, 8192 // vt.shape[1])
    for start in range(0, j.size, step):
        stop = start + step
        dots[start:stop] = np.einsum("ij,ij->i", vt[j[start:stop]], vt[k[start:stop]])
    return dots


def _orthonormal_by_gaps(d: np.ndarray, e: np.ndarray, values: np.ndarray,
                         vt: np.ndarray, res_sq: np.ndarray) -> bool:
    """True if every entry of V^T V - I is shown to be within
    ORTHONORMALITY_TOL without the dense product; False leaves it undecided.

    The rows of ``vt`` are the vectors v and ``res_sq`` their squared
    residual norms. The diagonal is one row-wise dot pass. Off it, for any
    computed pairs, (lambda_k - lambda_j) v_j.v_k = r_j.v_k - v_j.r_k holds
    exactly, so |v_j.v_k| <= (rho_j |v_k| + rho_k |v_j|) / |lambda_k - lambda_j|
    with rho the residual norm plus a bound on its rounding. With ascending
    values only the pairs closer than 2 max(rho) max|v| / ORTHONORMALITY_TOL
    can miss that bound; those that do are dotted explicitly. O(k^2) unless
    the spectrum is so clustered that the pairs would cost more than the
    dense product, which is left to decide (False).
    """
    k = values.size
    sq = np.einsum("ij,ij->i", vt, vt)
    if not (np.abs(sq - 1.0).max() <= ORTHONORMALITY_TOL
            and (values[1:] >= values[:-1]).all()):
        return False
    norms = np.sqrt(sq)
    # |fl(r) - r| <= ~4 eps (|d - lambda| |v_i| + |e| |v_i-1| + |e| |v_i+1|)
    # entrywise; twice that, and (1 + k eps) for the norm's own rounding
    eps = np.finfo(float).eps
    scale = np.abs(d).max() + 2.0 * np.abs(e).max() + np.abs(values)
    rho = np.sqrt(res_sq) * (1.0 + k * eps) + 8.0 * eps * scale * norms
    # widened a little, so rounding in values + window drops no pair near its edge
    window = 2.0 * rho.max() * norms.max() / ORTHONORMALITY_TOL * (1.0 + 1e-6)
    if not math.isfinite(window):
        return False
    first = np.arange(k)
    counts = np.searchsorted(values, values + window, side="right") - first - 1
    total = int(counts.sum())
    if total > k * k // PAIR_BUDGET_DIVISOR:
        return False
    j = np.repeat(first, counts)
    near = j + 1 + np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    listed = rho[j] * norms[near] + rho[near] * norms[j] > (
        ORTHONORMALITY_TOL * (values[near] - values[j]))
    dots = _pair_dots(vt, j[listed], near[listed])
    return bool(np.abs(dots).max(initial=0.0) <= ORTHONORMALITY_TOL)


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (Fortran-ordered columns) of the
    symmetric tridiagonal bands (d, e), at least 2 rows, from LAPACK ``dstevd``.
    Raises ``LinAlgError`` if ``dstevd`` reports a failure."""
    from scipy.linalg import lapack  # loaded on the first LAPACK call
    values, vectors, info = lapack.dstevd(d, e, compute_v=1)
    if info:
        raise np.linalg.LinAlgError(f"dstevd failed (info {info})")
    return values, vectors


def _solve_checked(d: np.ndarray, e: np.ndarray, h_max: float,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric tridiagonal bands (d, e), checked on the bands.

    Returns the eigenvalues and the eigenvectors as rows (the transpose of
    the solver's Fortran-ordered columns, so C-ordered). ``h_max`` scales the
    residual bound and ``n`` is the size of the chain named in error messages
    (a mirror block is half of it).

    Orthonormality is checked first, then the residual. A block of more than
    RESIDUAL_TILE rows is shown orthonormal from its residuals and eigenvalue
    gaps (``_orthonormal_by_gaps``), O(k^2); a single-tile block, a spectrum
    too clustered for that and any block it cannot clear are decided by the
    dense Gram product, whose figure max |V^T V - I| a failure reports.
    """
    try:
        if d.size == 1:
            values, vectors = d.copy(), np.eye(1)
        else:
            values, vectors = _eigh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecompose: dstevd did not converge (N={n})") from exc

    vt = vectors.T
    large = d.size > RESIDUAL_TILE
    res_sq = np.empty(d.size) if large else None
    resid = _banded_residual(d, e, values, vt, res_sq)
    if not (large and _orthonormal_by_gaps(d, e, values, vt, res_sq)):
        ortho = _gram_error(vectors)
        # "not <=": NaN eigenpairs fail the checks too
        if not ortho <= ORTHONORMALITY_TOL:
            raise NumericalError(f"eigendecompose: orthonormality error {ortho:.3e} (N={n})")
    if not resid <= RESIDUAL_TOL * max(h_max, 1e-300):
        raise NumericalError(f"eigendecompose: eigenpair residual {resid:.3e} (N={n})")
    return values, vt


def eigendecompose(h) -> EigenSystem:
    """Diagonalize a real symmetric tridiagonal matrix given as its bands.

    ``h`` is the pair ``(diagonal, off_diagonal)``, of shapes (N,) and
    (N-1,); anything else is refused with ``ValueError``.

    A palindromic matrix is solved as its even and odd half-size blocks, each
    checked on its own bands with the same tolerances; its eigenvectors are
    then exact mirror eigenstates, assembled from the blocks on the first
    read of ``vectors``. Palindromic here means a ``_mirror_violation`` of
    exactly 0: the blocks are built from the top halves of the bands, so a
    chain one ulp off its mirror would be solved as a different matrix, and
    takes the full solve instead. Every check runs before this returns.

    Returns ascending eigenvalues and orthonormal eigenvectors with a
    deterministic sign convention (first nonzero component positive). Raises
    ``ValueError`` for an entry that is NaN or infinite, and
    ``NumericalError`` if ``dstevd`` fails to converge or its eigenpairs fail
    the orthonormality or residual check.
    """
    try:
        shapes = [np.shape(band) for band in h] if isinstance(h, tuple) else [np.shape(h)]
    except ValueError:  # a ragged sequence has no shape
        shapes = [type(h).__name__]
    if len(shapes) != 2 or len(shapes[0]) != 1 or shapes[1] != (shapes[0][0] - 1,):
        raise ValueError("expected bands (diagonal, off-diagonal) of shapes (N,) and "
                         f"(N-1,), got {' and '.join(map(str, shapes))}")
    d, e = (np.asarray(band, dtype=float) for band in h)
    n = d.size
    d_max, e_max = np.abs(d).max(), np.abs(e).max(initial=0.0)
    # refused here: dstevd returns NaN eigenpairs with info 0 for infinite bands
    if not (math.isfinite(d_max) and math.isfinite(e_max)):
        raise ValueError("band entries must be finite")
    h_max = max(d_max, e_max)

    if n > 1 and _mirror_violation(d, e) == 0.0:
        (even_d, even_e), (odd_d, odd_e) = mirror_bands(d, e, n)
        even_values, even = _solve_checked(even_d, even_e, h_max, n)
        odd_values, odd = _solve_checked(odd_d, odd_e, h_max, n)
        return _MirrorSystem(np.concatenate([even_values, odd_values]), even, odd)
    values, vt = _solve_checked(d, e, h_max, n)
    _fix_row_signs(vt)
    return EigenSystem(values=values, vectors=vt.T)


def diagonalize_chain(spec: ChainSpec) -> EigenSystem:
    """Eigendecompose the chain's Hamiltonian from its bands (no dense matrix)."""
    return eigendecompose(_bands(spec))


def check_mirror_symmetry(spec: ChainSpec) -> tuple[bool, float]:
    """Is the chain palindromic (persymmetric Hamiltonian)?

    Returns (symmetric, largest violation): the ``_mirror_violation`` of the
    Hamiltonian's bands, so of the on-site profile and the coupling-magnitude
    profile against their reversals. This judges a design, which may come
    from a file or from arithmetic that rounds, so it allows MIRROR_TOL;
    only ``eigendecompose``'s block split needs exact symmetry.
    """
    violation = float(_mirror_violation(*_bands(spec)))
    return violation <= MIRROR_TOL, violation


def eigenstate_parity(es: EigenSystem) -> list[int]:
    """Parity (+1 even / -1 odd) of each eigenstate under the mirror operator.

    Only defined for mirror-symmetric chains, where every eigenstate is
    either even or odd; a state that is neither (beyond PARITY_TOL) signals
    a non-symmetric chain and raises ``ValueError``.
    """
    overlaps = np.einsum("ik,ik->k", es.vectors, es.vectors[::-1])
    bad = np.flatnonzero(np.abs(np.abs(overlaps) - 1.0) > PARITY_TOL)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"eigenstate {k} has |mirror overlap| - 1 = "
            f"{abs(overlaps[k]) - 1.0:.3e} (tol {PARITY_TOL:g}, N={es.n}); "
            "chain is not mirror-symmetric"
        )
    return [1 if overlap > 0 else -1 for overlap in overlaps]
