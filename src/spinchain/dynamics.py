"""Time evolution and transfer-fidelity diagnostics.

Evolution is done in the eigenbasis: the amplitude on site j after time t is
sum_k phi_k(j) exp(-i lambda_k t) phi_k(start), with hbar = 1. Fidelity
traces are sampled on the dimensionless axis t*J_max so windows are
comparable across chains. ``fidelity_grid`` is the one grid kernel, shared by
``trace`` and the GA's ``evolve`` (``ga._grid_stage``). The end-to-end
amplitude needs only the spectrum and the end weights V[0, k] * V[N-1, k]:
``trace`` and ``transition_amplitude`` read ``EigenSystem.end_weights`` and
nothing else, so a trace never assembles the N x N eigenvector matrix.
``trace`` refines its peaks by one golden-section search run on all brackets
at once (``_refine_peaks``) and reports F as ``transfer_fidelity`` at each
final midpoint; ``transfer_fidelity`` is the scalar reference. The
Bloch-averaged fidelity <F_av> has one formula, ``_average``: ``trace``'s
``average`` column and ``average_fidelity`` both evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import EigenSystem
from .errors import integer, positive, real

PEAK_FLOOR = 0.5
PEAK_TOL = 1e-6  # width in t*J_max to which a peak's bracket is narrowed
SAMPLES_PER_UNIT = 200  # default trace density: 10,000 samples per 50-unit window
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def propagate(es: EigenSystem, initial_site: int, t: float) -> np.ndarray:
    """Complex site amplitudes at time t for an excitation starting on one site."""
    t = real("t", t)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    initial_site = integer("initial_site", initial_site)
    if not 0 <= initial_site < es.n:
        raise ValueError(f"initial_site {initial_site} out of range for n={es.n}")
    weights = es.vectors[initial_site, :] * np.exp(-1j * es.values * t)
    return es.vectors @ weights


def transfer_fidelity(es: EigenSystem, t: float) -> float:
    """F(t): probability of finding the excitation on the far end at time t."""
    amp = transition_amplitude(es, t)
    return float(abs(amp) ** 2)


def transition_amplitude(es: EigenSystem, t: float) -> complex:
    """End-to-end transition amplitude a_{1,N}(t); its phase is nu."""
    return complex(np.sum(es.end_weights * np.exp(-1j * es.values * t)))


def _cos_sin_table(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i lam t) as a (len(t), L) table for a flat (L,) lam, from cos and sin.

    t[0] must be 0: that row is written as 1 and -0.0 * lam, the bits cos
    and -sin give there for a finite lam (-sin(0.0 * lam) is -0.0 for
    lam >= +0.0 and +0.0 below), and only the other rows call cos and sin.
    """
    table = np.empty((t.size, lam.size), dtype=complex)
    table.real[0] = 1.0
    np.multiply(-0.0, lam, out=table.imag[0])
    theta = t[1:, None] * lam[None, :]
    rest = table[1:]
    np.cos(theta, out=rest.real)
    np.sin(theta, out=rest.imag)
    np.negative(rest.imag, out=rest.imag)
    return table


def _phase_table(lam: np.ndarray, step: float, count: int) -> np.ndarray:
    """exp(-i lam m step) for m = 0..count-1 as a (count, L) table, flat (L,) lam.

    m = u*q + v with q = ceil(sqrt(count)): each entry is one product of two
    exact cos/sin values, exp(-i lam u q step) * exp(-i lam v step), so no
    rounding accumulates along m and each eigenvalue costs 2*sqrt(count)
    cos/sin calls instead of count. Every pass runs along the long L axis.
    """
    q = math.isqrt(count - 1) + 1
    outer = _cos_sin_table(lam, np.arange(0, count, q) * step)
    inner = _cos_sin_table(lam, np.arange(q) * step)
    table = outer[:, None, :] * inner[None, :, :]
    return table.reshape(-1, lam.size)[:count]


def fidelity_grid(lam: np.ndarray, w: np.ndarray, dt: float, samples: int) -> np.ndarray:
    """|sum_k w_k exp(-i lam_k s dt)|^2 for s = 0..samples-1, per row of (rows, n).

    s = a*R + r with R = ceil(sqrt(samples)): one batched matmul of an (A, n)
    table w_k exp(-i lam_k a R dt) by an (n, R) table exp(-i lam_k r dt),
    padded to A*R and cut back. Each phase-table entry is one product of two
    exact cos/sin values (``_phase_table``), so no rounding accumulates along
    the grid. The tables are built for ``lam.ravel()`` as (A, rows*n) and
    (R, rows*n), so every elementwise pass runs along one rows*n axis; the
    matmul reads them as strided (rows, A, n) and (rows, n, R) views, which
    BLAS takes without a copy. Memory is O(rows * (sqrt(samples) * n + samples)).
    """
    rows, n = lam.shape
    fine = math.isqrt(samples - 1) + 1
    coarse = -(-samples // fine)
    flat = lam.ravel()
    head = _phase_table(flat, fine * dt, coarse)
    head *= w.ravel()
    inner = _phase_table(flat, dt, fine)
    amp = np.matmul(head.reshape(coarse, rows, n).transpose(1, 0, 2),
                    inner.reshape(fine, rows, n).transpose(1, 2, 0))
    # |amp|^2: square the float64 view in place, add the re/im pairs
    parts = amp.view(np.float64)
    np.square(parts, out=parts)
    return (parts[..., 0::2] + parts[..., 1::2]).reshape(rows, -1)[:, :samples]


def _average(f):
    """<F_av> = sqrt(F)/3 + F/6 + 1/2 of transfer fidelities F in [0, 1], elementwise."""
    a = np.sqrt(f)
    return a / 3.0 + f / 6.0 + 0.5


def average_fidelity(f_transfer: float) -> float:
    """Bloch-sphere-averaged fidelity, maximized over the global field (cos nu = 1).

    ``trace``'s ``average`` column bit for bit, for F in [0, 1]; F within 1e-9
    outside that range is clamped to it.
    """
    f = real("f_transfer", f_transfer)
    if not -1e-9 <= f <= 1.0 + 1e-9:
        raise ValueError(f"transfer fidelity must lie in [0, 1], got {f}")
    return float(_average(min(max(f, 0.0), 1.0)))


@dataclass(frozen=True)
class FidelityTrace:
    """Sampled transfer fidelity on the t*J_max axis, with refined peaks.

    ``peaks`` lists (t*J_max, F) for every local maximum of the transfer
    fidelity above 0.5, each refined past the grid resolution.
    """

    times: np.ndarray
    transfer: np.ndarray
    average: np.ndarray
    peaks: list[tuple[float, float]] = field(default_factory=list)
    j_max: float = 1.0


def _refine_peaks(es: EigenSystem, j_max: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section maximization of F on every bracket [a, b] at once.

    Each bracket runs the scalar search's iterates, to its own ``b - a <=
    PEAK_TOL``: a step moves the bracket ends of the active rows and evaluates
    one new point per row. F is ``transfer_fidelity``'s arithmetic
    row-wise: the same amplitude sum, ``np.hypot`` for ``abs()`` and
    Python's ``** 2``, so every comparison, and the final midpoints
    returned, are those of the scalar loop bit for bit. ``a`` and ``b`` are
    updated in place.
    """
    c = -1j * es.values
    w = es.end_weights

    def fid(xq: np.ndarray) -> np.ndarray:
        amp = np.sum(w * np.exp(c * (xq / j_max)[:, None]), axis=1)
        return np.array([v ** 2 for v in np.hypot(amp.real, amp.imag).tolist()])

    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = np.split(fid(np.concatenate([x1, x2])), 2)
    live = np.flatnonzero(b - a > PEAK_TOL)
    while live.size:
        up = f1[live] < f2[live]
        i, k = live[up], live[~up]
        # f1 < f2: the maximum is in [x1, b]; else it is in [a, x2]
        a[i], x1[i], f1[i] = x1[i], x2[i], f2[i]
        x2[i] = a[i] + GOLDEN * (b[i] - a[i])
        b[k], x2[k], f2[k] = x2[k], x1[k], f1[k]
        x1[k] = b[k] - GOLDEN * (b[k] - a[k])
        f2[i], f1[k] = np.split(fid(np.concatenate([x2[i], x1[k]])), [i.size])
        live = live[b[live] - a[live] > PEAK_TOL]
    return 0.5 * (a + b)


def trace(es: EigenSystem, window: float = 50.0, samples: int | None = None,
          j_max: float = 1.0) -> FidelityTrace:
    """Sample F and <F_av> over t*J_max in [0, window]; locate revival peaks.

    ``samples`` defaults to 200 per dimensionless unit. Every local maximum
    of the grid above PEAK_FLOOR is refined to PEAK_TOL in t*J_max by one
    golden-section search run on all brackets [x[i-1], x[i+1]] at once; the
    reported F is ``transfer_fidelity`` at the final midpoint.
    """
    j_max = positive("j_max", j_max)
    window = positive("window", window)
    if samples is None:
        samples = max(2, int(round(SAMPLES_PER_UNIT * window))) + 1
    if integer("samples", samples) < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")

    x = np.linspace(0.0, window, samples)
    w = es.end_weights
    f = fidelity_grid(es.values[None], w[None], window / (samples - 1) / j_max,
                      samples)[0]
    # below the worst-case rounding of the n-term amplitude sum F is noise
    f[f < (es.n * np.finfo(float).eps * np.abs(w).sum()) ** 2] = 0.0

    interior = np.flatnonzero(
        (f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]) & (f[1:-1] > PEAK_FLOOR)
    ) + 1
    peaks = []
    if interior.size:
        for xp in _refine_peaks(es, j_max, x[interior - 1], x[interior + 1]):
            peaks.append((float(xp), transfer_fidelity(es, xp / j_max)))

    return FidelityTrace(times=x, transfer=f, average=_average(f), peaks=peaks,
                        j_max=j_max)


def revival_peaks(tr: FidelityTrace) -> list[tuple[float, float]]:
    """The mirror-revival envelope of a trace.

    Revivals recur near odd multiples of the first high peak's time; this
    picks the highest peak in each such window, skipping the secondary
    structure between revivals.
    """
    if not tr.peaks:
        return []
    times = np.array([p[0] for p in tr.peaks])
    values = np.array([p[1] for p in tr.peaks])
    high = np.flatnonzero(values >= 0.9 * values.max())
    t1 = times[high[0]]
    window = float(tr.times[-1])
    out = []
    m = 1
    while m * t1 <= window + 0.5 * t1:
        near = np.abs(times - m * t1) < 0.5 * t1
        if near.any():
            j = np.flatnonzero(near)[np.argmax(values[near])]
            out.append((float(times[j]), float(values[j])))
        m += 2
    return out
