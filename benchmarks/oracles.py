"""Output checks, one per workload.

Each check takes what one op produced and returns a list of problems; an
empty list means the output is correct. The references come from closed
forms, from independent solvers (scipy's tridiagonal eigensolver) or from
the acceptance criteria's reference figures, never from the code path the
op itself timed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

import spinchain as sc

SAMPLES_PER_UNIT = 200
CSV_TOL = 1e-9
ROUNDTRIP_TOL = 1e-10      # relative to the spectral spread
PST_T_TOL = 1e-9           # relative to the expected mirror time
GAP_LOW, GAP_HIGH = -1e-9, 1e-3

# 5-site fixtures and their reference figures (acceptance criteria 1, 3, 4)
QPST_ONSITE = (3.40, 2.60, 2.33, 2.60, 3.40)
QPST_COUPLING = 0.91
PST5_VALUES = (1.0, 2.0, 3.0, 4.0, 13.0 / 3.0)
PST5_ONSITE_REF = (3.40, 2.60, 2.33, 2.60, 3.40)
PST5_COUPLING_REF = (0.9165, 0.9129, 0.9129, 0.9165)


def _chain_arrays(chain: dict) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(chain["onsite"], float), np.abs(np.asarray(chain["couplings"], float))


# -- ga-search ----------------------------------------------------------------

def check_ga(out_dir: Path, cfg: dict, stats: dict | None = None) -> list[str]:
    """The best chain is palindromic with uniform couplings, re-scores to the
    reported figures through ``fitness()``, and its refined trace peak sits
    within [-1e-9, +1e-3] of the grid F_max."""
    problems = []
    chain = json.loads((out_dir / "best_chain.json").read_text(encoding="utf-8"))
    onsite, couplings = _chain_arrays(chain)
    ga_cfg = sc.GAConfig.from_dict(cfg)
    if len(onsite) != ga_cfg.n:
        return [f"best chain has {len(onsite)} sites, expected {ga_cfg.n}"]
    if not np.array_equal(onsite, onsite[::-1]):
        problems.append("best chain is not palindromic")
    if not np.all(couplings == abs(ga_cfg.coupling)):
        problems.append("best chain couplings are not uniform")

    last = (out_dir / "history.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    ind = sc.GAIndividual(genome=tuple(onsite[: ga_cfg.genome_length]),
                          coupling=ga_cfg.coupling)
    rep = sc.fitness(ind, ga_cfg)
    if [f"{rep.fitness:.12g}", f"{rep.f_max:.12g}"] != last[1:3]:
        problems.append(f"re-scored (f, F_max) = ({rep.fitness:.12g}, {rep.f_max:.12g}) "
                        f"but history reports ({last[1]}, {last[2]})")

    es = sc.diagonalize_chain(sc.ChainSpec.from_dict(chain))
    tr = sc.trace(es, window=ga_cfg.window, j_max=abs(ga_cfg.coupling))
    refined = max([float(tr.transfer.max())] + [f for _, f in tr.peaks])
    gap = refined - rep.f_max
    if stats is not None:
        stats["max_gap"] = max(stats.get("max_gap", gap), gap)
    if not GAP_LOW <= gap <= GAP_HIGH:
        problems.append(f"refined peak {refined:.12g} vs grid F_max {rep.f_max:.12g} "
                        f"(gap {gap:.3e})")
    return problems


# -- inverse-verify -------------------------------------------------------------

def pinched_values(n: int, p: int, alpha: float, shift: float) -> np.ndarray:
    """The pinched spectrum from its closed form."""
    values = alpha * ((1 - n) + 2.0 * np.arange(n - 1)) + shift
    return np.append(values, values[-1] + 2.0 * alpha / p)


def check_inverse(point: tuple, result: dict) -> list[str]:
    """Roundtrip and independent eigenvalues within 1e-10 of the spread, a
    valid PST check at t_m = p*pi/(2*alpha), node counts 0..N-1 and a zero
    mode exactly for odd N."""
    n, p, alpha, shift = point
    problems = []
    lam = pinched_values(n, p, alpha, shift)
    spread = lam[-1] - lam[0]
    if np.abs(np.asarray(result["spectrum"].values) - lam).max() > 1e-12 * spread:
        problems.append("pinched spectrum differs from its closed form")
    if not result["roundtrip_error"] <= ROUNDTRIP_TOL * spread:
        problems.append(f"roundtrip error {result['roundtrip_error']:.3e}")

    chain = result["chain"]
    onsite = np.asarray(chain.onsite)
    couplings = np.abs(chain.couplings)
    if not (np.array_equal(onsite, onsite[::-1]) and np.array_equal(couplings, couplings[::-1])):
        problems.append("reconstructed chain is not persymmetric")
    independent = scipy.linalg.eigvalsh_tridiagonal(onsite, couplings)
    if np.abs(independent - lam).max() > ROUNDTRIP_TOL * spread:
        problems.append("reconstructed chain does not carry the input spectrum")
    stats = result["coupling_stats"]
    if abs(stats["std_dev"] - np.std(couplings)) > 1e-12 * couplings.max():
        problems.append("coupling statistics disagree with the chain")

    check = result["pst"]
    t_m = p * np.pi / (2.0 * alpha)
    if not check.valid or abs(check.t_m - t_m) > PST_T_TOL * t_m:
        problems.append(f"PST check valid={check.valid} t_m={check.t_m:.12g}, expected {t_m:.12g}")
    report = result["report"]
    if report["nodes"] != list(range(n)):
        problems.append("node counts are not 0..N-1")
    if report["zero_mode"] != (n % 2 == 1):
        problems.append(f"zero mode {report['zero_mode']} for N={n}")
    return problems


# -- simulate (shared) ------------------------------------------------------------

def check_trace_csv(out_dir: Path, window: float, f_ref, rows: np.ndarray) -> list[str]:
    """trace.csv has 200*window + 1 rows; at the sampled rows the time axis is
    the uniform grid and F and Fav match the reference to 1e-9."""
    lines = (out_dir / "trace.csv").read_text(encoding="utf-8").splitlines()
    samples = int(round(SAMPLES_PER_UNIT * window)) + 1
    if lines[0] != "t_Jmax,F,Fav":
        return [f"unexpected header {lines[0]!r}"]
    if len(lines) - 1 != samples:
        return [f"trace.csv has {len(lines) - 1} rows, expected {samples}"]
    data = np.array([[float(v) for v in lines[1 + i].split(",")] for i in rows])
    x = np.linspace(0.0, window, samples)[rows]
    problems = []
    if np.abs(data[:, 0] - x).max() > CSV_TOL * max(1.0, window):
        problems.append("time column is off the uniform grid")
    f = f_ref(data[:, 0])
    if np.abs(data[:, 1] - f).max() > CSV_TOL:
        problems.append(f"F differs from the reference by {np.abs(data[:, 1] - f).max():.3e}")
    fav = np.sqrt(np.clip(data[:, 1], 0, 1)) / 3.0 + data[:, 1] / 6.0 + 0.5
    if np.abs(data[:, 2] - fav).max() > CSV_TOL:
        problems.append("Fav is not the Bloch average of F")
    return problems


def spectral_reference(values: np.ndarray, end_weights: np.ndarray, j_max: float):
    """F(t*J_max) from eigenvalues and the end-to-end eigenvector weights."""
    def f_ref(x):
        amp = np.exp(-1j * np.outer(np.asarray(x) / j_max, values)) @ end_weights
        return np.abs(amp) ** 2
    return f_ref


def independent_reference(chain: dict):
    """Reference F from scipy's tridiagonal eigensolver, not spinchain's."""
    onsite, couplings = _chain_arrays(chain)
    values, vectors = scipy.linalg.eigh_tridiagonal(onsite, couplings)
    return spectral_reference(values, vectors[0] * vectors[-1], couplings.max())


# -- simulate-small ---------------------------------------------------------------

def check_pst5_chain(chain: dict) -> list[str]:
    """Criterion 3: the reconstructed 5-site PST chain matches its entries."""
    onsite, couplings = _chain_arrays(chain)
    if np.abs(onsite - PST5_ONSITE_REF).max() > 0.01 \
            or np.abs(couplings - PST5_COUPLING_REF).max() > 5e-4:
        return ["reconstructed 5-site PST chain misses the reference entries"]
    return []


def _peaks(out_dir: Path) -> dict:
    return json.loads((out_dir / "peaks.json").read_text(encoding="utf-8"))


def check_fixture(out_dir: Path, kind: str, window: float, j_max: float) -> list[str]:
    """The 5-site rows against criteria 1, 3 and 4."""
    peaks = _peaks(out_dir)
    top = max(peaks["peaks"], key=lambda q: q["F"], default=None)
    revivals = [r["F"] for r in peaks["revivals"]]
    if top is None:
        return ["no fidelity peak above 0.5"]
    if kind == "qpst" and window <= 50:
        fav = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1, usecols=2)
        if abs(top["F"] - 0.9998) > 5e-4 or abs(top["t"] - 8.63) > 0.05 \
                or abs(fav.max() - 0.9999) > 5e-4:
            return [f"quasi-PST row: F={top['F']:.5f} at {top['t']:.3f}, Fav={fav.max():.5f}"]
    elif kind == "qpst":
        if not (all(b < a for a, b in zip(revivals, revivals[1:]))
                and len(revivals) >= 3 and all(0.75 <= v <= 0.90 for v in revivals[-3:])):
            return ["quasi-PST revival envelope does not decay to ~80%"]
    else:
        t_mirror = 3.0 * np.pi * j_max
        near = [q["F"] for q in peaks["peaks"] if abs(q["t"] - t_mirror) < 1e-3]
        if not near or near[0] < 0.9999:
            return [f"PST chain has no F >= 0.9999 peak at t*J_max = {t_mirror:.4f}"]
        if window > 50 and (not revivals or min(revivals) < 0.999):
            return ["PST revivals drop below 0.999"]
    return []


# -- simulate-large ---------------------------------------------------------------

def christandl_reference(n: int, j0: float):
    """Closed-form F(t*J_max) = sin(j0 t)^(2(N-1)) of the engineered chain."""
    j_max = j0 * np.sqrt(np.arange(1, n) * (n - np.arange(1, n))).max()

    def f_ref(x):
        return np.sin(j0 * np.asarray(x) / j_max) ** (2 * (n - 1))
    return f_ref


def check_christandl_chain(chain: dict, j0: float) -> list[str]:
    """Eigenvalues j0*(2k - (N-1)) and F(pi/(2*j0)) >= 1 - 1e-9, computed with
    scipy's solver on the chain spinchain built."""
    onsite, couplings = _chain_arrays(chain)
    n = len(onsite)
    values, vectors = scipy.linalg.eigh_tridiagonal(onsite, couplings)
    expected = j0 * (2.0 * np.arange(n) - (n - 1))
    problems = []
    if np.abs(values - expected).max() > 1e-9 * (expected[-1] - expected[0]):
        problems.append("engineered chain eigenvalues are not j0*(2k-(N-1))")
    amp = np.sum(vectors[0] * vectors[-1] * np.exp(-1j * values * np.pi / (2.0 * j0)))
    if abs(amp) ** 2 < 1.0 - 1e-9:
        problems.append(f"engineered chain F(pi/(2 j0)) = {abs(amp) ** 2:.12f}")
    return problems
