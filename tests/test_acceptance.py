"""Acceptance gate: one test per reference-value criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure). The genetic-algorithm criterion runs three
full searches per configuration and dominates the suite's runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from spinchain import (
    ChainSpec,
    GAConfig,
    PinchSpec,
    Spectrum,
    build_hamiltonian,
    check_pst_condition,
    christandl_chain,
    coupling_statistics,
    deviation_sweep,
    diagonalize_chain,
    evolve,
    pinched_spectrum,
    propagate,
    reconstruct,
    revival_peaks,
    trace,
    transfer_fidelity,
)
from spinchain.analogue import (
    build_ladder,
    mirror_in_eigenbasis,
    node_count,
    pairing_check,
    position_operator,
    shifted_values,
)

GA_SEEDS = (1, 2, 3)


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_table_row_n5(qpst_chain, qpst_es):
    start = time.perf_counter()
    tr = trace(qpst_es, window=50.0, j_max=qpst_chain.j_max)
    t_peak, f_peak = max(tr.peaks, key=lambda p: p[1])
    fav_peak = float(tr.average.max())
    elapsed = time.perf_counter() - start
    ok = (abs(f_peak - 0.9998) <= 5e-4
          and abs(t_peak - 8.63) <= 0.05
          and abs(fav_peak - 0.9999) <= 5e-4
          and elapsed < 1.0)
    report(1, "quasi-PST 5-site chain reproduces the reference fidelity row", ok,
           f"max F={f_peak:.5f} at t*J={t_peak:.3f}, max Fav={fav_peak:.5f}, "
           f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_qpst_spectrum(qpst_es):
    target = np.array([1.006, 2.006, 3.001, 3.994, 4.326])
    deviation = np.abs(qpst_es.values - target).max()
    report(2, "quasi-PST eigenvalues match the reference spectrum", deviation <= 0.002,
           f"max deviation {deviation:.4f}")


def test_criterion_03_reconstruction_fixture(pst5_spectrum, pst5_chain, pst5_es):
    onsite_dev = np.abs(np.array(pst5_chain.onsite)
                        - [3.40, 2.60, 2.33, 2.60, 3.40]).max()
    coupling_dev = np.abs(np.abs(pst5_chain.couplings)
                          - [0.9165, 0.9129, 0.9129, 0.9165]).max()
    f_mirror = transfer_fidelity(pst5_es, 3 * np.pi)
    tr = trace(pst5_es, window=400.0, j_max=pst5_chain.j_max)
    env = [v for _, v in revival_peaks(tr)]
    ok = (onsite_dev <= 0.01 and coupling_dev <= 5e-4
          and f_mirror >= 0.9999 and env and min(env) >= 0.999)
    report(3, "reconstructed PST chain matches reference entries and revives", ok,
           f"diag dev {onsite_dev:.4f}, J dev {coupling_dev:.5f}, "
           f"F(3pi)={f_mirror:.6f}, {len(env)} revivals >= {min(env):.4f}")


def test_criterion_04_qpst_decay(qpst_chain, qpst_es):
    tr = trace(qpst_es, window=400.0, j_max=qpst_chain.j_max)
    env = [v for _, v in revival_peaks(tr)]
    monotone = all(b < a for a, b in zip(env, env[1:]))
    tail_ok = all(0.75 <= v <= 0.90 for v in env[-3:])
    report(4, "quasi-PST revival envelope decays toward ~80%",
           monotone and tail_ok,
           f"{len(env)} revivals, final {env[-1]:.4f}")


def test_criterion_05_appendix_oracle():
    start = time.perf_counter()
    worst_entry, worst_spec = 0.0, 0.0
    for p in (1, 3, 5, 7, 9):
        s = Spectrum(values=(1.0, 2.0, 2.0 + 1.0 / p))
        chain = reconstruct(s)
        expected_mid = (p + 2.0 + 1.0 / p) / (p + 1.0)
        expected_j = 1.0 / np.sqrt(2.0 * p)
        worst_entry = max(
            worst_entry,
            abs(chain.onsite[0] - 2.0), abs(chain.onsite[2] - 2.0),
            abs(chain.onsite[1] - expected_mid),
            float(np.abs(np.abs(chain.couplings) - expected_j).max()),
        )
        es = diagonalize_chain(chain)
        worst_spec = max(worst_spec, float(np.abs(es.values - s.values).max()))
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-12 and worst_spec <= 1e-10 and elapsed < 0.1
    report(5, "3-site closed-form reconstruction holds for p in {1,3,5,7,9}", ok,
           f"entry dev {worst_entry:.2e}, spectrum dev {worst_spec:.2e}, "
           f"{elapsed * 1e3:.1f} ms")


def test_criterion_06_christandl_comparison():
    chain = christandl_chain(5, 1.0)
    spread = coupling_statistics(chain)["max_rel_spread"]
    es = diagonalize_chain(chain)
    f_transfer = transfer_fidelity(es, np.pi / 2)
    ok = 0.18 <= spread <= 0.20 and f_transfer >= 0.9999
    report(6, "engineered-coupling chain: ~20% spread yet perfect transfer", ok,
           f"spread {spread:.4f}, F(pi/2)={f_transfer:.6f}")


def test_criterion_07_pst_detector(qpst_es):
    pst = check_pst_condition(Spectrum(values=(1.0, 2.0, 3.0, 4.0, 13.0 / 3.0)))
    qpst = check_pst_condition(Spectrum(values=tuple(qpst_es.values)), tol=1e-3)
    ok = (pst.valid and pst.q == (3, 3, 3, 1)
          and abs(pst.t_m - 3 * np.pi) <= 1e-9
          and not qpst.valid)
    report(7, "gap detector accepts the PST spectrum and rejects the quasi one",
           ok, f"t_m={pst.t_m:.9f}, Q={pst.q}, qpst residual {qpst.max_residual:.2e}")


def test_criterion_08_analogue_suite():
    worst = {"hprime": 0.0, "comm": 0.0, "anti": 0.0, "pair": 0.0}
    nodes_ok, zero_ok = True, True
    for n in range(4, 13):
        for p in (1, 3, 5):
            gamma = 1.0
            chain = reconstruct(pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5)))
            es = diagonalize_chain(chain)
            nodes_ok &= node_count(es) == list(range(n))
            ladder = build_ladder(es, p=p, gamma=gamma)
            h_shifted = np.diag(shifted_values(es))
            worst["hprime"] = max(worst["hprime"], float(
                np.abs(h_shifted - ladder.number_operator()).max()))
            worst["comm"] = max(worst["comm"], float(
                np.abs(ladder.commutator() - ladder.expected_commutator()).max()))
            xop = position_operator(ladder)
            pairing = pairing_check(xop, mirror_in_eigenbasis(es))
            worst["anti"] = max(worst["anti"], pairing.anticommutator_norm)
            worst["pair"] = max(worst["pair"], pairing.pairing_residual)
            zero_ok &= pairing.zero_mode == (n % 2 == 1)
    ok = (nodes_ok and zero_ok and worst["hprime"] <= 1e-10
          and worst["comm"] <= 1e-10 and worst["anti"] <= 1e-10
          and worst["pair"] <= 1e-9)
    report(8, "ladder/position/pairing diagnostics hold for N=4..12, p in {1,3,5}",
           ok, f"worst residuals {worst}")


def test_criterion_09_sweep_shape():
    start = time.perf_counter()
    points = deviation_sweep(range(4, 41), (3, 5, 7, 9), alpha=0.5)
    details = []
    ok = True
    for p in (3, 5, 7, 9):
        curve = np.array([pt.std_j for pt in points if pt.p == p])
        n_arr = np.array([pt.n for pt in points if pt.p == p])
        imin = int(np.argmin(curve))
        interior_min = 0 < imin < len(curve) - 1 and n_arr[imin] < 12
        increments = np.abs(np.diff(curve))
        tail = increments[n_arr[:-1] >= 20]
        saturating = bool(np.all(np.diff(tail) < 0))
        ok &= interior_min and saturating
        details.append(f"p={p}: min at N={n_arr[imin]}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(9, "coupling deviation forms a well below N=12 then saturates", ok,
           "; ".join(details) + f"; {elapsed:.1f} s")


@pytest.mark.parametrize("n,p,kind", [(4, 3, "high"), (5, 3, "high"),
                                      (9, 9, "low")])
def test_criterion_10_ga_trend(n, p, kind):
    base = GAConfig(n=n, p=p)  # defaults carry the reference run parameters
    best = []
    for seed in GA_SEEDS:
        result = evolve(replace(base, seed=seed))
        best.append(result.best_report.f_max)
        if kind == "high" and best[-1] >= 0.99:
            break
    if kind == "high":
        ok = max(best) >= 0.99
        detail = f"N={n}: best F_max {max(best):.4f} after {len(best)} seed(s)"
    else:
        ok = max(best) <= 0.95
        detail = f"N={n}: best F_max per seed {[f'{b:.4f}' for b in best]}"
    report(10, f"GA fidelity trend for (N={n}, p={p})", ok, detail)


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_amp, worst_unitarity = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        chain = ChainSpec(onsite=tuple(rng.uniform(-2.0, 3.0, n)),
                          couplings=tuple(rng.uniform(0.2, 2.0, n - 1)))
        h = build_hamiltonian(chain)
        es = diagonalize_chain(chain)
        for t in rng.uniform(0.0, 25.0, 20):
            u_oracle = scipy.linalg.expm(-1j * h * t)
            amp = propagate(es, 0, t)
            worst_amp = max(worst_amp, float(np.abs(amp - u_oracle[:, 0]).max()))
            u_spectral = (es.vectors * np.exp(-1j * es.values * t)) @ es.vectors.T
            worst_unitarity = max(worst_unitarity, float(
                np.abs(u_spectral @ u_spectral.conj().T - np.eye(n)).max()))
    ok = worst_amp <= 1e-8 and worst_unitarity <= 1e-10
    report(11, "spectral propagation matches the matrix-exponential oracle", ok,
           f"max amplitude dev {worst_amp:.2e}, unitarity {worst_unitarity:.2e}")
