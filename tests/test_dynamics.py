"""Dynamics: propagation, fidelities, traces, revival bookkeeping."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinchain import (
    ChainSpec,
    EigenSystem,
    Spectrum,
    average_fidelity,
    build_hamiltonian,
    check_pst_condition,
    christandl_chain,
    diagonalize_chain,
    propagate,
    revival_peaks,
    trace,
    transfer_fidelity,
    transition_amplitude,
)

from spinchain import dynamics
from spinchain.dynamics import GOLDEN, _cos_sin_table, _phase_table, fidelity_grid

from conftest import uniform_chain


def assert_bitwise(a, b):
    """Equal arrays down to the bits, the signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def small_chains(draw, max_n=60):
    """Chains of 2-max_n sites, palindromic (the deferred mirror solve) or not."""
    n = draw(st.integers(2, max_n))
    coupling = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))
    couplings = draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
    onsite = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        onsite[n - n // 2:] = onsite[: n // 2][::-1]
        couplings[n - 1 - (n - 1) // 2:] = couplings[: (n - 1) // 2][::-1]
    convention = draw(st.sampled_from(["negative", "positive"]))
    return ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                     sign_convention=convention)


def golden_refine(fun, a, b, tol=1e-6):
    """The scalar golden-section maximization of fun on [a, b]."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fun(x1)
    x = 0.5 * (a + b)
    return x, fun(x)


def scalar_peaks(es, tr, j_max):
    """The trace's grid maxima above 0.5, each refined by ``golden_refine``
    over ``transfer_fidelity``."""
    x, f = tr.times, tr.transfer
    peaks = []
    for i in range(1, len(f) - 1):
        if f[i] > f[i - 1] and f[i] >= f[i + 1] and f[i] > 0.5:
            xp, fp = golden_refine(lambda xq: transfer_fidelity(es, xq / j_max),
                                   x[i - 1], x[i + 1])
            peaks.append((float(xp), float(fp)))
    return peaks


@st.composite
def near_pst_chains(draw):
    """Christandl chains of 2-40 sites with up to 5% noise on every coupling
    and on-site energy, palindromic or not: their traces have many peaks."""
    n = draw(st.integers(2, 40))
    noise = st.floats(-0.05, 0.05)
    i = np.arange(1, n)
    couplings = np.sqrt(i * (n - i)) * (1.0 + np.array(
        draw(st.lists(noise, min_size=n - 1, max_size=n - 1))))
    onsite = np.array(draw(st.lists(noise, min_size=n, max_size=n))) * n
    if draw(st.booleans()):
        onsite[n - n // 2:] = onsite[: n // 2][::-1]
        couplings[n - 1 - (n - 1) // 2:] = couplings[: (n - 1) // 2][::-1]
    convention = draw(st.sampled_from(["negative", "positive"]))
    return ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                     sign_convention=convention)


class TestPropagate:
    def test_identity_at_t0(self, qpst_es):
        amp = propagate(qpst_es, 0, 0.0)
        expected = np.zeros(5, dtype=complex)
        expected[0] = 1.0
        assert np.abs(amp - expected).max() <= 1e-12

    def test_two_site_rabi(self):
        es = diagonalize_chain(uniform_chain(2))
        for t in np.linspace(0.0, 6.0, 25):
            amp = propagate(es, 0, t)
            assert abs(abs(amp[1]) ** 2 - np.sin(t) ** 2) <= 1e-12

    def test_pst_chain_at_mirror_time(self, pst5_es):
        amp = propagate(pst5_es, 0, 3 * np.pi)
        assert abs(amp[4]) ** 2 >= 0.9999

    def test_norm_conserved(self, qpst_es):
        rng = np.random.default_rng(2)
        for t in rng.uniform(0.0, 100.0, 30):
            amp = propagate(qpst_es, 0, t)
            assert abs(np.sum(np.abs(amp) ** 2) - 1.0) <= 1e-10

    def test_negative_time_rejected(self, qpst_es):
        with pytest.raises(ValueError):
            propagate(qpst_es, 0, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, qpst_es, t):
        with pytest.raises(ValueError, match="finite"):
            propagate(qpst_es, 0, t)

    def test_matches_expm_oracle(self):
        # brute-force matrix exponential, independent of the eigensolver path
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            chain = ChainSpec(onsite=tuple(rng.uniform(-1, 3, n)),
                              couplings=tuple(rng.uniform(0.2, 2, n - 1)))
            h = build_hamiltonian(chain)
            es = diagonalize_chain(chain)
            for t in rng.uniform(0.0, 20.0, 5):
                u = scipy.linalg.expm(-1j * h * t)
                assert np.abs(propagate(es, 0, t) - u[:, 0]).max() <= 1e-8


class TestFidelity:
    def test_zero_at_t0(self, qpst_es):
        assert transfer_fidelity(qpst_es, 0.0) <= 1e-20

    def test_table_value(self, qpst_es):
        # best transfer of the quasi-PST chain near t*J = 8.63
        f = transfer_fidelity(qpst_es, 8.6223 / 0.91)
        assert f == pytest.approx(0.9998, abs=5e-4)

    def test_amplitude_bounded(self, qpst_es):
        for t in np.linspace(0, 60, 50):
            assert abs(transition_amplitude(qpst_es, t)) <= 1.0 + 1e-12


class TestAverageFidelity:
    def test_endpoints(self):
        assert average_fidelity(1.0) == pytest.approx(1.0, abs=1e-15)
        assert average_fidelity(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_table_row(self):
        assert average_fidelity(0.9998) == pytest.approx(0.9999, abs=5e-5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            average_fidelity(1.5)
        with pytest.raises(ValueError):
            average_fidelity(-0.2)

    def test_equals_trace_average(self, qpst_chain, qpst_es):
        # one formula: the scalar gives every sample of the trace's column bit for bit
        tr = trace(qpst_es, window=400.0, j_max=qpst_chain.j_max)
        assert tr.transfer.size == 80001
        assert_bitwise([average_fidelity(f) for f in tr.transfer.tolist()], tr.average)


def log_binomial_weights(n):
    """C(N-1, k) / 2^(N-1) for k = 0..N-1, from log-gammas (no overflow)."""
    return np.exp([math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
                   - (n - 1) * math.log(2.0) for k in range(n)])


class TestChristandlClosedForm:
    """The Christandl chain J_i = j0 sqrt(i(N-i)) is -+2 j0 S_x for spin (N-1)/2:
    eigenvalues 2 j0 m, end weights +-C(N-1, k)/2^(N-1) and
    F(t) = sin^(2(N-1))(j0 t) exactly, first revival at t = pi/(2 j0).
    Worst misses measured over N <= 4096 and j0 in [0.1, 10] (window 1.2x that
    revival, 2001 samples): eigenvalues 6.5e-16 of the spread (N = 76), |w|
    3.4e-12 of max w and F 3.9e-13 (both N = 4096); each bound is at most 10x
    its N = 4096 figure."""

    VALUE_TOL = 2.4e-15   # of the spread 2 j0 (N-1)
    WEIGHT_TOL = 3e-11    # of the largest weight
    FIDELITY_TOL = 3e-12

    def check(self, n, j0, convention):
        chain = christandl_chain(n, j0, convention)
        es = diagonalize_chain(chain)
        exact = 2.0 * j0 * (np.arange(n) - (n - 1) / 2)
        assert np.abs(es.values - exact).max() <= self.VALUE_TOL * 2.0 * j0 * (n - 1)
        w = log_binomial_weights(n)
        assert np.abs(np.abs(es.end_weights) - w).max() <= self.WEIGHT_TOL * w.max()
        # through the first revival, t*J_max = pi J_max / (2 j0)
        window = 1.2 * math.pi / 2.0 * chain.j_max / j0
        tr = trace(es, window=window, samples=2001, j_max=chain.j_max)
        f = np.sin(j0 * tr.times / chain.j_max) ** (2 * (n - 1))
        assert np.abs(tr.transfer - f).max() <= self.FIDELITY_TOL
        assert tr.peaks and max(p[1] for p in tr.peaks) >= 1.0 - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 2048), j0=st.floats(0.1, 10.0),
           convention=st.sampled_from(["negative", "positive"]))
    @example(n=2048, j0=10.0, convention="positive")
    @example(n=2, j0=0.1, convention="negative")
    def test_up_to_2048(self, n, j0, convention):
        self.check(n, j0, convention)

    @pytest.mark.parametrize("convention", ["negative", "positive"])
    def test_4096(self, convention):
        self.check(4096, 0.37, convention)


class TestTrace:
    def test_bounds_invariants(self, qpst_chain, qpst_es):
        tr = trace(qpst_es, window=50.0, j_max=qpst_chain.j_max)
        assert np.all(tr.transfer >= 0.0) and np.all(tr.transfer <= 1.0 + 1e-12)
        assert np.all(tr.average >= 0.5 - 1e-12) and np.all(tr.average <= 1.0 + 1e-12)
        expected_avg = np.sqrt(tr.transfer) / 3 + tr.transfer / 6 + 0.5
        assert np.abs(tr.average - expected_avg).max() <= 1e-12

    def test_qpst_peak(self, qpst_chain, qpst_es):
        tr = trace(qpst_es, window=50.0, j_max=qpst_chain.j_max)
        t_peak, f_peak = max(tr.peaks, key=lambda p: p[1])
        assert f_peak == pytest.approx(0.9998, abs=5e-4)
        assert t_peak == pytest.approx(8.63, abs=0.05)

    def test_two_site_peak(self):
        es = diagonalize_chain(uniform_chain(2))
        tr = trace(es, window=10.0, j_max=1.0)
        t_peak, f_peak = tr.peaks[0]
        assert f_peak == pytest.approx(1.0, abs=1e-9)
        assert t_peak == pytest.approx(np.pi / 2, abs=1e-5)

    def test_sample_validation(self, qpst_es):
        with pytest.raises(ValueError):
            trace(qpst_es, window=10.0, samples=1)
        with pytest.raises(ValueError):
            trace(qpst_es, window=10.0, j_max=0.0)

    @pytest.mark.parametrize("j_max", [math.nan, math.inf])
    def test_non_finite_j_max_rejected(self, qpst_es, j_max):
        with pytest.raises(ValueError, match="finite"):
            trace(qpst_es, window=10.0, j_max=j_max)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_chains(max_n=40), near_pst_chains()),
           st.sampled_from([50.0, 400.0, 1234.5]))
    def test_peaks_match_scalar_golden_search(self, chain, window):
        # the batched bracket search runs the scalar loop's iterates in the
        # same arithmetic, so the peaks are the same floats
        es = diagonalize_chain(chain)
        tr = trace(es, window=window, j_max=chain.j_max)
        assert tr.peaks == scalar_peaks(es, tr, chain.j_max)

    def test_one_scalar_call_per_peak(self, qpst_chain, qpst_es, monkeypatch):
        calls = []

        def counted(es, t):
            calls.append(t)
            return transfer_fidelity(es, t)

        monkeypatch.setattr(dynamics, "transfer_fidelity", counted)
        tr = trace(qpst_es, window=400.0, j_max=qpst_chain.j_max)
        assert len(tr.peaks) > 1 and len(calls) == len(tr.peaks)
        # 0.2 units: the excitation has not reached the far end
        calls.clear()
        tr = trace(qpst_es, window=0.2, j_max=qpst_chain.j_max)
        assert tr.transfer.max() < 0.5
        assert tr.peaks == [] and calls == []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_grid_matches_scalar_path(self, data):
        # the batched grid and transfer_fidelity both take cos/sin of lambda*t
        # directly, so they differ only by the rounding of lambda*t
        n = data.draw(st.integers(2, 40))
        coupling = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))
        couplings = data.draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
        onsite = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
        convention = data.draw(st.sampled_from(["negative", "positive"]))
        chain = ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                          sign_convention=convention)
        window = data.draw(st.floats(0.0, 400.0, exclude_min=True))
        samples = data.draw(st.sampled_from([2, 3, 4, 401, 2001]))
        es = diagonalize_chain(chain)
        tr = trace(es, window=window, samples=samples, j_max=chain.j_max)
        assert tr.transfer.shape == tr.times.shape == (samples,)
        scalar = [transfer_fidelity(es, t / chain.j_max) for t in tr.times]
        assert np.abs(tr.transfer - scalar).max() <= 1e-10

    def test_memory_bounded_by_sqrt_grid(self):
        # 80,001 samples x 200 sites: a samples x N complex grid would be 256 MB
        chain = christandl_chain(200, 1.0)
        es = diagonalize_chain(chain)
        tracemalloc.start()
        try:
            tr = trace(es, window=400.0, j_max=chain.j_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr.times) == 80_001
        assert peak < 32 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(small_chains())
    def test_deferred_system_traces_as_eager(self, chain):
        # a palindromic chain's trace reads the end weights off the mirror
        # blocks, before any eigenvector matrix exists; the eager system built
        # from the assembled matrix must give the same trace, bit for bit
        es = diagonalize_chain(chain)
        tr = trace(es, j_max=chain.j_max)
        vectors = es.vectors
        assert es.vectors is vectors
        assert_bitwise(es.end_weights, vectors[0] * vectors[-1])
        # read the other way round, the weights come off the assembled matrix
        assembled = diagonalize_chain(chain)
        assembled.vectors
        assert_bitwise(assembled.end_weights, es.end_weights)
        eager =trace(EigenSystem(es.values, vectors), j_max=chain.j_max)
        for name in ("times", "transfer", "average"):
            assert_bitwise(getattr(tr, name), getattr(eager, name))
        assert tr.peaks == eager.peaks

    def test_trace_memory_without_eigenvectors(self):
        # the N x N eigenvector matrix alone is 32 MiB at N = 2048; a trace
        # reads only the end weights, so it is never assembled
        diagonalize_chain(christandl_chain(4, 1.0))  # LAPACK loaded untraced
        chain = christandl_chain(2048, 1.0)
        tracemalloc.start()
        try:
            tr = trace(diagonalize_chain(chain))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr.times) == 10_001
        assert peak <= 32 * 2**20


    def test_round_off_floored_to_zero(self):
        # at window 50 the excitation has not left the first sites of a
        # 1024-site Christandl chain: every F is below the rounding bound
        chain = christandl_chain(1024, 1.0)
        tr = trace(diagonalize_chain(chain), window=50.0, j_max=chain.j_max)
        assert np.all(tr.transfer == 0.0)
        assert np.all(tr.average == 0.5)


class TestFidelityGridKernel:
    @pytest.mark.parametrize("rows", [1, 33])
    @pytest.mark.parametrize("n", [1, 4, 9, 64])
    @pytest.mark.parametrize("samples", [2, 3, 5, 17, 2001, 10001, 80001])
    def test_matches_direct_exponential(self, samples, n, rows):
        # neither sqrt split is exact for these counts, so both tables pad
        rng = np.random.default_rng(samples * 1000 + n * 10 + rows)
        lam = np.sort(rng.uniform(-3.0, 3.0, (rows, n)), axis=1)
        w = rng.dirichlet(np.ones(n), rows) * rng.choice([-1.0, 1.0], (rows, n))
        dt = 400.0 / (samples - 1)
        f = fidelity_grid(lam, w, dt, samples)
        assert f.shape == (rows, samples)
        # the direct grid in blocks of 8192 times, to keep its memory small
        blocks = np.array_split(np.arange(samples) * dt, -(-samples // 8192))
        for row in range(rows):
            direct = np.concatenate([
                np.abs(np.exp(-1j * np.outer(t, lam[row])) @ w[row]) ** 2
                for t in blocks])
            assert np.abs(f[row] - direct).max() <= 1e-12


def cos_sin_reference(lam, t):
    """exp(-i lam t) with cos and sin on every row, t = 0 included."""
    theta = t[:, None] * lam[None, :]
    table = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=table.real)
    np.sin(theta, out=table.imag)
    np.negative(table.imag, out=table.imag)
    return table


class TestPhaseTables:
    LAM = np.array([-2.75, -1e-300, -0.0, 0.0, 5e-324, 0.5, 3.25])

    @pytest.mark.parametrize("count", [1, 2, 7, 45])
    def test_t0_row_matches_cos_sin_bitwise(self, count):
        # the t = 0 row is written directly; its signed zeros must be the
        # ones -sin(0.0 * lam) gives: -0.0 for lam >= +0.0, +0.0 below
        t = np.arange(count) * 0.0173
        table = _cos_sin_table(self.LAM, t)
        assert_bitwise(table, cos_sin_reference(self.LAM, t))
        assert np.array_equal(np.signbit(table[0].imag), ~np.signbit(self.LAM))
        assert np.all(table[0].real == 1.0)

    @pytest.mark.parametrize("count", [1, 2, 5, 17, 2001])
    def test_phase_table_matches_reference_products(self, count):
        step = 0.2
        q = math.isqrt(count - 1) + 1
        outer = cos_sin_reference(self.LAM, np.arange(0, count, q) * step)
        inner = cos_sin_reference(self.LAM, np.arange(q) * step)
        expected = (outer[:, None, :] * inner[None, :, :]).reshape(-1, self.LAM.size)
        assert_bitwise(_phase_table(self.LAM, step, count), expected[:count])


class TestRevivals:
    def test_qpst_envelope_decays(self, qpst_chain, qpst_es):
        tr = trace(qpst_es, window=400.0, j_max=qpst_chain.j_max)
        env = [v for _, v in revival_peaks(tr)]
        assert len(env) >= 20
        assert all(b < a for a, b in zip(env, env[1:]))
        assert 0.75 <= env[-1] <= 0.90

    def test_pst_revivals_stay_near_one(self, pst5_chain, pst5_es):
        tr = trace(pst5_es, window=400.0, j_max=pst5_chain.j_max)
        env = [v for _, v in revival_peaks(tr)]
        assert len(env) >= 20
        assert min(env) >= 0.999


class TestPstTheorem:
    def test_valid_spectrum_gives_unit_fidelity(self, pst5_chain, pst5_es):
        check = check_pst_condition(Spectrum(values=tuple(pst5_es.values)),
                                    tol=1e-6)
        assert check.valid
        assert transfer_fidelity(pst5_es, check.t_m) >= 1.0 - 1e-8

    def test_periodicity(self, pst5_es):
        t_m = 3 * np.pi
        for k in (1, 2, 3):
            assert transfer_fidelity(pst5_es, t_m * (1 + 2 * k)) >= 1.0 - 1e-6

    def test_propagator_unitary(self, pst5_es):
        for t in (0.7, 3.1, 12.9):
            u = pst5_es.vectors @ np.diag(np.exp(-1j * pst5_es.values * t)) \
                @ pst5_es.vectors.T
            assert np.abs(u @ u.conj().T - np.eye(5)).max() <= 1e-10
