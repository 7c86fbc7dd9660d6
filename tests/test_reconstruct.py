"""Inverse reconstruction: weights, centre-site reduction, persymmetry, round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from spinchain import (
    NumericalError,
    PinchSpec,
    Spectrum,
    build_hamiltonian,
    check_mirror_symmetry,
    compute_weights,
    diagonalize_chain,
    pinched_spectrum,
    reconstruct,
    reconstruct_with_error,
    roundtrip_error,
    spectral_symmetry_check,
)
from spinchain.chain import mirror_bands, mirror_values, tridiagonal


def compute_weights_loop(values):
    """The original one-eigenvalue-at-a-time weights, kept as a reference."""
    lam = np.asarray(values, dtype=float)
    w = np.empty(len(lam))
    for k in range(len(lam)):
        w[k] = 1.0 / np.prod(np.abs(lam[k] - np.delete(lam, k)))
    return w


def stieltjes_reconstruct(values):
    """The three-term (Stieltjes) recurrence on the end-site weights, its
    first half mirrored: the former ``reconstruct``, kept as a reference."""
    lam = np.asarray(values, dtype=float)
    n = len(lam)
    sqrt_w = np.sqrt(compute_weights(lam))
    u_prev, u = np.zeros(n), sqrt_w / np.linalg.norm(sqrt_w)
    eps, j_off = np.empty(n), np.empty(n - 1)
    for j in range(n):
        eps[j] = np.sum(lam * u * u)
        if j == n - 1:
            break
        r = (lam - eps[j]) * u - (j_off[j - 1] if j > 0 else 0.0) * u_prev
        j_off[j] = np.linalg.norm(r)
        u_prev, u = u, r / j_off[j]
    half = (n + 1) // 2
    onsite = np.concatenate([eps[:half], eps[: n - half][::-1]])
    couplings = np.concatenate([j_off[: n // 2], j_off[: (n - 1) // 2][::-1]])
    return onsite, couplings


def simple_spectra():
    """Ascending spectra of 2..200 levels with gaps within a factor 100."""
    return st.tuples(
        st.floats(-50.0, 50.0),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=199),
    ).map(lambda t: Spectrum(values=tuple(t[0] + np.concatenate([[0.0], np.cumsum(t[1])]))))


def three_level(p):
    return Spectrum(values=(1.0, 2.0, 2.0 + 1.0 / p))


class TestWeights:
    def test_three_level_closed_form(self):
        for p in (1, 3, 5, 9):
            w = compute_weights(three_level(p).values)
            expected = np.array([p / (p + 1), p, p ** 2 / (p + 1)], dtype=float)
            assert np.abs(w - expected).max() <= 1e-12 * p

    def test_p3_instance(self):
        w = compute_weights((1.0, 2.0, 2.0 + 1.0 / 3.0))
        assert np.allclose(w, [0.75, 3.0, 2.25], atol=1e-12)

    def test_two_level(self):
        assert np.array_equal(compute_weights((0.0, 1.0)), [1.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=200, unique=True))
    def test_matches_loop_bit_for_bit(self, values):
        lam = np.sort(values)
        if np.diff(lam).min() <= 1e-12 * (lam[-1] - lam[0]):
            return
        # long spectra overflow the weights to inf or 0, the same in both
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            assert np.array_equal(compute_weights(lam), compute_weights_loop(lam))

    def test_pinched_family_matches_loop_bit_for_bit(self):
        for n in range(4, 86, 9):
            for p in (3, 13):
                lam = pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5)).values
                assert np.array_equal(compute_weights(lam), compute_weights_loop(lam))

    def test_repeated_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            compute_weights((0.0, 1.0, 1.0 + 1e-15))


class TestReconstruct:
    def test_appendix_matrix(self):
        for p in (1, 3, 5, 7, 9):
            chain = reconstruct(three_level(p))
            eps2 = (p + 2.0 + 1.0 / p) / (p + 1.0)
            assert abs(chain.onsite[0] - 2.0) <= 1e-12
            assert abs(chain.onsite[2] - 2.0) <= 1e-12
            assert abs(chain.onsite[1] - eps2) <= 1e-12
            j = 1.0 / np.sqrt(2.0 * p)
            assert np.abs(np.array(chain.couplings) - j).max() <= 1e-12

    def test_p1_constant_diagonal(self):
        chain = reconstruct(Spectrum(values=(1.0, 2.0, 3.0)))
        assert np.allclose(chain.onsite, 2.0, atol=1e-12)
        assert np.allclose(chain.couplings, 1.0 / np.sqrt(2.0), atol=1e-12)
        es = diagonalize_chain(chain)
        assert np.abs(es.values - [1.0, 2.0, 3.0]).max() <= 1e-12

    def test_five_site_pinched_entries(self, pst5_chain):
        assert np.abs(np.array(pst5_chain.onsite)
                      - [3.40, 2.60, 7.0 / 3.0, 2.60, 3.40]).max() <= 5e-12
        expected_j = [0.9165151389911680, 0.9128709291752769,
                      0.9128709291752769, 0.9165151389911680]
        assert np.abs(np.array(pst5_chain.couplings) - expected_j).max() <= 1e-12

    def test_output_exactly_persymmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            values = np.sort(rng.uniform(-3, 3, n))
            if np.diff(values).min() < 1e-3:
                continue
            chain = reconstruct(Spectrum(values=tuple(values)))
            ok, violation = check_mirror_symmetry(chain, tol=0.0)
            assert ok and violation == 0.0

    @settings(max_examples=100, deadline=None)
    @given(simple_spectra())
    def test_inverts_diagonalize_chain(self, s):
        lam = np.asarray(s.values)
        chain = reconstruct(s)
        es = diagonalize_chain(chain)
        assert np.abs(es.values - lam).max() <= 1e-10 * (lam[-1] - lam[0])
        assert check_mirror_symmetry(chain, tol=0.0) == (True, 0.0)

    def test_mirror_blocks_hold_alternate_levels(self):
        for n in (2, 3, 4, 5, 12, 41, 85):
            s = pinched_spectrum(PinchSpec(n=n, p=7, alpha=0.5), shift=0.37)
            lam = np.asarray(s.values)
            chain = reconstruct(s)
            blocks = mirror_bands(np.array(chain.onsite), -np.array(chain.couplings), n)
            for (d, e), target in zip(blocks, (lam[0::2], lam[1::2])):
                values = np.linalg.eigvalsh(tridiagonal(d, e))
                assert np.abs(values - target).max() <= 1e-12 * (lam[-1] - lam[0])

    def test_perturbed_reduction_raises(self, monkeypatch, pst5_spectrum):
        dsytrd = lapack.dsytrd

        def perturbed(a, **kwargs):
            c, d, e, tau, info = dsytrd(a, **kwargs)
            return c, d + 1e-6, e, tau, info

        monkeypatch.setattr(lapack, "dsytrd", perturbed)
        with pytest.raises(NumericalError, match="spectrum misses the input by"):
            reconstruct(pst5_spectrum)

    def test_reduction_info_raises(self, monkeypatch, pst5_spectrum):
        dsytrd = lapack.dsytrd
        monkeypatch.setattr(lapack, "dsytrd", lambda a, **kwargs: (*dsytrd(a, **kwargs)[:4], -3))
        with pytest.raises(NumericalError, match=r"^reconstruct: dsytrd failed \(info -3\)$"):
            reconstruct(pst5_spectrum)

    def test_matches_stieltjes_reference(self):
        rng = np.random.default_rng(2025)
        worst = 0.0
        for n in range(4, 86):
            for p in range(3, 14, 2):
                s = pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5),
                                     shift=float(rng.uniform(-5.0, 5.0)))
                onsite, couplings = stieltjes_reconstruct(s.values)
                chain = reconstruct(s)
                miss = max(np.abs(chain.onsite - onsite).max(),
                           np.abs(chain.couplings - couplings).max())
                worst = max(worst, miss / (s.values[-1] - s.values[0]))
        assert worst <= 1e-12

    def test_sign_convention_forwarded(self, pst5_spectrum):
        pos = reconstruct(pst5_spectrum, sign_convention="positive")
        h = build_hamiltonian(pos)
        assert h[0, 1] > 0


class TestRoundTrip:
    def test_pinched_five(self, pst5_spectrum):
        assert roundtrip_error(pst5_spectrum) <= 1e-10

    def test_appendix(self):
        assert roundtrip_error(three_level(5)) <= 1e-12

    def test_two_level(self):
        assert roundtrip_error(Spectrum(values=(0.0, 1.0))) <= 1e-14

    def test_large_pinched_family(self):
        for p in (1, 3, 7, 15):
            for n in (10, 25, 40):
                s = pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5))
                spread = s.values[-1] - s.values[0]
                assert roundtrip_error(s) <= 1e-8 * spread

    def test_shifted_pinched_n85(self):
        # the Stieltjes recurrence lost orthogonality here: its mirror
        # cross-check missed by 1.003e-6 against a bound of 8.32e-7
        s = pinched_spectrum(PinchSpec(n=85, p=5, alpha=0.5), shift=-2.740285928251791)
        spread = s.values[-1] - s.values[0]
        assert roundtrip_error(s) <= 1e-8 * spread

    @pytest.mark.parametrize("n", [100, 500, 1000])
    def test_shifted_pinched_long(self, n):
        for p in (3, 9):
            s = pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5), shift=-2.740285928251791)
            spread = s.values[-1] - s.values[0]
            assert roundtrip_error(s) <= 1e-10 * spread

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 120), st.integers(0, 6), st.floats(0.2, 2.0),
           st.floats(-5.0, 5.0))
    def test_values_only_matches_eigensolve(self, n, half_p, alpha, shift):
        # the values-only figure against the full eigensolve of the same chain
        s = pinched_spectrum(PinchSpec(n=n, p=2 * half_p + 1, alpha=alpha),
                             shift=shift)
        lam = np.asarray(s.values)
        spread = lam[-1] - lam[0]
        full = np.abs(diagonalize_chain(reconstruct(s)).values - lam).max()
        values_only = roundtrip_error(s)
        assert abs(values_only - full) <= 1e-12 * spread
        assert max(values_only, full) <= 1e-10 * spread

    @pytest.mark.parametrize("n", [5, 6, 41, 42])
    def test_either_convention(self, n):
        # the positive convention flips the off-diagonal signs (and swaps the
        # blocks at even N); dsterf sees only their squares
        s = pinched_spectrum(PinchSpec(n=n, p=5, alpha=0.5), shift=-1.3)
        lam = np.asarray(s.values)
        chain = reconstruct(s)
        d, j = np.asarray(chain.onsite), np.asarray(chain.couplings)
        negative, positive = (np.abs(mirror_values(d, sign * j) - lam).max()
                              for sign in (-1.0, 1.0))
        assert positive == negative == roundtrip_error(s)
        assert reconstruct_with_error(s, sign_convention="positive") \
            == (reconstruct(s, sign_convention="positive"), negative)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 90), st.integers(0, 6), st.floats(0.2, 2.0),
           st.floats(-5.0, 5.0), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1),
           st.sampled_from(["negative", "positive"]))
    def test_pair_is_the_two_calls(self, n, half_p, alpha, shift, wobble, seed,
                                   convention):
        # shifted pinched spectra, and the same with each gap scaled by a
        # factor in [1 - wobble, 1 + wobble]: one call gives both results
        s = pinched_spectrum(PinchSpec(n=n, p=2 * half_p + 1, alpha=alpha),
                             shift=shift)
        lam = np.asarray(s.values)
        scale = np.random.default_rng(seed).uniform(1 - wobble, 1 + wobble, n - 1)
        perturbed = Spectrum(values=tuple(lam[0] + np.concatenate(
            [[0.0], np.cumsum(np.diff(lam) * scale)])))
        for spectrum in (s, perturbed):
            assert reconstruct_with_error(spectrum, convention) \
                == (reconstruct(spectrum, convention), roundtrip_error(spectrum))


class TestSymmetricSpectrumTheorem:
    def test_symmetric_spectrum_constant_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(3, 12))
            half = np.sort(rng.uniform(0.3, 4.0, n // 2))
            if n % 2:
                values = np.concatenate([-half[::-1], [0.0], half])
            else:
                values = np.concatenate([-half[::-1], half])
            if np.diff(values).min() < 5e-2:
                continue
            s = Spectrum(values=tuple(values))
            assert spectral_symmetry_check(s)
            chain = reconstruct(s)
            onsite = np.array(chain.onsite)
            assert np.abs(onsite - onsite.mean()).max() <= 1e-9
