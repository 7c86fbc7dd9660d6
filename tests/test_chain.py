"""Chain model: Hamiltonian construction, eigensolver, mirror symmetry."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchain.chain
from spinchain import (
    ChainSpec,
    EigenSystem,
    NumericalError,
    build_hamiltonian,
    check_mirror_symmetry,
    diagonalize_chain,
    eigendecompose,
    eigenstate_parity,
    mirror_operator,
)

from conftest import random_mirror_chain, scaled_eigenvectors, uniform_chain


def dispersion(n, e, j):
    """Tight-binding eigenvalues of a uniform chain, ascending."""
    k = np.arange(n)
    return e - 2.0 * j * np.cos((k + 1) * np.pi / (n + 1))


class TestChainSpec:
    def test_valid(self, qpst_chain):
        assert qpst_chain.n == 5
        assert qpst_chain.j_max == 0.91

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ChainSpec(onsite=(0.0, 0.0, 0.0), couplings=(1.0,))

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(onsite=(0.0, 0.0), couplings=(0.0,))

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            ChainSpec(onsite=(0.0, 0.0), couplings=(1.0,), sign_convention="flip")

    def test_roundtrip_dict(self, qpst_chain):
        again = ChainSpec.from_dict(qpst_chain.to_dict())
        assert again == qpst_chain

    def test_from_dict_checks_n(self):
        with pytest.raises(ValueError):
            ChainSpec.from_dict({"n": 4, "onsite": [0, 0], "couplings": [1]})


class TestBuildHamiltonian:
    def test_qpst_example_matrix(self, qpst_chain):
        h = build_hamiltonian(qpst_chain)
        expected = (np.diag([3.40, 2.60, 2.33, 2.60, 3.40])
                    + np.diag([-0.91] * 4, 1) + np.diag([-0.91] * 4, -1))
        assert np.array_equal(h, expected)

    def test_two_site(self):
        h = build_hamiltonian(
            ChainSpec(onsite=(0.0, 0.0), couplings=(0.7,),
                      sign_convention="positive"))
        assert np.array_equal(h, [[0.0, 0.7], [0.7, 0.0]])

    def test_sign_flip_leaves_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            onsite = tuple(rng.uniform(-1, 3, n))
            couplings = tuple(rng.uniform(0.2, 2, n - 1))
            neg = diagonalize_chain(ChainSpec(onsite, couplings, "negative"))
            pos = diagonalize_chain(ChainSpec(onsite, couplings, "positive"))
            assert np.abs(neg.values - pos.values).max() <= 1e-12


class TestEigendecompose:
    def test_dispersion_oracle(self):
        for n in range(2, 33):
            es = diagonalize_chain(uniform_chain(n, onsite=0.5, coupling=1.3))
            assert np.abs(es.values - dispersion(n, 0.5, 1.3)).max() <= 1e-10

    def test_three_site_values(self):
        es = diagonalize_chain(uniform_chain(3))
        assert np.allclose(es.values, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)

    def test_single_site(self):
        es = eigendecompose(np.array([[4.2]]))
        assert es.values[0] == 4.2
        assert es.vectors[0, 0] == 1.0

    def test_orthonormality_up_to_64(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 17, 64):
            chain = random_mirror_chain(rng, n)
            es = diagonalize_chain(chain)
            gram = es.vectors.T @ es.vectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert np.abs(es.vectors @ es.vectors.T - np.eye(n)).max() <= 1e-10

    def test_residuals(self, qpst_chain):
        h = build_hamiltonian(qpst_chain)
        es = eigendecompose(h)
        resid = np.abs(h @ es.vectors - es.vectors * es.values[None, :]).max()
        assert resid <= 1e-10 * np.abs(h).max()

    def test_values_ascending(self, qpst_es):
        assert np.all(np.diff(qpst_es.values) > 0)

    def test_sign_convention_deterministic(self, qpst_es):
        for k in range(5):
            col = qpst_es.vectors[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
            assert first > 0

    def test_rejects_non_tridiagonal(self):
        with pytest.raises(ValueError):
            eigendecompose(np.ones((4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((3, 2)))

    def test_rejects_asymmetric_tridiagonal(self):
        h = np.diag([1.0, 2.0, 3.0]) + np.diag([0.5, 0.5], 1) + np.diag([0.5, 0.7], -1)
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose(h)

    @pytest.mark.parametrize("bands", [
        (np.zeros(3), np.ones(3)),
        (np.zeros(3), np.ones(1)),
        (np.zeros((3, 1)), np.ones(2)),
        (np.zeros(0), np.ones(0)),
        (np.zeros(3), np.ones((2, 1))),
    ])
    def test_rejects_misshaped_bands(self, bands):
        with pytest.raises(ValueError, match="bands"):
            eigendecompose(bands)

    def test_single_site_bands(self):
        es = eigendecompose((np.array([4.2]), np.array([])))
        assert es.values[0] == 4.2
        assert es.vectors[0, 0] == 1.0

    def test_no_dense_hamiltonian(self, monkeypatch, qpst_chain, qpst_es):
        def refuse(spec):
            raise AssertionError("build_hamiltonian called")
        monkeypatch.setattr(spinchain.chain, "build_hamiltonian", refuse)
        es = diagonalize_chain(qpst_chain)
        assert np.array_equal(es.vectors, qpst_es.vectors)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_band_and_dense_inputs_agree(self, data):
        # one solver call on equal bands: the three entry points match bit for bit
        n = data.draw(st.integers(2, 80))
        coupling = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))
        couplings = data.draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
        onsite = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
        convention = data.draw(st.sampled_from(["negative", "positive"]))
        chain = ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                          sign_convention=convention)
        h = build_hamiltonian(chain)
        results = [diagonalize_chain(chain), eigendecompose(h),
                   eigendecompose((np.diag(h), np.diag(h, 1)))]
        for es in results[1:]:
            assert np.array_equal(es.values, results[0].values)
            assert np.array_equal(es.vectors, results[0].vectors)


def no_convergence(solve):
    def fake(d, e):
        raise scipy.linalg.LinAlgError("eigenvalues did not converge")
    return fake


def shifted_values(solve):
    def fake(d, e):
        values, vectors = solve(d, e)
        return values + 1e-3, vectors
    return fake


def nan_vectors(solve):
    def fake(d, e):
        values, vectors = solve(d, e)
        return values, np.full_like(vectors, np.nan)
    return fake


class TestEigendecomposeFailures:
    @pytest.mark.parametrize("fake, figure", [
        (no_convergence, "did not converge"),
        (scaled_eigenvectors, "orthonormality error 2.100e-01"),
        (shifted_values, "eigenpair residual"),
        (nan_vectors, "orthonormality error nan"),
    ])
    def test_short_message(self, monkeypatch, qpst_chain, fake, figure):
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            fake(scipy.linalg.eigh_tridiagonal))
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(qpst_chain)
        msg = str(info.value)
        assert "\n" not in msg
        assert msg.startswith("eigendecompose:")
        assert "N=5" in msg and figure in msg


class TestMirror:
    def test_mirror_operator_involution(self):
        for n in (2, 3, 6):
            m = mirror_operator(n)
            assert np.array_equal(m @ m, np.eye(n))
            assert np.array_equal(m, m.T)

    def test_qpst_chain_symmetric(self, qpst_chain):
        ok, violation = check_mirror_symmetry(qpst_chain)
        assert ok
        assert violation == 0.0

    def test_asymmetric_detected(self):
        chain = ChainSpec(onsite=(1.0, 2.0, 3.0), couplings=(1.0, 1.0))
        ok, violation = check_mirror_symmetry(chain)
        assert not ok
        assert violation == pytest.approx(2.0)

    def test_two_site_equal_onsite(self):
        ok, _ = check_mirror_symmetry(ChainSpec(onsite=(0.3, 0.3), couplings=(1.0,)))
        assert ok


class TestParity:
    def test_qpst_pattern(self, qpst_es):
        assert eigenstate_parity(qpst_es) == [1, -1, 1, -1, 1]

    def test_two_site(self):
        es = diagonalize_chain(uniform_chain(2))
        assert eigenstate_parity(es) == [1, -1]

    def test_reconstructed_pst_alternates(self, pst5_es):
        assert eigenstate_parity(pst5_es) == [1, -1, 1, -1, 1]

    def test_alternating_for_random_mirror_chains(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            convention = "negative" if rng.random() < 0.5 else "positive"
            es = diagonalize_chain(random_mirror_chain(rng, n, convention))
            parities = eigenstate_parity(es)
            assert all(a == -b for a, b in zip(parities, parities[1:]))

    def test_negative_convention_starts_even(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            es = diagonalize_chain(random_mirror_chain(rng, n))
            parities = eigenstate_parity(es)
            assert parities == [(-1) ** k for k in range(n)]

    def test_matches_dense_mirror_overlap(self):
        # reference: phi @ M @ phi per state; near-degenerate doublets of
        # larger chains mix even and odd states, and both must refuse them
        rng = np.random.default_rng(13)
        outcomes = set()
        for _ in range(30):
            n = int(rng.integers(2, 40))
            convention = "negative" if rng.random() < 0.5 else "positive"
            es = diagonalize_chain(random_mirror_chain(rng, n, convention))
            m = mirror_operator(n)
            overlaps = [phi @ m @ phi for phi in es.vectors.T]
            bad = [k for k, o in enumerate(overlaps) if abs(abs(o) - 1.0) > 1e-8]
            if bad:
                with pytest.raises(ValueError, match=f"eigenstate {bad[0]} has"):
                    eigenstate_parity(es)
            else:
                assert eigenstate_parity(es) == [1 if o > 0 else -1 for o in overlaps]
            outcomes.add(bool(bad))
        assert outcomes == {True, False}

    def test_rejects_asymmetric_chain(self):
        es = diagonalize_chain(ChainSpec(onsite=(1.0, 2.0, 3.0), couplings=(1.0, 1.0)))
        with pytest.raises(ValueError):
            eigenstate_parity(es)

    def test_message_names_the_failing_figure(self):
        es = diagonalize_chain(ChainSpec(onsite=(1.0, 2.0, 3.0), couplings=(1.0, 1.0)))
        with pytest.raises(ValueError) as err:
            eigenstate_parity(es)
        assert str(err.value) == (
            "eigenstate 0 has |mirror overlap| - 1 = -3.333e-01 (tol 1e-08, N=3); "
            "chain is not mirror-symmetric")

    def test_message_resolves_a_mixed_doublet(self):
        # an even/odd pair rotated so that each overlap is 1 - 3e-8: the old
        # six-decimal message printed it as 1.000000
        theta = 0.5 * np.arccos(1.0 - 3e-8)
        even, odd = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
        vectors = np.column_stack([np.cos(theta) * even + np.sin(theta) * odd,
                                   np.cos(theta) * odd - np.sin(theta) * even])
        es = EigenSystem(values=np.array([-1.0, 1.0]), vectors=vectors)
        with pytest.raises(ValueError) as err:
            eigenstate_parity(es)
        assert str(err.value) == (
            "eigenstate 0 has |mirror overlap| - 1 = -3.000e-08 (tol 1e-08, N=2); "
            "chain is not mirror-symmetric")
