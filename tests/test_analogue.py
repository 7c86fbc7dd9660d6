"""Particle-analogue diagnostics: nodes, ladder algebra, pairing theorem."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    ChainSpec,
    EigenSystem,
    PinchSpec,
    christandl_chain,
    diagonalize_chain,
    pinched_spectrum,
    reconstruct,
)
from spinchain.analogue import (
    build_ladder,
    diagnostics_report,
    mirror_in_eigenbasis,
    node_count,
    pairing_check,
    position_operator,
    schrodinger_residual,
    shifted_values,
)

from conftest import random_mirror_chain, uniform_chain


def node_count_loop(es):
    """Reference node count: walk each state, skipping components below 1e-12."""
    counts = []
    for k in range(es.n):
        phi = es.vectors[:, k]
        signs = np.where(np.abs(phi) > 1e-12, np.sign(phi), 0.0)
        last = 0.0
        changes = 0
        for s in signs:
            if s == 0.0:
                continue
            if last != 0.0 and s != last:
                changes += 1
            last = s
        counts.append(changes)
    return counts


def pst_chain(n, p):
    """Reconstructed PST chain with unit level spacing (gamma = 1)."""
    return reconstruct(pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5)))


class TestSchrodingerResidual:
    def test_qpst_interior_identity(self, qpst_chain, qpst_es):
        residual = schrodinger_residual(qpst_chain, qpst_es)
        assert residual.shape == (5, 3)
        assert np.abs(residual).max() <= 1e-9

    def test_three_site(self):
        chain = uniform_chain(3)
        residual = schrodinger_residual(chain, diagonalize_chain(chain))
        assert residual.shape == (3, 1)
        assert np.abs(residual).max() <= 1e-12

    def test_two_site_empty(self):
        chain = uniform_chain(2)
        residual = schrodinger_residual(chain, diagonalize_chain(chain))
        assert residual.shape == (2, 0)

    def test_non_uniform_rejected(self, pst5_chain, pst5_es):
        with pytest.raises(ValueError):
            schrodinger_residual(pst5_chain, pst5_es)

    def test_positive_convention_rejected(self):
        chain = uniform_chain(4, sign_convention="positive")
        with pytest.raises(ValueError):
            schrodinger_residual(chain, diagonalize_chain(chain))


class TestNodeCount:
    def test_qpst_ladder(self, qpst_es):
        assert node_count(qpst_es) == [0, 1, 2, 3, 4]

    def test_two_site(self):
        es = diagonalize_chain(uniform_chain(2))
        assert node_count(es) == [0, 1]

    def test_nine_site_pst(self):
        es = diagonalize_chain(pst_chain(9, 9))
        assert node_count(es) == list(range(9))

    def test_law_over_mirror_chains(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            es = diagonalize_chain(random_mirror_chain(rng, n))
            assert node_count(es) == list(range(n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 90), st.integers(0, 2**32 - 1), st.booleans(),
           st.floats(0.0, 0.5))
    def test_matches_loop(self, n, seed, central_zeros, zero_share):
        # random mirror chains; optionally the odd states' central components
        # set to exact zeros, plus a random share of components zeroed
        rng = np.random.default_rng(seed)
        es = diagonalize_chain(random_mirror_chain(rng, n))
        vectors = es.vectors.copy()
        if central_zeros and n % 2:
            vectors[n // 2, 1::2] = 0.0
        vectors[rng.random(vectors.shape) < zero_share] = 0.0
        es = EigenSystem(values=es.values, vectors=vectors)
        counts = node_count(es)
        assert counts == node_count_loop(es)
        assert all(type(c) is int for c in counts)


class TestLadder:
    def test_number_operator_matches_shifted_hamiltonian(self, pst5_es):
        ladder = build_ladder(pst5_es, p=3, gamma=1.0)
        h_shifted = np.diag(shifted_values(pst5_es))
        assert np.abs(h_shifted - ladder.gamma * ladder.number_operator()).max() <= 1e-10

    def test_top_state_annihilated(self, pst5_es):
        ladder = build_ladder(pst5_es, p=3, gamma=1.0)
        top = np.zeros(5)
        top[4] = 1.0
        assert np.linalg.norm(ladder.raise_op @ top) == 0.0

    def test_commutator_closed_form(self, pst5_es):
        ladder = build_ladder(pst5_es, p=3, gamma=1.0)
        assert np.abs(ladder.commutator() - ladder.expected_commutator()).max() <= 1e-10

    def test_family_reconstruction(self):
        for p in (1, 3, 5, 7, 9):
            for n in (4, 9, 14, 20):
                es = diagonalize_chain(pst_chain(n, p))
                ladder = build_ladder(es, p=p, gamma=1.0)
                h_shifted = np.diag(shifted_values(es))
                assert np.abs(h_shifted - ladder.number_operator()).max() <= 1e-10

    def test_wrong_spectrum_rejected(self, qpst_es):
        with pytest.raises(ValueError):
            build_ladder(qpst_es, p=3, gamma=1.0)


class TestPositionOperator:
    def test_matrix_elements_closed_form(self, pst5_es):
        p, gamma, n = 3, 1.0, 5
        x = position_operator(build_ladder(pst5_es, p=p, gamma=gamma)).x
        for k in range(n - 1):
            step = k + 1.0 - (1.0 - 1.0 / p) * (k == n - 2)
            expected = 0.5 * np.sqrt(gamma) * np.sqrt(step)
            assert x[k + 1, k] == pytest.approx(expected, rel=1e-14)
            assert x[k, k + 1] == pytest.approx(expected, rel=1e-14)

    def test_tridiagonal_in_eigenbasis(self, pst5_es):
        x = position_operator(build_ladder(pst5_es, p=3, gamma=1.0)).x
        off = np.abs(x - np.diag(np.diag(x, 1), 1) - np.diag(np.diag(x, -1), -1))
        assert off.max() <= 1e-12

    def test_momentum_hermitian(self, pst5_es):
        mom = position_operator(build_ladder(pst5_es, p=3, gamma=1.0)).momentum
        assert np.abs(mom - mom.conj().T).max() <= 1e-14


class TestMirrorEigenbasis:
    def test_diagonal_alternating(self, pst5_es):
        m = mirror_in_eigenbasis(pst5_es)
        assert np.abs(m - np.diag([1, -1, 1, -1, 1])).max() <= 1e-10


class TestPairing:
    def test_five_site(self, pst5_es):
        xop = position_operator(build_ladder(pst5_es, p=3, gamma=1.0))
        report = pairing_check(xop, mirror_in_eigenbasis(pst5_es))
        assert report.anticommutes
        assert len(report.pairs) == 2
        assert report.zero_mode
        assert report.pairing_residual <= 1e-9

    def test_four_site(self):
        es = diagonalize_chain(pst_chain(4, 3))
        xop = position_operator(build_ladder(es, p=3, gamma=1.0))
        report = pairing_check(xop, mirror_in_eigenbasis(es))
        assert report.anticommutes
        assert len(report.pairs) == 2
        assert not report.zero_mode

    def test_pairs_are_negatives(self, pst5_es):
        xop = position_operator(build_ladder(pst5_es, p=3, gamma=1.0))
        report = pairing_check(xop, mirror_in_eigenbasis(pst5_es))
        for lo, hi in report.pairs:
            assert lo == pytest.approx(-hi, abs=1e-9)


class TestDiagnosticsReport:
    def test_shape(self, pst5_chain, pst5_es):
        report = diagnostics_report(pst5_chain, pst5_es, p=3, gamma=1.0)
        assert report["nodes"] == [0, 1, 2, 3, 4]
        assert report["ladder_residual"] <= 1e-10
        assert report["commutator_residual"] <= 1e-10
        assert report["zero_mode"] is True
        assert len(report["x_pairs"]) == 2

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 120), p=st.sampled_from(range(1, 14, 2)),
           alpha=st.floats(0.2, 2.0), shift=st.floats(-5.0, 5.0))
    def test_equals_dense_composition(self, n, p, alpha, shift):
        # the band-native report against the dense operators, bit for bit
        chain = reconstruct(pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha),
                                             shift=shift))
        es = diagonalize_chain(chain)
        gamma = 2.0 * alpha
        ladder = build_ladder(es, p=p, gamma=gamma)
        h_shifted = np.diag(shifted_values(es))
        pairing = pairing_check(position_operator(ladder), mirror_in_eigenbasis(es))
        dense = {
            "nodes": node_count(es),
            "ladder_residual": float(np.abs(h_shifted - ladder.number_operator()).max()),
            "commutator_residual": float(np.abs(
                ladder.commutator() - ladder.expected_commutator()).max()),
            "x_pairs": [list(pair) for pair in pairing.pairs],
            "zero_mode": pairing.zero_mode,
        }
        assert repr(diagnostics_report(chain, es, p=p, gamma=gamma)) == repr(dense)

    def test_builds_no_dense_operator(self):
        # one 1024 x 1024 float64 operator is 8 MiB; the dense composition
        # peaked at 72 MiB here, node_count's masks and indices need ~13-21
        chain = christandl_chain(1024, 1.0)
        es = diagonalize_chain(chain)
        tracemalloc.start()
        try:
            report = diagnostics_report(chain, es, p=1, gamma=2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["ladder_residual"] <= 1e-9
        assert len(report["x_pairs"]) == 512 and report["zero_mode"] is False
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("n", [4, 9, 40, 85])
    @pytest.mark.parametrize("p", [3, 7])
    def test_non_unit_spacing(self, n, p):
        alpha, shift = 0.35, -2.74
        gamma = 2.0 * alpha
        chain = reconstruct(pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha),
                                             shift=shift))
        report = diagnostics_report(chain, diagonalize_chain(chain), p=p, gamma=gamma)
        assert report["ladder_residual"] <= 1e-10 * max(1.0, gamma)
        assert report["commutator_residual"] <= 1e-10 * max(1.0, gamma)
        assert report["zero_mode"] is (n % 2 == 1)
        assert len(report["x_pairs"]) == n // 2


def test_analogue_rejects_even_p(pst5_es):
    with pytest.raises(ValueError):
        build_ladder(pst5_es, p=2, gamma=1.0)


def test_uniform_chain_schrodinger_dispersion():
    # the residual identity holds for plain tight-binding chains too
    chain = uniform_chain(8, onsite=1.5, coupling=0.8)
    residual = schrodinger_residual(chain, diagonalize_chain(chain))
    assert np.abs(residual).max() <= 1e-12


def test_ladder_hprime_equals_adag_a(pst5_es):
    ladder = build_ladder(pst5_es, p=3, gamma=1.0)
    target = np.diag([0.0, 1.0, 2.0, 3.0, 3.0 + 1.0 / 3.0])
    assert np.abs(ladder.number_operator() - target).max() <= 1e-10
