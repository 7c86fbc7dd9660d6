"""Particle-analogue diagnostics: nodes, ladder algebra, pairing theorem."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

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
    oscillation_nodes,
    pairing_check,
    position_operator,
    schrodinger_residual,
    shifted_values,
)
from spinchain.chain import _bands, band_values

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


class TestOscillationNodes:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), mirror=st.booleans(),
           convention=st.sampled_from(["negative", "positive"]))
    def test_equals_node_count(self, n, seed, mirror, convention):
        # compared on every state node_count resolves: no nonzero component
        # under its 1e-12 cut-off, and a gap to both neighbours above 1e-8 of
        # the spread, so the solver orders and separates the pair
        rng = np.random.default_rng(seed)
        if mirror:
            chain = random_mirror_chain(rng, n, sign_convention=convention)
        else:
            chain = ChainSpec(onsite=tuple(rng.uniform(-2.0, 2.0, n)),
                              couplings=tuple(rng.uniform(0.2, 2.0, n - 1)),
                              sign_convention=convention)
        es = diagonalize_chain(chain)
        v = np.abs(es.vectors)
        gap = np.diff(es.values)
        gap = np.minimum(np.append(np.inf, gap), np.append(gap, np.inf))
        resolved = (((v > 1e-12) | (v == 0.0)).all(axis=0)
                    & (gap > 1e-8 * np.ptp(es.values)))
        theorem = np.array(oscillation_nodes(n, convention))
        counted = np.array(node_count(es))
        assert np.array_equal(theorem[resolved], counted[resolved])


class TestLadder:
    def test_number_operator_matches_shifted_hamiltonian(self, pst5_es):
        ladder = build_ladder(pst5_es, p=3, gamma=1.0)
        h_shifted = np.diag(shifted_values(pst5_es))
        assert np.abs(h_shifted - ladder.number_operator()).max() <= 1e-10

    def test_number_operator_carries_gamma(self):
        # at gamma != 1 a second factor of gamma would miss by (1 - gamma) H'
        es = diagonalize_chain(reconstruct(
            pinched_spectrum(PinchSpec(n=5, p=3, alpha=0.35))))
        ladder = build_ladder(es, p=3, gamma=0.7)
        h_shifted = np.diag(shifted_values(es))
        assert np.abs(h_shifted - ladder.number_operator()).max() <= 1e-10
        assert np.abs(h_shifted - 0.7 * ladder.number_operator()).max() >= 0.1

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
        x = position_operator(build_ladder(pst5_es, p=p, gamma=gamma))
        for k in range(n - 1):
            step = k + 1.0 - (1.0 - 1.0 / p) * (k == n - 2)
            expected = 0.5 * np.sqrt(gamma) * np.sqrt(step)
            assert x[k + 1, k] == pytest.approx(expected, rel=1e-14)
            assert x[k, k + 1] == pytest.approx(expected, rel=1e-14)

    def test_tridiagonal_in_eigenbasis(self, pst5_es):
        x = position_operator(build_ladder(pst5_es, p=3, gamma=1.0))
        off = np.abs(x - np.diag(np.diag(x, 1), 1) - np.diag(np.diag(x, -1), -1))
        assert off.max() <= 1e-12

    def test_real_symmetric(self, pst5_es):
        # X is Hermitian: pairing_check reads its spectrum off the upper band
        x = position_operator(build_ladder(pst5_es, p=3, gamma=1.0))
        assert x.dtype == np.float64
        assert np.array_equal(x, x.T)


class TestMirrorEigenbasis:
    def test_diagonal_alternating(self, pst5_es):
        m = mirror_in_eigenbasis(pst5_es)
        assert np.abs(m - np.diag([1, -1, 1, -1, 1])).max() <= 1e-10


class TestPairing:
    def test_five_site(self, pst5_es):
        x = position_operator(build_ladder(pst5_es, p=3, gamma=1.0))
        report = pairing_check(x, mirror_in_eigenbasis(pst5_es))
        assert report.anticommutes
        assert len(report.pairs) == 2
        assert report.zero_mode
        assert report.pairing_residual <= 1e-9

    def test_four_site(self):
        es = diagonalize_chain(pst_chain(4, 3))
        x = position_operator(build_ladder(es, p=3, gamma=1.0))
        report = pairing_check(x, mirror_in_eigenbasis(es))
        assert report.anticommutes
        assert len(report.pairs) == 2
        assert not report.zero_mode

    @pytest.mark.parametrize("centre, zero_mode", [(0.5e-9, True), (-1e-9, True),
                                                   (2e-9, False)])
    def test_zero_mode_within_pair_tolerance(self, centre, zero_mode):
        # the middle eigenvalue of an odd X counts as zero within 1e-9
        x = np.diag([-1.0, centre, 1.0])
        report = pairing_check(x, np.eye(3)[::-1])
        assert report.zero_mode is zero_mode

    @pytest.mark.parametrize("n", [2, 5, 40, 85])
    def test_x_spectrum_equals_dense_eigvalsh(self, n):
        # X's spectrum from its bands against the dense solver, bit for bit
        chain = reconstruct(pinched_spectrum(PinchSpec(n=n, p=3, alpha=0.5), shift=-2.74))
        es = diagonalize_chain(chain)
        x = position_operator(build_ladder(es, p=3, gamma=1.0))
        report = pairing_check(x, mirror_in_eigenbasis(es))
        assert report.x_values == tuple(np.linalg.eigvalsh(x).tolist())

    def test_pairs_are_negatives(self, pst5_es):
        x = position_operator(build_ladder(pst5_es, p=3, gamma=1.0))
        report = pairing_check(x, mirror_in_eigenbasis(pst5_es))
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
            # the oscillation theorem; node_count loses states from N ~ 89
            "nodes": list(range(n)),
            "ladder_residual": float(np.abs(h_shifted - ladder.number_operator()).max()),
            "commutator_residual": float(np.abs(
                ladder.commutator() - ladder.expected_commutator()).max()),
            "x_pairs": [list(pair) for pair in pairing.pairs],
            "zero_mode": pairing.zero_mode,
        }
        assert repr(diagnostics_report(chain, es, p=p, gamma=gamma)) == repr(dense)

    def test_builds_no_dense_operator(self):
        # one 1024 x 1024 float64 operator is 8 MiB; the dense composition
        # peaked at 72 MiB here
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
        assert "vectors" not in vars(es)        # the N x N matrix is never assembled

    @staticmethod
    def hermite_miss(n, gamma):
        """Largest distance of the p = 1 report's x_pairs, plus 0 for odd N's
        zero mode, from the Gauss-Hermite nodes sqrt(gamma/2) * roots of H_N,
        over max |x|. For p = 1, X = (a + a_dag)/2 is the Hermite Jacobi
        matrix scaled by sqrt(gamma/2) (Golub & Welsch 1969)."""
        chain = christandl_chain(n, gamma / 2)  # equidistant, level spacing gamma
        es = EigenSystem(band_values(*_bands(chain)), None)
        report = diagnostics_report(chain, es, p=1, gamma=gamma)
        assert report["zero_mode"] is (n % 2 == 1)
        lower, upper = zip(*report["x_pairs"])
        x = np.array([*lower, *[0.0] * (n % 2), *upper[::-1]])
        nodes = np.sqrt(gamma / 2) * roots_hermite(n)[0]
        return np.abs(x - nodes).max() / np.abs(nodes).max()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 512), gamma=st.floats(0.1, 10.0))
    def test_p1_x_pairs_are_gauss_hermite_nodes(self, n, gamma):
        assert self.hermite_miss(n, gamma) <= 1e-13

    @pytest.mark.parametrize("gamma", [0.37, 1.0, 2.5])
    def test_p1_x_pairs_are_gauss_hermite_nodes_at_2048(self, gamma):
        assert self.hermite_miss(2048, gamma) <= 1e-13

    @staticmethod
    def sturm_values(sub):
        """Ascending eigenvalues of the zero-diagonal band with off-diagonals
        ``sub``, each bisected on Sturm counts: the number of negative pivots
        q_i = -x - sub[i-1]^2 / q_(i-1) of X - x is the number of eigenvalues
        below x. The pivots are ratios of successive characteristic
        polynomials, so they stay finite where the polynomials overflow."""
        squares = np.square(sub)
        tiny = np.finfo(float).tiny * squares.max()
        k = np.arange(sub.size + 1)
        hi = np.full(k.size, 2.0 * np.abs(sub).max())  # Gershgorin
        lo = -hi
        for _ in range(64):
            x = 0.5 * (lo + hi)
            q = np.where(np.abs(x) < tiny, -tiny, -x)  # a zero pivot counts as negative
            below = (q < 0).astype(int)
            for b2 in squares:
                q = -x - b2 / q
                q[np.abs(q) < tiny] = -tiny
                below += q < 0
            kth_below = below > k  # the k-th eigenvalue lies below x
            hi = np.where(kth_below, x, hi)
            lo = np.where(kth_below, lo, x)
        return 0.5 * (lo + hi)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 200), p=st.sampled_from([3, 9, 13]),
           gamma=st.floats(0.1, 10.0))
    @example(n=200, p=3, gamma=10.0)
    @example(n=199, p=13, gamma=0.1)
    def test_pinched_x_pairs_match_sturm_bisection(self, n, p, gamma):
        # for p != 1, X's characteristic polynomial is the Hermite recurrence
        # with its last coefficient gamma * (N - 2 + 1/p) / 4 (ROADMAP item 8);
        # at N = 200 and gamma = 10 that recurrence overflows at the top of X's
        # range. Measured miss: at most 8.1e-15 of max |x|
        chain = reconstruct(pinched_spectrum(PinchSpec(n=n, p=p, alpha=gamma / 2)))
        es = EigenSystem(band_values(*_bands(chain)), None)
        report = diagnostics_report(chain, es, p=p, gamma=gamma)
        sub = 0.5 * np.sqrt(gamma * np.arange(1.0, n))
        sub[-1] = 0.5 * np.sqrt(gamma * (n - 2 + 1.0 / p))
        nodes = self.sturm_values(sub)
        scale = np.abs(nodes).max()
        assert report["zero_mode"] is (n % 2 == 1)
        if n % 2:
            assert abs(nodes[n // 2]) <= 1e-13 * scale
        lower, upper = zip(*report["x_pairs"])
        x = np.array([*lower, *[0.0] * (n % 2), *upper[::-1]])
        assert np.abs(x - nodes).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n", [89, 100])
    def test_nodes_past_eigenvector_cutoff(self, n):
        # node_count misses 2 and 4 states here: their tails fall below 1e-12
        chain = reconstruct(pinched_spectrum(PinchSpec(n=n, p=3, alpha=0.5)))
        report = diagnostics_report(chain, diagonalize_chain(chain), p=3, gamma=1.0)
        assert report["nodes"] == list(range(n))
        positive = ChainSpec(onsite=chain.onsite, couplings=chain.couplings,
                             sign_convention="positive")
        report = diagnostics_report(positive, diagonalize_chain(positive), p=3, gamma=1.0)
        assert report["nodes"] == list(range(n))[::-1]

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


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
def test_analogue_rejects_bad_gamma(pst5_es, gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        build_ladder(pst5_es, p=3, gamma=gamma)


def test_uniform_chain_schrodinger_dispersion():
    # the residual identity holds for plain tight-binding chains too
    chain = uniform_chain(8, onsite=1.5, coupling=0.8)
    residual = schrodinger_residual(chain, diagonalize_chain(chain))
    assert np.abs(residual).max() <= 1e-12


def test_ladder_hprime_equals_adag_a(pst5_es):
    ladder = build_ladder(pst5_es, p=3, gamma=1.0)
    target = np.diag([0.0, 1.0, 2.0, 3.0, 3.0 + 1.0 / 3.0])
    assert np.abs(ladder.number_operator() - target).max() <= 1e-10
