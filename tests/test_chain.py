"""Chain model: Hamiltonian construction, eigensolver, mirror symmetry."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinchain.chain
from spinchain import (
    ChainSpec,
    EigenSystem,
    NumericalError,
    PinchSpec,
    build_hamiltonian,
    check_mirror_symmetry,
    christandl_chain,
    diagonalize_chain,
    eigendecompose,
    eigenstate_parity,
    pinched_spectrum,
    reconstruct,
    trace,
)
from spinchain.chain import (
    ORTHONORMALITY_TOL,
    RESIDUAL_TILE,
    _banded_residual,
    band_values,
    mirror_bands,
    mirror_spectra,
    mirror_values,
    tridiagonal,
)

from conftest import (
    CONTAINER_KINDS,
    as_kind,
    random_mirror_chain,
    scaled_eigenvectors,
    uniform_chain,
)


def seed13_mirror_chains():
    """The 30 random mirror chains (n 2-39) drawn from seed 13, in order."""
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        convention = "negative" if rng.random() < 0.5 else "positive"
        yield random_mirror_chain(rng, n, convention)


def recorded_solver_sizes(monkeypatch):
    """Patch ``chain._eigh_tridiagonal`` (dstevd) to record the size of each
    matrix it solves."""
    sizes = []
    solve = spinchain.chain._eigh_tridiagonal

    def recording(d, e):
        sizes.append(len(d))
        return solve(d, e)
    monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal", recording)
    return sizes


def assert_first_component_positive(vectors):
    """Each column's first component above 1e-12 of its largest is positive."""
    mag = np.abs(vectors)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    assert np.all(vectors[first, np.arange(vectors.shape[1])] > 0.0)


def fix_vector_signs(vectors, rows=None):
    """Column-layout sign rule, in place: each column's first component above
    1e-12 of its largest made positive, the first ``rows`` rows deciding."""
    mag = np.abs(vectors[:rows])
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    vectors *= np.where(vectors[first, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors


def solve_mirror_columns(d, e):
    """The column-scatter mirror solve, kept as the bit-identity reference.

    Block vectors are scattered column by column into a C-ordered N x N
    array, then one sign pass runs over the whole matrix.
    """
    def block(bd, be):
        return (bd.copy(), np.eye(1)) if bd.size == 1 else scipy.linalg.eigh_tridiagonal(bd, be)
    n = d.size
    m = n // 2
    if n % 2:
        even_d, even_e = d[: m + 1], e[:m].copy()
        even_e[-1] *= np.sqrt(2.0)
        odd_d = d[:m]
    else:
        even_d, even_e = d[:m].copy(), e[: m - 1]
        odd_d = even_d.copy()
        even_d[-1] += e[m - 1]
        odd_d[-1] -= e[m - 1]
    even_values, even = block(even_d, even_e)
    odd_values, odd = block(odd_d, e[: m - 1])

    values = np.concatenate([even_values, odd_values])
    order = np.argsort(values, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    even_cols, odd_cols = column[: even_values.size], column[even_values.size:]
    vectors = np.empty((n, n))
    even[:m] *= np.sqrt(0.5)
    odd *= np.sqrt(0.5)
    vectors[:m, even_cols] = even[:m]
    vectors[n - m:, even_cols] = even[m - 1:: -1]
    if n % 2:
        vectors[m, even_cols] = even[m]
        vectors[m, odd_cols] = 0.0
    vectors[:m, odd_cols] = odd
    np.negative(odd, out=odd)
    vectors[n - m:, odd_cols] = odd[::-1]
    return values[order], fix_vector_signs(vectors, n - m)


@st.composite
def mirror_chains(draw, max_n=200, min_n=2):
    """Palindromic chains: couplings in +-[0.2, 5], on-site energies in [-5, 5]."""
    n = draw(st.integers(min_n, max_n))
    coupling = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))
    half_j = draw(st.lists(coupling, min_size=n // 2, max_size=n // 2))
    half_e = draw(st.lists(st.floats(-5.0, 5.0),
                           min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    convention = draw(st.sampled_from(["negative", "positive"]))
    return ChainSpec(onsite=tuple(half_e + half_e[: n // 2][::-1]),
                     couplings=tuple(half_j + half_j[: (n - 1) // 2][::-1]),
                     sign_convention=convention)


@st.composite
def pinched_chains(draw, max_n=200):
    """Chains reconstructed from pinched spectra, in either sign convention."""
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([1, 3, 5, 7, 9, 11, 13]))
    alpha = draw(st.floats(0.1, 2.0))
    shift = draw(st.floats(-5.0, 5.0))
    convention = draw(st.sampled_from(["negative", "positive"]))
    return reconstruct(pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha), shift=shift),
                       sign_convention=convention)


def hamiltonian_bands(chain):
    h = build_hamiltonian(chain)
    return np.diag(h), np.diag(h, 1)


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

    @pytest.mark.parametrize("kind", CONTAINER_KINDS)
    def test_stores_python_floats(self, kind):
        onsite = as_kind([3.4, 2.6, -2.33, 2.6, 3.4], kind)
        couplings = as_kind([1.91, 1.7, 1.7, 1.91], kind)
        spec = ChainSpec(onsite=onsite, couplings=couplings)
        for stored, given in ((spec.onsite, onsite), (spec.couplings, couplings)):
            assert type(stored) is tuple
            assert all(type(v) is float for v in stored)
            assert stored == tuple(float(v) for v in given)

    @pytest.mark.parametrize("onsite, couplings, exc, message", [
        ((0.0, float("nan")), (1.0,), ValueError,
         "on-site energies and couplings must be finite"),
        ((0.0, 0.0), (float("inf"),), ValueError,
         "on-site energies and couplings must be finite"),
        ((float("-inf"), 0.0), (1.0,), ValueError,
         "on-site energies and couplings must be finite"),
        ((0.0, 0.0, 0.0), (1.0, 0.0), ValueError, "zero coupling disconnects the chain"),
        ((0.0, 0.0, 0.0), (-0.0, 1.0), ValueError, "zero coupling disconnects the chain"),
        ((0.0,), (), ValueError, "chain needs at least 2 sites, got 1"),
        ((0.0, None), (1.0,), ValueError, "on-site energies and couplings must be finite"),
        ((0.0, 0.0), (1j,), ValueError, "on-site energies and couplings must be finite"),
        (([0.0], 0.0), (1.0,), ValueError, "on-site energies and couplings must be finite"),
        (np.zeros((2, 2)), (1.0,), ValueError, "on-site energies and couplings must be finite"),
    ])
    def test_rejects(self, onsite, couplings, exc, message):
        with pytest.raises(exc) as info:
            ChainSpec(onsite=onsite, couplings=couplings)
        assert str(info.value) == message

    def test_from_dict_malformed_entry(self):
        with pytest.raises(ValueError) as info:
            ChainSpec.from_dict({"onsite": [0, None], "couplings": [1]})
        assert str(info.value) == "on-site energies and couplings must be finite"


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
            chains = [ChainSpec(onsite, couplings, c) for c in ("negative", "positive")]
            neg, pos = map(diagonalize_chain, chains)
            assert np.abs(neg.values - pos.values).max() <= 1e-12
            # both conventions' bands as one (2, n) stack
            bands = zip(*map(spinchain.chain._bands, chains))
            stack = tridiagonal(*(np.array(band) for band in bands))
            assert stack.shape == (2, n, n)
            for h, chain in zip(stack, chains):
                assert np.array_equal(h, build_hamiltonian(chain))


class TestEigendecompose:
    def test_dispersion_oracle(self):
        for n in range(2, 33):
            es = diagonalize_chain(uniform_chain(n, onsite=0.5, coupling=1.3))
            assert np.abs(es.values - dispersion(n, 0.5, 1.3)).max() <= 1e-10

    def test_three_site_values(self):
        es = diagonalize_chain(uniform_chain(3))
        assert np.allclose(es.values, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)

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
        es = eigendecompose((np.diag(h), np.diag(h, 1)))
        resid = np.abs(h @ es.vectors - es.vectors * es.values[None, :]).max()
        assert resid <= 1e-10 * np.abs(h).max()

    def test_values_ascending(self, qpst_es):
        assert np.all(np.diff(qpst_es.values) > 0)

    def test_sign_convention_deterministic(self, qpst_es):
        for k in range(5):
            col = qpst_es.vectors[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
            assert first > 0

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2), (0, 0), (1, 1)])
    def test_rejects_dense_matrix(self, shape):
        with pytest.raises(ValueError) as info:
            eigendecompose(np.zeros(shape))
        assert str(info.value) == ("expected bands (diagonal, off-diagonal) of shapes "
                                   f"(N,) and (N-1,), got {shape}")

    @pytest.mark.parametrize("bands", [
        (np.zeros(3), np.ones(3)),
        (np.zeros(3), np.ones(1)),
        (np.zeros((3, 1)), np.ones(2)),
        (np.zeros(0), np.ones(0)),
        (np.zeros(3), np.ones((2, 1))),
        (np.zeros(3), np.ones(2), np.ones(2)),
        (np.zeros(3),),
        [np.zeros(3), np.ones(2)],
        (np.zeros(3), [[1.0], [1.0, 2.0]]),
        4.2,
    ])
    def test_rejects_misshaped_bands(self, bands):
        with pytest.raises(ValueError, match=re.escape(
                "expected bands (diagonal, off-diagonal) of shapes (N,) and (N-1,), got ")):
            eigendecompose(bands)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("palindromic", [True, False])
    def test_rejects_non_finite_entries(self, bad, where, palindromic):
        # entry 1 and its mirror image, so an infinite palindrome stays one
        rng = np.random.default_rng(8)
        if palindromic:
            d, e = (b.copy() for b in hamiltonian_bands(random_mirror_chain(rng, 7)))
        else:
            d, e = rng.uniform(-2.0, 2.0, 7), rng.uniform(0.2, 2.0, 6)
        target = d if where == "diagonal" else e
        target[1] = target[-2] = bad
        with pytest.raises(ValueError, match="^band entries must be finite$"):
            eigendecompose((d, e))

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
        # one solver call on equal bands: the chain and the bands read off its
        # dense Hamiltonian give the same eigensystem bit for bit
        n = data.draw(st.integers(2, 80))
        coupling = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))
        couplings = data.draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
        onsite = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
        convention = data.draw(st.sampled_from(["negative", "positive"]))
        chain = ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                          sign_convention=convention)
        h = build_hamiltonian(chain)
        es, bands = diagonalize_chain(chain), eigendecompose((np.diag(h), np.diag(h, 1)))
        assert np.array_equal(bands.values, es.values)
        assert np.array_equal(bands.vectors, es.vectors)


class TestMirrorSplit:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_split_eigensystem(self, data):
        n = data.draw(st.integers(2, 200))
        coupling = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))
        half_j = data.draw(st.lists(coupling, min_size=n // 2, max_size=n // 2))
        half_e = data.draw(st.lists(st.floats(-5.0, 5.0),
                                    min_size=(n + 1) // 2, max_size=(n + 1) // 2))
        convention = data.draw(st.sampled_from(["negative", "positive"]))
        chain = ChainSpec(onsite=tuple(half_e + half_e[: n // 2][::-1]),
                          couplings=tuple(half_j + half_j[: (n - 1) // 2][::-1]),
                          sign_convention=convention)
        h = build_hamiltonian(chain)
        d, e = np.diag(h), np.diag(h, 1)
        es = diagonalize_chain(chain)
        v = es.vectors

        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
        assert np.abs(h @ v - v * es.values).max() <= 1e-10 * np.abs(h).max()
        # every column is exactly even or exactly odd under the mirror
        parity = np.where(np.einsum("ik,ik->k", v, v[::-1]) > 0.0, 1.0, -1.0)
        assert np.array_equal(v[::-1], v * parity)
        assert_first_component_positive(v)
        reference = scipy.linalg.eigvalsh_tridiagonal(d, e)
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(es.values - reference).max() <= 1e-12 * scale

        unsplit = EigenSystem(*scipy.linalg.eigh_tridiagonal(d, e))
        f = trace(es, window=50.0, samples=401, j_max=chain.j_max).transfer
        f_ref = trace(unsplit, window=50.0, samples=401, j_max=chain.j_max).transfer
        assert np.abs(f - f_ref).max() <= 1e-12

    def test_sign_convention_with_a_centre_bound_state(self):
        # the state bound to the centre site has its largest entry there and
        # tails that cross the 1e-12 threshold a few sites out
        onsite = np.zeros(41)
        onsite[20] = 1e3
        es = diagonalize_chain(ChainSpec(onsite=tuple(onsite), couplings=(1.0,) * 40))
        assert np.argmax(np.abs(es.vectors[:, -1])) == 20
        assert_first_component_positive(es.vectors)

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_mirror_chain_solves_two_half_blocks(self, monkeypatch, n):
        sizes = recorded_solver_sizes(monkeypatch)
        diagonalize_chain(random_mirror_chain(np.random.default_rng(n), n))
        # a block of one site is solved without the solver
        assert sorted(sizes) == [s for s in (n // 2, (n + 1) // 2) if s > 1]

    def test_one_ulp_off_mirror_takes_full_path(self, monkeypatch):
        chain = random_mirror_chain(np.random.default_rng(4), 9)
        onsite = list(chain.onsite)
        onsite[0] = np.nextafter(onsite[0], np.inf)
        off = ChainSpec(onsite=tuple(onsite), couplings=chain.couplings)
        assert check_mirror_symmetry(off)[0]  # within MIRROR_TOL, yet not exact
        sizes = recorded_solver_sizes(monkeypatch)
        es = diagonalize_chain(off)
        assert sizes == [9]
        h = build_hamiltonian(off)
        assert np.abs(h @ es.vectors - es.vectors * es.values).max() <= 1e-10 * np.abs(h).max()
        # one ulp off the mirror, its states keep the exact palindrome's parities
        assert eigenstate_parity(es) == eigenstate_parity(diagonalize_chain(chain))

    def test_one_ulp_off_mirror_coupling_takes_full_path(self, monkeypatch):
        # the off-diagonal band is mirror-tested too, not only the diagonal
        chain = random_mirror_chain(np.random.default_rng(6), 6)
        couplings = list(chain.couplings)
        couplings[1] = np.nextafter(couplings[1], np.inf)
        off = ChainSpec(onsite=chain.onsite, couplings=tuple(couplings))
        assert check_mirror_symmetry(off)[0]
        sizes = recorded_solver_sizes(monkeypatch)
        es = diagonalize_chain(off)
        assert sizes == [6]
        h = build_hamiltonian(off)
        assert np.abs(h @ es.vectors - es.vectors * es.values).max() <= 1e-10 * np.abs(h).max()

    @settings(max_examples=60, deadline=None)
    @given(mirror_chains())
    @example(christandl_chain(1024, 1.0))
    @example(random_mirror_chain(np.random.default_rng(1023), 1023, "positive"))
    def test_matches_column_scatter_reference(self, chain):
        es = diagonalize_chain(chain)
        values, vectors = solve_mirror_columns(*hamiltonian_bands(chain))
        assert np.array_equal(es.values, values)
        assert np.array_equal(es.vectors, vectors)
        assert es.vectors.T.flags.c_contiguous

    def test_general_path_matches_column_sign_reference(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 10, 75, 300):
            chain = ChainSpec(onsite=tuple(rng.uniform(-5.0, 5.0, n)),
                              couplings=tuple(rng.uniform(0.2, 5.0, n - 1)))
            d, e = hamiltonian_bands(chain)
            assert not np.array_equal(d, d[::-1])
            values, vectors = scipy.linalg.eigh_tridiagonal(d, e)
            es = diagonalize_chain(chain)
            assert np.array_equal(es.values, values)
            assert np.array_equal(es.vectors, fix_vector_signs(vectors))
            assert es.vectors.T.flags.c_contiguous

    def test_peak_memory(self):
        # the full-size solve's Gram and residual buffers peaked at 96 MiB here;
        # the deferred assembly of the eigenvector matrix is traced too
        chain = christandl_chain(2048, 1.0)
        tracemalloc.start()
        try:
            es = diagonalize_chain(chain)
            vectors = es.vectors
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vectors.shape == (2048, 2048)
        assert peak <= 72 * 2**20


def nearest_gaps(values):
    """Distance of each ascending value to its nearest neighbour (inf if alone)."""
    gaps = np.diff(values)
    return np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))


class TestMirrorSolves:
    @settings(max_examples=60, deadline=None)
    @given(mirror_chains())
    def test_values_match_full_solve(self, chain):
        d, e = hamiltonian_bands(chain)
        reference = np.sort(scipy.linalg.eigvalsh_tridiagonal(d, e))
        values = mirror_values(d, e)
        assert np.abs(values - reference).max() <= 1e-12 * (reference[-1] - reference[0])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_spectra_match_diagonalize_chain(self, data):
        n = data.draw(st.integers(2, 200))
        chains = data.draw(st.lists(mirror_chains(max_n=n, min_n=n),
                                    min_size=1, max_size=4))
        d, e = (np.array(band) for band in zip(*map(hamiltonian_bands, chains)))
        lam, w = mirror_spectra(d, e, n)
        assert lam.shape == w.shape == (len(chains), n)
        even = (n + 1) // 2
        for row, chain in enumerate(chains):
            es = diagonalize_chain(chain)
            # block order: the even states ascending, then the odd states
            order = np.argsort(-np.array(eigenstate_parity(es)), kind="stable")
            spread = es.values[-1] - es.values[0]
            assert np.abs(lam[row] - es.values[order]).max() <= 1e-12 * spread
            # an eigenvector is good to ~eps * spread over its gap in its block
            gaps = np.concatenate([nearest_gaps(lam[row, :even]),
                                   nearest_gaps(lam[row, even:])])
            tol = 1e-12 * np.maximum(1.0, spread / gaps)
            assert np.all(np.abs(w[row] - (es.vectors[0] * es.vectors[-1])[order]) <= tol)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(mirror_chains(), pinched_chains()))
    def test_match_per_block_references(self, chain):
        # LAPACK splits at the zero coupling between the blocks and solves
        # each on its own, so the results are the per-block solves' bit for bit
        n = chain.n
        d, e = hamiltonian_bands(chain)
        merged = np.sort(np.concatenate([bd if bd.size == 1 else lapack.dsterf(bd, be)[0]
                                         for bd, be in mirror_bands(d, e, n)]))
        assert mirror_values(d, e).tobytes() == merged.tobytes()

        with pytest.MonkeyPatch.context() as patch:
            sizes = recorded_solver_sizes(patch)
            es = diagonalize_chain(chain)
        # the even block, then the odd one; a block of one site needs no solve
        assert sizes == [s for s in ((n + 1) // 2, n // 2) if s > 1]
        values, vectors = solve_mirror_columns(d, e)
        assert es.values.tobytes() == values.tobytes()
        # built from the blocks whichever is read first: vectors reads it before
        # it drops them
        assert es.end_weights.tobytes() == (vectors[0] * vectors[-1]).tobytes()
        assert es.vectors.tobytes() == vectors.tobytes()

    @pytest.mark.parametrize("failing", [(9, 5, 4), (9, 4), (9,)])
    def test_joint_dsterf_failure_names_the_chain(self, monkeypatch, failing):
        # the two blocks (5 and 4 rows) are solved in one 9-row call: its
        # failure names the chain, whichever block would fail alone
        dsterf = lapack.dsterf

        def fake(d, e):
            return (d.copy(), 1) if d.size in failing else dsterf(d, e)
        monkeypatch.setattr(lapack, "dsterf", fake)
        d, e = hamiltonian_bands(random_mirror_chain(np.random.default_rng(3), 9))
        with pytest.raises(NumericalError, match=r"dsterf did not converge \(info 1, N=9\)"):
            mirror_values(d, e)

    def test_dsterf_failure_raises(self, monkeypatch):
        monkeypatch.setattr(lapack, "dsterf", lambda d, e: (d.copy(), 1))
        d, e = hamiltonian_bands(random_mirror_chain(np.random.default_rng(3), 9))
        with pytest.raises(NumericalError, match=r"dsterf did not converge \(info 1, N=9\)"):
            mirror_values(d, e)
        with pytest.raises(NumericalError, match="dsterf did not converge"):
            band_values(d, e)
        with pytest.raises(NumericalError, match="dsterf did not converge"):
            reconstruct(pinched_spectrum(PinchSpec(n=9, p=3, alpha=0.5)))


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


def swapped_columns(solve):
    """A fake ``chain._eigh_tridiagonal`` that swaps two eigenvectors:
    orthonormal but wrong."""
    def fake(d, e):
        values, vectors = solve(d, e)
        return values, vectors[:, [1, 0, *range(2, len(d))]]
    return fake


def residual_chain(n):
    """N = 300 takes the general path; N = 511 and 512 the mirror split."""
    rng = np.random.default_rng(n)
    if n == 300:
        return ChainSpec(onsite=tuple(rng.uniform(-2.0, 2.0, n)),
                         couplings=tuple(rng.uniform(0.2, 2.0, n - 1)))
    return random_mirror_chain(rng, n)


def untiled_rows(d, e, values, vt):
    """(H - lambda) v for every row v of ``vt``, on the whole array."""
    r = d - values[:, None]
    r *= vt
    shifted = np.multiply(vt[:, 1:], e)
    r[:, :-1] += shifted
    r[:, 1:] += np.multiply(vt[:, :-1], e, out=shifted)
    return r


def untiled_residual(d, e, values, vt):
    """The whole-array banded residual, the tiled check's bitwise reference."""
    r = untiled_rows(d, e, values, vt)
    return np.abs(r, out=r).max()


class TestTiledResidual:
    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("shift", [0.0, 1e-3])
    def test_matches_untiled_formula(self, k, shift):
        rng = np.random.default_rng(k)
        d, e = rng.uniform(-2.0, 2.0, k), rng.uniform(0.2, 2.0, k - 1)
        if k == 1:
            values, vectors = d.copy(), np.eye(1)
        else:
            values, vectors = scipy.linalg.eigh_tridiagonal(d, e)
        values = values + shift * rng.standard_normal(k)
        vt = vectors.T
        figure = _banded_residual(d, e, values, vt)
        assert figure == untiled_residual(d, e, values, vt)
        assert (figure > 1e-6) == (shift > 0.0)
        row_sq = np.empty(k)
        assert _banded_residual(d, e, values, vt, row_sq) == figure
        r = untiled_rows(d, e, values, vt)
        assert np.array_equal(row_sq, np.einsum("ij,ij->i", r, r))

    @pytest.mark.parametrize("shift", [1e-3, np.nan])
    def test_last_partial_tile_is_checked(self, monkeypatch, shift):
        # 130 rows: two full tiles and a partial one holding the last eigenpair
        n = 130
        assert n % RESIDUAL_TILE and n > 2 * RESIDUAL_TILE
        rng = np.random.default_rng(5)
        chain = ChainSpec(onsite=tuple(rng.uniform(-2.0, 2.0, n)),
                          couplings=tuple(rng.uniform(0.2, 2.0, n - 1)))
        solve = spinchain.chain._eigh_tridiagonal

        def fake(d, e):  # moves only the last eigenvalue
            values, vectors = solve(d, e)
            values[-1] += shift
            return values, vectors
        d, e = hamiltonian_bands(chain)
        values, vectors = fake(d, e)
        figure = untiled_residual(d, e, values, vectors.T)
        assert figure > 1e-4 or np.isnan(figure)
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal", fake)
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(chain)
        assert str(info.value) == f"eigendecompose: eigenpair residual {figure:.3e} (N={n})"


class TestEigendecomposeFailures:
    @pytest.mark.parametrize("fake, n, message", [
        (swapped_columns, 300, "eigenpair residual 2.710e-02 (N=300)"),
        (swapped_columns, 512, "eigenpair residual 6.688e-02 (N=512)"),
        (swapped_columns, 511, "eigenpair residual 2.769e-02 (N=511)"),
        (shifted_values, 300, "eigenpair residual 9.666e-04 (N=300)"),
        (shifted_values, 512, "eigenpair residual 9.938e-04 (N=512)"),
        (shifted_values, 511, "eigenpair residual 9.815e-04 (N=511)"),
    ])
    def test_residual_figure(self, monkeypatch, fake, n, message):
        # figures recorded from the column-layout residual; the row-layout one
        # runs the same operations in the same order
        chain = residual_chain(n)
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal",
                            fake(spinchain.chain._eigh_tridiagonal))
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(chain)
        assert str(info.value) == "eigendecompose: " + message

    @pytest.mark.parametrize("fake, figure", [
        (no_convergence, "did not converge"),
        (scaled_eigenvectors, "orthonormality error 2.100e-01"),
        (shifted_values, "eigenpair residual"),
        (nan_vectors, "orthonormality error nan"),
    ])
    def test_short_message(self, monkeypatch, qpst_chain, fake, figure):
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal",
                            fake(spinchain.chain._eigh_tridiagonal))
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(qpst_chain)
        msg = str(info.value)
        assert "\n" not in msg
        assert msg.startswith("eigendecompose:")
        assert "N=5" in msg and figure in msg

    def test_dstevd_info(self, monkeypatch, qpst_chain):
        dstevd = lapack.dstevd

        def failing(d, e, compute_v):
            return (*dstevd(d, e, compute_v=compute_v)[:2], 1)
        monkeypatch.setattr(lapack, "dstevd", failing)
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(qpst_chain)
        assert str(info.value) == "eigendecompose: dstevd did not converge (N=5)"


def dense_gram_figure(vectors):
    """max |V^T V - I| from the whole product, the reference figure."""
    return np.abs(vectors.T @ vectors - np.eye(vectors.shape[1])).max()


def mixed_eigenvectors(delta, a, b):
    """A fake ``chain._eigh_tridiagonal`` adding delta * v_b to v_a, the indices taken
    modulo the block size."""
    def make(solve):
        def fake(d, e):
            values, vectors = solve(d, e)
            i, j = a % len(d), b % len(d)
            if i != j:
                vectors[:, i] += delta * vectors[:, j]
            return values, vectors
        return fake
    return make


def returning(fake):
    """Wrap a fake ``chain._eigh_tridiagonal``; ``returned`` lists the vectors it gave."""
    def wrapper(d, e):
        values, vectors = fake(d, e)
        wrapper.returned.append(vectors)
        return values, vectors
    wrapper.returned = []
    return wrapper


def counted_pairs(monkeypatch):
    """Record the number of pairs each explicit pair-dot pass computes."""
    counts = []
    pair_dots = spinchain.chain._pair_dots

    def counting(vt, j, k):
        counts.append(j.size)
        return pair_dots(vt, j, k)
    monkeypatch.setattr(spinchain.chain, "_pair_dots", counting)
    return counts


def dense_products(monkeypatch):
    """Record the size of each dense Gram product formed."""
    sizes = []
    gram_error = spinchain.chain._gram_error

    def recording(vectors):
        sizes.append(vectors.shape[1])
        return gram_error(vectors)
    monkeypatch.setattr(spinchain.chain, "_gram_error", recording)
    return sizes


@st.composite
def gap_check_chains(draw):
    """Christandl, random and uniform-coupling U[0, 5] chains, N 65-400,
    general or palindromic."""
    n = draw(st.integers(65, 400))
    kind = draw(st.sampled_from(["christandl", "random", "uniform"]))
    if kind == "christandl":
        return christandl_chain(n, draw(st.floats(0.1, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        onsite, couplings = rng.uniform(-2.0, 2.0, n), rng.uniform(0.2, 2.0, n - 1)
    else:
        onsite, couplings = rng.uniform(0.0, 5.0, n), np.ones(n - 1)
    if draw(st.booleans()):
        onsite = np.concatenate([onsite[: (n + 1) // 2], onsite[: n // 2][::-1]])
        couplings = np.concatenate([couplings[: n // 2], couplings[: (n - 1) // 2][::-1]])
    return ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings))


class TestGapOrthonormalityCheck:
    """Blocks of more than RESIDUAL_TILE rows are cleared from residuals and
    eigenvalue gaps; the decision must be the dense Gram product's."""

    @settings(max_examples=60, deadline=None)
    @given(chain=gap_check_chains(),
           delta=st.sampled_from([0.0, 1e-12, 3e-11, 9.5e-11, 1.05e-10, 3e-10, 1e-8]),
           a=st.integers(0, 400), step=st.one_of(st.integers(1, 2), st.integers(3, 400)))
    def test_decision_matches_dense_product(self, chain, delta, a, step):
        # v_a mixed with a neighbour (step 1 or 2) or a distant vector
        fake = returning(mixed_eigenvectors(delta, a, a + step)(spinchain.chain._eigh_tridiagonal))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spinchain.chain, "_eigh_tridiagonal", fake)
            try:
                diagonalize_chain(chain)
                message = ""
            except NumericalError as exc:
                message = str(exc)
        figures = [dense_gram_figure(v) for v in fake.returned]
        failing = [f for f in figures if not f <= ORTHONORMALITY_TOL]
        if failing:
            assert message == (f"eigendecompose: orthonormality error "
                               f"{failing[0]:.3e} (N={chain.n})")
        else:
            assert "orthonormality" not in message

    @pytest.mark.parametrize("n", [300, 511, 512])
    @pytest.mark.parametrize("make", [scaled_eigenvectors, nan_vectors])
    def test_broken_vectors_report_the_dense_figure(self, monkeypatch, n, make):
        fake = returning(make(spinchain.chain._eigh_tridiagonal))
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal", fake)
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(residual_chain(n))
        figure = dense_gram_figure(fake.returned[0])
        assert str(info.value) == f"eigendecompose: orthonormality error {figure:.3e} (N={n})"

    @pytest.mark.parametrize("n", [300, 511, 512])
    @pytest.mark.parametrize("a, b", [(0, -1), (130, 131)])
    def test_mixed_pair_fails_at_3e_10(self, monkeypatch, n, a, b):
        # (0, -1): the block's two ends, a full spectral width apart;
        # (130, 131): neighbours, whose pair the gap bound cannot clear
        fake = returning(mixed_eigenvectors(3e-10, a, b)(spinchain.chain._eigh_tridiagonal))
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal", fake)
        with pytest.raises(NumericalError) as info:
            diagonalize_chain(residual_chain(n))
        figure = dense_gram_figure(fake.returned[0])
        assert 2.9e-10 < figure < 3.1e-10
        assert str(info.value) == f"eigendecompose: orthonormality error {figure:.3e} (N={n})"

    @pytest.mark.parametrize("n", [300, 511, 512])
    @pytest.mark.parametrize("a, b", [(0, -1), (130, 131)])
    def test_mixed_pair_passes_at_3e_11(self, monkeypatch, n, a, b):
        fake = returning(mixed_eigenvectors(3e-11, a, b)(spinchain.chain._eigh_tridiagonal))
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal", fake)
        assert diagonalize_chain(residual_chain(n)).n == n  # both checks pass
        assert all(dense_gram_figure(v) <= ORTHONORMALITY_TOL for v in fake.returned)

    @pytest.mark.parametrize("n", [300, 511, 512])
    def test_neighbour_pair_is_dotted_explicitly(self, monkeypatch, n):
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal",
                            mixed_eigenvectors(3e-11, 130, 131)(spinchain.chain._eigh_tridiagonal))
        pairs = counted_pairs(monkeypatch)
        dense = dense_products(monkeypatch)
        diagonalize_chain(residual_chain(n))
        assert dense == [] and min(pairs) >= 1

    @pytest.mark.parametrize("make", [
        lambda n: christandl_chain(n, 0.7),
        lambda n: reconstruct(pinched_spectrum(PinchSpec(n=n, p=3, alpha=0.5))),
    ])
    def test_large_engineered_chains_form_no_dense_product(self, monkeypatch, make):
        # at N = 2048 each 1024-row block is cleared by its gaps alone: no
        # dense O(k^3) product and no explicit pair
        chain = make(2048)
        pairs = counted_pairs(monkeypatch)
        dense = dense_products(monkeypatch)
        es = diagonalize_chain(chain)
        assert es.n == 2048
        assert dense == [] and pairs == [0, 0]

    @pytest.mark.parametrize("n, sizes", [(128, [64, 64]), (129, [64]), (130, [])])
    def test_single_tile_blocks_take_the_dense_product(self, monkeypatch, n, sizes):
        dense = dense_products(monkeypatch)
        diagonalize_chain(random_mirror_chain(np.random.default_rng(n), n))
        assert dense == sizes


class TestMirror:
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
        # reference: phi @ M @ phi per state; the split solve gives exact mirror
        # eigenstates, so chains with near-degenerate doublets are accepted too
        for chain in seed13_mirror_chains():
            es = diagonalize_chain(chain)
            m = np.eye(chain.n)[::-1]
            overlaps = np.array([phi @ m @ phi for phi in es.vectors.T])
            assert np.abs(np.abs(overlaps) - 1.0).max() <= 1e-8
            assert eigenstate_parity(es) == [1 if o > 0 else -1 for o in overlaps]

    def test_near_degenerate_doublet_chain(self):
        # draw 10 of seed 13: n = 39, exactly palindromic, lowest gap 1.9e-12;
        # a full-size solve mixed its doublets and the parity was refused
        chain = list(seed13_mirror_chains())[9]
        assert chain.n == 39 and check_mirror_symmetry(chain) == (True, 0.0)
        es = diagonalize_chain(chain)
        assert np.diff(es.values).min() < 1e-11
        parities = eigenstate_parity(es)
        assert parities == [(-1) ** k for k in range(39)]

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
