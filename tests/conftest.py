"""Shared fixtures: the 5-site quasi-PST example and its PST counterpart."""

import numpy as np
import pytest

from spinchain import ChainSpec, Spectrum, diagonalize_chain, reconstruct

QPST_ONSITE = (3.40, 2.60, 2.33, 2.60, 3.40)
QPST_COUPLING = 0.91
PST5_VALUES = (1.0, 2.0, 3.0, 4.0, 13.0 / 3.0)
# containers a chain or spectrum may be built from (``as_kind``)
CONTAINER_KINDS = [tuple, list, np.float64, np.float32, np.int64]


@pytest.fixture(scope="session")
def qpst_chain():
    """Homogeneously coupled 5-site chain with quasi-PST dynamics."""
    return ChainSpec(onsite=QPST_ONSITE, couplings=(QPST_COUPLING,) * 4)


@pytest.fixture(scope="session")
def qpst_es(qpst_chain):
    return diagonalize_chain(qpst_chain)


@pytest.fixture(scope="session")
def pst5_spectrum():
    """Pinched spectrum (p=3) whose reconstruction gives exact PST."""
    return Spectrum(values=PST5_VALUES)


@pytest.fixture(scope="session")
def pst5_chain(pst5_spectrum):
    return reconstruct(pst5_spectrum)


@pytest.fixture(scope="session")
def pst5_es(pst5_chain):
    return diagonalize_chain(pst5_chain)


def uniform_chain(n, onsite=0.0, coupling=1.0, sign_convention="negative"):
    return ChainSpec(onsite=(onsite,) * n, couplings=(coupling,) * (n - 1),
                     sign_convention=sign_convention)


def random_mirror_chain(rng, n, sign_convention="negative"):
    """Random palindromic chain with couplings bounded away from zero."""
    half_e = rng.uniform(-2.0, 2.0, size=(n + 1) // 2)
    onsite = np.concatenate([half_e, half_e[: n - len(half_e)][::-1]])
    half_j = rng.uniform(0.2, 2.0, size=n // 2)
    couplings = np.concatenate([half_j, half_j[: n - 1 - len(half_j)][::-1]])
    return ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings),
                     sign_convention=sign_convention)


def scaled_eigenvectors(solve):
    """A fake ``chain._eigh_tridiagonal`` whose vectors are 1.1x the true ones."""
    def fake(d, e):
        values, vectors = solve(d, e)
        return values, 1.1 * vectors
    return fake


def as_kind(values, kind):
    """``values`` as a tuple, a list or a numpy array of the given dtype."""
    if kind in (tuple, list):
        return kind(values)
    return np.array(values, dtype=kind)

