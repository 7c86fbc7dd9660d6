"""Coupling-deviation sweep and the engineered-coupling reference chain."""

import numpy as np
import pytest

from spinchain import (
    PinchSpec,
    check_pst_condition,
    christandl_chain,
    coupling_statistics,
    diagonalize_chain,
    deviation_sweep,
    pinched_spectrum,
    reconstruct,
    roundtrip_error,
    Spectrum,
    transfer_fidelity,
)
from spinchain import sweep
from spinchain.sweep import sweep_csv

from conftest import uniform_chain


class TestCouplingStatistics:
    def test_uniform(self):
        stats = coupling_statistics(uniform_chain(6, coupling=0.7))
        assert stats["std_dev"] == 0.0
        assert stats["max_rel_spread"] == 0.0
        assert stats["mean"] == pytest.approx(0.7)

    def test_reconstructed_five_site(self, pst5_chain):
        stats = coupling_statistics(pst5_chain)
        assert stats["max_rel_spread"] == pytest.approx(0.004, abs=5e-4)

    def test_christandl_five_site(self):
        stats = coupling_statistics(christandl_chain(5, 1.0))
        assert 0.18 <= stats["max_rel_spread"] <= 0.20


class TestChristandl:
    def test_five_site_couplings(self):
        chain = christandl_chain(5, 1.0)
        assert np.allclose(chain.couplings, [2.0, np.sqrt(6), np.sqrt(6), 2.0])
        assert all(e == 0.0 for e in chain.onsite)

    def test_two_site(self):
        assert christandl_chain(2, 0.4).couplings == (0.4,)

    def test_perfect_transfer_at_half_pi(self):
        es = diagonalize_chain(christandl_chain(5, 1.0))
        check = check_pst_condition(Spectrum(values=tuple(es.values)), tol=1e-9)
        assert check.valid
        assert check.t_m == pytest.approx(np.pi / 2, abs=1e-9)
        assert transfer_fidelity(es, np.pi / 2) >= 0.9999

    def test_validation(self):
        with pytest.raises(ValueError):
            christandl_chain(1, 1.0)
        with pytest.raises(ValueError):
            christandl_chain(5, -1.0)


@pytest.fixture(scope="module")
def points():
    return deviation_sweep(range(4, 21), (1, 3, 5))


class TestDeviationSweep:
    def test_grid_complete(self, points):
        assert len(points) == 17 * 3
        assert [(pt.n, pt.p) for pt in points] == \
            [(n, p) for n in range(4, 21) for p in (1, 3, 5)]

    def test_no_failures_in_range(self, points):
        assert all(pt.error is None for pt in points)

    def test_symmetric_spectrum_flat_onsite(self, points):
        for pt in points:
            if pt.p == 1:
                assert pt.std_eps <= 1e-9

    def test_roundtrip_quality(self, points):
        for pt in points:
            assert pt.roundtrip_err <= 1e-8 * pt.n

    def test_roundtrip_from_its_own_chain(self, points, monkeypatch):
        for pt in points:
            s = pinched_spectrum(PinchSpec(n=pt.n, p=pt.p, alpha=0.5))
            assert pt.roundtrip_err == roundtrip_error(s)
        calls = []
        monkeypatch.setattr(sweep, "reconstruct",
                            lambda s: calls.append(s) or reconstruct(s))
        deviation_sweep(range(4, 8), (3,))
        assert len(calls) == 4

    def test_rejects_even_p(self):
        with pytest.raises(ValueError):
            deviation_sweep(range(4, 6), (2,))

    def test_scale_covariance(self):
        base = deviation_sweep((8,), (5,), alpha=0.5)[0]
        scaled = deviation_sweep((8,), (5,), alpha=1.5)[0]
        assert scaled.std_j == pytest.approx(3.0 * base.std_j, rel=1e-9)
        assert scaled.max_rel_spread_j == pytest.approx(base.max_rel_spread_j,
                                                        rel=1e-9)

    def test_csv_deterministic(self, points):
        assert sweep_csv(points) == sweep_csv(points)
        header, first = sweep_csv(points).splitlines()[:2]
        assert header == "N,p,std_J,max_rel_spread_J,std_eps,roundtrip_err"
        assert first.startswith("4,1,")


class TestSweepShape:
    def test_large_n_closed_form(self):
        # alpha = 1/2 tends to the Christandl profile J_i ~ sqrt(i(N-i))/2, whose
        # population std over N tends to sqrt(1/24 - pi^2/256)
        limit = np.sqrt(1.0 / 24.0 - np.pi ** 2 / 256.0)
        points = deviation_sweep([1000, 2048], [3, 9])
        assert all(pt.error is None for pt in points)
        for pt in points:
            assert pt.std_j / pt.n == pytest.approx(limit, rel=0.01)
            # n - 2 + 1/p: the spectral spread at alpha = 1/2
            assert pt.roundtrip_err <= 1e-10 * (pt.n - 2 + 1 / pt.p)

    def test_well_and_saturation(self):
        ns = range(4, 41)
        points = deviation_sweep(ns, (3, 5, 7, 9))
        for p in (3, 5, 7, 9):
            curve = np.array([pt.std_j for pt in points if pt.p == p])
            n_arr = np.array([pt.n for pt in points if pt.p == p])
            imin = int(np.argmin(curve))
            assert 0 < imin < len(curve) - 1
            assert n_arr[imin] < 12
            increments = np.abs(np.diff(curve))
            tail = increments[n_arr[:-1] >= 20]
            assert np.all(np.diff(tail) < 0)
