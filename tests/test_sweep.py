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
from spinchain import NumericalError, sweep
from spinchain.cli import main

from conftest import uniform_chain

# sweep.csv of `spinchain sweep --n-min 4 --n-max 8 --p-list 1,3`
SWEEP_CSV_4_8 = """\
N,p,std_J,max_rel_spread_J,std_eps,roundtrip_err
4,1,0.0631562303272,0.133974596216,8.33941986942e-18,5.55111512313e-17
4,3,0.00246489829619,0.00784325835078,0.416666666667,8.881784197e-16
5,1,0.112372435696,0.183503419072,2.54596572976e-16,1.11022302463e-15
5,3,0.00182210490795,0.00397615888801,0.446218680818,5.71157704465e-16
6,1,0.162160914229,0.2546440075,1.28872809602e-16,4.4408920985e-16
6,3,0.00785871666801,0.0166678339644,0.440188766867,4.4408920985e-16
7,1,0.212694457855,0.292893218813,4.73986248286e-16,8.881784197e-16
7,3,0.0382040362917,0.0573060544376,0.426208765237,2.22044604925e-15
8,1,0.263865877674,0.338562172234,8.52846004618e-16,2.22044604925e-15
8,3,0.0879302818804,0.118128250933,0.415289069321,9.99200722163e-16
"""


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
        solve = sweep._reconstruct
        monkeypatch.setattr(sweep, "_reconstruct",
                            lambda s: calls.append(s) or solve(s))
        deviation_sweep(range(4, 8), (3,))
        assert len(calls) == 4

    def test_rejects_even_p(self):
        with pytest.raises(ValueError):
            deviation_sweep(range(4, 6), (2,))

    @pytest.mark.parametrize("p_set, alpha, message", [
        ((3,), 0.0, "alpha must be positive and finite, got 0.0"),
        ((3,), -1.0, "alpha must be positive and finite, got -1.0"),
        ((3,), float("nan"), "alpha must be positive and finite, got nan"),
        ((3,), float("inf"), "alpha must be positive and finite, got inf"),
        ((3, 4), 0.5, "pinch p must be a positive odd integer, got 4"),
    ])
    def test_rejects_before_any_point(self, monkeypatch, p_set, alpha, message):
        # both are checked once, before the loop: no point of a sweep that
        # must fail is computed
        calls = []
        monkeypatch.setattr(sweep, "_reconstruct", calls.append)
        with pytest.raises(ValueError) as info:
            deviation_sweep(range(4, 8), p_set, alpha=alpha)
        assert str(info.value) == message
        assert calls == []

    def test_scale_covariance(self):
        base = deviation_sweep((8,), (5,), alpha=0.5)[0]
        scaled = deviation_sweep((8,), (5,), alpha=1.5)[0]
        assert scaled.std_j == pytest.approx(3.0 * base.std_j, rel=1e-9)
        assert scaled.max_rel_spread_j == pytest.approx(base.max_rel_spread_j,
                                                        rel=1e-9)

    def test_csv_bytes_pinned(self, tmp_path, monkeypatch, capsys):
        argv = ["sweep", "--n-min", "4", "--n-max", "8", "--p-list", "1,3"]
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
        assert (tmp_path / "ok" / "sweep.csv").read_bytes() == SWEEP_CSV_4_8.encode()

        solve = sweep._reconstruct

        def failing(s):
            if s.n == 6 and s.p == 3:
                raise NumericalError("no chain")
            return solve(s)
        monkeypatch.setattr(sweep, "_reconstruct", failing)
        assert main(argv + ["--out", str(tmp_path / "nan")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "10 sweep points (1 failed)"
        expected = SWEEP_CSV_4_8.replace(
            "6,3,0.00785871666801,0.0166678339644,0.440188766867,4.4408920985e-16",
            "6,3,nan,nan,nan,nan")
        assert (tmp_path / "nan" / "sweep.csv").read_bytes() == expected.encode()


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
