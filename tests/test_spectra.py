"""Pinched spectra, the odd-integer PST condition, snapping, symmetry."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    PinchSpec,
    Spectrum,
    check_pst_condition,
    diagonalize_chain,
    pinched_spectrum,
    snap_to_pst,
    spectral_symmetry_check,
)
from spinchain.spectra import infer_pinch

from conftest import CONTAINER_KINDS, as_kind, uniform_chain

QPST_VALUES = (1.006, 2.006, 3.001, 3.994, 4.326)


class TestSpectrum:
    def test_must_ascend(self):
        with pytest.raises(ValueError):
            Spectrum(values=(1.0, 1.0, 2.0))

    def test_json_roundtrip(self):
        s = Spectrum(values=(0.0, 1.0, 2.0, 7.0 / 3.0), p=3, t_m=3 * np.pi)
        again = Spectrum.from_dict(s.to_dict())
        assert again.values == s.values
        assert again.p == 3
        assert again.t_m == pytest.approx(3 * np.pi)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 80), p=st.sampled_from(range(1, 15, 2)),
           alpha=st.floats(0.1, 2.0), shift=st.floats(-10.0, 10.0))
    def test_dict_roundtrip_of_pinched_and_snapped(self, n, p, alpha, shift):
        # every field goes through to_dict, also through the JSON text snap writes
        pinched = pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha), shift=shift)
        for s in (pinched, snap_to_pst(Spectrum(pinched.values), p)):
            assert Spectrum.from_dict(s.to_dict()) == s
            assert Spectrum.from_dict(json.loads(json.dumps(s.to_dict()))) == s

    @pytest.mark.parametrize("kind", CONTAINER_KINDS)
    def test_stores_python_floats(self, kind):
        given = as_kind([-3.0, -1.25, 0.0, 2.6, 7.0], kind)
        s = Spectrum(values=given)
        assert type(s.values) is tuple
        assert all(type(v) is float for v in s.values)
        assert s.values == tuple(float(v) for v in given)

    @pytest.mark.parametrize("values, exc, message", [
        ((0.0, float("nan")), ValueError, "eigenvalues must be finite"),
        ((0.0, float("inf")), ValueError, "eigenvalues must be finite"),
        ((float("-inf"), 0.0), ValueError, "eigenvalues must be finite"),
        ((0.0, 2.0, 1.0), ValueError, "eigenvalues must be strictly ascending"),
        ((0.0, 1.0, 1.0), ValueError, "eigenvalues must be strictly ascending"),
        ((1.0,), ValueError, "spectrum needs at least 2 eigenvalues"),
        ((None, 1.0), ValueError, "eigenvalues must be finite"),
        ((0.0, 1j), ValueError, "eigenvalues must be finite"),
        (([0.0], 1.0), ValueError, "eigenvalues must be finite"),
        ((-1e308, 0.0, 1e308), ValueError, "eigenvalue spread must be finite, got inf"),
    ])
    def test_rejects(self, values, exc, message):
        with pytest.raises(exc) as info:
            Spectrum(values=values)
        assert str(info.value) == message


class TestPinchedSpectrum:
    def test_five_site_pinch_values(self):
        s = pinched_spectrum(PinchSpec(n=5, p=3, alpha=0.5), shift=3.0)
        assert np.allclose(s.values, [1.0, 2.0, 3.0, 4.0, 13.0 / 3.0], atol=1e-12)
        assert s.t_m == pytest.approx(3 * np.pi)

    def test_three_site_shape(self):
        for p in (1, 3, 7):
            s = pinched_spectrum(PinchSpec(n=3, p=p, alpha=0.5), shift=2.0)
            assert np.allclose(s.values, [1.0, 2.0, 2.0 + 1.0 / p], atol=1e-12)

    def test_p1_equidistant(self):
        s = pinched_spectrum(PinchSpec(n=6, p=1, alpha=0.5))
        assert np.abs(np.diff(s.values) - 1.0).max() <= 1e-12

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            PinchSpec(n=5, p=2, alpha=0.5)

    def test_one_level_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 levels$"):
            PinchSpec(n=1, p=3, alpha=0.5)

    @pytest.mark.parametrize("n, p", [(np.int64(5), np.int32(3)), (np.int16(4), 1)])
    def test_numpy_integers_accepted(self, n, p):
        assert pinched_spectrum(PinchSpec(n=n, p=p, alpha=0.5)).values == \
            pinched_spectrum(PinchSpec(n=int(n), p=int(p), alpha=0.5)).values

    @pytest.mark.parametrize("field, n, p", [("n", 4.9, 3), ("p", 5, 3.7), ("n", 5.0, 3),
                                             ("p", 5, 3.0), ("n", True, 3), ("p", 5, True),
                                             ("n", np.float64(5.0), 3)])
    def test_non_integer_n_p_rejected(self, field, n, p):
        # truncating 4.9 to 4 would build another chain than the one asked for
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            PinchSpec(n=n, p=p, alpha=0.5)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_alpha_not_positive_finite_rejected(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be positive and finite, got "):
            PinchSpec(n=5, p=3, alpha=alpha)


class TestPstCondition:
    def test_pinched_example(self):
        s = Spectrum(values=(1.0, 2.0, 3.0, 4.0, 13.0 / 3.0))
        check = check_pst_condition(s)
        assert check.valid
        assert check.q == (3, 3, 3, 1)
        assert check.t_m == pytest.approx(3 * np.pi, abs=1e-9)

    def test_qpst_invalid_at_diagnostic_tol(self):
        check = check_pst_condition(Spectrum(values=QPST_VALUES), tol=1e-3)
        assert not check.valid

    def test_uniform_chain_invalid(self):
        es = diagonalize_chain(uniform_chain(4))
        check = check_pst_condition(Spectrum(values=tuple(es.values)), tol=1e-6)
        assert not check.valid

    def test_round_trip_all_pinches(self):
        for p in range(1, 16, 2):
            for n in (3, 5, 8, 13, 20):
                alpha = 0.5
                s = pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha))
                check = check_pst_condition(s)
                assert check.valid
                assert check.q == (p,) * (n - 2) + (1,)
                assert check.t_m == pytest.approx(p * np.pi / (2 * alpha), rel=1e-12)

    def test_two_level(self):
        check = check_pst_condition(Spectrum(values=(0.0, 2.0)))
        assert check.valid and check.q == (1,)
        assert check.t_m == pytest.approx(np.pi / 2)

    def test_shift_covariance(self):
        base = Spectrum(values=(1.0, 2.0, 3.0, 4.0, 13.0 / 3.0))
        shifted = Spectrum(values=tuple(v + 11.75 for v in base.values))
        a, b = check_pst_condition(base), check_pst_condition(shifted)
        assert a.valid == b.valid
        assert a.q == b.q
        assert a.t_m == pytest.approx(b.t_m, rel=1e-9)


class TestPstConditionProperty:
    # gaps that are odd multiples of a base (within some noise), or free ones
    odd_gaps = st.builds(
        lambda base, qs, noise: [base * q + noise * i for i, q in enumerate(qs)],
        st.floats(0.05, 5.0), st.lists(st.sampled_from([1, 3, 5, 7, 9]),
                                       min_size=1, max_size=20),
        st.sampled_from([0.0, 1e-12, 1e-7, 1e-3]))
    free_gaps = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=20)

    @settings(max_examples=200, deadline=None)
    @given(gaps=st.one_of(odd_gaps, free_gaps), start=st.floats(-10.0, 10.0),
           tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]))
    def test_valid_iff_residual_within_tol(self, gaps, start, tol):
        s = Spectrum(values=tuple(start + np.concatenate([[0.0], np.cumsum(gaps)])))
        check = check_pst_condition(s, tol=tol)
        assert check.valid == (check.max_residual <= tol)
        g = s.gaps()
        q = np.array(check.q)
        assert (q % 2 == 1).all()
        # pi / t_m recovers the base gap to a few ulps, scaled by q
        residual = np.abs(g - q * (np.pi / check.t_m)).max() / g.mean()
        assert residual == pytest.approx(check.max_residual, rel=1e-9,
                                         abs=1e-14 * q.max())


class TestSnap:
    def test_qpst_rounds_onto_pst_family(self):
        snapped = snap_to_pst(Spectrum(values=QPST_VALUES), p=3)
        target = np.array([1.0, 2.0, 3.0, 4.0, 13.0 / 3.0])
        assert np.abs(np.array(snapped.values) - target).max() <= 0.01
        assert check_pst_condition(snapped, tol=1e-12).valid

    def test_fixed_point(self):
        s = pinched_spectrum(PinchSpec(n=7, p=5, alpha=0.5), shift=1.0)
        snapped = snap_to_pst(s, p=5)
        assert np.abs(np.array(snapped.values) - np.array(s.values)).max() <= 1e-12

    def test_idempotent(self):
        once = snap_to_pst(Spectrum(values=QPST_VALUES), p=3)
        twice = snap_to_pst(once, p=3)
        assert np.abs(np.array(twice.values) - np.array(once.values)).max() <= 1e-12

    def test_small_pinch_family(self):
        s = Spectrum(values=(0.0, 1.0, 2.0, 2.0 + 1.0 / 5))
        snapped = snap_to_pst(s, p=5)
        assert np.abs(np.array(snapped.values) - np.array(s.values)).max() <= 1e-12

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            snap_to_pst(Spectrum(values=QPST_VALUES), p=4)

    def test_two_values_rejected(self):
        with pytest.raises(ValueError, match="^snapping needs at least 3 eigenvalues$"):
            snap_to_pst(Spectrum(values=(0.0, 1.0)), p=3)


class TestInferPinch:
    @settings(max_examples=80, deadline=None)
    @given(p=st.sampled_from(range(1, 15, 2)), n=st.integers(3, 60),
           alpha=st.floats(0.1, 2.0), shift=st.floats(-10.0, 10.0))
    def test_recovers_pinched_parameters(self, p, n, alpha, shift):
        s = pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha), shift=shift)
        got_p, gamma = infer_pinch(np.array(s.values))
        assert got_p == p
        assert gamma == pytest.approx(2.0 * alpha, rel=1e-9)
        assert float(p * np.pi / gamma) == snap_to_pst(Spectrum(s.values), p).t_m  # one fit

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 1.0, 2.0], [1.0, 0.0, 1.0, 2.0],
        [0.0, 1.0, 2.0, 2.0], [0.0, 1.0, 3.0, 2.0],
    ])
    def test_non_increasing_gap_raises(self, values):
        with pytest.raises(ValueError, match="cannot infer pinch parameters"):
            infer_pinch(np.array(values))

    def test_nonpositive_fitted_spacing_raises(self):
        # both end gaps are positive, but the levels fall overall
        with pytest.raises(ValueError, match="^degenerate fit: nonpositive level spacing$"):
            infer_pinch(np.array([0.0, 1.0, -10.0, -9.5]))


class TestSpectralSymmetry:
    def test_uniform_chain_symmetric(self):
        es = diagonalize_chain(uniform_chain(6))
        assert spectral_symmetry_check(Spectrum(values=tuple(es.values)))

    def test_pinched_not_symmetric(self):
        assert not spectral_symmetry_check(
            Spectrum(values=(1.0, 2.0, 3.0, 4.0, 13.0 / 3.0)))

    def test_any_two_level_symmetric(self):
        assert spectral_symmetry_check(Spectrum(values=(-3.0, 17.2)))

    @pytest.mark.parametrize("delta, symmetric", [(1e-9, True), (3e-9, False)])
    def test_tolerance(self, delta, symmetric):
        # the pair sums (delta, 0, delta) spread 2 delta / 3 about their mean
        values = (-1.0, 0.0, 1.0 + delta)
        assert spectral_symmetry_check(Spectrum(values=values)) is symmetric
