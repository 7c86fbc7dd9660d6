"""The integer rule and the odd-pinch rule, as every (N, p) entry point sees them.

``errors.integer`` and ``errors.odd_pinch`` state the two rules once. Every
entry point that takes a pinch p must refuse the same inputs with the same
message, and hand numpy integers on as ``int``.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import spinchain
import spinchain.sweep as sweep
from spinchain import (
    ChainSpec,
    GAConfig,
    PinchSpec,
    Spectrum,
    christandl_chain,
    deviation_sweep,
    diagonalize_chain,
    pinched_spectrum,
    propagate,
    reconstruct,
    snap_to_pst,
    trace,
)
from spinchain.analogue import build_ladder
from spinchain.errors import integer, odd_pinch

from conftest import PST5_VALUES

PST5_ES = diagonalize_chain(reconstruct(Spectrum(values=PST5_VALUES)))


def ladder(p):
    pair = build_ladder(PST5_ES, p, 1.0)
    return pair.sub.tolist(), pair.gamma, pair.p


# entry point -> the comparable result of calling it with pinch p
ENTRY_POINTS = {
    "GAConfig": lambda p: GAConfig(n=4, p=p, generations=0, population=2, samples=21),
    "PinchSpec": lambda p: pinched_spectrum(PinchSpec(n=5, p=p, alpha=0.5)),
    "deviation_sweep": lambda p: deviation_sweep((5, 6), (p,)),
    "snap_to_pst": lambda p: snap_to_pst(Spectrum(values=PST5_VALUES), p),
    "build_ladder": ladder,
}
NOT_ODD = [2, 0, -1]
NOT_INTEGER = [3.0, 3.7, True, "3", None]


class TestRules:
    @pytest.mark.parametrize("value", [0, -7, 2**70, np.int8(-3), np.int32(5),
                                       np.int64(2**40), np.uint64(2**63)])
    def test_integer_passes_python_and_numpy_integers(self, value):
        out = integer("k", value)
        assert type(out) is int and out == value

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, np.float64(3.0),
                                       3.5, float("nan"), "3", None, [3], 3 + 0j])
    def test_integer_refuses_everything_else(self, value):
        with pytest.raises(ValueError) as info:
            integer("k", value)
        assert str(info.value) == f"k must be an integer, got {value!r}"

    @pytest.mark.parametrize("p", [1, 3, 61, np.int32(9), np.int64(13)])
    def test_odd_pinch_passes(self, p):
        out = odd_pinch(p)
        assert type(out) is int and out == p

    def test_defined_once(self):
        # outside errors.py no module restates the parity test or the
        # isinstance integer test
        package = Path(spinchain.__file__).parent
        for path in package.glob("*.py"):
            if path.name == "errors.py":
                continue
            text = path.read_text()
            assert "% 2 == 0" not in text, path.name
            assert not re.search(r"isinstance\([^)]*\bint\b", text), path.name


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestEntryPoints:
    @pytest.mark.parametrize("p", NOT_ODD)
    def test_refuses_not_odd(self, entry, p):
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry](p)
        assert str(info.value) == f"pinch p must be a positive odd integer, got {p}"

    @pytest.mark.parametrize("p", NOT_INTEGER)
    def test_refuses_not_integer(self, entry, p):
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry](p)
        assert str(info.value) == f"p must be an integer, got {p!r}"

    @pytest.mark.parametrize("cast", [np.int32, np.int64])
    def test_numpy_integers_give_the_int_result(self, entry, cast):
        # repr tells np.int64(3) from 3 in any field, and every float exactly
        assert repr(ENTRY_POINTS[entry](cast(3))) == repr(ENTRY_POINTS[entry](3))


class TestCallers:
    def test_ga_config_from_numpy_integers(self):
        fields = dict(n=5, p=3, generations=2, population=16, samples=201, seed=7)
        plain = GAConfig(**fields)
        for cast in (np.int32, np.int64):
            cfg = GAConfig(**{k: cast(v) for k, v in fields.items()})
            assert cfg == plain
            assert all(type(getattr(cfg, k)) is int for k in fields)
            assert json.dumps(cfg.to_dict()) == json.dumps(plain.to_dict())

    @pytest.mark.parametrize("n_range, p_set, message", [
        ([4.9], [3], "n must be an integer, got 4.9"),
        ([5], [3.7], "p must be an integer, got 3.7"),
        ([True], [3], "n must be an integer, got True"),
        ([5], [True], "p must be an integer, got True"),
        ([4, 5, 6.0], [3], "n must be an integer, got 6.0"),
    ])
    def test_sweep_refuses_before_any_point(self, monkeypatch, n_range, p_set, message):
        calls = []
        monkeypatch.setattr(sweep, "reconstruct_with_error", calls.append)
        with pytest.raises(ValueError) as info:
            deviation_sweep(n_range, p_set)
        assert str(info.value) == message
        assert calls == []

    def test_sweep_numpy_n(self):
        points = deviation_sweep(np.arange(4, 7), (3,))
        assert repr(points) == repr(deviation_sweep(range(4, 7), (3,)))

    @pytest.mark.parametrize("samples", [401.0, np.float64(401), True, "401"])
    def test_trace_samples_integer(self, samples):
        with pytest.raises(ValueError) as info:
            trace(PST5_ES, window=2.0, samples=samples)
        assert str(info.value) == f"samples must be an integer, got {samples!r}"

    def test_trace_numpy_samples(self):
        ref = trace(PST5_ES, window=2.0, samples=401)
        out = trace(PST5_ES, window=2.0, samples=np.int64(401))
        assert np.array_equal(out.transfer, ref.transfer) and out.peaks == ref.peaks

    @pytest.mark.parametrize("site", [True, 1.5, 1.0, np.float64(0), "0", None])
    def test_propagate_site_integer(self, site):
        with pytest.raises(ValueError) as info:
            propagate(PST5_ES, site, 1.0)
        assert str(info.value) == f"initial_site must be an integer, got {site!r}"

    def test_propagate_numpy_site(self):
        out = propagate(PST5_ES, np.int64(1), 1.0)
        assert out.shape == (PST5_ES.n,)
        assert np.array_equal(out, propagate(PST5_ES, 1, 1.0))

    @pytest.mark.parametrize("n", [2.5, 5.0, True, "5", None])
    def test_christandl_n_integer(self, n):
        with pytest.raises(ValueError) as info:
            christandl_chain(n, 1.0)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    def test_christandl_numpy_n(self):
        assert christandl_chain(np.int64(5), 1.0) == christandl_chain(5, 1.0)

    @pytest.mark.parametrize("n, message", [
        (None, "n must be an integer, got None"),
        ([5], "n must be an integer, got [5]"),
        (4.9, "n must be an integer, got 4.9"),
        (5.0, "n must be an integer, got 5.0"),
        (True, "n must be an integer, got True"),
        ("5", "n must be an integer, got '5'"),
        (4, "declared n=4 but 5 on-site energies given"),
    ])
    def test_chain_declared_n(self, n, message):
        d = {"n": n, "onsite": [0.0] * 5, "couplings": [1.0] * 4}
        with pytest.raises(ValueError) as info:
            ChainSpec.from_dict(d)
        assert str(info.value) == message
        d["n"] = np.int64(5)
        assert ChainSpec.from_dict(d) == ChainSpec.from_dict({**d, "n": 5})

    @pytest.mark.parametrize("values", [[None, 1, 2], [[0.0], 1, 2], [0.0, {"a": 1}, 2]])
    def test_spectrum_values_malformed(self, values):
        # a file's malformed value is a contract violation, so the CLI exits 2;
        # Spectrum(values=...) itself still raises TypeError
        with pytest.raises(ValueError, match="malformed spectrum object"):
            Spectrum.from_dict({"values": values})
