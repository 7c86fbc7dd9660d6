"""The input rules, as every entry point sees them.

``errors.integer`` and ``errors.odd_pinch`` state the rules for N and p once,
and ``errors.real``, ``errors.positive`` and ``errors.reals`` the rules for
real numbers. Every entry point that takes such a value must refuse the same
inputs with its rule's one message, and hand numpy numbers on as ``int`` or
``float``.
"""

import ast
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinchain
import spinchain.sweep as sweep
from spinchain import (
    ChainSpec,
    EigenSystem,
    GAConfig,
    PinchSpec,
    Spectrum,
    average_fidelity,
    christandl_chain,
    deviation_sweep,
    diagonalize_chain,
    pinched_spectrum,
    propagate,
    reconstruct,
    reconstruct_with_error,
    snap_to_pst,
    trace,
)
from spinchain.analogue import build_ladder, oscillation_nodes
from spinchain.cli import main
from spinchain.errors import integer, odd_pinch, positive, real, reals

from conftest import PST5_VALUES

PST5_ES = diagonalize_chain(reconstruct(Spectrum(values=PST5_VALUES)))


def ladder(p, es=PST5_ES, gamma=1.0):
    pair = build_ladder(es, p, gamma)
    return pair.sub.tolist(), pair.gamma, pair.p


# entry point -> the comparable result of calling it with pinch p
ENTRY_POINTS = {
    "GAConfig": lambda p: GAConfig(n=4, p=p, generations=0, population=2, samples=21),
    "PinchSpec": lambda p: pinched_spectrum(PinchSpec(n=5, p=p, alpha=0.5)),
    "deviation_sweep": lambda p: deviation_sweep((5, 6), (p,)),
    "snap_to_pst": lambda p: snap_to_pst(Spectrum(values=PST5_VALUES), p),
    "build_ladder": ladder,
    "Spectrum.p": lambda p: Spectrum(values=PST5_VALUES, p=p),
}
NOT_ODD = [2, 0, -1]
NOT_INTEGER = [3.0, 3.7, True, "3", None]
# optional fields, where None stands for "not given"
OPTIONAL = {"Spectrum.p", "Spectrum.t_m"}


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
        if p is None and entry in OPTIONAL:  # None stands for "not given": accepted
            ENTRY_POINTS[entry](p)
            return
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
        # a file's malformed value is a contract violation, so the CLI exits 2,
        # and Spectrum(values=...) refuses it with the same message
        for make in (Spectrum.from_dict, lambda d: Spectrum(**d)):
            with pytest.raises(ValueError, match="^eigenvalues must be finite$"):
                make({"values": values})


def ga_config(**fields):
    return GAConfig(n=4, p=3, generations=0, population=2, samples=21, **fields)


def ladder_at(gamma):
    # a bare eigensystem whose spectrum has the pinched form at this gamma
    # (1.0 for any value that is not 0.5), as ``analyze`` passes one
    spacing = 0.5 if gamma == 0.5 else 1.0
    es = EigenSystem(np.array(pinched_spectrum(PinchSpec(5, 3, spacing / 2)).values), None)
    return ladder(3, es, gamma)


def trace_of(**kwargs):
    tr = trace(PST5_ES, **{"window": 2.0, **kwargs})
    return tr.times.tolist(), tr.transfer.tolist(), tr.peaks, tr.j_max


# entry point -> (rule, name in the message, the comparable result of calling
# it with the real x)
REAL_ENTRY_POINTS = {
    "GAConfig.mu_i": ("real", "mu_i", lambda x: ga_config(mu_i=x, mu_f=0.0)),
    "GAConfig.mu_f": ("real", "mu_f", lambda x: ga_config(mu_i=5.0, mu_f=x)),
    "GAConfig.a": ("real", "a", lambda x: ga_config(a=x)),
    "GAConfig.b": ("real", "b", lambda x: ga_config(b=x)),
    "GAConfig.coupling": ("real", "coupling", lambda x: ga_config(coupling=x)),
    "GAConfig.mutation_width_frac": ("real", "mutation_width_frac",
                                     lambda x: ga_config(mutation_width_frac=x)),
    "GAConfig.window": ("positive", "window", lambda x: ga_config(window=x)),
    "GAConfig.bounds": ("reals", "bounds", lambda x: ga_config(bounds=(x, 5.0))),
    "PinchSpec.alpha": ("positive", "alpha",
                        lambda x: pinched_spectrum(PinchSpec(n=5, p=3, alpha=x))),
    "pinched_spectrum.shift": ("real", "shift",
                               lambda x: pinched_spectrum(PinchSpec(5, 3, 0.5), shift=x)),
    "deviation_sweep.alpha": ("positive", "alpha", lambda x: deviation_sweep((5,), (3,), x)),
    "christandl_chain.j0": ("positive", "j0", lambda x: christandl_chain(4, x)),
    "trace.window": ("positive", "window", lambda x: trace_of(window=x)),
    "trace.j_max": ("positive", "j_max", lambda x: trace_of(j_max=x)),
    "propagate.t": ("real", "t", lambda x: propagate(PST5_ES, 0, x).tolist()),
    "build_ladder.gamma": ("positive", "gamma", ladder_at),
    "ChainSpec.onsite": ("reals", "on-site energies and couplings",
                         lambda x: ChainSpec(onsite=(0.0, x), couplings=(1.0,))),
    "ChainSpec.couplings": ("reals", "on-site energies and couplings",
                            lambda x: ChainSpec(onsite=(0.0, 0.0), couplings=(x,))),
    "Spectrum.values": ("reals", "eigenvalues", lambda x: Spectrum(values=(-1.0, x))),
    "Spectrum.t_m": ("positive", "t_m", lambda x: Spectrum(values=(-1.0, 1.0), t_m=x)),
    "average_fidelity": ("real", "f_transfer", average_fidelity),
}
NOT_REAL = [math.nan, math.inf, -math.inf, True, "0.5", None]
NOT_POSITIVE = [0.0, -1.0]
MESSAGES = {
    "real": "{name} must be finite, got {x!r}",
    "positive": "{name} must be positive and finite, got {x!r}",
    "reals": "{name} must be finite",
}


class TestRealRules:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_real_returns_finite_floats_unchanged(self, x):
        for out in (real("x", x), reals("x", [x])[0], reals("x", np.array([x]))[0]):
            assert type(out) is float
            assert out == x and math.copysign(1.0, out) == math.copysign(1.0, x)

    @pytest.mark.parametrize("x", [2, np.int64(-3), np.float32(0.25), np.float64(1e300)])
    def test_numpy_and_int_reals_pass_as_floats(self, x):
        assert type(real("x", x)) is float and real("x", x) == float(x)
        assert reals("x", (x, x)) == (float(x),) * 2

    @pytest.mark.parametrize("x", NOT_REAL + [np.nan, np.bool_(True), 10**400, 1j, [1.0]])
    def test_real_refuses(self, x):
        for rule in (real, positive):
            with pytest.raises(ValueError, match=r"^x must be (positive and )?finite, got "):
                rule("x", x)
        with pytest.raises(ValueError, match="^x must be finite$"):
            reals("x", (1.0, x))

    def test_reals_refuses_arrays_of_another_shape_or_kind(self):
        for values in (np.zeros((2, 2)), np.array([True, False]), np.array(["1", "2"])):
            with pytest.raises(ValueError, match="^x must be finite$"):
                reals("x", values)
        assert reals("x", np.arange(3)) == (0.0, 1.0, 2.0)
        assert reals("x", np.array([1e308, 1e308])) == (1e308, 1e308)  # the sum overflows

    def test_defined_once(self):
        # outside errors.py only internal numeric checks test finiteness:
        # (module, function) of every line that does
        allowed = {
            ("chain", "_orthonormal_by_gaps"), ("chain", "eigendecompose"),
            ("reconstruct", "_centre_weights"),
            ("ga", "_shaped"), ("ga", "_score_fresh"),
        }
        found = set()
        for path in Path(spinchain.__file__).parent.glob("*.py"):
            if path.name == "errors.py":
                continue
            text = path.read_text()
            functions = [node for node in ast.walk(ast.parse(text))
                         if isinstance(node, ast.FunctionDef)]
            for i, line in enumerate(text.splitlines(), 1):
                if re.search(r"isfinite|np\.inf|math\.inf", line):
                    inner = min((f for f in functions if f.lineno <= i <= f.end_lineno),
                                key=lambda f: f.end_lineno - f.lineno)
                    found.add((path.stem, inner.name))
        assert found == allowed


class TestRealEntryPoints:
    @pytest.mark.parametrize("entry, x", [
        (entry, x) for entry, (rule, _, _) in REAL_ENTRY_POINTS.items()
        for x in NOT_REAL + (NOT_POSITIVE if rule == "positive" else [])
        if not (x is None and entry in OPTIONAL)])
    def test_refuses(self, entry, x):
        rule, name, call = REAL_ENTRY_POINTS[entry]
        with pytest.raises(ValueError) as info:
            call(x)
        assert str(info.value) == MESSAGES[rule].format(name=name, x=x)

    @pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
    @pytest.mark.parametrize("x, same", [(np.float32(0.5), 0.5), (np.float64(0.5), 0.5),
                                         (1, 1.0), (np.int64(1), 1.0)])
    def test_numpy_and_int_reals_give_the_float_result(self, entry, x, same):
        # repr tells np.float32(0.5) from 0.5 in any field, and every float exactly
        call = REAL_ENTRY_POINTS[entry][2]
        assert repr(call(x)) == repr(call(same))


class TestRealCallers:
    def test_spectrum_metadata_none_is_not_given(self):
        s = Spectrum(values=PST5_VALUES, p=None, t_m=None)
        assert (s.p, s.t_m) == (None, None)
        assert Spectrum.from_dict({"values": list(PST5_VALUES)}) == s

    @pytest.mark.parametrize("field, value", [("a", True), ("window", True), ("a", "0.5"),
                                              ("mu_i", None), ("b", "nan")])
    def test_ga_config_json_exit_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "p": 3, "generations": 1, "population": 4,
                                    "samples": 21, field: value}))
        out = tmp_path / "o"
        assert main(["optimize", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} must be ")
        assert not out.exists()

    def test_ga_config_stores_floats(self):
        cfg = ga_config(a=10, b=np.int64(1), window=np.float32(50), bounds=[0, np.int64(5)])
        assert (cfg.a, cfg.b, cfg.window, cfg.bounds) == (10.0, 1.0, 50.0, (0.0, 5.0))
        assert all(type(v) is float for v in (cfg.a, cfg.b, cfg.window, *cfg.bounds))


class TestSignConvention:
    MESSAGE = "sign_convention must be one of ('negative', 'positive'), got 'bogus'"

    def test_chain(self):
        with pytest.raises(ValueError) as info:
            ChainSpec(onsite=(0.0, 0.0), couplings=(1.0,), sign_convention="bogus")
        assert str(info.value) == self.MESSAGE

    def test_reconstruct_refuses_before_any_work(self, monkeypatch):
        calls = []
        module = importlib.import_module("spinchain.reconstruct")  # the name is the function
        monkeypatch.setattr(module, "_centre_weights", calls.append)
        with pytest.raises(ValueError) as info:
            reconstruct_with_error(Spectrum(values=PST5_VALUES), "bogus")
        assert str(info.value) == self.MESSAGE
        assert calls == []

    def test_oscillation_nodes(self):
        with pytest.raises(ValueError) as info:
            oscillation_nodes(4, "bogus")
        assert str(info.value) == self.MESSAGE
        assert oscillation_nodes(4, "positive") == [3, 2, 1, 0]
