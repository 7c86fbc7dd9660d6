"""CLI surface: subcommands, file formats, exit codes, reproducibility."""

import importlib
import io
import json
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinchain._csvtext
import spinchain.chain
import spinchain.cli
from spinchain import (
    ChainSpec,
    GAConfig,
    PinchSpec,
    Spectrum,
    christandl_chain,
    diagonalize_chain,
    evolve,
    pinched_spectrum,
    reconstruct,
    roundtrip_error,
    trace,
)
from spinchain.cli import CSV_BLOCK_ROWS, _write_rows, main

from conftest import PST5_VALUES, scaled_eigenvectors

QPST_CHAIN = {
    "n": 5,
    "onsite": [3.40, 2.60, 2.33, 2.60, 3.40],
    "couplings": [0.91, 0.91, 0.91, 0.91],
    "sign_convention": "negative",
}


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(QPST_CHAIN))
    return path


def read_json(path):
    return json.loads(path.read_text())


# signed zeros, subnormals, non-finite values and both exponent forms of %g
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan,
                  1e-5, -1e16, 0.1, 123456789.123456789]
csv_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                       st.floats(allow_nan=True, allow_infinity=True))
# decimal ties at the 12th digit, and the carry into a 13th; the last four
# are the doubles nearest 13-digit ties whose scaled mantissa an inexact
# power of ten puts on the wrong side of the tie
TIES = [123456789012.5, 123456789013.5, -123456789012.5, 999999999999.5,
        999999999999.4, -999999999999.5, 1.000000000005, 0.00012345678901250,
        9.267822324345e-14, 9.589483199205e-12, 5.284350194275e+20,
        -1.328373403285e+29]
# 10**k and both neighbours, k = -300..300: every switch between the fixed
# and exponent forms (1e-4 / 1e-5, 1e11 / 1e12) and 3-digit exponents
_POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])
POWERS_OF_TEN = np.column_stack([np.nextafter(_POWERS, 0.0), _POWERS,
                                 np.nextafter(_POWERS, np.inf)]).ravel().tolist()
# non-finite values among ordinary ones, so full blocks mix both paths
MIXED = [np.nan, 0.5, np.inf, 1.25e-7, -np.inf, 3.0, -np.nan, 0.1]


class TestWriteRows:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(csv_floats, min_size=1, max_size=64),
           n_rows=st.integers(0, 2 * CSV_BLOCK_ROWS + 1))
    @example(values=SPECIAL_FLOATS, n_rows=1)
    @example(values=SPECIAL_FLOATS, n_rows=2)
    @example(values=SPECIAL_FLOATS, n_rows=4095)
    @example(values=SPECIAL_FLOATS, n_rows=4096)
    @example(values=SPECIAL_FLOATS, n_rows=4097)
    @example(values=SPECIAL_FLOATS, n_rows=8193)
    @example(values=TIES, n_rows=8)
    @example(values=POWERS_OF_TEN, n_rows=len(POWERS_OF_TEN) // 3)
    @example(values=[0.0, -0.0], n_rows=CSV_BLOCK_ROWS)
    @example(values=MIXED, n_rows=2 * CSV_BLOCK_ROWS)
    def test_matches_fstring_rows(self, values, n_rows):
        rows = np.resize(np.array(values, dtype=float), (n_rows, 3))
        expected = "h,e,ad\n" + "".join(f"{a:.12g},{b:.12g},{c:.12g}\n"
                                          for a, b, c in rows.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            _write_rows(path, "h,e,ad", tuple(rows.T))
            assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=40, deadline=None)
    @given(ints=st.lists(st.integers(-(10**12 - 1), 10**12 - 1), min_size=1, max_size=64),
           n_rows=st.integers(1, CSV_BLOCK_ROWS + 1))
    @example(ints=[0, 1, -1, 9, 10, 99999, 100000, 10**11, 10**12 - 1], n_rows=9)
    def test_integer_columns_print_as_d(self, ints, n_rows):
        # generation, N and p columns: %d, as history.csv and sweep.csv had
        col = np.resize(np.array(ints), n_rows)
        expected = "N,x\n" + "".join(f"{i:d},{i / 8:.12g}\n" for i in col.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ints.csv"
            _write_rows(path, "N,x", (col, col / 8))
            assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("chain, window", [("qpst", 400.0), ("christandl", 50.0)])
def test_python_fallback_share(tmp_path, monkeypatch, chain, window):
    # the values the numpy formatter hands to Python's % (ties, non-finite,
    # extreme): a slide onto that slow path should fail here, not go unseen
    spec = (ChainSpec.from_dict(QPST_CHAIN) if chain == "qpst"
            else christandl_chain(2048, 1.0))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec.to_dict()))
    sent = []

    def counted(values):
        sent.extend(values)
        return fallback(values)

    fallback = spinchain._csvtext._python_g12
    monkeypatch.setattr(spinchain._csvtext, "_python_g12", counted)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--window", str(window), "--out", str(out)]) == 0
    values = 3 * ((out / "trace.csv").read_text().count("\n") - 1)
    assert values == 3 * (200 * int(window) + 1)
    assert len(sent) < 0.01 * values


class TestSimulate:
    def test_trace_and_peaks(self, tmp_path, chain_file):
        out = tmp_path / "sim"
        assert main(["simulate", str(chain_file), "--window", "50",
                     "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t_Jmax,F,Fav"
        assert len(lines) == 10002
        peaks = read_json(out / "peaks.json")["peaks"]
        best = max(peaks, key=lambda p: p["F"])
        assert best["F"] == pytest.approx(0.9998, abs=5e-4)
        assert best["t"] == pytest.approx(8.63, abs=0.05)
        manifest = read_json(out / "manifest.json")
        assert manifest["subcommand"] == "simulate"

    def test_raw_time_axis(self, tmp_path, chain_file):
        out = tmp_path / "sim_raw"
        assert main(["simulate", str(chain_file), "--window", "10",
                     "--raw-time", "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,F,Fav"
        last_t = float(lines[-1].split(",")[0])
        assert last_t == pytest.approx(10.0 / 0.91, rel=1e-9)

    @pytest.mark.parametrize("raw_time", [False, True])
    def test_csv_rows_pinned(self, tmp_path, chain_file, raw_time):
        # reference rows: the f-string formula applied to trace()'s arrays
        out = tmp_path / "fmt"
        argv = ["simulate", str(chain_file), "--window", "50", "--out", str(out)]
        assert main(argv + ["--raw-time"] * raw_time) == 0
        chain = ChainSpec.from_dict(QPST_CHAIN)
        tr = trace(diagonalize_chain(chain), window=50.0, j_max=chain.j_max)
        times = tr.times / chain.j_max if raw_time else tr.times
        rows = ["t,F,Fav" if raw_time else "t_Jmax,F,Fav"]
        rows += [f"{t:.12g},{f:.12g},{a:.12g}"
                 for t, f, a in zip(times, tr.transfer, tr.average)]
        assert (out / "trace.csv").read_text() == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("raw_time", [False, True])
    def test_csv_rows_pinned_window_400(self, tmp_path, chain_file, raw_time):
        # 80,001 rows: 19 full blocks and a partial one
        out = tmp_path / "fmt400"
        argv = ["simulate", str(chain_file), "--window", "400", "--out", str(out)]
        assert main(argv + ["--raw-time"] * raw_time) == 0
        chain = ChainSpec.from_dict(QPST_CHAIN)
        tr = trace(diagonalize_chain(chain), window=400.0, j_max=chain.j_max)
        times = tr.times / chain.j_max if raw_time else tr.times
        rows = ["t,F,Fav" if raw_time else "t_Jmax,F,Fav"]
        rows += [f"{t:.12g},{f:.12g},{a:.12g}"
                 for t, f, a in zip(times, tr.transfer, tr.average)]
        assert len(rows) == 80_002
        assert (out / "trace.csv").read_text() == "\n".join(rows) + "\n"

    def test_trace_csv_memory_bounded(self, tmp_path):
        # holding all 80,001 rows' values and text at once peaked at 15 MiB
        chain = reconstruct(pinched_spectrum(PinchSpec(n=40, p=3, alpha=0.5)))
        path = tmp_path / "pinched40.json"
        path.write_text(json.dumps(chain.to_dict()))
        out = tmp_path / "sim40"
        tracemalloc.start()
        try:
            code = main(["simulate", str(path), "--window", "400", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (out / "trace.csv").read_text().count("\n") == 80_002
        assert peak <= 8 * 2**20

    def test_two_site_peak(self, tmp_path):
        chain = tmp_path / "two.json"
        chain.write_text(json.dumps(
            {"n": 2, "onsite": [0, 0], "couplings": [1.0],
             "sign_convention": "negative"}))
        out = tmp_path / "two_out"
        assert main(["simulate", str(chain), "--window", "5",
                     "--out", str(out)]) == 0
        peaks = read_json(out / "peaks.json")["peaks"]
        assert peaks[0]["t"] == pytest.approx(np.pi / 2, abs=1e-4)
        assert peaks[0]["F"] == pytest.approx(1.0, abs=1e-8)

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("window", ["-5", "0", "inf", "nan"])
    def test_invalid_window_exit_2(self, tmp_path, chain_file, capsys, window):
        out = tmp_path / "o"
        assert main(["simulate", str(chain_file), "--window", window, "--out", str(out)]) == 2
        assert "window must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_3(self, tmp_path, chain_file, monkeypatch, capsys):
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal",
                            scaled_eigenvectors(spinchain.chain._eigh_tridiagonal))
        assert main(["simulate", str(chain_file), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "N=5" in err

    def test_byte_reproducible(self, tmp_path, chain_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(chain_file), "--window", "20", "--out", str(out1)])
        main(["simulate", str(chain_file), "--window", "20", "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "peaks.json").read_bytes() == (out2 / "peaks.json").read_bytes()


class TestReconstruct:
    def test_pinched_five_three_entries(self, tmp_path):
        out = tmp_path / "rec"
        assert main(["reconstruct", "--pinched", "5", "3", "0.5",
                     "--shift", "3", "--out", str(out)]) == 0
        chain = read_json(out / "chain.json")
        assert np.abs(np.array(chain["onsite"])
                      - [3.40, 2.60, 7 / 3, 2.60, 3.40]).max() <= 1e-9
        assert np.abs(np.array(chain["couplings"])
                      - [0.91651514, 0.91287093, 0.91287093, 0.91651514]).max() <= 1e-7

    def test_appendix_p3(self, tmp_path):
        out = tmp_path / "rec3"
        assert main(["reconstruct", "--pinched", "3", "3", "0.5",
                     "--shift", "2", "--out", str(out)]) == 0
        chain = read_json(out / "chain.json")
        assert np.abs(np.array(chain["onsite"]) - [2.0, 4 / 3, 2.0]).max() <= 1e-12
        assert np.abs(np.array(chain["couplings"]) - 1 / np.sqrt(6)).max() <= 1e-12

    def test_spectrum_file(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"values": [1, 2, 3, 4, 13 / 3]}))
        out = tmp_path / "recf"
        assert main(["reconstruct", str(spec), "--out", str(out)]) == 0
        assert (out / "chain.json").exists()

    def test_duplicate_eigenvalues_exit_2(self, tmp_path):
        spec = tmp_path / "dup.json"
        spec.write_text(json.dumps({"values": [1.0, 1.0, 2.0]}))
        assert main(["reconstruct", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_no_input_exit_2(self, tmp_path):
        assert main(["reconstruct", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("pinched, message", [
        (("4.9", "3.7", "0.5"), "n must be an integer, got 4.9"),
        (("5", "3.7", "0.5"), "p must be an integer, got 3.7"),
        (("nan", "3", "0.5"), "n must be an integer, got nan"),
        (("5", "inf", "0.5"), "p must be an integer, got inf"),
        (("5", "3", "inf"), "alpha must be positive and finite, got inf"),
        (("5", "3", "nan"), "alpha must be positive and finite, got nan"),
        (("5", "3", "0"), "alpha must be positive and finite, got 0.0"),
    ])
    def test_bad_pinched_exit_2(self, tmp_path, capsys, pinched, message):
        # truncating would build another chain than the one asked for (4.9 3.7: N = 4, p = 3)
        out = tmp_path / "o"
        assert main(["reconstruct", "--pinched", *pinched, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_integral_float_pinched(self, tmp_path):
        # 5.0 and 3.0 are the integers 5 and 3: the same chain, byte for byte
        out_int, out_float = tmp_path / "int", tmp_path / "float"
        assert main(["reconstruct", "--pinched", "5", "3", "0.5", "--out", str(out_int)]) == 0
        assert main(["reconstruct", "--pinched", "5.0", "3.0", "0.5",
                     "--out", str(out_float)]) == 0
        assert (out_float / "chain.json").read_bytes() == (out_int / "chain.json").read_bytes()
        assert read_json(out_float / "manifest.json")["parameters"]["pinched"] == [5.0, 3.0, 0.5]

    @pytest.mark.parametrize("convention", ["negative", "positive"])
    def test_reconstructs_once(self, tmp_path, monkeypatch, capsys, convention):
        # stdout and chain.json as reconstruct(..., convention) followed by a
        # separate roundtrip_error gave them, from a single reconstruction
        spectrum = pinched_spectrum(PinchSpec(n=41, p=5, alpha=0.5), shift=-1.3)
        chain = reconstruct(spectrum, sign_convention=convention)
        err = roundtrip_error(spectrum)
        module = importlib.import_module("spinchain.reconstruct")
        solve = module.reconstruct_with_error
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        # the CLI's own name and the one reconstruct and roundtrip_error call
        monkeypatch.setattr(spinchain.cli, "reconstruct_with_error", counted)
        monkeypatch.setattr(module, "reconstruct_with_error", counted)
        out = tmp_path / "rec"
        assert main(["reconstruct", "--pinched", "41", "5", "0.5", "--shift", "-1.3",
                     "--convention", convention, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"roundtrip error: {err:.3e}\n"
        assert (out / "chain.json").read_text() == json.dumps(
            chain.to_dict(), indent=2, sort_keys=True) + "\n"
        assert len(calls) == 1


class TestSnap:
    def test_qpst_spectrum_rounds(self, tmp_path):
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps(
            {"values": [1.006, 2.006, 3.001, 3.994, 4.326]}))
        out = tmp_path / "snap"
        assert main(["snap", str(spec), "--p", "3", "--out", str(out)]) == 0
        diff = read_json(out / "snap_diff.json")
        assert diff["max_shift"] <= 0.01
        snapped = read_json(out / "spectrum_pst.json")
        assert snapped["p"] == 3

    def test_already_pst_zero_diff(self, tmp_path):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"values": [1.0, 2.0, 3.0, 4.0, 13 / 3]}))
        out = tmp_path / "snap0"
        assert main(["snap", str(spec), "--p", "3", "--out", str(out)]) == 0
        assert read_json(out / "snap_diff.json")["max_shift"] <= 1e-12

    def test_even_p_exit_2(self, tmp_path):
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({"values": [1.0, 2.0, 3.0]}))
        assert main(["snap", str(spec), "--p", "4", "--out", str(tmp_path / "o")]) == 2


class TestOptimize:
    @pytest.fixture()
    def config_file(self, tmp_path):
        path = tmp_path / "ga.json"
        path.write_text(json.dumps({
            "n": 4, "p": 3, "generations": 5, "population": 32,
            "samples": 401, "seed": 7,
        }))
        return path

    def test_history_monotone(self, tmp_path, config_file):
        out = tmp_path / "opt"
        assert main(["optimize", str(config_file), "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "generation,best_f,best_Fmax,best_Q,best_sigma"
        best = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(best) == 6
        assert all(b >= a for a, b in zip(best, best[1:]))
        chain = read_json(out / "best_chain.json")
        assert chain["onsite"] == chain["onsite"][::-1]

    def test_seed_override_reproducible(self, tmp_path, config_file):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["optimize", str(config_file), "--seed", "3", "--out", str(out1)])
        main(["optimize", str(config_file), "--seed", "3", "--out", str(out2)])
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert read_json(out1 / "manifest.json")["seed"] == 3

    def test_history_csv_pinned(self, tmp_path, config_file):
        # the per-row f-string join that history.csv was written with
        out = tmp_path / "pin"
        assert main(["optimize", str(config_file), "--out", str(out)]) == 0
        history = evolve(GAConfig.from_dict(read_json(config_file))).history
        lines = ["generation,best_f,best_Fmax,best_Q,best_sigma"]
        lines.extend(
            f"{h['generation']},{h['best_f']:.12g},{h['best_Fmax']:.12g},"
            f"{h['best_Q']:.12g},{h['best_sigma']:.12g}"
            for h in history
        )
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert (out / "history.csv").read_bytes() == expected

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 4, "p": 2}))
        assert main(["optimize", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, text", [("population", "16.0"), ("n", "5.0"),
                                             ("generations", "1.0"), ("samples", "201.0"),
                                             ("bounds", "[0, Infinity]"), ("a", "NaN"),
                                             ("a", "true"), ("window", "true"),
                                             ("seed_parabolic", '"false"')])
    def test_malformed_field_exit_2(self, tmp_path, capsys, field, text):
        # JSON floats where integers belong, and non-finite reals, are refused
        # before any search runs
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 5, "p": 3, "population": 16, "generations": 1, '
                       f'"samples": 201, "{field}": {text}}}')
        out = tmp_path / "o"
        assert main(["optimize", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out.exists()


class TestAnalyze:
    def test_pst_chain(self, tmp_path):
        rec = tmp_path / "rec"
        main(["reconstruct", "--pinched", "5", "3", "0.5", "--out", str(rec)])
        out = tmp_path / "ana"
        assert main(["analyze", str(rec / "chain.json"), "--out", str(out)]) == 0
        report = read_json(out / "diagnostics.json")
        assert report["nodes"] == [0, 1, 2, 3, 4]
        assert report["ladder_residual"] <= 1e-9
        assert report["zero_mode"] is True

    def test_explicit_parameters(self, tmp_path):
        rec = tmp_path / "rec7"
        main(["reconstruct", "--pinched", "7", "5", "0.5", "--out", str(rec)])
        out = tmp_path / "ana7"
        assert main(["analyze", str(rec / "chain.json"), "--p", "5",
                     "--gamma", "1.0", "--out", str(out)]) == 0
        report = read_json(out / "diagnostics.json")
        assert report["nodes"] == list(range(7))
        assert report["zero_mode"] is True

    def test_non_pinched_chain_exit_2(self, tmp_path, chain_file):
        # quasi-PST spectrum is not exactly pinched: ladder is undefined
        assert main(["analyze", str(chain_file), "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def analyze(tmp_path, n, p, *flags, rec_flags=()):
        """Exit code, diagnostics.json and manifest parameters of ``analyze``
        on the reconstructed pinched chain (n, p, alpha = 1/2)."""
        rec, out = tmp_path / f"rec{n}-{p}", tmp_path / f"ana{n}-{p}-{len(flags)}"
        assert main(["reconstruct", "--pinched", str(n), str(p), "0.5",
                     *rec_flags, "--out", str(rec)]) == 0
        code = main(["analyze", str(rec / "chain.json"), *flags, "--out", str(out)])
        if code:
            return code, None, None
        return (code, (out / "diagnostics.json").read_bytes(),
                read_json(out / "manifest.json")["parameters"])

    def test_p_alone_fits_gamma_for_it(self, tmp_path):
        # --p alone gets the same least-squares gamma as the inferred run
        _, inferred, params = self.analyze(tmp_path, 7, 5)
        assert params["p"] == 5
        assert self.analyze(tmp_path, 7, 5, "--p", "5")[1:] == (inferred, params)

    def test_gamma_alone_infers_p(self, tmp_path):
        code, report, params = self.analyze(tmp_path, 7, 5, "--gamma", "1.0")
        assert code == 0
        assert params == {"p": 5, "gamma": 1.0}
        assert json.loads(report)["ladder_residual"] <= 1e-12

    @pytest.mark.parametrize("flags", [("--p", "4"), ("--p", "0"), ("--gamma", "0"),
                                       ("--p", "5", "--gamma", "-1")])
    def test_invalid_flags_exit_2(self, tmp_path, flags):
        assert self.analyze(tmp_path, 7, 5, *flags)[0] == 2

    def test_positive_convention_reverses_nodes(self, tmp_path):
        code, report, _ = self.analyze(tmp_path, 9, 3, rec_flags=("--convention", "positive"))
        assert code == 0
        assert json.loads(report)["nodes"] == list(range(9))[::-1]

    def test_solves_no_eigenvectors(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze solved for eigenvectors")
        monkeypatch.setattr(spinchain.chain, "eigendecompose", refuse)
        monkeypatch.setattr(spinchain.chain, "_eigh_tridiagonal", refuse)
        code, report, _ = self.analyze(tmp_path, 85, 3)
        assert code == 0
        assert json.loads(report)["nodes"] == list(range(85))

    @pytest.mark.parametrize("shift", [0.0, -2.740285928251791])
    @pytest.mark.parametrize("p", [1, 3, 9])
    @pytest.mark.parametrize("n", [85, 512, 2047, 2048])
    def test_ladder_residual_at_scale(self, tmp_path, n, p, shift):
        # gamma fitted by least squares: the lowest gap's error no longer grows
        # (N - 2)-fold up the ladder (it reached 7.95e-13 of the spread at
        # N = 2048, p = 3)
        code, report, _ = self.analyze(tmp_path, n, p, rec_flags=("--shift", repr(shift)))
        assert code == 0
        report = json.loads(report)
        assert report["ladder_residual"] <= 2e-14 * (n - 2 + 1.0 / p)  # spread, gamma = 1
        assert report["nodes"] == list(range(n))
        assert report["zero_mode"] is (n % 2 == 1)
        assert len(report["x_pairs"]) == n // 2


class TestSweep:
    def test_csv_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["sweep", "--n-min", "4", "--n-max", "10", "--p-list", "3,5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        body = (out1 / "sweep.csv").read_text().splitlines()
        assert body[0] == "N,p,std_J,max_rel_spread_J,std_eps,roundtrip_err"
        assert len(body) == 1 + 7 * 2
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_even_p_exit_2(self, tmp_path):
        assert main(["sweep", "--n-max", "6", "--p-list", "2",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_bad_alpha_exit_2(self, tmp_path, capsys, alpha):
        # refused before any point runs, not reported as a sweep of nan rows that exits 0
        out = tmp_path / "o"
        assert main(["sweep", "--n-max", "5", "--alpha", alpha, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha must be positive and finite, got {float(alpha)}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n-min", "5", "--n-max", "4"], ["--p-list", ""],
                                       ["--p-list", " , "]])
    def test_empty_sweep_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert main(["sweep", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: sweep needs at least one n and one p\n"
        assert captured.out == ""
        assert not out.exists()


DROP, NESTED = object(), object()
# a valid input file per reader, the commands that read it, and every field of
# it set to null, a string, a bool, a float or a nested list, or dropped
VALID_INPUTS = {
    "chain": (ChainSpec.from_dict, reconstruct(Spectrum(values=PST5_VALUES)).to_dict(),
              [["simulate", "--window", "5"], ["analyze"]]),
    "spectrum": (Spectrum.from_dict, {"values": list(PST5_VALUES), "p": 3, "t_m": 4.71238898},
                 [["reconstruct"], ["snap", "--p", "3"]]),
    "ga": (GAConfig.from_dict, GAConfig(n=4, p=3, generations=1, population=4,
                                        samples=21, window=5.0, seed=2).to_dict(),
           [["optimize"]]),
}
FIELDS = [(kind, field) for kind, (_, obj, _) in VALID_INPUTS.items() for field in obj]
MUTATIONS = [None, "5", "x", True, False, 2.5, -1.0, NESTED, DROP]


class TestExitContract:
    @settings(max_examples=200, deadline=None)
    @given(target=st.sampled_from(FIELDS), value=st.sampled_from(MUTATIONS))
    @example(target=("chain", "n"), value=None)
    @example(target=("chain", "n"), value=NESTED)
    @example(target=("spectrum", "values"), value=NESTED)
    @example(target=("spectrum", "p"), value="x")
    @example(target=("spectrum", "t_m"), value=True)
    def test_one_mutated_field(self, target, value):
        # exit 0 if the reader still takes the file, else 2 with one error line
        kind, field = target
        reader, obj, commands = VALID_INPUTS[kind]
        obj = dict(obj)
        if value is DROP:
            del obj[field]
        else:
            obj[field] = [[obj[field]]] if value is NESTED else value
        try:
            reader(obj)
            expected = 0
        except ValueError:
            expected = 2
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(obj))
            for command, *flags in commands:
                err = io.StringIO()
                with redirect_stderr(err), redirect_stdout(io.StringIO()):
                    code = main([command, str(path), *flags, "--out", str(Path(tmp) / "o")])
                lines = err.getvalue().splitlines()
                assert code == expected, (command, obj, lines)
                if code:
                    assert len(lines) == 1 and lines[0].startswith("error: "), lines
                else:
                    assert lines == []


    @pytest.mark.parametrize("field, value, message", [
        ("p", "x", "p must be an integer, got 'x'"),
        ("p", 4, "pinch p must be a positive odd integer, got 4"),
        ("p", 3.0, "p must be an integer, got 3.0"),
        ("t_m", True, "t_m must be positive and finite, got True"),
        ("t_m", -1.0, "t_m must be positive and finite, got -1.0"),
        ("t_m", "4.7", "t_m must be positive and finite, got '4.7'"),
    ])
    @pytest.mark.parametrize("argv", VALID_INPUTS["spectrum"][2])
    def test_spectrum_metadata(self, tmp_path, capsys, field, value, message, argv):
        # a spectrum file's p and t_m pass the same rules as everywhere else
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**VALID_INPUTS["spectrum"][1], field: value}))
        command, *flags = argv
        out = tmp_path / "o"
        assert main([command, str(path), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", VALID_INPUTS["spectrum"][2])
    def test_spectrum_spread_overflows(self, tmp_path, capsys, argv):
        # finite, distinct and ascending values whose top - bottom overflows
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"values": [-1e308, 0.0, 1e308]}))
        command, *flags = argv
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), *flags, "--out", str(out)]) == 2
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: eigenvalue spread must be finite, got inf"]
        assert not out.exists()

    @pytest.mark.parametrize("top", [[1, 2], [], "abc", 3, 2.5, None, True])
    @pytest.mark.parametrize("argv", [
        argv for _, _, commands in VALID_INPUTS.values() for argv in commands
    ] + [["optimize", "--seed", "3"]])
    def test_top_level_not_an_object(self, tmp_path, capsys, top, argv):
        # every reader takes a JSON object; any other top-level value exits 2
        # with one error line, before --seed or a field is looked at
        path = tmp_path / "input.json"
        path.write_text(json.dumps(top))
        command, *flags = argv
        out = tmp_path / "o"
        assert main([command, str(path), *flags, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {path} must hold a JSON object, got {type(top).__name__}"]
        assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
