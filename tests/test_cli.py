"""CLI surface: subcommands, file formats, exit codes, reproducibility."""

import importlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinchain.cli
from spinchain import (
    ChainSpec,
    GAConfig,
    PinchSpec,
    diagonalize_chain,
    evolve,
    pinched_spectrum,
    reconstruct,
    roundtrip_error,
    trace,
)
from spinchain.cli import CSV_BLOCK_ROWS, _write_rows, main

from conftest import scaled_eigenvectors

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
    def test_matches_fstring_rows(self, values, n_rows):
        rows = np.resize(np.array(values, dtype=float), (n_rows, 3))
        expected = "h,e,ad\n" + "".join(f"{a:.12g},{b:.12g},{c:.12g}\n"
                                          for a, b, c in rows.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            _write_rows(path, "h,e,ad", "%.12g,%.12g,%.12g\n", tuple(rows.T))
            assert path.read_bytes() == expected.encode("utf-8")


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

    def test_numerical_failure_exit_3(self, tmp_path, chain_file, monkeypatch, capsys):
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            scaled_eigenvectors(scipy.linalg.eigh_tridiagonal))
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

    @pytest.mark.parametrize("convention", ["negative", "positive"])
    def test_reconstructs_once(self, tmp_path, monkeypatch, capsys, convention):
        # stdout and chain.json as reconstruct(..., convention) followed by a
        # separate roundtrip_error gave them, from a single reconstruction
        spectrum = pinched_spectrum(PinchSpec(n=41, p=5, alpha=0.5), shift=-1.3)
        chain = reconstruct(spectrum, sign_convention=convention)
        err = roundtrip_error(spectrum)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return reconstruct(*args, **kwargs)

        # the CLI's own name and the one roundtrip_error calls
        monkeypatch.setattr(spinchain.cli, "reconstruct", counted)
        monkeypatch.setattr(importlib.import_module("spinchain.reconstruct"),
                            "reconstruct", counted)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
