"""The helpers of ``ci/checks.py`` fail where they must, so no row of the
output-check table can pass vacuously."""

import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import spinchain as sc
from spinchain.cli import main

from conftest import QPST_COUPLING, QPST_ONSITE

SCRIPT = Path(__file__).resolve().parents[1] / "ci" / "checks.py"
_spec = importlib.util.spec_from_file_location("checks", SCRIPT)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


@pytest.fixture()
def env(tmp_path, monkeypatch):
    """A row's environment, in a row's own directory."""
    monkeypatch.chdir(tmp_path)
    return {**os.environ, "PYTHONPATH": checks.PYTHONPATH}


def test_same_fails_on_one_byte(env):
    Path("a.csv").write_bytes(b"t_Jmax,F,Fav\n0,0,0\n")
    Path("b.csv").write_bytes(b"t_Jmax,F,Fav\n0,0,1\n")
    Path("c.csv").write_bytes(b"t_Jmax,F,Fav\n0,0,0\n")
    checks.same("a.csv", "c.csv")
    with pytest.raises(AssertionError, match="a.csv and b.csv differ"):
        checks.same("a.csv", "b.csv")


def test_cli_fails_on_exit_status(env):
    with pytest.raises(AssertionError, match="exited 2:\nerror: pinch p must be"):
        checks.cli(env, "reconstruct", "--pinched", "5", "2", "0.5", "--out", "o")


def test_cli_fails_on_wrong_code(env):
    argv = ("reconstruct", "--pinched", "5", "3", "0.5", "--out", "o")
    with pytest.raises(AssertionError, match="exited 0:"):
        checks.cli(env, *argv, code=2)
    assert checks.cli(env, "reconstruct", "--pinched", "5", "2", "0.5", code=2).returncode == 2


def test_malformed_json_row_fails_on_a_traceback(env, monkeypatch):
    checks.malformed_json(env)
    # a command that crashes (exit 1, a traceback) fails the row
    monkeypatch.setattr(checks, "ENTRY", "raise TypeError('list indices must be integers')")
    with pytest.raises(AssertionError, match="spinchain simulate list.json --out o exited 1"):
        checks.malformed_json(env)


def test_cli_fails_on_missing_string(env):
    argv = ("reconstruct", "--pinched", "5", "3", "0.5", "--out", "o")
    assert checks.cli(env, *argv, expect="roundtrip error: ").returncode == 0
    with pytest.raises(AssertionError, match=r"did not print '\(0 failed\)'"):
        checks.cli(env, *argv, expect="(0 failed)")


def test_reference_equals_cli_trace(env):
    Path("chain.json").write_text(json.dumps({"onsite": list(QPST_ONSITE),
                                              "couplings": [QPST_COUPLING] * 4}))
    assert main(["simulate", "chain.json", "--window", "50", "--out", "o"]) == 0
    checks.same("o/trace.csv", checks.reference(env, "chain.json", "50"))


def test_closed_form_row_fails_on_a_perturbed_f(env):
    checks.christandl_closed_form(env, 64)
    j_max = sc.christandl_chain(64, 1.0).j_max
    window = repr(1.2 * np.pi / 2.0 * j_max)
    # one sample near the revival moved by 2x the bound fails the row
    rows = Path("a/trace.csv").read_text().splitlines()
    t, f, fav = rows[1668].split(",")
    rows[1668] = ",".join([t, "%.12g" % (float(f) - 2 * checks.CLOSED_FORM_TOL), fav])
    Path("a/trace.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(AssertionError, match=r"a/trace.csv: F misses sin\^\(2\(N-1\)\) by "):
        checks.closed_form("a/trace.csv", 64, j_max, window, 2001)


def test_peaks_fails_below_the_floor(env):
    Path("peaks.json").write_text(json.dumps({"peaks": [{"t": 1.0, "F": 0.999}]}))
    checks.peaks("peaks.json", 0.99)
    with pytest.raises(AssertionError, match="no refined peak with F >= 0.999999999"):
        checks.peaks("peaks.json", 1.0 - 1e-9)


def test_snap_row_fails_on_a_perturbed_value(env):
    checks.snap_pinched(env)
    path = Path("a/spectrum_pst.json")
    spectrum = json.loads(path.read_text())
    checks.snapped(path.as_posix())
    values = list(spectrum["values"])
    values[20] += 1e-6
    for field, value, message in [
        ("values", values, "not a PST spectrum (residual "),
        ("t_m", spectrum["t_m"] * (1.0 + 1e-11), "t_m misses the file's by "),
    ]:
        path.write_text(json.dumps({**spectrum, field: value}))
        with pytest.raises(AssertionError, match=re.escape(f"a/spectrum_pst.json: {message}")):
            checks.snapped(path.as_posix())


def test_analyze_row_fails_on_a_changed_report(env):
    checks.analyze_pinched(env, 41)
    path = Path("a/diagnostics.json")
    report = json.loads(path.read_text())
    spread = 39 + 1 / 3
    checks.diagnostics(path.as_posix(), 41, spread)
    for field, value, message in [
        ("nodes", list(range(40)), "nodes are not 0..40"),
        ("x_pairs", report["x_pairs"][1:], "19 x pairs, not 20"),
        ("zero_mode", False, "zero_mode is False"),
        ("ladder_residual", 1e-12, "ladder residual 1.000e-12 above 2e-14 x spread"),
    ]:
        path.write_text(json.dumps({**report, field: value}))
        with pytest.raises(AssertionError, match=re.escape(f"a/diagnostics.json: {message}")):
            checks.diagnostics(path.as_posix(), 41, spread)
