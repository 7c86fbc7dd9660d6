"""The helpers of ``ci/checks.py`` fail where they must, so no row of the
output-check table can pass vacuously."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

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
