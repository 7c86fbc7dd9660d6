"""Cold start: only the commands that solve through LAPACK load scipy.

The suite itself imports scipy, so each check runs in a fresh interpreter
with ``src`` on its path and reports whether ``scipy`` reached
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import QPST_COUPLING, QPST_ONSITE

SRC = Path(__file__).resolve().parents[1] / "src"

# argv -> [exit code, scipy loaded]; an empty argv only imports
PROBE = """
import json, sys
import spinchain, spinchain.cli
argv = json.loads(sys.argv[1])
code = spinchain.cli.main(argv) if argv else 0
print(json.dumps([code, "scipy" in sys.modules]))
"""


def run_cold(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_cold([]) == [0, False]


def test_optimize_loads_no_scipy(tmp_path):
    config = tmp_path / "ga.json"
    config.write_text(json.dumps({"n": 5, "p": 3, "generations": 2,
                                  "population": 16, "samples": 201, "seed": 1}))
    assert run_cold(["optimize", str(config), "--out", str(tmp_path / "o")]) == [0, False]
    assert (tmp_path / "o" / "best_chain.json").is_file()


def test_snap_loads_no_scipy(tmp_path):
    spectrum = tmp_path / "q.json"
    spectrum.write_text(json.dumps({"values": [1.006, 2.006, 3.001, 3.994, 4.326]}))
    assert run_cold(["snap", str(spectrum), "--p", "3", "--out", str(tmp_path / "o")]) == [0, False]
    assert (tmp_path / "o" / "spectrum_pst.json").is_file()


def test_simulate_loads_scipy_on_first_solve(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"onsite": list(QPST_ONSITE),
                                 "couplings": [QPST_COUPLING] * 4}))
    assert run_cold(["simulate", str(chain), "--out", str(tmp_path / "o")]) == [0, True]
    assert (tmp_path / "o" / "trace.csv").is_file()


def test_reconstruct_loads_scipy_on_first_solve(tmp_path):
    argv = ["reconstruct", "--pinched", "5", "3", "0.5", "--out", str(tmp_path / "o")]
    assert run_cold(argv) == [0, True]
    assert (tmp_path / "o" / "chain.json").is_file()
