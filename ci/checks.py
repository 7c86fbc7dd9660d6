"""Output checks of the spinchain CLI, one table row per check.

Each row runs in its own temporary directory and environment, calling the CLI
in a fresh interpreter as the installed console script does. Run it with
``PYTHONPATH=src python ci/checks.py``: one line per row, stops at the first failure.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spinchain as sc

ENTRY = "import sys; from spinchain.cli import main; sys.exit(main())"
REFERENCE = """import json, sys, spinchain as sc
c = sc.ChainSpec.from_dict(json.load(open(sys.argv[1])))
tr = sc.trace(sc.diagonalize_chain(c), window=float(sys.argv[2]), j_max=c.j_max)
rows = zip(tr.times.tolist(), tr.transfer.tolist(), tr.average.tolist())
open(sys.argv[3], 'w').write('t_Jmax,F,Fav\\n' + ''.join('%.12g,%.12g,%.12g\\n' % r for r in rows))
"""
# rows run outside the checkout, so the package goes on the path by its location
PYTHONPATH = os.pathsep.join(filter(None, [str(Path(sc.__file__).resolve().parents[1]),
                                           os.environ.get("PYTHONPATH")]))
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
# F of a Christandl trace against sin^(2(N-1)): 7.4e-13 measured at N = 8192
# through the first revival, plus the %.12g rounding of trace.csv
CLOSED_FORM_TOL = 5e-12
# ladder_residual of analyze over the spectral spread: 5.9e-15 measured for the
# pinched N = 2047 chain (p = 3) at one BLAS thread
LADDER_TOL = 2e-14


def check(ok, message):
    if not ok:
        raise AssertionError(message)


def cli(env, *argv, expect=None, code=0):
    """Run ``spinchain *argv``; it must exit ``code``, and print ``expect`` if given."""
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env,
                          capture_output=True, text=True)
    command = " ".join(["spinchain", *argv])
    check(done.returncode == code,
          f"{command} exited {done.returncode}:\n{done.stderr[-2000:]}")
    check(expect is None or expect in done.stdout, f"{command} did not print {expect!r}")
    return done


def same(a, b):
    check(Path(a).read_bytes() == Path(b).read_bytes(), f"{a} and {b} differ")


def twice(env, commands, files):
    """Run the commands into ``a`` and again into ``b``; the files must match."""
    for out in ("a", "b"):
        for argv in commands:
            cli(env, *argv, "--out", out)
    for name in files:
        same(f"a/{name}", f"b/{name}")


def reference(env, chain, window):
    """``chain``'s trace in Python's %-formatting, from an interpreter with the row's
    environment: this one's BLAS may have loaded with another thread count."""
    subprocess.run([sys.executable, "-c", REFERENCE, chain, window, "ref.csv"],
                   env=env, check=True)
    return "ref.csv"


def simulate(env, chain, window):
    """Two identical simulate runs of a chain spec or file, equal to the ``%`` rows."""
    if isinstance(chain, sc.ChainSpec):
        Path("chain.json").write_text(json.dumps(chain.to_dict()))
        chain = "chain.json"
    twice(env, [["simulate", chain, "--window", window]], ["trace.csv", "peaks.json"])
    same("a/trace.csv", reference(env, chain, window))


def cold_start(env):
    Path("ga.json").write_text('{"n": 5, "p": 3, "generations": 2, "population": 16, '
                               '"samples": 201}')
    imports = cli(env, "optimize", "ga.json", "--out", "cold").stderr
    check(re.search(r"\|\s+spinchain\.cli$", imports, re.M), "spinchain.cli not imported")
    check(not re.search(r"\|\s+scipy(\.|$)", imports, re.M), "optimize imported scipy")


def optimize_reruns(env):
    Path("ga.json").write_text('{"n": 5, "p": 3, "generations": 20, "population": 256}')
    twice(env, [["optimize", "ga.json", "--seed", "7"]], ["history.csv", "best_chain.json"])


def sweep_smoke(env):
    cli(env, "sweep", "--n-min", "84", "--n-max", "100", "--out", "s", expect="(0 failed)")


def simulate_pinched(env):
    cli(env, "reconstruct", "--pinched", "2048", "3", "0.5", "--out", "rec")
    simulate(env, "rec/chain.json", "50")
    lines = Path("a/trace.csv").read_bytes().count(b"\n")
    check(lines == 10002, f"trace.csv has {lines} lines, not 10002")


def malformed_json(env):
    """Each command that reads a JSON file refuses a top-level list: exit 2, one error line."""
    Path("list.json").write_text("[1, 2]")
    for command, *flags in (["simulate"], ["reconstruct"], ["snap", "--p", "3"], ["analyze"],
                            ["optimize", "--seed", "3"]):
        err = cli(env, command, "list.json", *flags, "--out", "o", code=2).stderr.splitlines()
        check(len(err) == 1 and err[0].startswith("error: "),
              f"spinchain {command} printed {err!r}, not one error line")


def peaks(path, floor=0.0):
    """``path``'s refined peaks; at least one must reach F >= ``floor``."""
    found = json.loads(Path(path).read_text())["peaks"]
    check(any(peak["F"] >= floor for peak in found), f"{path}: no refined peak with F >= {floor}")


def simulate_qpst(env):
    simulate(env, sc.ChainSpec(onsite=(3.40, 2.60, 2.33, 2.60, 3.40), couplings=(0.91,) * 4),
             "400")
    peaks("a/peaks.json")


def simulate_christandl(env):
    """Through the first revival (t*J_max = 1608.5): a refined peak at F = 1 within 1e-9."""
    simulate(env, sc.christandl_chain(2048, 1.0), "1700")
    peaks("a/peaks.json", 1.0 - 1e-9)


def closed_form(path, n, j_max, window, samples):
    """F in the trace ``path`` of a j0 = 1 Christandl chain of n sites is
    sin^(2(n-1))(t), t the trace's own grid over J_max, within CLOSED_FORM_TOL."""
    f = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    check(f.size == samples, f"{path} has {f.size} samples, not {samples}")
    exact = np.sin(np.linspace(0.0, float(window), samples) / j_max) ** (2 * (n - 1))
    miss = np.abs(f - exact).max()
    check(miss <= CLOSED_FORM_TOL, f"{path}: F misses sin^(2(N-1)) by {miss:.3e}")


def christandl_closed_form(env, n):
    """simulate of the j0 = 1 Christandl chain over 1.2x its first revival,
    t = pi/2, in 2001 samples: F is the closed form and peaks at 1."""
    chain = sc.christandl_chain(n, 1.0)
    Path("chain.json").write_text(json.dumps(chain.to_dict()))
    window = repr(1.2 * np.pi / 2.0 * chain.j_max)
    cli(env, "simulate", "chain.json", "--window", window, "--samples", "2001", "--out", "a")
    closed_form("a/trace.csv", n, chain.j_max, window, 2001)
    peaks("a/peaks.json", 1.0 - 1e-9)


def diagnostics(path, n, spread):
    """``path``'s analogue report of an n-site chain with a pinched spectrum of
    this spread: nodes 0..n-1, n // 2 x pairs, a zero mode exactly for odd n,
    and a ladder residual within LADDER_TOL of the spread."""
    report = json.loads(Path(path).read_text())
    check(report["nodes"] == list(range(n)), f"{path}: nodes are not 0..{n - 1}")
    pairs = len(report["x_pairs"])
    check(pairs == n // 2, f"{path}: {pairs} x pairs, not {n // 2}")
    check(report["zero_mode"] is (n % 2 == 1), f"{path}: zero_mode is {report['zero_mode']}")
    residual = report["ladder_residual"]
    check(residual <= LADDER_TOL * spread,
          f"{path}: ladder residual {residual:.3e} above {LADDER_TOL:g} x spread {spread:.6g}")


def analyze_pinched(env, n):
    """Two identical analyze runs of the pinched chain (p = 3, alpha = 1/2,
    shifted), whose report passes ``diagnostics``."""
    cli(env, "reconstruct", "--pinched", str(n), "3", "0.5", "--shift", "-2.740285928251791",
        "--out", "rec")
    twice(env, [["analyze", "rec/chain.json"]], ["diagnostics.json"])
    values = sc.pinched_spectrum(sc.PinchSpec(n=n, p=3, alpha=0.5)).values
    diagnostics("a/diagnostics.json", n, values[-1] - values[0])


ROWS = (  # name, environment, body, the body's arguments after the environment
    ("cold start: optimize loads no scipy", {"PYTHONPROFILEIMPORTTIME": "1"}, cold_start),
    ("optimize reruns, N = 5, population 256, 20 generations", {}, optimize_reruns),
    ("sweep smoke run, N = 84-100, 0 failed", {}, sweep_smoke),
    ("reconstruct N = 2048 and sweep N = 2040-2048 reruns", ONE_THREAD, twice,
     [["reconstruct", "--pinched", "2048", "3", "0.5", "--shift", "-2.740285928251791"],
      ["sweep", "--n-min", "2040", "--n-max", "2048", "--p-list", "3,9"]],
     ["chain.json", "sweep.csv"]),
    ("default sweep reruns, N = 4-40, p = 3-13", ONE_THREAD, twice, [["sweep"]], ["sweep.csv"]),
    ("simulate pinched N = 2048, 10,002 lines", ONE_THREAD, simulate_pinched),
    ("simulate Christandl N = 2048, window 1700, peak F = 1", ONE_THREAD, simulate_christandl),
    ("simulate Christandl N = 8192 against sin^(2(N-1))", ONE_THREAD, christandl_closed_form,
     8192),
    ("simulate uniform-coupling U[0, 5] N = 2048, seed 20", ONE_THREAD, simulate,
     sc.ChainSpec(onsite=tuple(np.random.default_rng(20).uniform(0.0, 5.0, 2048)),
                  couplings=(1.0,) * 2047), "50"),
    ("simulate 5-site quasi-PST, window 400, refined peaks", ONE_THREAD, simulate_qpst),
    ("analyze pinched N = 2047 reruns, zero mode, 1023 pairs", ONE_THREAD, analyze_pinched,
     2047),
    ("malformed JSON inputs exit 2", {}, malformed_json),
)


def main():
    home = os.getcwd()
    for name, extra, body, *args in ROWS:
        print(name, end=" ... ", flush=True)
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            body({**os.environ, "PYTHONPATH": PYTHONPATH, **extra}, *args)
            os.chdir(home)
        print(f"ok ({time.perf_counter() - start:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
