"""Self-test of the benchmark's oracles: each accepts a real output and
rejects a deliberately corrupted one.

    python3 -m pytest benchmarks/test_oracles.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
import spinchain as sc  # noqa: E402


@pytest.fixture
def work():
    path = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _edit_csv_row(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines()
    fields = lines[1 + row].split(",")
    fields[column] = value
    lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


# -- ga-search ----------------------------------------------------------------

@pytest.fixture
def ga_run(work):
    cfg = {"n": 4, "p": 3, "generations": 1, "population": 32, "samples": 401,
           "window": 10.0, "seed": 5}
    cfg_path = work / "ga.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "ga_out"
    assert workloads._run_cli(["optimize", str(cfg_path), "--out", str(out)]) == 0
    return out, cfg


def test_ga_oracle_accepts_real_output(ga_run):
    out, cfg = ga_run
    assert oracles.check_ga(out, cfg) == []


def test_ga_oracle_rejects_altered_fitness(ga_run):
    out, cfg = ga_run
    history = out / "history.csv"
    lines = history.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    history.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert any("re-scored" in p for p in oracles.check_ga(out, cfg))


def test_ga_oracle_rejects_asymmetric_chain(ga_run):
    out, cfg = ga_run
    _edit_json(out / "best_chain.json", lambda c: c["onsite"].__setitem__(0, c["onsite"][0] + 0.1))
    assert any("palindromic" in p for p in oracles.check_ga(out, cfg))


def test_ga_oracle_rejects_nonuniform_couplings(ga_run):
    out, cfg = ga_run
    _edit_json(out / "best_chain.json", lambda c: c["couplings"].__setitem__(1, 1.5))
    assert any("uniform" in p for p in oracles.check_ga(out, cfg))


# -- inverse-verify -------------------------------------------------------------

@pytest.fixture
def inverse_point(work):
    point = (7, 3, 0.5, 1.25)
    return point, workloads.InverseVerify().run_op(point, work)


def test_inverse_oracle_accepts_real_output(inverse_point):
    point, result = inverse_point
    assert oracles.check_inverse(point, result) == []


def test_inverse_oracle_rejects_wrong_chain(inverse_point):
    point, result = inverse_point
    chain = result["chain"]
    couplings = list(chain.couplings)
    couplings[0] *= 1.0 + 1e-6
    couplings[-1] = couplings[0]
    result["chain"] = sc.ChainSpec(onsite=chain.onsite, couplings=tuple(couplings))
    assert any("input spectrum" in p for p in oracles.check_inverse(point, result))


def test_inverse_oracle_rejects_roundtrip_error(inverse_point):
    point, result = inverse_point
    result["roundtrip_error"] = 1e-6
    assert any("roundtrip" in p for p in oracles.check_inverse(point, result))


def test_inverse_oracle_rejects_wrong_pst_time_and_diagnostics(inverse_point):
    point, result = inverse_point
    result["pst"] = sc.check_pst_condition(sc.Spectrum(values=(1.0, 2.0, 3.0, 4.0, 4.2)))
    result["report"] = {**result["report"], "zero_mode": False,
                        "nodes": result["report"]["nodes"][::-1]}
    problems = oracles.check_inverse(point, result)
    assert any("PST check" in p for p in problems)
    assert any("zero mode" in p for p in problems)
    assert any("node counts" in p for p in problems)


# -- simulate-small ---------------------------------------------------------------

@pytest.fixture
def small(work):
    wl = workloads.SimulateSmall()
    inputs = wl.generate(np.random.default_rng(3), work)
    return wl, wl.prepare_refs(inputs), work / "sim_out"


@pytest.mark.parametrize("key,window", [("qpst", 50.0), ("qpst", 400.0), ("pst5", 400.0)])
def test_small_oracle_accepts_fixture_rows(small, key, window):
    wl, refs, out = small
    op = (key, window)
    assert wl.check(op, wl.run_op(op, out), out, refs) == []


def test_small_oracle_rejects_altered_fidelity(small):
    wl, refs, out = small
    op = ("random1", 400.0)
    assert wl.run_op(op, out) == 0
    assert oracles.check_trace_csv(out, 400.0, lambda x: _f_ref(refs, "random1", x),
                                   np.array([0, 12345, 80000])) == []
    _edit_csv_row(out / "trace.csv", 12345, 1, "0.123")
    assert any("F differs" in p for p in oracles.check_trace_csv(
        out, 400.0, lambda x: _f_ref(refs, "random1", x), np.array([0, 12345, 80000])))


def _f_ref(refs, key, x):
    es, j_max = refs[key]
    return np.array([sc.transfer_fidelity(es, t / j_max) for t in x])


def test_small_oracle_rejects_missing_row(small):
    wl, refs, out = small
    op = ("pinched0", 400.0)
    assert wl.run_op(op, out) == 0
    path = out / "trace.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert any("rows" in p for p in wl.check(op, 0, out, refs))


def test_small_oracle_rejects_fixture_peak(small):
    wl, refs, out = small
    op = ("qpst", 50.0)
    assert wl.run_op(op, out) == 0
    _edit_json(out / "peaks.json",
               lambda d: [q.__setitem__("F", 0.99) for q in d["peaks"]])
    assert any("quasi-PST row" in p for p in oracles.check_fixture(out, "qpst", 50.0, 0.91))


def test_small_oracle_rejects_broken_revivals(small):
    wl, refs, out = small
    op = ("pst5", 400.0)
    assert wl.run_op(op, out) == 0
    _edit_json(out / "peaks.json", lambda d: d["revivals"][-1].__setitem__("F", 0.98))
    assert any("revivals" in p for p in wl.check(op, 0, out, refs))


def test_small_oracle_rejects_wrong_pst5_chain():
    chain = {"onsite": [3.4, 2.6, 2.4, 2.6, 3.4], "couplings": [0.9165, 0.9129, 0.9129, 0.9165]}
    assert oracles.check_pst5_chain(chain)


# -- simulate-large ---------------------------------------------------------------

@pytest.fixture
def christandl(work):
    n, j0 = 64, 0.8
    chain = sc.christandl_chain(n, j0).to_dict()
    path = work / "chain.json"
    path.write_text(json.dumps(chain))
    out = work / "large_out"
    assert workloads._run_cli(["simulate", str(path), "--window", "50", "--out", str(out)]) == 0
    return n, j0, chain, out


def test_large_oracle_accepts_real_output(christandl):
    n, j0, chain, out = christandl
    assert oracles.check_christandl_chain(chain, j0) == []
    rows = np.array([0, 2500, 6000, 10000])
    assert oracles.check_trace_csv(out, 50.0, oracles.christandl_reference(n, j0), rows) == []
    random_chain = workloads._random_palindromic(np.random.default_rng(1), n).to_dict()
    f_ind = oracles.independent_reference(random_chain)
    es = sc.diagonalize_chain(sc.ChainSpec.from_dict(random_chain))
    x = np.linspace(0.0, 50.0, 7)
    j_max = max(random_chain["couplings"])
    expected = [sc.transfer_fidelity(es, t / j_max) for t in x]
    assert np.abs(f_ind(x) - expected).max() < 1e-12


def test_large_oracle_rejects_altered_fidelity(christandl):
    n, j0, chain, out = christandl
    rows = np.array([0, 2500, 6000, 10000])
    _edit_csv_row(out / "trace.csv", 6000, 1, "0.5")
    assert any("F differs" in p for p in oracles.check_trace_csv(
        out, 50.0, oracles.christandl_reference(n, j0), rows))


def test_large_oracle_rejects_wrong_row_count(christandl):
    n, j0, chain, out = christandl
    assert any("rows" in p for p in oracles.check_trace_csv(
        out, 40.0, oracles.christandl_reference(n, j0), np.array([0])))


def test_large_oracle_rejects_wrong_engineered_chain(christandl):
    n, j0, chain, out = christandl
    chain["couplings"][n // 2] *= 1.001
    problems = oracles.check_christandl_chain(chain, j0)
    assert any("eigenvalues" in p for p in problems)
    assert any("F(pi/(2 j0))" in p for p in problems)
