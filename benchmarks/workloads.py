"""The four workloads: their inputs, one op each, and the op's check.

Every generated input comes from the workload seed; the program sees only
the generated files and arguments. A workload's ops form one cycle, one op
per input, which a run repeats until its time is up.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import spinchain as sc
import spinchain.analogue
import spinchain.cli

import oracles

CSV_CHECK_ROWS = 16


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _random_palindromic(rng, n: int) -> sc.ChainSpec:
    half_e = rng.uniform(-2.0, 2.0, size=(n + 1) // 2)
    onsite = np.concatenate([half_e, half_e[: n - len(half_e)][::-1]])
    half_j = rng.uniform(0.2, 2.0, size=n // 2)
    couplings = np.concatenate([half_j, half_j[: n - 1 - len(half_j)][::-1]])
    return sc.ChainSpec(onsite=tuple(onsite), couplings=tuple(couplings))


def _run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        return sc.cli.main(argv)


class Workload:
    """Interface shared by the workloads.

    ``generate`` builds the inputs (program calls allowed), ``warm_up`` runs
    a small op so lazy set-up is done before timing, ``prepare_refs`` builds
    the oracle references, ``run_op`` is the timed op and ``check`` returns
    the op's problems.
    """

    name = ""

    def generate(self, rng, work: Path):
        raise NotImplementedError

    def warm_up(self, inputs, work: Path) -> None:
        raise NotImplementedError

    def prepare_refs(self, inputs) -> dict:
        return {}

    def cycle(self, inputs) -> list:
        raise NotImplementedError

    def run_op(self, op, out: Path):
        raise NotImplementedError

    def check(self, op, result, out: Path, refs: dict) -> list[str]:
        raise NotImplementedError


class GaSearch(Workload):
    """`spinchain optimize` for the three acceptance criterion-10 configs."""

    name = "ga-search"
    CONFIGS = ((4, 3), (5, 3), (9, 9))
    GENERATIONS = 2

    def __init__(self):
        self.stats: dict = {}

    def generate(self, rng, work):
        configs = []
        for n, p in self.CONFIGS:
            cfg = {"n": n, "p": p, "generations": self.GENERATIONS, "population": 1024,
                   "samples": 2001, "window": 50.0}
            configs.append((cfg, _write_json(work / f"ga_{n}_{p}.json", cfg)))
        return {"configs": configs, "seeds": rng.integers(0, 2**31 - 1, size=len(configs))}

    def warm_up(self, inputs, work):
        cfg = {"n": 4, "p": 3, "generations": 1, "population": 64}
        _run_cli(["optimize", _write_json(work / "ga_warm.json", cfg),
                  "--seed", "0", "--out", str(work / "warm")])

    def cycle(self, inputs):
        return [(cfg, path, int(seed))
                for (cfg, path), seed in zip(inputs["configs"], inputs["seeds"])]

    def run_op(self, op, out):
        _, path, seed = op
        return _run_cli(["optimize", path, "--seed", str(seed), "--out", str(out)])

    def check(self, op, result, out, refs):
        if result != 0:
            return [f"exit code {result}"]
        cfg, _, seed = op
        return oracles.check_ga(out, {**cfg, "seed": seed}, self.stats)


class InverseVerify(Workload):
    """Library calls per (N, p): the per-point work of `sweep` plus
    eigensolve, PST check and analogue diagnostics."""

    name = "inverse-verify"
    N_RANGE = range(4, 86)          # reconstruct fails from N = 88 today
    PINCHES = (3, 5, 7, 9, 11, 13)
    ALPHA = 0.5

    def generate(self, rng, work):
        points = [(n, p) for n in self.N_RANGE for p in self.PINCHES]
        order = rng.permutation(len(points))
        shifts = rng.uniform(-5.0, 5.0, size=len(points))
        return [(points[i][0], points[i][1], self.ALPHA, float(s))
                for i, s in zip(order, shifts)]

    def warm_up(self, inputs, work):
        for n in range(4, 10):
            self.run_op((n, 3, self.ALPHA, 0.0), work)

    def cycle(self, inputs):
        return inputs

    def run_op(self, op, out):
        n, p, alpha, shift = op
        spectrum = sc.pinched_spectrum(sc.PinchSpec(n=n, p=p, alpha=alpha), shift=shift)
        chain = sc.reconstruct(spectrum)
        stats = sc.coupling_statistics(chain)
        err = sc.roundtrip_error(spectrum)
        es = sc.diagonalize_chain(chain)
        pst = sc.check_pst_condition(sc.Spectrum(values=es.values))
        report = sc.analogue.diagnostics_report(chain, es, p=p, gamma=2.0 * alpha)
        return {"spectrum": spectrum, "chain": chain, "coupling_stats": stats,
                "roundtrip_error": err, "pst": pst, "report": report}

    def check(self, op, result, out, refs):
        return oracles.check_inverse(op, result)


class _Simulate(Workload):
    """Shared op: one `spinchain simulate` of a chain file at a window."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.rows_rng = None

    def run_op(self, op, out):
        key, window = op
        return _run_cli(["simulate", self.files[key], "--window", repr(window),
                         "--out", str(out)])

    def cycle(self, inputs):
        return inputs["ops"]

    def _csv_rows(self, window: float) -> np.ndarray:
        samples = int(round(oracles.SAMPLES_PER_UNIT * window)) + 1
        rows = np.sort(self.rows_rng.choice(samples, size=CSV_CHECK_ROWS, replace=False))
        return np.unique(np.concatenate([[0, samples - 1], rows]))

    def _write_chains(self, chains: dict, work: Path) -> dict:
        self.files = {key: _write_json(work / f"chain_{key}.json", c.to_dict())
                      for key, c in chains.items()}
        return {key: c.to_dict() for key, c in chains.items()}


class SimulateSmall(_Simulate):
    """Small chains, mostly at window 400: the paper's core use."""

    name = "simulate-small"
    # one chain size per bin; the top bin is fixed at N = 40 so the largest
    # trace grid, and with it peak memory, is the same for every seed
    N_BINS = ((6, 13), (14, 21), (22, 29), (30, 37), (40, 40))

    def generate(self, rng, work):
        self.rows_rng = np.random.default_rng(rng.integers(2**31))
        chains = {
            "qpst": sc.ChainSpec(onsite=oracles.QPST_ONSITE,
                                 couplings=(oracles.QPST_COUPLING,) * 4),
            "pst5": sc.reconstruct(sc.Spectrum(values=oracles.PST5_VALUES)),
        }
        for i, (lo, hi) in enumerate(self.N_BINS):
            n = int(rng.integers(lo, hi + 1))
            p = int(rng.choice((3, 5, 7, 9)))
            spectrum = sc.pinched_spectrum(sc.PinchSpec(n=n, p=p, alpha=0.5),
                                           shift=float(rng.uniform(-2.0, 2.0)))
            chains[f"pinched{i}"] = sc.reconstruct(spectrum)
            chains[f"random{i}"] = _random_palindromic(rng, int(rng.integers(lo, hi + 1)))
        ops = [("qpst", 50.0), ("qpst", 400.0), ("pst5", 50.0), ("pst5", 400.0)]
        ops += [(f"pinched{i}", 400.0) for i in range(len(self.N_BINS))]
        ops += [(f"random{i}", 400.0 if i else 50.0) for i in range(len(self.N_BINS))]
        return {"chains": self._write_chains(chains, work), "ops": ops}

    def warm_up(self, inputs, work):
        _run_cli(["simulate", self.files["qpst"], "--window", "50", "--out", str(work / "warm")])

    def prepare_refs(self, inputs):
        refs = {"prep": oracles.check_pst5_chain(inputs["chains"]["pst5"])}
        for key, chain in inputs["chains"].items():
            spec = sc.ChainSpec.from_dict(chain)
            es = sc.diagonalize_chain(spec)
            refs[key] = (es, spec.j_max)
        return refs

    def check(self, op, result, out, refs):
        if result != 0:
            return [f"exit code {result}"]
        key, window = op
        es, j_max = refs[key]

        def f_ref(x):
            return np.array([sc.transfer_fidelity(es, t / j_max) for t in x])

        problems = list(refs["prep"]) if key == "pst5" else []
        problems += oracles.check_trace_csv(out, window, f_ref, self._csv_rows(window))
        if key in ("qpst", "pst5"):
            problems += oracles.check_fixture(out, key, window, j_max)
        return problems


class SimulateLarge(_Simulate):
    """Engineered and random palindromic chains, N = 256..2048, window 50."""

    name = "simulate-large"
    SIZES = (256, 512, 1024, 2048)
    WINDOW = 50.0

    def generate(self, rng, work):
        self.rows_rng = np.random.default_rng(rng.integers(2**31))
        j0 = float(rng.uniform(0.5, 2.0))
        chains = {}
        for n in self.SIZES:
            chains[f"christandl{n}"] = sc.christandl_chain(n, j0)
            chains[f"random{n}"] = _random_palindromic(rng, n)
        ops = [(key, self.WINDOW) for key in chains]
        return {"chains": self._write_chains(chains, work), "ops": ops, "j0": j0}

    def warm_up(self, inputs, work):
        _run_cli(["simulate", self.files["christandl256"], "--window", "50",
                  "--out", str(work / "warm")])

    def prepare_refs(self, inputs):
        refs = {}
        for key, chain in inputs["chains"].items():
            if key.startswith("christandl"):
                n = len(chain["onsite"])
                refs[key] = (oracles.christandl_reference(n, inputs["j0"]),
                             oracles.check_christandl_chain(chain, inputs["j0"]))
            else:
                refs[key] = (oracles.independent_reference(chain), [])
        return refs

    def check(self, op, result, out, refs):
        if result != 0:
            return [f"exit code {result}"]
        key, window = op
        f_ref, prep = refs[key]
        return list(prep) + oracles.check_trace_csv(out, window, f_ref, self._csv_rows(window))


WORKLOADS = {w.name: w for w in (GaSearch, InverseVerify, SimulateSmall, SimulateLarge)}
