"""Self-test of the span recorder used by the traced benchmark run.

    python3 -m pytest benchmarks/test_tracer.py -q
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
import spinchain  # noqa: E402
import spinchain.cli  # noqa: E402
import spinchain.dynamics  # noqa: E402
import spinchain.ga  # noqa: E402


def test_missing_target_refuses_to_start(monkeypatch):
    monkeypatch.delattr(spinchain.ga, "_evaluate_block")
    with pytest.raises(tracer.MissingTarget, match="_evaluate_block"):
        tracer.SpanRecorder()


def test_install_patches_every_importing_module_and_uninstall_restores():
    original = spinchain.dynamics.trace
    recorder = tracer.SpanRecorder()
    recorder.install()
    try:
        assert spinchain.cli.trace is not original
        assert spinchain.dynamics.trace is spinchain.cli.trace
        assert spinchain.trace is spinchain.cli.trace
    finally:
        recorder.uninstall()
    assert spinchain.cli.trace is original and spinchain.trace is original


def test_spans_self_times_and_counts():
    work = ROOT / ".bench_out" / "selftest-tracer"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.SimulateSmall()
        wl.generate(np.random.default_rng(0), work)
        recorder = tracer.SpanRecorder()
        recorder.install()
        try:
            # outside an op a wrapped call passes through and records nothing
            es = spinchain.diagonalize_chain(spinchain.ChainSpec(onsite=(0, 0), couplings=(1,)))
            assert recorder.spans == []
            with recorder.op({}):
                assert wl.run_op(("qpst", 50.0), work / "out") == 0
        finally:
            recorder.uninstall()
        assert es.n == 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = recorder.spans
    names = [s[2] for s in spans]
    root = spans[-1]
    assert root[2] == tracer.ROOT and root[1] is None
    assert {"cli.main", "chain.eigendecompose", "dynamics.trace",
            "dynamics.transfer_fidelity"} <= set(names)
    # self times of all spans add up to the op's wall time
    assert sum(s[5] for s in spans) == pytest.approx(root[4] - root[3], abs=1e-9)
    by_id = {s[0]: s for s in spans}
    trace_span = next(s for s in spans if s[2] == "dynamics.trace")
    assert by_id[trace_span[1]][2] == "cli.main"
    assert trace_span[7]["grid_points"] == 10001 * 5

    m = tracer.layer_metrics(spans, ops=1)
    refine = names.count("dynamics.transfer_fidelity")
    assert m["dynamics.refine.evals"] == refine > 0
    assert m["dynamics.trace.grid_points"] == 10001 * 5
    assert m["dynamics.trace.grid_bytes_computed"] == 10001 * 5 * 16
    assert m["cli.calls"] == 1 and m["chain.eigendecompose.calls"] == 1
    layers = sum(v for k, v in m.items() if k in (
        "cli.self_s", "chain.eigendecompose.s", "dynamics.trace.s", "dynamics.refine.s"))
    assert layers + m["op.self_s"] == pytest.approx(m["trace.op_s"], abs=1e-9)
