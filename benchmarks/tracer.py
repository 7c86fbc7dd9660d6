"""Span recorder for the traced benchmark run.

Each wrap target is a public entry point of one spinchain module. The
recorder replaces it, in every spinchain module that holds a reference to
it, with a wrapper that records a span (name, start, end, parent, outcome)
and a few exact work counts taken from the call's arguments and result.
Nothing inside the program is changed or traced.

Spans are recorded only while an op span is open, so oracle checks run
between ops leave no spans. Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

COMPLEX128_BYTES = 16


def _trace_counts(args, kwargs, result):
    es = args[0] if args else kwargs["es"]
    points = len(result.times) * es.n
    return {"grid_points": points, "peaks": len(result.peaks)}


def _block_counts(args, kwargs, result):
    genomes, cfg = args[0], args[1]
    pop = genomes.shape[0]
    return {"individuals": pop, "grid_points": pop * cfg.n * cfg.samples}


# layer -> [(module, attribute, count hook or None)]. The attribute is looked
# up on the defining module; every other spinchain module that imported the
# same object is patched too.
WRAP_TARGETS = {
    "cli": [("spinchain.cli", "main", None)],
    "chain": [("spinchain.chain", "eigendecompose", None)],
    "dynamics": [("spinchain.dynamics", "trace", _trace_counts),
                 ("spinchain.dynamics", "transfer_fidelity", None)],
    "reconstruct": [("spinchain.reconstruct", "reconstruct", None),
                    ("spinchain.reconstruct", "compute_weights", None),
                    ("spinchain.reconstruct", "roundtrip_error", None)],
    "spectra": [("spinchain.spectra", "pinched_spectrum", None),
                ("spinchain.spectra", "check_pst_condition", None)],
    "analogue": [("spinchain.analogue", "diagnostics_report", None)],
    "ga": [("spinchain.ga", "evolve", None),
           ("spinchain.ga", "_evaluate_block", _block_counts)],
}

ROOT = "op"


class MissingTarget(RuntimeError):
    """A wrap target no longer exists; the traced run refuses to start."""


class SpanRecorder:
    """Records spans around the wrap targets while an op is open.

    A span is the list ``[id, parent_id, name, start, end, self_s, ok,
    counts]``; times come from ``time.perf_counter``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []   # open frames: [span_id, child_s, start]
        self._patched: list[tuple] = []
        self._targets = []
        missing = []
        for layer, targets in WRAP_TARGETS.items():
            for mod_name, attr, hook in targets:
                orig = getattr(sys.modules.get(mod_name), attr, None)
                if callable(orig):
                    self._targets.append((f"{layer}.{orig.__name__}", orig, hook))
                else:
                    missing.append(f"{mod_name}.{attr}")
        if missing:
            raise MissingTarget("wrap targets not found: " + ", ".join(missing))

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to each target in the spinchain modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spinchain" or name.startswith("spinchain.")]
        for name, orig, hook in self._targets:
            wrapper = self._wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._open()
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                counts = hook(args, kwargs, result) if ok and hook else None
                self._close(frame, name, ok, counts)
        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self):
        frame = [len(self.spans) + len(self._stack), 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, ok, counts):
        end = time.perf_counter()
        self._stack.pop()
        span_id, child_s, start = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append([span_id, parent[0] if parent else None, name,
                           start, end, duration - child_s, ok, counts])

    @contextmanager
    def op(self, counts: dict | None = None):
        """Root span of one op; ``counts`` may be filled in by the caller."""
        frame = self._open()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(frame, ROOT, ok, counts)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "self_s", "ok", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], ops: int) -> dict:
    """Per-op layer figures from the recorded spans of ``ops`` ops."""
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    failures: dict[str, int] = {}
    counts: dict[str, float] = {}
    refine_evals, refine_s = 0, 0.0
    op_wall = 0.0
    for span_id, parent, name, start, end, s_self, ok, c in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s_self
        if not ok:
            failures[name] = failures.get(name, 0) + 1
        for key, value in (c or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == ROOT:
            op_wall += end - start
        elif name == "dynamics.transfer_fidelity" and parent is not None \
                and by_id[parent][2] == "dynamics.trace":
            refine_evals += 1
            refine_s += s_self

    def per_op(value):
        return value / ops

    layer_self = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
                  for layer in WRAP_TARGETS}
    block_s = self_s.get("ga._evaluate_block", 0.0)
    trace_points = counts.get("dynamics.trace.grid_points", 0)
    peaks = counts.get("dynamics.trace.peaks", 0)
    return {
        "cli.calls": per_op(calls.get("cli.main", 0)),
        "cli.self_s": per_op(self_s.get("cli.main", 0.0)),
        "cli.bytes_written": per_op(counts.get("op.bytes_written", 0)),
        "chain.eigendecompose.calls": per_op(calls.get("chain.eigendecompose", 0)),
        "chain.eigendecompose.s": per_op(self_s.get("chain.eigendecompose", 0.0)),
        "dynamics.trace.calls": per_op(calls.get("dynamics.trace", 0)),
        "dynamics.trace.s": per_op(self_s.get("dynamics.trace", 0.0)),
        "dynamics.trace.grid_points": per_op(trace_points),
        "dynamics.trace.grid_bytes_computed": per_op(trace_points * COMPLEX128_BYTES),
        "dynamics.refine.evals": per_op(refine_evals),
        "dynamics.refine.s": per_op(refine_s),
        "dynamics.peaks": per_op(peaks),
        "dynamics.refine.evals_per_peak": refine_evals / peaks if peaks else 0.0,
        "reconstruct.calls": per_op(calls.get("reconstruct.reconstruct", 0)),
        "reconstruct.s": per_op(layer_self["reconstruct"]),
        "reconstruct.compute_weights.s": per_op(self_s.get("reconstruct.compute_weights", 0.0)),
        "reconstruct.failures": per_op(failures.get("reconstruct.reconstruct", 0)),
        "spectra.pinched_spectrum.s": per_op(self_s.get("spectra.pinched_spectrum", 0.0)),
        "spectra.check_pst_condition.calls": per_op(calls.get("spectra.check_pst_condition", 0)),
        "spectra.check_pst_condition.s": per_op(self_s.get("spectra.check_pst_condition", 0.0)),
        "analogue.diagnostics_report.calls": per_op(calls.get("analogue.diagnostics_report", 0)),
        "analogue.diagnostics_report.s": per_op(self_s.get("analogue.diagnostics_report", 0.0)),
        "ga.evolve.s": per_op(self_s.get("ga.evolve", 0.0)),
        "ga.fitness_block.calls": per_op(calls.get("ga._evaluate_block", 0)),
        "ga.fitness_block.s": per_op(block_s),
        "ga.individuals_scored": per_op(counts.get("ga._evaluate_block.individuals", 0)),
        "ga.grid_points": per_op(counts.get("ga._evaluate_block.grid_points", 0)),
        "ga.fitness_block.share": block_s / op_wall if op_wall else 0.0,
        "op.self_s": per_op(self_s.get(ROOT, 0.0)),
        "trace.op_s": per_op(op_wall),
        "trace.layer_share": sum(layer_self.values()) / op_wall if op_wall else 0.0,
    }
