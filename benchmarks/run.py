"""spinchain benchmark: four closed-loop workloads, untraced or traced.

    python3 benchmarks/run.py --workload simulate-small --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

One client runs one op after another with no think time; each op's output
is checked by an oracle between ops, outside the timed region. A workload's
ops form one cycle, one op per input; the run repeats the cycle until
``--seconds`` have passed (at least once), and each input's op time is its
mean over the run. With ``--trace 1`` untraced and traced passes over the
whole cycle alternate; the traced passes record spans around the public
entry points of each spinchain module (see tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: faster than two for the GA kernel on a 2-core box.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_PERCENTILE = 95
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spinchain, spinchain.cli; "
                "print(time.perf_counter() - t)")


def pin_to_one_cpu() -> int:
    """Run on the lowest usable CPU, so no run depends on where the
    scheduler happened to place or move it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import spinchain from this checkout's sources, and nowhere else."""
    if not (SRC / "spinchain" / "__init__.py").is_file():
        fail(f"no spinchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinchain
    if Path(spinchain.__file__).resolve().parent != SRC / "spinchain":
        fail(f"imported spinchain from {spinchain.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median wall time of importing spinchain in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, cpu: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class OpLog:
    """Op times and failures of the untraced or the traced ops of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []


def run_ops(workload, ops, refs, out: Path, deadline: float | None, log: OpLog,
            recorder=None) -> None:
    """Closed loop over ``ops``, appending op times and failures to ``log``;
    stops after the op that ends past ``deadline``."""
    for op in ops:
        counts: dict = {}
        start = time.perf_counter()
        # an op or its check that raises counts as a failed op; the loop goes on
        try:
            if recorder is None:
                result = workload.run_op(op, out)
            else:
                with recorder.op(counts):
                    result = workload.run_op(op, out)
            found = None
        except Exception as exc:
            found = [f"op raised {type(exc).__name__}: {exc}"]
        log.times.append(time.perf_counter() - start)
        if found is None:
            try:
                found = workload.check(op, result, out, refs)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if out.exists():
            counts["bytes_written"] = dir_bytes(out)
            shutil.rmtree(out)
        if found:
            log.failed += 1
            log.problems.append(f"{op!r}: {'; '.join(found)}")
        if deadline is not None and time.perf_counter() > deadline:
            return


def input_means(times: list[float], n_inputs: int) -> list[float]:
    """Each input's mean op time; op i of a log ran input i % n_inputs.

    A shared host's speed swings over seconds. An input's mean takes one op
    from every cycle, spread over the whole run, so the percentiles below
    follow the run's average speed, as ``ops_per_s`` does, instead of the
    few ops that happen to sit at one rank.
    """
    return [statistics.fmean(times[i::n_inputs]) for i in range(n_inputs)]


def ops_per_s(times: list[float], n_inputs: int) -> float:
    """Ops of the input mix per second: one cycle's ops over its mean time.
    Equal to ops over summed op time when the run ends on a whole cycle."""
    return n_inputs / sum(input_means(times, n_inputs))


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile (1 to 99), interpolated linearly between the
    sorted values (the "inclusive" method of statistics.quantiles)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(times: list[float], n_inputs: int, setup_s: float) -> dict:
    means = input_means(times, n_inputs)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(times, n_inputs),
        "op_p50_ms": 1e3 * statistics.median(means),
        "op_tail_ms": 1e3 * percentile(means, TAIL_PERCENTILE),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args, spec: dict) -> int:
    cpu = pin_to_one_cpu()
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer
    import workloads
    import numpy as np

    try:
        recorder = tracer.SpanRecorder() if args.trace else None
    except tracer.MissingTarget as exc:
        fail(str(exc))
    env = environment(args, cpu)
    workload = workloads.WORKLOADS[args.workload]()
    work = OUT / f"work-{os.getpid()}"
    out = work / "out"
    try:
        work.mkdir(parents=True)
        t_import = import_seconds()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.generate(np.random.default_rng(args.seed), work)
            workload.warm_up(inputs, work)
            setup_times.append(time.perf_counter() - start)
            shutil.rmtree(work / "warm", ignore_errors=True)
        setup_s = t_import + statistics.median(setup_times)
        start = time.perf_counter()
        refs = workload.prepare_refs(inputs)
        refs_s = time.perf_counter() - start

        cycle = workload.cycle(inputs)
        plain = OpLog()
        start = time.perf_counter()
        deadline = start + args.seconds
        if not args.trace:
            # the first cycle always completes; later ones stop at the deadline
            run_ops(workload, cycle, refs, out, None, plain)
            while time.perf_counter() < deadline:
                run_ops(workload, cycle, refs, out, deadline, plain)
            runs = [plain]
        else:
            # whole untraced and traced cycles alternate, so both see the same
            # machine conditions, the overhead ratio compares like with like,
            # and per-op work counts are exact; a pair starts only if one
            # more pair like the last would end before the deadline
            traced = OpLog()
            runs = [plain, traced]
            while True:
                pair_start = time.perf_counter()
                run_ops(workload, cycle, refs, out, None, plain)
                recorder.install()
                try:
                    run_ops(workload, cycle, refs, out, None, traced, recorder)
                finally:
                    recorder.uninstall()
                now = time.perf_counter()
                if now + (now - pair_start) > deadline:
                    break
            recorder.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(log.times) for log in runs)
    failed = sum(log.failed for log in runs)
    for problem in [p for log in runs for p in log.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    n_inputs = len(cycle)
    e2e = end_to_end(plain.times, n_inputs, setup_s)
    extra = {
        "failed_op_ratio": failed / attempted,
        "ops": len(plain.times),
        "inputs": n_inputs,
        "cycles": len(plain.times) / n_inputs,
        "op_tail_percentile": TAIL_PERCENTILE,
        "run_s": time.perf_counter() - start,
        "import_s": t_import,
        "oracle_refs_s": refs_s,
    }
    if args.workload == "ga-search":
        scored_per_op = (workload.GENERATIONS + 1) * inputs["configs"][0][0]["population"]
        extra["ga.evals_per_s"] = scored_per_op * e2e["ops_per_s"]
        extra["ga.max_refine_gap"] = workload.stats.get("max_gap")

    if args.trace:
        metrics = tracer.layer_metrics(recorder.spans, len(traced.times))
        metrics["trace.overhead_ratio"] = ops_per_s(traced.times, n_inputs) / e2e["ops_per_s"]
        metrics["ga.evals_per_s"] = extra.pop("ga.evals_per_s", 0.0)
        kind = "per_layer"
    else:
        metrics = e2e
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        fail(f"{kind} metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**result, "env": env, "extra": extra,
                                  "op_times": plain.times}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process; prints every metric by name and unit."""
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"failed_op_ratio {result['failed'] / result['attempted']:.6g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
