"""Command-line surface: simulate, reconstruct, snap, optimize, analyze, sweep.

Every run writes its outputs plus a ``manifest.json`` recording the
subcommand, inputs, effective parameters and seed, so any output can be
regenerated byte-for-byte. Exit codes: 0 success, 2 bad input, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainSpec, EigenSystem, _bands, band_values, diagonalize_chain
from .dynamics import revival_peaks, trace
from .errors import NumericalError
from .ga import GAConfig, evolve
from .reconstruct import reconstruct_with_error
from .spectra import PinchSpec, Spectrum, _pinched_fit, infer_pinch, pinched_spectrum, snap_to_pst
from .sweep import deviation_sweep
from .analogue import diagnostics_report

CSV_BLOCK_ROWS = 4096


def _load_json(path: str) -> dict:
    """The JSON object in ``path``; any other top-level value is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_rows(path: Path, header: str, columns) -> None:
    """Write ``header`` and the stacked columns as ``%.12g`` CSV rows.

    Integer columns below 1e12 print as ``%d`` would. Rows are stacked and
    formatted a block of ``CSV_BLOCK_ROWS`` at a time, so only one block's
    stacked values and text are held at once.
    """
    from ._csvtext import format_block  # its tables are built on the first write

    columns = [np.asarray(column) for column in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            fh.write(format_block(np.column_stack(
                [column[start:start + CSV_BLOCK_ROWS] for column in columns])))


def _write_manifest(out_dir: Path, subcommand: str, inputs: list[str],
                    parameters: dict, seed: int | None = None) -> None:
    _write_json(out_dir / "manifest.json", {
        "subcommand": subcommand,
        "inputs": inputs,
        "parameters": parameters,
        "seed": seed,
        "output_dir": str(out_dir),
        "version": __version__,
    })


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    chain = ChainSpec.from_dict(_load_json(args.chain))
    es = diagonalize_chain(chain)
    tr = trace(es, window=args.window, samples=args.samples, j_max=chain.j_max)

    times = tr.times if not args.raw_time else tr.times / chain.j_max
    peak_scale = 1.0 if not args.raw_time else 1.0 / chain.j_max
    header = "t_Jmax,F,Fav" if not args.raw_time else "t,F,Fav"

    out = _out_dir(args)
    _write_rows(out / "trace.csv", header, (times, tr.transfer, tr.average))
    _write_json(out / "peaks.json", {
        "peaks": [{"t": t * peak_scale, "F": f} for t, f in tr.peaks],
        "revivals": [{"t": t * peak_scale, "F": f} for t, f in revival_peaks(tr)],
    })
    _write_manifest(out, "simulate", [args.chain], {
        "window": args.window, "samples": args.samples,
        "raw_time": args.raw_time,
    })
    best = max(tr.peaks, key=lambda p: p[1]) if tr.peaks else None
    if best:
        print(f"max F = {best[1]:.6f} at t*J_max = {best[0]:.4f}")
    return 0


def cmd_reconstruct(args) -> int:
    if args.pinched is not None:
        n, p, alpha = args.pinched
        # integral N and P become ints; PinchSpec refuses any other float
        n, p = (int(v) if v.is_integer() else v for v in (n, p))
        spectrum = pinched_spectrum(PinchSpec(n=n, p=p, alpha=alpha), shift=args.shift)
        inputs = []
    else:
        if args.spectrum is None:
            raise ValueError("provide a spectrum file or --pinched N P ALPHA")
        spectrum = Spectrum.from_dict(_load_json(args.spectrum))
        inputs = [args.spectrum]

    chain, err = reconstruct_with_error(spectrum, args.convention)

    out = _out_dir(args)
    _write_json(out / "chain.json", chain.to_dict())
    _write_manifest(out, "reconstruct", inputs, {
        "pinched": list(args.pinched) if args.pinched else None,
        "shift": args.shift, "convention": args.convention,
    })
    print(f"roundtrip error: {err:.3e}")
    return 0


def cmd_snap(args) -> int:
    spectrum = Spectrum.from_dict(_load_json(args.spectrum))
    snapped = snap_to_pst(spectrum, p=args.p)
    shifts = [b - a for a, b in zip(spectrum.values, snapped.values)]
    max_shift = max(abs(s) for s in shifts)

    out = _out_dir(args)
    _write_json(out / "spectrum_pst.json", snapped.to_dict())
    _write_json(out / "snap_diff.json", {
        "shifts": shifts,
        "max_shift": max_shift,
        "t_m": snapped.t_m,
    })
    _write_manifest(out, "snap", [args.spectrum], {"p": args.p})
    print(f"max eigenvalue shift: {max_shift:.3e}; t_m = {snapped.t_m:.6f}")
    return 0


def cmd_optimize(args) -> int:
    cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = GAConfig.from_dict(cfg_dict)
    report = evolve(cfg)

    out = _out_dir(args)
    _write_json(out / "best_chain.json", report.best_chain().to_dict())
    header = "generation,best_f,best_Fmax,best_Q,best_sigma"
    _write_rows(out / "history.csv", header,
                [[h[key] for h in report.history] for key in header.split(",")])
    _write_manifest(out, "optimize", [args.config], cfg.to_dict(), seed=cfg.seed)
    br = report.best_report
    print(f"best f = {br.fitness:.6f}, F_max = {br.f_max:.6f} "
          f"at t*J_max = {br.best_time:.2f} (Q = {br.q:.4f}, sigma = {br.sigma:.4f})")
    return 0


def cmd_analyze(args) -> int:
    chain = ChainSpec.from_dict(_load_json(args.chain))
    values = band_values(*_bands(chain))  # the report reads no eigenvector
    p = args.p if args.p is not None else infer_pinch(values)[0]
    gamma = args.gamma if args.gamma is not None else _pinched_fit(values, p)[1]

    report = diagnostics_report(chain, EigenSystem(values, None), p=p, gamma=gamma)
    out = _out_dir(args)
    _write_json(out / "diagnostics.json", report)
    _write_manifest(out, "analyze", [args.chain], {"p": p, "gamma": gamma})
    print(f"nodes: {report['nodes']}; ladder residual {report['ladder_residual']:.2e}; "
          f"zero mode: {report['zero_mode']}")
    return 0


def cmd_sweep(args) -> int:
    p_set = [int(v) for v in args.p_list.split(",") if v.strip()]
    points = deviation_sweep(range(args.n_min, args.n_max + 1), p_set,
                             alpha=args.alpha)
    out = _out_dir(args)
    _write_rows(out / "sweep.csv", "N,p,std_J,max_rel_spread_J,std_eps,roundtrip_err",
                [[getattr(pt, key) for pt in points] for key in
                 ("n", "p", "std_j", "max_rel_spread_j", "std_eps", "roundtrip_err")])
    _write_manifest(out, "sweep", [], {
        "n_min": args.n_min, "n_max": args.n_max,
        "p_list": p_set, "alpha": args.alpha,
    })
    failures = [pt for pt in points if pt.error]
    print(f"{len(points)} sweep points ({len(failures)} failed)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each subcommand's
    ``func`` is the ``cmd_*`` function bound when it was built."""
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Spin-chain state-transfer toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="fidelity trace of a chain")
    p_sim.add_argument("chain", help="chain JSON file")
    p_sim.add_argument("--window", type=float, default=50.0,
                       help="trace window in t*J_max units")
    p_sim.add_argument("--samples", type=int, default=None,
                       help="samples across the window (default 200/unit)")
    p_sim.add_argument("--raw-time", action="store_true",
                       help="report raw t instead of t*J_max")

    p_rec = sub.add_parser("reconstruct",
                           help="persymmetric chain from a spectrum")
    p_rec.add_argument("spectrum", nargs="?", help="spectrum JSON file")
    p_rec.add_argument("--pinched", nargs=3, type=float, metavar=("N", "P", "ALPHA"),
                       help="generate a pinched spectrum instead of reading one")
    p_rec.add_argument("--shift", type=float, default=0.0,
                       help="energy shift applied to the pinched spectrum")
    p_rec.add_argument("--convention", choices=("negative", "positive"),
                       default="negative", help="coupling sign convention")

    p_snap = sub.add_parser("snap", help="round a spectrum onto the PST family")
    p_snap.add_argument("spectrum", help="spectrum JSON file")
    p_snap.add_argument("--p", type=int, required=True, help="odd pinch value")

    p_opt = sub.add_parser("optimize", help="genetic search over on-site energies")
    p_opt.add_argument("config", help="GA config JSON file")
    p_opt.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_ana = sub.add_parser("analyze", help="particle-analogue diagnostics")
    p_ana.add_argument("chain", help="chain JSON file")
    p_ana.add_argument("--p", type=int, default=None, help="pinch value (inferred if absent)")
    p_ana.add_argument("--gamma", type=float, default=None,
                       help="level spacing (inferred if absent)")

    p_swp = sub.add_parser("sweep", help="coupling-deviation sweep over (N, p)")
    p_swp.add_argument("--n-min", type=int, default=4)
    p_swp.add_argument("--n-max", type=int, default=40)
    p_swp.add_argument("--p-list", default="3,5,7,9,11,13",
                       help="comma-separated odd pinch values")
    p_swp.add_argument("--alpha", type=float, default=0.5)

    for command, func in ((p_sim, cmd_simulate), (p_rec, cmd_reconstruct), (p_snap, cmd_snap),
                          (p_opt, cmd_optimize), (p_ana, cmd_analyze), (p_swp, cmd_sweep)):
        command.add_argument("--out", default=".", help="output directory")
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
