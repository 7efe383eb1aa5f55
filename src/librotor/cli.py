"""Command-line interface: simulate / analyze / scanfit / classify.

Exit codes: 0 success, 2 input or config error, 3 analysis failure.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

import numpy as np

from . import __version__, io
from .errors import ConfigError, LibrotorError, UnderdeterminedScanError
from .fitting import window_bins
from .geometry import DampingMeasurement, classify
from .physics import TWO_PI
from .spectrum import (PsdTrace, default_grid, lorentzian, periodogram_draw,
                       scan_series)
from .thermometry import (CHANNEL_MODE, METHOD_DIFFCAL, METHOD_RATIO,
                          OccupationResult, analyze_scan, calibrate_response,
                          channel_occupations, gain_corrected)

# Trace channel used for calibration (shot / dark) spectra.
CAL_CHANNEL = "calibration"


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _attempts(fn, items):
    """(True, fn(item)), or (False, the exception it raised), per item."""
    out = []
    for item in items:
        try:
            out.append((True, fn(item)))
        except Exception as exc:  # raised in item order by _forked_map
            out.append((False, exc))
    return out


def _send_attempts(fn, items, conn):
    with conn:
        conn.send(_attempts(fn, items))


def _forked_map(fn, items):
    """[fn(item) for item in items], shared among this process and one
    forked child per further CPU in its affinity mask.  With k processes,
    this one takes items[0::k] and child j items[j::k]; the children
    inherit fn and the items through fork and pipe back only the results.
    Each process holds its own interpreter lock, so CPU-bound work such as
    float conversion runs k at a time.  Once every child is joined, the
    first exception in item order is raised, as the serial loop would.
    A child that dies before its whole message is sent has its share
    redone here.  With one CPU, or no affinity mask to read, k is 1 and
    no child is started."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(cpus, len(items)))
    children = []
    try:
        for j in range(1, k):
            import multiprocessing  # here: `import librotor.cli` leaves it out
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_attempts,
                                args=(fn, items[j::k], send))
            child.start()
            send.close()
            children.append((child, recv))
        shares = [_attempts(fn, items[0::k])]
        for j, (_, recv) in enumerate(children, start=1):
            try:
                shares.append(recv.recv())
            except (EOFError, OSError):  # the child died before or while sending
                shares.append(_attempts(fn, items[j::k]))
    finally:
        for child, recv in children:
            recv.close()
            child.join()
    attempts = [None] * len(items)
    for j, share in enumerate(shares):
        attempts[j::k] = share
    for ok, value in attempts:
        if not ok:
            raise value
    return [value for _, value in attempts]


# ---------------------------------------------------------------------------
# simulate

def _calibration_traces(noise, grid_hz, averages, het_freq_hz, seed):
    """Shot (LO only) and dark (detector only) calibration spectra."""
    shot_mean = np.full(grid_hz.size, noise.dark_level + noise.shot_level)
    dark_mean = np.full(grid_hz.size, noise.dark_level)
    traces = []
    for name, mean, sub_seed in (("shot", shot_mean, 9001),
                                 ("dark", dark_mean, 9002)):
        vals = periodogram_draw(mean, averages, seed + sub_seed)
        meta = {"detuning_hz": None, "het_freq_hz": het_freq_hz,
                "averages": averages, "seed": seed + sub_seed,
                "channel": CAL_CHANNEL, "kind": name}
        traces.append((name, PsdTrace(grid_hz, vals, meta)))
    return traces


def cmd_simulate(args) -> int:
    cfg = io.RunConfig.load(args.config)
    synth = cfg.synthesis
    seed = synth["seed"] if args.seed is None else args.seed
    modes_by_label = {mode.label: mode for mode in cfg.modes}
    grid = default_grid(synth["het_freq_hz"], max(m.omega for m in cfg.modes),
                        n_bins=synth["n_bins"],
                        span_factor=synth["span_factor"])
    if not np.all(grid[1:] > grid[:-1]):
        raise ConfigError(f"{args.config}: the synthesis span has no distinct bins")
    # the optical setup rides in every sidecar, so scanfit can invert
    # couplings without the config
    extra_meta = io.optics_fields(cfg.optics)

    os.makedirs(args.out, exist_ok=True)
    writes = []  # (path, trace) in run-record order
    summary = []
    for channel in synth["channels"]:
        label = CHANNEL_MODE.get(channel)
        modes = [modes_by_label[label]] if label else list(cfg.modes)
        points = scan_series(modes, cfg.optics, cfg.noise, None, grid,
                             synth["averages"], synth["het_freq_hz"],
                             synth["detunings_hz"],
                             area_scale_c=synth["area_scale_c"],
                             seed=seed,
                             sideband_orientation=synth["sideband_orientation"],
                             channel=channel)
        for i, point in enumerate(points):
            if point.trace is None:
                _warn(f"detuning {point.detuning_hz:g} Hz on channel "
                      f"{channel} is invalid: {point.error}")
                summary.append({"detuning_hz": point.detuning_hz,
                                "channel": channel, "valid": False,
                                "error": point.error})
                continue
            trace = PsdTrace(point.trace.freq_hz, point.trace.values,
                             {**point.trace.meta, **extra_meta})
            writes.append((os.path.join(args.out, f"trace_{i:03d}_{channel}.csv"),
                           trace))
            summary.append({"detuning_hz": point.detuning_hz,
                            "channel": channel, "valid": True,
                            "truth": point.truth})
    if synth["write_calibration"]:
        writes += [(os.path.join(args.out, f"{name}.csv"), trace)
                   for name, trace in _calibration_traces(
                       cfg.noise, grid, synth["averages"],
                       synth["het_freq_hz"], seed)]

    # forked children inherit the traces, so only the digests come back
    digests = _forked_map(lambda write: io.write_psd_csv(*write), writes)
    outputs = []
    for (path, _), (csv_sha, side_sha) in zip(writes, digests):
        outputs += [(path, csv_sha), (io.sidecar_path(path), side_sha)]
    io.write_run_record(os.path.join(args.out, "run_record.json"),
                        cfg.data, outputs, {"points": summary})
    return 0


# ---------------------------------------------------------------------------
# analyze

def _read_trace(path, scan):
    """The trace at path; a scan file's trace that is not a calibration
    trace must carry het_freq_hz."""
    trace = io.read_psd_csv(path)
    if scan and trace.meta.get("channel") != CAL_CHANNEL \
            and "het_freq_hz" not in trace.meta:
        raise ConfigError(f"{path}: trace metadata lacks het_freq_hz; missing "
                          f"or incomplete sidecar {io.sidecar_path(path)}")
    return trace


def _load_traces(paths, cal_paths=()):
    """Scan traces as (path, trace) pairs in path order, and the detector
    response from the shot and dark calibration traces: those at cal_paths
    (shot, dark) if given, or else those among paths, flat when either is
    missing.  Plot data that analyze wrote among paths is skipped.  The
    files are read through _forked_map, cal_paths first, so the first bad
    one in that order is the error."""
    paths = sorted(p for p in paths if not p.endswith(".plotdata.csv"))
    read = _forked_map(lambda item: _read_trace(*item),
                       [(p, False) for p in cal_paths] + [(p, True) for p in paths])
    cal = dict(zip(("shot", "dark"), zip(cal_paths, read)))
    traces, found = [], {}
    for path, trace in zip(paths, read[len(cal_paths):]):
        if trace.meta.get("channel") == CAL_CHANNEL:
            found[trace.meta.get("kind")] = (path, trace)
        else:
            traces.append((path, trace))
    cal = cal or found
    if "shot" in cal and "dark" in cal:
        (shot_path, shot), (dark_path, dark) = cal["shot"], cal["dark"]
        if not np.array_equal(shot.freq_hz, dark.freq_hz):
            raise ConfigError(f"calibration traces {shot_path} and {dark_path} "
                              f"do not share a frequency grid")
        return traces, calibrate_response(shot, dark)
    _warn("no shot and dark calibration traces; assuming a flat detector response")
    return traces, None


def _write_plot_data(out_dir, trace_path, trace, resp, occ):
    f_cols, d_cols, m_cols = [], [], []
    for fit in (occ.stokes_fit, occ.anti_fit):
        bins = window_bins(trace.freq_hz, (fit.center - 5.0 * fit.linewidth_fwhm,
                                           fit.center + 5.0 * fit.linewidth_fwhm))
        freq = trace.freq_hz[bins]
        f_cols.append(freq)
        d_cols.append(gain_corrected(freq, trace.values[bins], resp))
        m_cols.append(lorentzian(freq, fit.center, fit.linewidth_fwhm,
                                 fit.area, fit.offset))
    f, d, m = (np.concatenate(c) for c in (f_cols, d_cols, m_cols))
    r = d - m
    order = np.lexsort((r, m, d, f))  # rows sorted as tuples, freq first
    stem = os.path.splitext(os.path.basename(trace_path))[0]
    io.atomic_write_text(
        os.path.join(out_dir, f"{stem}.plotdata.csv"),
        "freq_hz,data,fit,residual\n"
        + io.format_csv_rows(f[order], d[order], m[order], r[order]))


def cmd_analyze(args) -> int:
    if bool(args.shot) != bool(args.dark):
        given, missing = ("--shot", "--dark") if args.shot else ("--dark", "--shot")
        raise ConfigError(f"{given} needs {missing}: pass both calibration "
                          f"traces or neither")
    paths = sorted(glob.glob(args.traces))
    if not paths:
        raise ConfigError(f"no trace files match {args.traces!r}")
    traces, resp = _load_traces(paths, (args.shot, args.dark) if args.shot else ())
    if not traces:
        raise ConfigError(f"no analyzable (non-calibration) traces in "
                          f"{args.traces!r}")
    out_dir = os.path.dirname(os.path.abspath(args.out))

    method = METHOD_DIFFCAL if args.method == "diffcal" else METHOD_RATIO
    entries = [None] * len(traces)
    passes = channel_occupations([t for _, t in traces], resp, method)
    for channel, (idx, results, c_cal) in passes.items():
        if method == METHOD_DIFFCAL and c_cal and not c_cal.consistent:
            _warn(f"sideband area differences on channel {channel} are "
                  f"mutually inconsistent; C calibration may be biased")
        for i, occ in zip(idx, results):
            path, trace = traces[i]
            entries[i] = entry = {"file": os.path.basename(path),
                                  "detuning_hz": trace.meta.get("detuning_hz"),
                                  "channel": trace.meta.get("channel")}
            if isinstance(occ, OccupationResult):
                entry.update({
                    "n": occ.n, "n_err": occ.n_err,
                    "ground_state_prob": occ.ground_state_prob,
                    "c_factor": occ.c_factor,
                    "area_stokes": occ.areas[0][0],
                    "area_stokes_err": occ.areas[0][1],
                    "area_anti_stokes": occ.areas[1][0],
                    "area_anti_stokes_err": occ.areas[1][1],
                    "method": occ.method,
                })
                _write_plot_data(out_dir, path, trace, resp, occ)
            else:
                entry["error"] = str(occ)

    result = {"schema": io.RESULTS_SCHEMA, "command": "analyze",
              "tool_version": __version__, "method": args.method,
              "traces": entries}
    io.atomic_write_text(args.out, io.format_json(result))
    if all("error" in entry for entry in entries):
        print("error: all traces failed analysis", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# scanfit

def _fit_block(fit):
    if fit is None:
        return None
    block = {"converged": fit.converged}
    for key, value, unit in (
            ("g_hz", fit.g_abs, TWO_PI), ("omega_bare_hz", fit.omega_bare, TWO_PI),
            ("gamma_intrinsic_hz", fit.gamma_intrinsic, TWO_PI),
            ("gamma_total_heating_phonons_per_s", fit.gamma_total_heating, 1.0),
            ("n_phase", fit.n_phase, 1.0)):
        if value is not None:
            block[key] = value / unit
    if fit.covariance is not None:
        block["param_errors"] = fit.param_errors().tolist()
    return block


def cmd_scanfit(args) -> int:
    if not os.path.isdir(args.traces):
        raise ConfigError(f"{args.traces} is not a directory")
    paths = glob.glob(os.path.join(args.traces, "*.csv"))
    if not paths:
        raise ConfigError(f"no trace files in {args.traces}")
    traces, resp = _load_traces(paths)
    if not traces:
        raise ConfigError(f"no scan traces in {args.traces}")
    path, first = traces[0]
    try:
        setup = io.optics_from_fields(first.meta)
    except ConfigError as exc:
        raise ConfigError(f"{io.sidecar_path(path)}: {exc}") from None

    modes_out = []
    for mode in analyze_scan([t for _, t in traces], setup, resp=resp):
        derived = mode.derived
        modes_out.append({
            "mode": mode.label, "channel": mode.channel,
            "n_traces": len(mode.traces),
            "c_factor": mode.c_cal.c if mode.c_cal else None,
            "c_factor_err": mode.c_cal.c_err if mode.c_cal else None,
            "frequency_fit": _fit_block(mode.frequency_fit),
            "linewidth_fit": _fit_block(mode.linewidth_fit),
            "occupation_fit": _fit_block(mode.occupation_fit),
            "n_best": mode.n_best, "n_best_err": mode.n_best_err,
            "best_detuning_hz": mode.best_detuning_hz,
            "inertia_kg_m2": mode.inertia,
            "error": mode.error,
            "derived": None if derived is None else {
                "sigma_rad": derived.sigma,
                "temperature_k": derived.temperature,
                "revival_time_s": derived.t_rev,
                "angular_momentum_hbar": derived.j_mean,
            },
            "occupations": [
                {"detuning_hz": t.detuning_hz,
                 "n": t.occupation.n if t.occupation else None,
                 "n_err": t.occupation.n_err if t.occupation else None,
                 "error": t.error}
                for t in mode.traces],
        })
    result = {"schema": io.RESULTS_SCHEMA, "command": "scanfit",
              "tool_version": __version__, "modes": modes_out}
    io.atomic_write_text(args.out, io.format_json(result))
    return 0


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    lines = io.decode_lines(args.input, io.read_file(args.input))
    rows = [(lineno, values) for lineno, (text, values)
            in enumerate(map(io.csv_fields, lines), start=1) if text]
    if rows and all(v is None for v in rows[0][1]):
        rows = rows[1:]  # the column names: a first line without a number
    for lineno, values in rows:
        if None in values:
            raise ConfigError(f"{args.input}: malformed CSV row at line {lineno}")
    if not rows:
        raise ConfigError(f"{args.input}: no data rows")

    entries = []
    for lineno, values in rows:
        entry = {"line": lineno}
        try:
            if len(values) != 4:
                raise ValueError("expected 4 columns: "
                                 "gamma_x,sigma_x,gamma_y,sigma_y")
            gx, sx, gy, sy = values
            result = classify(DampingMeasurement(gamma_x=gx, gamma_y=gy,
                                                 sigma_x=sx, sigma_y=sy))
            entry.update({"label": result.label, "ratio": result.ratio,
                          "ratio_err": result.ratio_err,
                          "confidence": result.confidence,
                          "candidates": list(result.candidates),
                          "note": result.note})
        except (ArithmeticError, ValueError, LibrotorError) as exc:
            entry["error"] = str(exc)
        entries.append(entry)
    result = {"schema": io.RESULTS_SCHEMA, "command": "classify",
              "tool_version": __version__, "rows": entries}
    io.atomic_write_text(args.out, io.format_json(result))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="librotor",
        description="Cavity cooling of nanorotor librational modes: "
                    "synthetic heterodyne spectra and sideband thermometry.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a detuning scan of PSD traces")
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="sideband thermometry on PSD traces")
    p.add_argument("--traces", required=True, help="glob of trace CSV files")
    p.add_argument("--shot", default=None, help="shot-noise calibration trace")
    p.add_argument("--dark", default=None, help="dark calibration trace")
    p.add_argument("--out", required=True, help="results JSON path")
    p.add_argument("--method", choices=["ratio", "diffcal"], default="ratio")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scanfit", help="fit couplings and heating rates to a scan")
    p.add_argument("--traces", required=True, help="directory of trace CSV files")
    p.add_argument("--out", required=True, help="results JSON path")
    p.set_defaults(func=cmd_scanfit)

    p = sub.add_parser("classify", help="geometry from damping-rate ratios")
    p.add_argument("--input", required=True,
                   help="CSV of gamma_x,sigma_x,gamma_y,sigma_y rows")
    p.add_argument("--out", required=True, help="results JSON path")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnderdeterminedScanError, LibrotorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
