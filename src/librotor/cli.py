"""Command-line interface: simulate / analyze / scanfit / classify.

Exit codes: 0 success, 2 input or config error, 3 analysis failure.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys

import numpy as np

from . import __version__, io
from .errors import ConfigError, LibrotorError, UnderdeterminedScanError
from .geometry import DampingMeasurement, classify
from .noise import detector_gain
from .physics import OpticalSetup
from .spectrum import PsdTrace, default_grid, scan_series
from .thermometry import (METHOD_DIFFCAL, METHOD_RATIO, _auto_hint,
                          analyze_scan, calibrate_c, calibrate_response,
                          extract_occupation)

TWO_PI = 2.0 * math.pi

# Trace channel used for calibration (shot / dark) spectra.
CAL_CHANNEL = "calibration"

_CHANNEL_MODES = {"cavity_y": ("alpha",), "cavity_z": ("beta",)}


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate

def _setup_meta(optics: OpticalSetup) -> dict:
    """Optical parameters embedded in trace metadata so scanfit can invert
    couplings without re-reading the config."""
    return {
        "kappa_hz": optics.kappa / TWO_PI,
        "e_tw0_v_per_m": abs(optics.e_tw0),
        "e_tw0_phase_rad": math.atan2(optics.e_tw0.imag, optics.e_tw0.real),
        "e_cav0_v_per_m": abs(optics.e_cav0),
        "e_cav0_phase_rad": math.atan2(optics.e_cav0.imag, optics.e_cav0.real),
        "wavelength_m": optics.wavelength,
        "n_cav": optics.n_cav,
    }


def _calibration_traces(noise, grid_hz, averages, het_freq_hz, seed):
    """Shot (LO only) and dark (detector only) calibration spectra."""
    shot_mean = np.full(grid_hz.size, noise.dark_level + noise.shot_level)
    dark_mean = np.full(grid_hz.size, noise.dark_level)
    traces = []
    for name, mean, sub_seed in (("shot", shot_mean, 9001),
                                 ("dark", dark_mean, 9002)):
        if math.isinf(averages):
            vals = mean.copy()
        else:
            rng = np.random.default_rng(seed + sub_seed)
            vals = mean * rng.gamma(shape=averages, scale=1.0 / averages,
                                    size=mean.size)
        meta = {"detuning_hz": None, "het_freq_hz": het_freq_hz,
                "averages": averages, "seed": seed + sub_seed,
                "channel": CAL_CHANNEL, "kind": name}
        traces.append((name, PsdTrace(grid_hz, vals, meta)))
    return traces


def cmd_simulate(args) -> int:
    cfg = io.RunConfig.load(args.config)
    synth = cfg.synthesis()
    if args.seed is not None:
        synth["seed"] = args.seed
    rotor = cfg.rotor()
    optics = cfg.optics()
    noise = cfg.noise()
    mode_alpha, mode_beta = cfg.modes()
    modes_by_label = {"alpha": mode_alpha, "beta": mode_beta}

    omega_max = max(mode_alpha.omega, mode_beta.omega)
    grid = default_grid(synth["het_freq_hz"], omega_max,
                        n_bins=synth["n_bins"],
                        span_factor=synth["span_factor"])
    extra_meta = _setup_meta(optics)

    os.makedirs(args.out, exist_ok=True)
    outputs = []
    summary = []
    for channel in synth["channels"]:
        labels = _CHANNEL_MODES.get(channel, ("alpha", "beta"))
        modes = [modes_by_label[lab] for lab in labels]
        points = scan_series(modes, optics, noise, None, grid,
                             synth["averages"], synth["het_freq_hz"],
                             synth["detunings_hz"],
                             area_scale_c=synth["area_scale_c"],
                             seed=synth["seed"],
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
            meta = dict(point.trace.meta)
            meta.update(extra_meta)
            trace = PsdTrace(point.trace.freq_hz, point.trace.values, meta)
            path = os.path.join(args.out, f"trace_{i:03d}_{channel}.csv")
            io.write_psd_csv(path, trace)
            outputs.extend([path, io.sidecar_path(path)])
            summary.append({"detuning_hz": point.detuning_hz,
                            "channel": channel, "valid": True,
                            "truth": point.truth})
    if synth["write_calibration"]:
        for name, trace in _calibration_traces(
                noise, grid, synth["averages"], synth["het_freq_hz"],
                synth["seed"]):
            path = os.path.join(args.out, f"{name}.csv")
            io.write_psd_csv(path, trace)
            outputs.extend([path, io.sidecar_path(path)])

    io.write_run_record(os.path.join(args.out, "run_record.json"),
                        cfg.data, outputs, {"points": summary})
    return 0


# ---------------------------------------------------------------------------
# analyze

def _read_trace(path):
    """A PSD trace whose metadata has what the sideband analysis needs."""
    trace = io.read_psd_csv(path)
    if trace.meta.get("channel") != CAL_CHANNEL and "het_freq_hz" not in trace.meta:
        raise ConfigError(f"{path}: trace metadata lacks het_freq_hz; "
                          f"missing or incomplete sidecar {io.sidecar_path(path)}")
    return trace


def _load_traces(paths):
    traces = []
    for path in sorted(paths):
        trace = _read_trace(path)
        if trace.meta.get("channel") == CAL_CHANNEL:
            continue
        traces.append((path, trace))
    return traces


def _load_response(shot_path, dark_path):
    if shot_path and dark_path:
        return calibrate_response(io.read_psd_csv(shot_path),
                                  io.read_psd_csv(dark_path))
    _warn("no calibration traces given; assuming a flat detector response")
    return None


def _write_plot_data(out_dir, trace_path, trace, resp, occ):
    freq = trace.freq_hz
    vals = trace.values if resp is None else \
        trace.values / detector_gain(resp, TWO_PI * freq)
    f_cols, d_cols, m_cols = [], [], []
    for fit in (occ.stokes_fit, occ.anti_fit):
        if fit is None:
            continue
        lo = fit.center - 5.0 * fit.linewidth_fwhm
        hi = fit.center + 5.0 * fit.linewidth_fwhm
        mask = (freq >= lo) & (freq <= hi)
        model = fit.offset + (fit.area / math.pi) * (fit.linewidth_fwhm / 2.0) \
            / ((freq[mask] - fit.center) ** 2 + (fit.linewidth_fwhm / 2.0) ** 2)
        f_cols.append(freq[mask])
        d_cols.append(vals[mask])
        m_cols.append(model)
    f, d, m = (np.concatenate(c or [np.empty(0)])
               for c in (f_cols, d_cols, m_cols))
    r = d - m
    order = np.lexsort((r, m, d, f))  # rows sorted as tuples, freq first
    stem = os.path.splitext(os.path.basename(trace_path))[0]
    io.atomic_write_text(
        os.path.join(out_dir, f"{stem}.plotdata.csv"),
        "freq_hz,data,fit,residual\n"
        + io.format_csv_rows(f[order], d[order], m[order], r[order]))


def cmd_analyze(args) -> int:
    paths = sorted(glob.glob(args.traces))
    if not paths:
        raise ConfigError(f"no trace files match {args.traces!r}")
    traces = _load_traces(paths)
    if not traces:
        raise ConfigError(f"no analyzable (non-calibration) traces in "
                          f"{args.traces!r}")
    resp = _load_response(args.shot, args.dark)
    method = METHOD_DIFFCAL if args.method == "diffcal" else METHOD_RATIO
    out_dir = os.path.dirname(os.path.abspath(args.out))

    c_pair = None
    if method == METHOD_DIFFCAL:
        records = []
        for _, trace in traces:
            try:
                occ = extract_occupation(trace, resp, _auto_hint(trace),
                                         method=METHOD_RATIO)
                records.append((occ.areas[0][0], occ.areas[0][1],
                                occ.areas[1][0], occ.areas[1][1]))
            except LibrotorError:
                pass
        if len(records) < 2:
            raise ConfigError("difference-calibrated analysis needs at least "
                              "2 analyzable traces to calibrate C")
        c_cal = calibrate_c(records)
        if not c_cal.consistent:
            _warn("sideband area differences are mutually inconsistent; "
                  "C calibration may be biased")
        c_pair = (c_cal.c, c_cal.c_err)

    entries = []
    failures = 0
    for path, trace in traces:
        entry = {"file": os.path.basename(path),
                 "detuning_hz": trace.meta.get("detuning_hz"),
                 "channel": trace.meta.get("channel")}
        try:
            occ = extract_occupation(trace, resp, _auto_hint(trace),
                                     c_override=c_pair, method=method)
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
        except LibrotorError as exc:
            entry["error"] = str(exc)
            failures += 1
        entries.append(entry)

    result = {"schema": io.RESULTS_SCHEMA, "command": "analyze",
              "tool_version": __version__, "method": args.method,
              "traces": entries}
    io.atomic_write_text(args.out, io.format_json(result))
    if failures == len(entries):
        print("error: all traces failed analysis", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# scanfit

def _setup_from_meta(meta: dict) -> OpticalSetup:
    if "kappa_hz" not in meta:
        raise ConfigError("trace metadata lacks kappa_hz; scanfit needs the "
                          "optical setup embedded by simulate")
    e_tw = meta.get("e_tw0_v_per_m", 0.0) * np.exp(
        1j * meta.get("e_tw0_phase_rad", 0.0))
    e_cav = meta.get("e_cav0_v_per_m", 0.0) * np.exp(
        1j * meta.get("e_cav0_phase_rad", 0.0))
    return OpticalSetup(e_tw0=complex(e_tw), e_cav0=complex(e_cav),
                        kappa=TWO_PI * meta["kappa_hz"],
                        detuning=TWO_PI * (meta.get("detuning_hz") or 1.0),
                        wavelength=meta.get("wavelength_m", 1550e-9),
                        n_cav=meta.get("n_cav", 0.0))


def _fit_block(fit):
    if fit is None:
        return None
    block = {"converged": fit.converged}
    if fit.g_abs is not None:
        block["g_hz"] = fit.g_abs / TWO_PI
    if fit.omega_bare is not None:
        block["omega_bare_hz"] = fit.omega_bare / TWO_PI
    if fit.gamma_intrinsic is not None:
        block["gamma_intrinsic_hz"] = fit.gamma_intrinsic / TWO_PI
    if fit.gamma_total_heating is not None:
        block["gamma_total_heating_phonons_per_s"] = fit.gamma_total_heating
    if fit.n_phase is not None:
        block["n_phase"] = fit.n_phase
    if fit.covariance is not None:
        block["param_errors"] = fit.param_errors().tolist()
    return block


def cmd_scanfit(args) -> int:
    if not os.path.isdir(args.traces):
        raise ConfigError(f"{args.traces} is not a directory")
    paths = sorted(p for p in glob.glob(os.path.join(args.traces, "*.csv"))
                   if not p.endswith(".plotdata.csv"))
    if not paths:
        raise ConfigError(f"no trace files in {args.traces}")
    shot = dark = None
    traces = []
    for path in paths:
        trace = _read_trace(path)
        if trace.meta.get("channel") == CAL_CHANNEL:
            if trace.meta.get("kind") == "shot":
                shot = trace
            elif trace.meta.get("kind") == "dark":
                dark = trace
            continue
        traces.append(trace)
    if not traces:
        raise ConfigError(f"no scan traces in {args.traces}")
    resp = calibrate_response(shot, dark) if shot and dark else None
    if resp is None:
        _warn("no calibration traces found; assuming a flat detector response")
    setup = _setup_from_meta(traces[0].meta)

    report = analyze_scan(traces, setup, resp=resp)
    modes_out = []
    for mode in report.modes:
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
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        try:
            values = [float(p) for p in parts]
            is_header = False
        except ValueError:
            if not rows:
                is_header = True  # tolerate a single column-name header
                continue
            raise ConfigError(
                f"{args.input}: malformed CSV row at line {lineno}") from None
        if not is_header:
            rows.append((lineno, values))
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
        except (ValueError, LibrotorError) as exc:
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
