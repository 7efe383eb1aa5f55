"""Command-line interface: simulate / analyze / scanfit / classify.

Exit codes: 0 success, 2 input or config error, 3 analysis failure.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import traceback
from contextlib import suppress
from functools import partial

import numpy as np

from . import __version__, io
from .errors import CalibrationError, ConfigError, LibrotorError
from .fitting import window_bins
from .geometry import DampingMeasurement, classify
from .physics import TWO_PI
from .spectrum import (CAL_CHANNEL, CAL_KINDS, PsdTrace, calibration_trace,
                       default_grid, lorentzian, scan_series)
from .thermometry import (METHOD_DIFFCAL, METHOD_RATIO, OccupationResult,
                          calibrate_response, channel_hints,
                          channel_occupations, gain_corrected, scan_reports,
                          sideband_pair, trace_hint)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _warn_inconsistent_c(channel, c_cal) -> None:
    if c_cal and not c_cal.consistent:
        _warn(f"sideband area differences on channel {channel} are "
              f"mutually inconsistent; C calibration may be biased")


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in a forked child: the
    cause of that exception as the parent raises it, as concurrent.futures
    shows a worker's traceback."""


def _attempts(fn, items):
    """(True, fn(item)), or (False, (the exception it raised, its traceback
    text)), per item."""
    out = []
    for item in items:
        try:
            out.append((True, fn(item)))
        except Exception as exc:  # raised in item order by _forked_map
            out.append((False, (exc, traceback.format_exc())))
    return out


def _send_attempts(fn, items, conn):
    conn.send(_attempts(fn, items))


def _child(fn, then, items, conn, parent_ends):
    for end in parent_ends:  # inherited: closed, so EOF reaches this child
        end.close()
    _send_attempts(fn, items, conn)
    with suppress(EOFError):  # the parent closed its end: no plan comes
        planned = conn.recv()
        _send_attempts(lambda item: then(item, planned), items, conn)


def _forked_map(fn, items, plan=None, then=None):
    """[fn(item) for item in items], shared among k processes, this one and
    a forked child per further CPU in its affinity mask (1 without one):
    this one takes items[0::k] and child j items[j::k].  The children
    inherit the functions and the items through fork, so only results and
    the plan are pickled.  Each process has its own interpreter lock, so
    CPU-bound work runs k at a time.  With a plan, planned = plan(those
    results) is sent to the children, and [then(item, planned) for item in
    items] follows, each item in the process that ran fn on it.  After each
    round the first exception in item order is raised, as the serial loop
    would (one from a child with its traceback text as a _ChildTraceback
    cause).  A child ends when this process closes its pipe; one that fails
    to start or dies mid-message has both rounds of its share done here."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(cpus, len(items)))
    shares = [items[j::k] for j in range(k)]
    pipes, children, ran = {}, [], set()  # ran: shares that fn ran on here

    def gather(round_fn):
        attempts = [None] * len(items)
        for j in range(k):
            try:
                if j in pipes:
                    attempts[j::k] = pipes[j].recv()
                    continue
            except (EOFError, OSError):  # the child died before or while sending
                pipes.pop(j).close()
            if round_fn is not fn and j not in ran:  # died after round one
                _attempts(fn, shares[j])
            ran.add(j)
            attempts[j::k] = _attempts(round_fn, shares[j])
        for ok, value in attempts:
            if not ok:
                exc, text = value
                if exc.__traceback__ is None:  # unpickled from a child
                    raise exc from _ChildTraceback(text)
                raise exc
        return [value for _, value in attempts]

    try:
        for j in range(1, k):
            import multiprocessing  # here: `import librotor.cli` leaves it out
            ctx = multiprocessing.get_context("fork")
            pipes[j], end = ctx.Pipe()
            child = ctx.Process(target=_child, args=(
                fn, then, shares[j], end, list(pipes.values())))
            with suppress(OSError):  # no fork (EAGAIN, ENOMEM): gather finds EOF
                child.start()
                children.append(child)
            end.close()
        results = gather(fn)
        if plan is None:
            return results
        planned = plan(results)
        for pipe in pipes.values():
            with suppress(OSError):  # a dead child is found out by gather
                pipe.send(planned)
        return gather(lambda item: then(item, planned))
    finally:
        for pipe in pipes.values():
            pipe.close()
        for child in children:
            child.join()


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    cfg = io.RunConfig.load(args.config)
    synth = cfg.synthesis
    with np.errstate(invalid="ignore"):  # an infinite span: refused below
        grid = default_grid(synth["het_freq_hz"], max(m.omega for m in cfg.modes),
                            n_bins=synth["n_bins"],
                            span_factor=synth["span_factor"])
    if not (grid[0] > 0 and np.all(grid[1:] > grid[:-1])):
        raise ConfigError(f"{args.config}: synthesis.span_factor {synth['span_factor']:g}: "
                          f"grid from {grid[0]:g} Hz; bins must be distinct and above 0")
    # the optical setup rides in every sidecar, so scanfit can invert
    # couplings without the config
    extra_meta = io.optics_fields(cfg.optics)

    def point(channel, i, det_hz):
        """Detuning i of the channel's scan, synthesized at seed + i as
        scan_series seeds it, and written: its summary and its files."""
        (pt,) = scan_series(cfg.modes, cfg.optics, cfg.noise, None, grid,
                            synth["averages"], synth["het_freq_hz"], [det_hz],
                            area_scale_c=synth["area_scale_c"], seed=synth["seed"] + i,
                            sideband_orientation=synth["sideband_orientation"],
                            channel=channel)
        summary = {"detuning_hz": det_hz, "channel": channel,
                   "valid": pt.trace is not None}
        if pt.trace is None:
            return {**summary, "error": pt.error}, []
        return {**summary, "truth": pt.truth}, io.write_psd_csv(
            os.path.join(args.out, f"trace_{i:03d}_{channel}.csv"),
            PsdTrace(pt.trace.freq_hz, pt.trace.values, {**pt.trace.meta, **extra_meta}))

    def calibration(kind):
        trace = calibration_trace(kind, cfg.noise, grid, synth["averages"],
                                  synth["het_freq_hz"], synth["seed"])
        return None, io.write_psd_csv(os.path.join(args.out, f"{kind}.csv"), trace)

    # each point and calibration spectrum is drawn in the process that writes it
    jobs = [partial(point, channel, i, det_hz) for channel in synth["channels"]
            for i, det_hz in enumerate(synth["detunings_hz"])]
    jobs += [partial(calibration, kind) for kind in CAL_KINDS]
    done = _forked_map(lambda job: job(), jobs)
    summary = [entry for entry, _ in done if entry]
    for entry in summary:
        if not entry["valid"]:
            _warn(f"detuning {entry['detuning_hz']:g} Hz on channel "
                  f"{entry['channel']} is invalid: {entry['error']}")
    io.write_run_record(os.path.join(args.out, "run_record.json"), cfg.data,
                        [output for _, files in done for output in files],
                        {"points": summary})
    return 0


# ---------------------------------------------------------------------------
# analyze

def _fit_traces(paths, pattern, cal_paths=(), plot=False):
    """(path, metadata, sideband pair, plot data or None) of each scan trace
    among paths but analyze's plot data, in path order.  _forked_map reads
    the files, cal_paths (shot, dark) first; a calibration trace is sent
    here whole, a scan trace as its metadata and trace_hint, kept where it
    was read.  The plan sends the detector response (from the shot and dark
    traces at cal_paths, or else among the paths, flat without both) and each
    scan trace's channel_hints hint by file index, to fit and plot there."""
    paths = sorted(p for p in paths if not p.endswith(".plotdata.csv"))
    if not paths:
        raise ConfigError(f"no trace files match {pattern!r}")
    files = [*cal_paths, *paths]
    held, scan = {}, []  # scan traces by index where read; (i, path, meta, hint)

    def read(i):
        trace = io.read_psd_csv(files[i])
        if i < len(cal_paths) or trace.meta.get("channel") == CAL_CHANNEL:
            return trace
        held[i] = trace
        return trace.meta, trace_hint(trace)

    def plan(replies):
        cal = {}  # (path, trace) by kind: --shot and --dark come first, so win
        for i, (path, reply) in enumerate(zip(files, replies)):
            if isinstance(reply, PsdTrace):
                kind = CAL_KINDS[i] if i < len(cal_paths) else reply.meta.get("kind")
                cal.setdefault(kind, (path, reply))
            elif "het_freq_hz" not in reply[0]:
                raise ConfigError(f"{path}: trace metadata lacks het_freq_hz; missing "
                                  f"or incomplete sidecar {io.sidecar_path(path)}")
            else:
                scan.append((i, path, *reply))
        if not scan:
            raise ConfigError(f"no scan traces match {pattern!r}")
        index, _, metas, own = zip(*scan)
        hints = dict(zip(index, channel_hints(metas, own)))
        if "shot" in cal and "dark" in cal:
            (shot_path, shot), (dark_path, dark) = cal["shot"], cal["dark"]
            try:
                return calibrate_response(shot, dark), hints
            except CalibrationError as exc:
                raise ConfigError(f"{shot_path} and {dark_path}: {exc}") from None
        _warn("no shot and dark calibration traces; assuming a flat detector response")
        return None, hints

    def fit(i, planned):
        if i not in held:  # a calibration trace
            return None
        trace, (resp, hints) = held[i], planned
        pair = sideband_pair(trace, resp, hints[i])
        return pair, (_plot_rows(trace, resp, pair)
                      if plot and isinstance(pair, tuple) else None)

    fitted = _forked_map(read, range(len(files)), plan, fit)
    return [(path, meta, *fitted[i]) for i, path, meta, _ in scan]


def _plot_rows(trace, resp, pair):
    """CSV text of a fitted sideband pair's data, fit and residual."""
    f_cols, d_cols, m_cols = [], [], []
    for fit in pair:
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
    return "freq_hz,data,fit,residual\n" + io.format_csv_rows(
        f[order], d[order], m[order], r[order])


def cmd_analyze(args) -> int:
    if bool(args.shot) != bool(args.dark):
        given, missing = ("--shot", "--dark") if args.shot else ("--dark", "--shot")
        raise ConfigError(f"{given} needs {missing}: pass both calibration "
                          f"traces or neither")
    paths, metas, pairs, plots = zip(*_fit_traces(
        glob.glob(args.traces), args.traces,
        (args.shot, args.dark) if args.shot else (), plot=True))
    out_dir = os.path.dirname(os.path.abspath(args.out))

    method = METHOD_DIFFCAL if args.method == "diffcal" else METHOD_RATIO
    entries = [None] * len(paths)
    for channel, (idx, results, c_cal) in channel_occupations(
            metas, pairs, method).items():
        if method == METHOD_DIFFCAL:
            _warn_inconsistent_c(channel, c_cal)
        for i, occ in zip(idx, results):
            entries[i] = entry = {"file": os.path.basename(paths[i]),
                                  "detuning_hz": metas[i].get("detuning_hz"),
                                  "channel": metas[i].get("channel")}
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
                stem = os.path.splitext(os.path.basename(paths[i]))[0]
                io.atomic_write_text(
                    os.path.join(out_dir, f"{stem}.plotdata.csv"), plots[i])
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
    # the directory is taken as it is named, not as a glob pattern
    paths, metas, pairs, _ = zip(*_fit_traces(
        glob.glob(os.path.join(glob.escape(args.traces), "*.csv")),
        os.path.join(args.traces, "*.csv")))
    try:
        setup = io.optics_from_fields(metas[0])
    except ConfigError as exc:
        raise ConfigError(f"{io.sidecar_path(paths[0])}: {exc}") from None

    modes_out = []
    for mode in scan_reports(metas, pairs, setup):
        _warn_inconsistent_c(mode.channel, mode.c_cal)
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
    except LibrotorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
