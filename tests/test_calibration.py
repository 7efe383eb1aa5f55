"""Calibration of the scan pass: a preset scan run in memory through the
public API must give what the command line gives for it.  `preset_round_trip`
is the in-memory pass; the test checks it against `simulate` and `scanfit`
on files."""

import math
import os

import numpy as np

from librotor import io
from librotor.cli import main
from librotor.presets import dumbbell_2d
from librotor.spectrum import (CAL_KINDS, calibration_trace, default_grid,
                               scan_series)
from librotor.thermometry import (METHOD_DIFFCAL, analyze_scan,
                                  calibrate_response)

TWO_PI = 2.0 * math.pi

# scanfit's scan-fit block: JSON key -> (ScanFitResult field, divisor)
FIT_FIELDS = {"g_hz": ("g_abs", TWO_PI), "omega_bare_hz": ("omega_bare", TWO_PI),
              "gamma_intrinsic_hz": ("gamma_intrinsic", TWO_PI),
              "gamma_total_heating_phonons_per_s": ("gamma_total_heating", 1.0),
              "n_phase": ("n_phase", 1.0)}


def preset_round_trip(scenario, detunings_hz, channels, seed, n_bins, averages):
    """(config, scan traces, reports) of a preset scan with shot and dark
    calibration, run in memory as `simulate` then `scanfit` run it on files:
    the RunConfig, each trace by the stem of the file `simulate` writes it
    to, and `analyze_scan`'s difference-calibrated report of each channel."""
    cfg = io.RunConfig.from_dict(io.config_from_scenario(
        scenario, detunings_hz, channels=channels, averages=averages,
        seed=seed, n_bins=n_bins))
    synth = cfg.synthesis
    het = synth["het_freq_hz"]
    grid = default_grid(het, max(m.omega for m in cfg.modes),
                        n_bins=synth["n_bins"], span_factor=synth["span_factor"])
    traces = {}
    for channel in synth["channels"]:
        points = scan_series(cfg.modes, cfg.optics, cfg.noise, None, grid,
                             synth["averages"], het, synth["detunings_hz"],
                             area_scale_c=synth["area_scale_c"], seed=seed,
                             sideband_orientation=synth["sideband_orientation"],
                             channel=channel)
        traces.update((f"trace_{i:03d}_{channel}", point.trace)
                      for i, point in enumerate(points))
    shot, dark = (calibration_trace(kind, cfg.noise, grid, synth["averages"],
                                    het, seed) for kind in CAL_KINDS)
    # scanfit's optical setup: the sidecar fields of its first trace
    setup = io.optics_from_fields({**io.optics_fields(cfg.optics),
                                   "detuning_hz": synth["detunings_hz"][0]})
    reports = analyze_scan([traces[stem] for stem in sorted(traces)], setup,
                           calibrate_response(shot, dark), METHOD_DIFFCAL)
    return cfg, traces, reports


def fit_block(fit):
    """A scan fit as scanfit.json holds it."""
    if fit is None:
        return None
    block = {"converged": fit.converged}
    block.update((key, getattr(fit, field) / unit)
                 for key, (field, unit) in FIT_FIELDS.items()
                 if getattr(fit, field) is not None)
    if fit.covariance is not None:
        block["param_errors"] = fit.param_errors().tolist()
    return block


def test_in_memory_round_trip_is_the_command_line(tmp_path):
    """A small dumbbell_2d scan on both cavity channels and the two-mode
    backscatter channel: each in-memory trace is what io.read_psd_csv reads
    from simulate's file, and each report is scanfit.json's entry for its
    channel, bit for bit."""
    cfg, traces, reports = preset_round_trip(
        dumbbell_2d(), [940e3, 960e3, 980e3, 1000e3, 1020e3],
        ("cavity_y", "cavity_z", "backscatter_y"), seed=5, n_bins=4096,
        averages=500)
    path, out = str(tmp_path / "config.json"), str(tmp_path / "run")
    io.atomic_write_text(path, io.format_json(cfg.data))
    assert main(["simulate", "--config", path, "--out", out]) == 0
    assert main(["scanfit", "--traces", out,
                 "--out", str(tmp_path / "scanfit.json")]) == 0

    assert sorted(f"{stem}.csv" for stem in traces) == sorted(
        name for name in os.listdir(out)
        if name.startswith("trace_") and name.endswith(".csv"))
    for stem, trace in traces.items():
        read = io.read_psd_csv(os.path.join(out, f"{stem}.csv"))
        assert np.array_equal(read.freq_hz, trace.freq_hz)
        assert np.array_equal(read.values, trace.values)
        assert read.meta == {**trace.meta, **io.optics_fields(cfg.optics)}

    written = io.read_json(str(tmp_path / "scanfit.json"))["modes"]
    assert [m["channel"] for m in written] == [r.channel for r in reports]
    for entry, report in zip(written, reports):
        if report.channel.startswith("cavity_"):  # so that every number is there
            assert report.error is None and report.derived is not None
        c_cal, derived = report.c_cal, report.derived
        assert entry == {
            "mode": report.label, "channel": report.channel,
            "n_traces": len(report.traces),
            "c_factor": c_cal.c if c_cal else None,
            "c_factor_err": c_cal.c_err if c_cal else None,
            "frequency_fit": fit_block(report.frequency_fit),
            "linewidth_fit": fit_block(report.linewidth_fit),
            "occupation_fit": fit_block(report.occupation_fit),
            "n_best": report.n_best, "n_best_err": report.n_best_err,
            "best_detuning_hz": report.best_detuning_hz,
            "inertia_kg_m2": report.inertia, "error": report.error,
            "derived": None if derived is None else {
                "sigma_rad": derived.sigma,
                "temperature_k": derived.temperature,
                "revival_time_s": derived.t_rev,
                "angular_momentum_hbar": derived.j_mean},
            "occupations": [
                {"detuning_hz": t.detuning_hz,
                 "n": t.occupation.n if t.occupation else None,
                 "n_err": t.occupation.n_err if t.occupation else None,
                 "error": t.error}
                for t in report.traces]}, report.channel
