"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import os

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from librotor import io, physics
from librotor.errors import LibrotorError
from librotor.cli import main as cli_main
from librotor.fitting import fit_lorentzian, window_bins
from librotor.geometry import DampingMeasurement, classify
from librotor.noise import NoiseProfile
from librotor.physics import (LibrationMode, OpticalSetup,
                              minimum_occupation, mode_temperature,
                              sideband_rates, steady_state_occupation)
from librotor.presets import cluster_1d
from librotor.spectrum import (PsdTrace, SidebandSpec, default_grid,
                               scan_series, synthesize_psd)
from librotor.thermometry import METHOD_RATIO, analyze_scan, extract_occupation

TWO_PI = 2.0 * math.pi
HET = 4.99814e6


def fit_window(trace, window):
    """Unweighted fit_lorentzian on the bins of trace inside window (Hz)."""
    bins = window_bins(trace.freq_hz, window)
    return fit_lorentzian(trace.freq_hz[bins], trace.values[bins], None)


def record(num, desc, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_occupation_floor_forms():
    kap, om = TWO_PI * 32.4e3, TWO_PI * 1e6
    quoted = minimum_occupation(kap, om, "paper")
    limit = minimum_occupation(kap, om, "rate_ratio")
    ok = (quoted == pytest.approx(2.6244e-4, rel=1e-6)
          and abs(quoted - 2.5e-4) / 2.5e-4 < 0.10
          and limit == pytest.approx(6.561e-5, rel=1e-6))
    # the rate-ratio form must equal the actual rate-equation limit
    mode = LibrationMode(label="alpha", omega=om, g=complex(TWO_PI * 1e3),
                         zpf=1e-5)
    optics = OpticalSetup(e_tw0=1e8 + 0j, e_cav0=1e6 + 0j, kappa=kap,
                          detuning=om, wavelength=1550e-9)
    a_minus, a_plus = sideband_rates(mode, optics)
    ok = ok and a_plus / (a_minus - a_plus) == pytest.approx(limit, rel=1e-10)
    record(1, "occupation floor 2.62e-4 (quoted form) vs 6.56e-5 "
              "(rate-ratio limit), both reproduced", ok)


def test_criterion_02_temperature_inversion():
    t = mode_temperature(TWO_PI * 1030e3, 0.21)
    ok = t == pytest.approx(28.2e-6, abs=0.1e-6) and abs(t - 28e-6) < 2e-6
    record(2, f"n = 0.21 at 1030 kHz -> T = {t * 1e6:.2f} uK (28 +/- 2 uK)", ok)


def test_criterion_03_ground_state_probability():
    p = 1.0 / (0.21 + 1.0)
    ok = p == pytest.approx(0.826, abs=5e-4) and abs(p - 0.83) < 0.02
    record(3, f"n = 0.21 -> ground-state probability {p:.3f} (83 +/- 2 %)", ok)


def test_criterion_04_angular_width_chain():
    zpf = math.sqrt(hbar / (2.0 * 3.3e-32 * TWO_PI * 1030e3))
    sigma = zpf * math.sqrt(2.0 * 0.21 + 1.0)
    ok = 16.5e-6 <= sigma <= 19.5e-6
    record(4, f"zpf chain -> sigma = {sigma * 1e6:.2f} urad in [16.5, 19.5]",
           ok)


def test_criterion_05_revival_times():
    t_rev = 2.0 * math.pi * 5.0e-32 / hbar
    ok = abs(t_rev - 50 * 60) / (50 * 60) < 0.05
    # small dumbbell: two 20 nm silica spheres (rho = 2200 kg/m^3)
    m_sphere = 2200.0 * math.pi * (20e-9) ** 3 / 6.0
    inertia = (14.0 / 5.0) * m_sphere * (10e-9) ** 2
    t_small = 2.0 * math.pi * inertia / hbar
    ratio = 0.3 / t_small
    ok = ok and 0.5 < ratio < 2.0
    record(5, f"revival times: {t_rev:.0f} s (~50 min) and "
              f"{t_small * 1e3:.0f} ms (~300 ms within factor 2)", ok)


def test_criterion_06_angular_momentum():
    j = math.sqrt(k_B * 73e-6 * 7.6e-32) / hbar
    ratio = j / 6e4
    ok = 0.5 < ratio < 2.0
    record(6, f"j = {j:.3g} within a factor 2 of 6e4", ok)


def test_criterion_07_identity_suite():
    # (a) linewidth excess equals the rate difference, 1e4 random draws
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10_000):
        omega = TWO_PI * 10 ** rng.uniform(5, 6.5)
        mode = LibrationMode(label="alpha", omega=omega,
                             g=complex(TWO_PI * 10 ** rng.uniform(2, 4.5)),
                             zpf=1e-5,
                             gamma_intrinsic=10 ** rng.uniform(-1, 3))
        optics = OpticalSetup(e_tw0=1e8 + 0j, e_cav0=1e6 + 0j,
                              kappa=TWO_PI * 10 ** rng.uniform(3.5, 5.5),
                              detuning=TWO_PI * 10 ** rng.uniform(5, 6.5),
                              wavelength=1550e-9)
        a_minus, a_plus = sideband_rates(mode, optics)
        excess = physics.effective_linewidth(mode, optics, mode.omega) \
            - mode.gamma_intrinsic
        if not math.isclose(excess, a_minus - a_plus, rel_tol=1e-10,
                            abs_tol=1e-12):
            ok = False
            break
    # (b) fitted Stokes - anti-Stokes area difference constant over a
    # noise-free detuning series to 0.1%
    sc = cluster_1d()
    grid = default_grid(HET, sc.mode_alpha.omega, 32768)
    points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                         math.inf, HET, [1000e3, 1020e3, 1042e3, 1060e3,
                                         1080e3],
                         area_scale_c=sc.area_scale_c, channel="cavity_y")
    diffs = []
    for point in points:
        f_mode = point.truth["alpha"]["center"] / TWO_PI
        stokes = fit_window(point.trace,
                            (HET + f_mode - 50e3, HET + f_mode + 50e3))
        anti = fit_window(point.trace,
                          (HET - f_mode - 50e3, HET - f_mode + 50e3))
        diffs.append(stokes.area - anti.area)
    spread = np.ptp(diffs) / np.mean(diffs)
    ok = ok and spread < 1e-3
    record(7, "linewidth/rate identity to 1e-10 over 1e4 draws; area "
              f"difference constant to {spread:.2e} over the scan", ok)


def test_criterion_08_round_trip_thermometry():
    """200 seeded trials per occupation: containment within 3 sigma in
    >= 95% of trials; 1-sigma coverage 68 +/- 4 % over the strictly
    positive occupations (the n = 0 clamp inflates coverage by design)."""
    noise = NoiseProfile(shot_level=1.0, dark_level=0.05,
                         phase_noise_base=1e-12,
                         cavity_noise_center=TWO_PI, cavity_noise_width=1.0)
    mode = LibrationMode(label="alpha", omega=TWO_PI * 1e6,
                         g=complex(TWO_PI * 8e3), zpf=1.5e-5)
    grid = default_grid(HET, mode.omega, 8192)
    trials = 200
    ok = True
    coverage_hits = coverage_total = 0
    summary = []
    for n_true in (0.0, 0.1, 0.21, 0.73, 1.02, 5.0, 20.0):
        spec = SidebandSpec(mode=mode, n_true=n_true, area_scale_c=1e5,
                            linewidth=TWO_PI * 5e3)
        within3 = 0
        for trial in range(trials):
            trace = synthesize_psd([spec], noise, None, grid, 100, HET,
                                   seed=100_000 + trial)
            try:
                occ = extract_occupation(trace, None, 1e6,
                                         method=METHOD_RATIO)
            except LibrotorError:
                # estimator rejected the trace: counts as a failed trial
                if n_true > 0:
                    coverage_total += 1
                continue
            pull = abs(occ.n - n_true) / occ.n_err
            within3 += pull <= 3.0
            if n_true > 0:
                coverage_total += 1
                coverage_hits += pull <= 1.0
        frac = within3 / trials
        summary.append(f"n={n_true:g}: {100 * frac:.1f}%")
        ok = ok and frac >= 0.95
    coverage = coverage_hits / coverage_total
    ok = ok and abs(coverage - 0.68) <= 0.04
    record(8, "3-sigma containment [" + ", ".join(summary)
           + f"]; 1-sigma coverage {100 * coverage:.1f}%", ok)


def test_criterion_09_scan_fit_recovery():
    sc = cluster_1d()
    grid = default_grid(HET, sc.mode_alpha.omega, 16384)
    dets_hz = np.linspace(990e3, 1080e3, 12)
    points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                         500, HET, dets_hz, area_scale_c=sc.area_scale_c,
                         seed=77, channel="cavity_y")
    report = analyze_scan([p.trace for p in points], sc.optics,
                          method=METHOD_RATIO)
    mode = report[0]
    g_true = abs(sc.mode_alpha.g)
    g_err = abs(mode.linewidth_fit.g_abs - g_true) / g_true
    gamma_err = abs(mode.occupation_fit.gamma_total_heating - 6.8e3) / 6.8e3

    # locate the occupation minima of truth and fitted model on a fine grid
    from dataclasses import replace
    fine = np.linspace(950e3, 1150e3, 4001)
    n_true_curve = []
    for det_hz in fine:
        optics_i = replace(sc.optics, detuning=TWO_PI * det_hz)
        n_true_curve.append(steady_state_occupation(
            sc.mode_alpha, optics_i).n_total)
    det_opt = fine[int(np.argmin(n_true_curve))]

    g_fit = mode.linewidth_fit.g_abs
    gamma_fit = mode.occupation_fit.gamma_total_heating
    n_phi_fit = mode.occupation_fit.n_phase
    omega_fit = mode.frequency_fit.omega_bare
    kap = sc.optics.kappa
    half2 = (kap / 2.0) ** 2
    det = TWO_PI * fine
    am = g_fit ** 2 * kap / (half2 + (det - omega_fit) ** 2)
    ap = g_fit ** 2 * kap / (half2 + (det + omega_fit) ** 2)
    n_fit_curve = (gamma_fit + ap) / (am - ap) + n_phi_fit
    det_fit = fine[int(np.argmin(n_fit_curve))]

    loc_err_hz = abs(det_fit - det_opt)
    ok = g_err < 0.03 and gamma_err < 0.15 and loc_err_hz < 32.4e3 / 2.0
    record(9, f"scan recovery: |g| off {100 * g_err:.2f}% (<3%), heating off "
              f"{100 * gamma_err:.1f}% (<15%), minimum located within "
              f"{loc_err_hz / 1e3:.1f} kHz (< kappa/2 = 16.2 kHz) of "
              f"{det_opt / 1e3:.0f} kHz", ok)


def test_criterion_10_classifier_golden_set():
    labels = []
    for ratio in (1.00, 1.267, 1.378):
        labels.append(classify(DampingMeasurement(
            gamma_x=100.0, gamma_y=100.0 * ratio, sigma_x=0.07,
            sigma_y=0.07)).label)
    ambiguous = classify(DampingMeasurement(
        gamma_x=100.0, gamma_y=132.0, sigma_x=100.0 * 0.05 / 1.32 / math.sqrt(2),
        sigma_y=132.0 * 0.05 / 1.32 / math.sqrt(2)))
    ok = (labels == ["sphere", "dumbbell", "trimer"]
          and ambiguous.label == "unclassified"
          and len(ambiguous.candidates) >= 2)
    record(10, f"ratios (1.00, 1.267, 1.378) -> {tuple(labels)}; "
               "1.32 +/- 0.05 -> unclassified", ok)


def test_criterion_11_simulate_determinism(tmp_path):
    sc = cluster_1d()
    cfg = io.config_from_scenario(sc, [1000e3, 1042e3, 1080e3],
                                  channels=("cavity_y",), averages=200,
                                  seed=5, n_bins=4096)
    cfg_path = str(tmp_path / "config.json")
    io.atomic_write_text(cfg_path, io.format_json(cfg))
    outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for out in outs:
        assert cli_main(["simulate", "--config", cfg_path, "--out", out]) == 0
    ok = True
    names = sorted(os.listdir(outs[0]))
    ok = ok and names == sorted(os.listdir(outs[1]))
    compared = 0
    for name in names:
        if name == "run_record.json":  # carries a wall-clock timestamp
            continue
        with open(os.path.join(outs[0], name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b2 = fh.read()
        ok = ok and b1 == b2
        compared += 1
    ok = ok and compared >= 8
    record(11, f"repeated simulate: {compared} files byte-identical", ok)
