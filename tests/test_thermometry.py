import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from librotor import thermometry
from librotor.errors import (CalibrationError, LibrotorError,
                             UnderdeterminedScanError,
                             UnphysicalAsymmetryError)
from librotor.noise import DetectorResponse, NoiseProfile, detector_gain
from librotor.physics import LibrationMode
from librotor.presets import cluster_1d
from librotor.spectrum import (ORIENT_LO_BLUE, ORIENT_LO_RED, PsdTrace,
                               SidebandSpec, default_grid, lorentzian,
                               mean_psd, scan_series, sideband_frequencies,
                               synthesize_psd)
from librotor.thermometry import (METHOD_DIFFCAL, METHOD_RATIO,
                                  WINDOW_HALFWIDTH_HZ,
                                  _occupation_from_areas, analyze_scan,
                                  calibrate_c, calibrate_response,
                                  extract_occupation, fit_sideband_pair)

TWO_PI = 2.0 * math.pi
HET = 4.99814e6

QUIET = NoiseProfile(shot_level=1.0, dark_level=0.05, phase_noise_base=1e-12,
                     cavity_noise_center=TWO_PI * 1.0, cavity_noise_width=1.0)


def make_mode(omega=TWO_PI * 1e6, g=TWO_PI * 8e3):
    return LibrationMode(label="alpha", omega=omega, g=complex(g), zpf=1.5e-5)


def make_trace(n_true, averages=math.inf, seed=0, c=1e5,
               linewidth=TWO_PI * 5e3, n_bins=8192, resp=None,
               noise=QUIET, orientation=ORIENT_LO_BLUE):
    spec = SidebandSpec(mode=make_mode(), n_true=n_true, area_scale_c=c,
                        linewidth=linewidth)
    grid = default_grid(HET, spec.mode.omega, n_bins)
    return synthesize_psd([spec], noise, resp, grid, averages, HET, seed=seed,
                          sideband_orientation=orientation,
                          detuning_hz=1.042e6)


class TestCalibrateResponse:
    def test_recovers_tilted_gain(self):
        """Shot/dark traces with a known gain tilt: recovered response is
        within 2% RMS of the truth (1000-average statistics)."""
        grid = np.linspace(3.5e6, 6.5e6, 4096)
        tilt = 1.0 + 0.3 * (grid - grid[0]) / (grid[-1] - grid[0])
        rng = np.random.default_rng(17)
        averages = 1000
        dark_mean = 0.05
        shot_mean = dark_mean + tilt * 1.0
        shot = PsdTrace(grid, shot_mean * rng.gamma(averages, 1 / averages,
                                                    grid.size), {})
        dark = PsdTrace(grid, dark_mean * rng.gamma(averages, 1 / averages,
                                                    grid.size), {})
        resp = calibrate_response(shot, dark)
        got = detector_gain(resp, TWO_PI * grid)
        expect = tilt / np.median(tilt)
        assert np.sqrt(np.mean((got / expect - 1.0) ** 2)) < 0.02

    def test_mismatched_grids(self):
        g1 = np.linspace(1e6, 2e6, 64)
        g2 = np.linspace(1e6, 2.1e6, 64)
        with pytest.raises(CalibrationError):
            calibrate_response(PsdTrace(g1, np.ones(64), {}),
                               PsdTrace(g2, np.ones(64), {}))

    def test_grids_ten_hz_apart(self):
        """A dark grid 10 Hz off the shot grid is rejected, though the two
        agree to np.allclose's default tolerance."""
        grid = np.linspace(4e6, 6e6, 64)
        assert np.allclose(grid, grid + 10.0)
        with pytest.raises(CalibrationError, match="frequency grid"):
            calibrate_response(PsdTrace(grid, 2.0 * np.ones(64), {}),
                               PsdTrace(grid + 10.0, np.ones(64), {}))

    def test_shot_below_dark(self):
        grid = np.linspace(1e6, 2e6, 64)
        with pytest.raises(CalibrationError, match="shot <= dark"):
            calibrate_response(PsdTrace(grid, np.ones(64), {}),
                               PsdTrace(grid, 2.0 * np.ones(64), {}))


class TestOccupationAlgebra:
    def test_ratio_exact(self):
        c, n = 2.0, 0.21
        got, err, diff = _occupation_from_areas(c * (n + 1), 0.01, c * n, 0.01,
                                                METHOD_RATIO, 0.0, 0.0)
        assert got == pytest.approx(n, rel=1e-12)
        assert diff == pytest.approx(c, rel=1e-12)

    def test_diffcal_exact(self):
        # A_S = 2.4, A_aS = 0.4, C = 2  =>  n = (2.4 + 0.4 - 2) / 4 = 0.2
        got, err, c_used = _occupation_from_areas(2.4, 0.0, 0.4, 0.0,
                                                  METHOD_DIFFCAL, 2.0, 0.0)
        assert got == pytest.approx(0.2, rel=1e-12)
        assert c_used == 2.0

    def test_ratio_clamps_small_negative(self):
        got, err, _ = _occupation_from_areas(2.0, 0.01, -0.01, 0.02,
                                             METHOD_RATIO, 0.0, 0.0)
        assert got == 0.0 and err > 0.0

    def test_ratio_rejects_large_negative(self):
        with pytest.raises(UnphysicalAsymmetryError):
            _occupation_from_areas(2.0, 0.01, -0.5, 0.02, METHOD_RATIO,
                                   0.0, 0.0)

    def test_ratio_rejects_inverted(self):
        with pytest.raises(UnphysicalAsymmetryError):
            _occupation_from_areas(1.0, 0.01, 1.5, 0.01, METHOD_RATIO,
                                   0.0, 0.0)

    def test_diffcal_clamps_and_rejects(self):
        got, _, _ = _occupation_from_areas(0.9, 0.2, 0.9, 0.2,
                                           METHOD_DIFFCAL, 2.0, 0.0)
        assert got == 0.0
        with pytest.raises(UnphysicalAsymmetryError):
            _occupation_from_areas(0.1, 0.001, 0.1, 0.001, METHOD_DIFFCAL,
                                   2.0, 0.0)


class TestExtractOccupation:
    def test_noise_free_round_trip(self):
        """Either LO orientation: the Stokes line sits above the carrier
        with the LO blue of the tweezer and below it with the LO red."""
        for orientation in (ORIENT_LO_BLUE, ORIENT_LO_RED):
            trace = make_trace(0.37, orientation=orientation)
            occ = extract_occupation(trace, None, 1e6)
            assert occ.n == pytest.approx(0.37, rel=1e-6)
            assert occ.c_factor == pytest.approx(1e5, rel=1e-6)
            above = occ.stokes_fit.center > HET
            assert above == (orientation == ORIENT_LO_BLUE)

    def test_ground_state_probability(self):
        trace = make_trace(0.21)
        occ = extract_occupation(trace, None, 1e6)
        assert occ.ground_state_prob == pytest.approx(1.0 / 1.21, rel=1e-5)

    def test_monotone_in_true_occupation(self):
        ns = [extract_occupation(make_trace(n), None, 1e6).n
              for n in (0.0, 0.1, 0.5, 1.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(ns, ns[1:]))
        assert ns[0] == pytest.approx(0.0, abs=1e-6)

    def test_rescaling_invariance(self):
        """Multiplying the whole trace by a constant scales areas but not n."""
        trace = make_trace(0.73, averages=200, seed=5)
        scaled = PsdTrace(trace.freq_hz, 11.0 * trace.values, dict(trace.meta))
        o1 = extract_occupation(trace, None, 1e6)
        o2 = extract_occupation(scaled, None, 1e6)
        assert o2.n == pytest.approx(o1.n, rel=1e-9)
        assert o2.areas[0][0] == pytest.approx(11.0 * o1.areas[0][0], rel=1e-9)

    def test_methods_agree_on_noisy_trace(self):
        trace = make_trace(0.73, averages=200, seed=3)
        ratio = extract_occupation(trace, None, 1e6, method=METHOD_RATIO)
        diff = extract_occupation(trace, None, 1e6, c_override=1e5,
                                  method=METHOD_DIFFCAL)
        sigma = math.hypot(ratio.n_err, diff.n_err)
        assert abs(ratio.n - diff.n) < 3.0 * sigma

    def test_vanishing_anti_stokes_is_pinned(self):
        """With no anti-Stokes peak the free fit is replaced by one with the
        mirrored Stokes shape, and the fit says so."""
        trace = make_trace(0.0, averages=200, seed=2)
        stokes, anti = fit_sideband_pair(trace, None, 1e6)
        assert anti.pinned and not stokes.pinned
        assert anti.center == 2.0 * HET - stokes.center
        assert anti.linewidth_fwhm == stokes.linewidth_fwhm
        assert abs(anti.area) < 3.0 * anti.errors()[2]

    def test_resolved_anti_stokes_is_free(self):
        _, anti = fit_sideband_pair(make_trace(0.73, averages=200, seed=2),
                                    None, 1e6)
        assert not anti.pinned

    def test_diffcal_needs_c(self):
        with pytest.raises(ValueError, match="requires a C"):
            extract_occupation(make_trace(0.3), None, 1e6,
                               method=METHOD_DIFFCAL)

    def test_gain_correction(self):
        """A known detector tilt distorts the apparent asymmetry; dividing
        it out restores the true occupation."""
        n_true = 0.3
        spec = SidebandSpec(mode=make_mode(), n_true=n_true, area_scale_c=1e5,
                            linewidth=TWO_PI * 5e3)
        grid = default_grid(HET, spec.mode.omega, 8192)
        tilt = 1.0 + 0.4 * (grid - grid[0]) / (grid[-1] - grid[0])
        resp = DetectorResponse(TWO_PI * grid, tilt)
        trace = synthesize_psd([spec], QUIET, resp, grid, math.inf, HET)
        with_corr = extract_occupation(trace, resp, 1e6)
        without = extract_occupation(trace, None, 1e6)
        assert with_corr.n == pytest.approx(n_true, rel=1e-4)
        assert abs(without.n - n_true) > 10 * abs(with_corr.n - n_true)


def pair_outcome(trace, resp, hint):
    """fit_sideband_pair's result as bytes and flags, or the error it raised."""
    try:
        pair = fit_sideband_pair(trace, resp, hint)
    except LibrotorError as exc:
        return type(exc), str(exc)
    return [(np.array([f.center, f.linewidth_fwhm, f.area, f.offset]).tobytes(),
             f.covariance.tobytes(), f.converged, f.pinned) for f in pair]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(16, 512),
       window_bins=st.integers(8, 48), edge=st.floats(0.2, 1.05),
       fwhm_bins=st.floats(0.5, 4.0), anti_share=st.floats(0.0, 0.9),
       averages=st.sampled_from([math.inf, 5, 100]),
       gain=st.lists(st.floats(0.3, 3.0), min_size=2, max_size=12))
@example(seed=1, n_bins=16, window_bins=8, edge=0.5, fwhm_bins=2.0,
         anti_share=0.5, averages=100, gain=[0.5, 2.0])
@example(seed=2, n_bins=40, window_bins=15, edge=1.0, fwhm_bins=2.0,
         anti_share=0.0, averages=math.inf, gain=[1.0, 0.4, 2.5])
def test_window_gain_correction_is_whole_trace_correction(
        seed, n_bins, window_bins, edge, fwhm_bins, anti_share, averages,
        gain):
    """Gain-correcting only the two sideband windows fits exactly what
    correcting the whole trace and fitting it without a response does, bit
    for bit: on windows of 8-15 bins, at the grid edge (edge = 1 puts a
    sideband on the last bin), weighted or not, pinned or free."""
    bin_hz = 2.0 * WINDOW_HALFWIDTH_HZ / window_bins
    freq = HET + bin_hz * (np.arange(n_bins) - (n_bins - 1) / 2.0)
    hint = edge * (freq[-1] - HET)
    f_stokes, f_anti = sideband_frequencies(HET, hint, ORIENT_LO_BLUE)
    fwhm = fwhm_bins * bin_hz
    mean = (lorentzian(freq, f_stokes, fwhm, 30.0 * fwhm, 1.0)
            + lorentzian(freq, f_anti, fwhm, 30.0 * fwhm * anti_share))
    rng = np.random.default_rng(seed)
    vals = mean if math.isinf(averages) else \
        mean * rng.gamma(averages, 1.0 / averages, n_bins)
    meta = {"het_freq_hz": HET, "averages": averages}
    resp = DetectorResponse(TWO_PI * np.linspace(freq[0], freq[-1], len(gain)),
                            np.array(gain))
    corrected = np.maximum(vals / detector_gain(resp, TWO_PI * freq), 0.0)
    assert pair_outcome(PsdTrace(freq, vals, meta), resp, hint) == \
        pair_outcome(PsdTrace(freq, corrected, meta), None, hint)


class TestCalibrateC:
    def test_identical_records(self):
        rec = [(2.4, 0.01, 0.4, 0.01)] * 5
        cf = calibrate_c(rec)
        assert cf.c == pytest.approx(2.0, rel=1e-12)
        assert cf.consistent

    def test_weighted_mean(self):
        rec = [(3.0, 0.1, 1.0, 0.1), (2.2, 1.0, 0.1, 1.0)]
        cf = calibrate_c(rec)
        # the precise record dominates the inverse-variance weighting
        assert abs(cf.c - 2.0) < 0.05

    def test_inconsistent_flag(self):
        rec = [(2.0, 0.001, 0.0, 0.001), (3.0, 0.001, 0.0, 0.001),
               (2.5, 0.001, 0.0, 0.001), (2.2, 0.001, 0.0, 0.001)]
        cf = calibrate_c(rec)
        assert not cf.consistent

    def test_needs_two(self):
        with pytest.raises(LibrotorError):
            calibrate_c([(2.0, 0.1, 0.5, 0.1)])

    def test_monte_carlo_near_truth(self):
        rng = np.random.default_rng(31)
        c_true = 5.0
        rec = [(c_true + 1.0 + rng.normal(0, 0.05), 0.05,
                1.0 + rng.normal(0, 0.05), 0.05) for _ in range(50)]
        cf = calibrate_c(rec)
        assert cf.c == pytest.approx(c_true, abs=4 * cf.c_err)
        assert cf.c_err == pytest.approx(math.sqrt(2) * 0.05 / math.sqrt(50),
                                         rel=0.05)


class TestAnalyzeScan:
    def _scan_traces(self, averages, seed=0, n_bins=16384):
        sc = cluster_1d()
        grid = default_grid(HET, sc.mode_alpha.omega, n_bins)
        dets = np.linspace(990e3, 1080e3, 12)
        points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                             averages, HET, dets,
                             area_scale_c=sc.area_scale_c, seed=seed,
                             channel="cavity_y")
        return sc, [p.trace for p in points if p.trace is not None]

    def test_noise_free_recovery(self):
        """Noise-free scan: coupling, bare frequency, heating rate, and the
        inverted inertia all match the generator to well under 1%."""
        sc, traces = self._scan_traces(math.inf)
        report = analyze_scan(traces, sc.optics, method=METHOD_RATIO)
        assert len(report) == 1
        mode = report[0]
        assert mode.label == "alpha" and mode.channel == "cavity_y"
        g_true = abs(sc.mode_alpha.g)
        assert mode.linewidth_fit.g_abs == pytest.approx(g_true, rel=1e-3)
        assert mode.frequency_fit.omega_bare == pytest.approx(
            sc.mode_alpha.omega, rel=1e-6)
        assert mode.occupation_fit.gamma_total_heating == pytest.approx(
            6.8e3, rel=2e-3)
        assert mode.inertia == pytest.approx(3.3e-32, rel=0.01)
        assert mode.derived is not None
        assert 15e-6 < mode.derived.sigma < 20e-6

    def test_diffcal_consistency(self):
        sc, traces = self._scan_traces(500, seed=40)
        report = analyze_scan(traces, sc.optics, method=METHOD_DIFFCAL)
        mode = report[0]
        assert mode.c_cal.c == pytest.approx(sc.area_scale_c, rel=0.02)
        # best occupation near the generator's optimum of ~0.135
        assert mode.n_best == pytest.approx(0.135, abs=0.05)

    def test_diffcal_fits_each_pair_once(self, monkeypatch):
        sc, traces = self._scan_traces(500, seed=40, n_bins=4096)
        calls = []

        def counting(trace, *args):
            calls.append(trace.meta["detuning_hz"])
            return fit_sideband_pair(trace, *args)

        monkeypatch.setattr(thermometry, "fit_sideband_pair", counting)
        report = analyze_scan(traces, sc.optics, method=METHOD_DIFFCAL)
        assert report[0].n_best is not None
        assert sorted(calls) == sorted(t.meta["detuning_hz"] for t in traces)

    def test_trace_without_carrier_fails_in_its_slot(self):
        """A trace without het_freq_hz gets the LibrotorError that
        fit_sideband_pair gives, in its own per-trace slot, and the other
        traces still give the scan its fits."""
        sc, traces = self._scan_traces(math.inf, n_bins=4096)
        first = traces[0]
        traces[0] = PsdTrace(first.freq_hz, first.values,
                             {k: v for k, v in first.meta.items()
                              if k != "het_freq_hz"})
        hints = [thermometry.trace_hint(t) for t in traces]
        metas = [t.meta for t in traces]
        by_channel = thermometry.channel_hints(metas, hints)
        (idx, results, _), = thermometry.channel_occupations(
            metas, [thermometry.sideband_pair(t, None, h, by_channel)
                    for t, h in zip(traces, hints)], METHOD_RATIO).values()
        slot = results[idx.index(0)]
        assert isinstance(slot, LibrotorError)
        assert str(slot) == "trace metadata lacks het_freq_hz"
        (mode,) = analyze_scan(traces, sc.optics, method=METHOD_RATIO)
        errors = {t.detuning_hz: t.error for t in mode.traces}
        assert errors.pop(first.meta["detuning_hz"]) == \
            "trace metadata lacks het_freq_hz"
        assert set(errors.values()) == {None}
        assert mode.n_best is not None

    def test_underdetermined(self):
        sc, traces = self._scan_traces(math.inf)
        with pytest.raises(UnderdeterminedScanError):
            analyze_scan(traces[:3], sc.optics)

    def test_underdetermined_counts_the_calibrated_occupations(self):
        """Five traces give ratio occupations, but C comes out near the
        three heavily averaged ones, and the two traces with a tenth of
        their area scale fall below zero beyond 2 sigma under it: 3
        analyzable traces are too few for the scan fits."""
        het, f_mode = 5.0e6, 1.03e6
        grid = np.linspace(het - 1.5e6, het + 1.5e6, 4096)
        traces = []
        for i, (c, averages) in enumerate([(2e5, 1e6)] * 3 + [(2e4, 200)] * 2):
            vals = (1.0 + lorentzian(grid, het + f_mode, 5e3, c * 1.3)
                    + lorentzian(grid, het - f_mode, 5e3, c * 0.3))
            traces.append(PsdTrace(grid, vals, {
                "het_freq_hz": het, "averages": averages,
                "channel": "cavity_z", "detuning_hz": 1e6 + 1e4 * i}))
        with pytest.raises(UnderdeterminedScanError) as exc:
            analyze_scan(traces, cluster_1d().optics)
        assert str(exc.value) == ("underdetermined scan: only 3 analyzable "
                                  "traces on channel cavity_z")
