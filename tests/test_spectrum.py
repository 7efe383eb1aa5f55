import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from librotor import physics, spectrum
from librotor.errors import SidebandOutsideBandError, UncalibratedFrequencyError
from librotor.fitting import fit_lorentzian, window_bins
from librotor.noise import (DetectorResponse, NoiseProfile, cavity_noise_background,
                            detector_gain, phase_noise_psd)
from librotor.physics import LibrationMode
from librotor.presets import cluster_1d
from librotor.spectrum import (CAL_CHANNEL, CAL_KINDS, ORIENT_LO_BLUE,
                               ORIENT_LO_RED, PsdTrace, SidebandSpec,
                               calibration_trace, default_grid, lorentzian,
                               mean_psd, periodogram_draw, scan_series,
                               sideband_frequencies, synthesize_psd)

TWO_PI = 2.0 * math.pi

HET = 4.99814e6


def fit_window(trace, window):
    """Unweighted fit_lorentzian on the bins of trace inside window (Hz)."""
    bins = window_bins(trace.freq_hz, window)
    return fit_lorentzian(trace.freq_hz[bins], trace.values[bins], None)


def make_mode(omega=TWO_PI * 1e6, g=TWO_PI * 8e3):
    return LibrationMode(label="alpha", omega=omega, g=complex(g), zpf=1.5e-5)


def make_spec(n_true=0.21, c=1e5, linewidth=TWO_PI * 5e3, **kw):
    return SidebandSpec(mode=make_mode(**kw), n_true=n_true, area_scale_c=c,
                        linewidth=linewidth)


QUIET = NoiseProfile(shot_level=1.0, dark_level=0.05, phase_noise_base=1e-12,
                     cavity_noise_center=TWO_PI * 1.0, cavity_noise_width=1.0)


class TestLorentzian:
    def test_area_normalization(self):
        x = np.linspace(-500.0, 500.0, 200001)
        y = lorentzian(x, 0.0, 1.0, 3.0)
        total = np.trapezoid(y, x)
        # finite-window analytic value: area * (2/pi) arctan(2W/fwhm)
        expect = 3.0 * (2.0 / math.pi) * math.atan(1000.0)
        assert total == pytest.approx(expect, rel=1e-6)

    def test_peak_height(self):
        assert lorentzian(0.0, 0.0, 2.0, math.pi) == pytest.approx(1.0, rel=1e-14)


class TestPsdTrace:
    def test_validation(self):
        f = np.linspace(0, 1, 32)
        with pytest.raises(ValueError):
            PsdTrace(f, -np.ones(32), {})
        with pytest.raises(ValueError):
            PsdTrace(f[::-1], np.ones(32), {})
        with pytest.raises(ValueError):
            PsdTrace(f[:8], np.ones(8), {})
        for bad in (math.nan, math.inf, -math.inf):
            vals = np.ones(32)
            vals[5] = bad
            with pytest.raises(ValueError, match="finite"):
                PsdTrace(f, vals, {})
            freq = f.copy()
            freq[5] = bad
            with pytest.raises(ValueError, match="finite"):
                PsdTrace(freq, np.ones(32), {})

    def test_extreme_grid_is_checked_without_overflow(self):
        """Neighbours -1e308 and 1e308 differ by more than the largest
        double; the increasing-grid checks compare them without
        subtracting, so they neither overflow nor warn."""
        grid = np.concatenate([np.linspace(-1.7e308, -1e308, 8),
                               np.linspace(1e308, 1.7e308, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PsdTrace(grid, np.ones(16), {})
            DetectorResponse(grid, np.ones(16))
            for bad in (grid[::-1], np.concatenate([grid[:8], grid[7:15]])):
                with pytest.raises(ValueError, match="increasing"):
                    PsdTrace(bad, np.ones(16), {})
                with pytest.raises(ValueError, match="increasing"):
                    DetectorResponse(bad, np.ones(16))

    def test_default_grid(self):
        grid = default_grid(HET, TWO_PI * 1e6, n_bins=1024, span_factor=1.5)
        assert grid.size == 1024
        assert grid[0] == pytest.approx(HET - 1.5e6)
        assert grid[-1] == pytest.approx(HET + 1.5e6)


class TestSidebandSpec:
    @pytest.mark.parametrize("field", ["n_true", "area_scale_c", "linewidth"])
    def test_nan_rejected(self, field):
        kw = {"mode": make_mode(), "n_true": 0.21, "area_scale_c": 1e5,
              "linewidth": TWO_PI * 5e3, field: math.nan}
        with pytest.raises(ValueError, match=field):
            SidebandSpec(**kw)


class TestMeanPsd:
    def test_ground_state_has_no_anti_stokes(self):
        """At n = 0 the spectrum is exactly baseline + the Stokes peak."""
        grid = default_grid(HET, TWO_PI * 1e6, 4096)
        spec = make_spec(n_true=0.0)
        with_peak = mean_psd([spec], QUIET, None, grid, HET)
        baseline = mean_psd([], QUIET, None, grid, HET)
        stokes_only = lorentzian(grid, HET + 1e6, 5e3, spec.area_scale_c)
        assert np.allclose(with_peak, baseline + stokes_only, rtol=1e-12,
                           atol=1e-30)

    def test_orientation(self):
        grid = default_grid(HET, TWO_PI * 1e6, 8192)
        spec = make_spec(n_true=0.5)
        blue = mean_psd([spec], QUIET, None, grid, HET, ORIENT_LO_BLUE)
        red = mean_psd([spec], QUIET, None, grid, HET, ORIENT_LO_RED)
        i_lo = np.argmin(np.abs(grid - (HET - 1e6)))
        i_hi = np.argmin(np.abs(grid - (HET + 1e6)))
        # lo_blue: Stokes (larger) above het; lo_red mirrors it below
        assert blue[i_hi] > blue[i_lo]
        assert red[i_lo] > red[i_hi]
        assert np.allclose(blue, red[::-1], rtol=1e-9)

    def test_area_ratio(self):
        """Fitted anti-Stokes/Stokes area ratio equals n/(n+1)."""
        n_true = 0.21
        grid = default_grid(HET, TWO_PI * 1e6, 32768)
        trace = PsdTrace(grid, mean_psd([make_spec(n_true=n_true)], QUIET,
                                        None, grid, HET), {"het_freq_hz": HET})
        stokes = fit_window(trace, (HET + 1e6 - 60e3, HET + 1e6 + 60e3))
        anti = fit_window(trace, (HET - 1e6 - 60e3, HET - 1e6 + 60e3))
        assert anti.area / stokes.area == pytest.approx(n_true / (n_true + 1.0),
                                                        rel=1e-3)

    def test_sideband_integral(self):
        """Numeric integral of an isolated sideband matches the analytic
        finite-window Lorentzian integral to 0.1% with >= 20 bins/FWHM."""
        c, n_true, fwhm_hz = 1e5, 0.3, 5e3
        grid = default_grid(HET, TWO_PI * 1e6, 32768)  # ~61 Hz/bin
        base = mean_psd([], QUIET, None, grid, HET)
        spec = make_spec(n_true=n_true, c=c, linewidth=TWO_PI * fwhm_hz)
        vals = mean_psd([spec], QUIET, None, grid, HET) - base
        center = HET + 1e6
        hw = 100e3
        mask = np.abs(grid - center) <= hw
        got = np.trapezoid(vals[mask], grid[mask])
        expect = c * (n_true + 1.0) * (2.0 / math.pi) * math.atan(2.0 * hw / fwhm_hz)
        # the anti-Stokes tail leaks slightly into the window; subtract it
        anti_tail = np.trapezoid(
            lorentzian(grid[mask], HET - 1e6, fwhm_hz, c * n_true), grid[mask])
        assert got - anti_tail == pytest.approx(expect, rel=1e-3)

    def test_sideband_outside_band(self):
        grid = default_grid(HET, TWO_PI * 1e6, 1024, span_factor=0.8)
        with pytest.raises(SidebandOutsideBandError):
            mean_psd([make_spec()], QUIET, None, grid, HET)


def reference_mean_psd(specs, noise, resp, grid_hz, het_freq_hz,
                       sideband_orientation=ORIENT_LO_BLUE):
    """mean_psd as it was before the optical floor was cached: every term
    recomputed per call, in the same order."""
    grid_hz = np.asarray(grid_hz, dtype=float)
    omega = TWO_PI * grid_hz
    gain = 1.0 if resp is None else detector_gain(resp, omega)
    optical = np.full_like(grid_hz, noise.shot_level)
    optical = optical + cavity_noise_background(noise, omega, phase_noise_psd(noise, omega))
    for spec in specs:
        f_stokes, f_anti = sideband_frequencies(
            het_freq_hz, spec.center_or_bare / TWO_PI, sideband_orientation)
        fwhm_hz = spec.linewidth / TWO_PI
        for f0, area in ((f_stokes, spec.area_scale_c * (spec.n_true + 1.0)),
                         (f_anti, spec.area_scale_c * spec.n_true)):
            if not grid_hz[0] <= f0 <= grid_hz[-1]:
                raise SidebandOutsideBandError(
                    f"sideband outside analysis band: {f0:g} Hz")
            if area > 0.0:
                optical = optical + lorentzian(grid_hz, f0, fwhm_hz, area)
    return noise.dark_level + gain * optical


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# a pedestal on the grid with notches near both sidebands, so the floor
# varies from bin to bin
PEDESTAL = NoiseProfile(shot_level=1.0, dark_level=0.05, phase_noise_base=1e-3,
                        notch_list=((TWO_PI * (HET + 1e6), 35.0, TWO_PI * 2e3),
                                    (TWO_PI * (HET - 1.05e6), 10.0, TWO_PI * 50e3)),
                        cavity_noise_center=TWO_PI * HET,
                        cavity_noise_width=TWO_PI * 400e3)


def sloped_response(grid):
    omega = TWO_PI * grid
    return DetectorResponse(omega, 1.0 + 0.2 * (omega - omega[0]) / (omega[-1] - omega[0]))


class TestOpticalFloor:
    """mean_psd computes the optical floor once per (grid, noise profile)
    and keeps it in a one-entry, read-only cache."""

    @pytest.mark.parametrize("noise", [QUIET, PEDESTAL, cluster_1d().noise],
                             ids=["quiet", "pedestal", "cluster_1d"])
    @pytest.mark.parametrize("specs", [[], [make_spec()],
                                       [make_spec(n_true=0.0), make_spec(3.0, omega=TWO_PI * 1.1e6)]],
                             ids=["none", "one", "two"])
    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "response"])
    @pytest.mark.parametrize("orientation", [ORIENT_LO_BLUE, ORIENT_LO_RED])
    def test_values_match_the_reference(self, noise, specs, flat, orientation):
        """Cold and warm, each value has the reference's bits."""
        grid = default_grid(HET, TWO_PI * 1.1e6, 2048)
        resp = None if flat else sloped_response(grid)
        want = reference_mean_psd(specs, noise, resp, grid, HET, orientation)
        spectrum._floor_cache = ((b"", None), np.empty(0))
        for _ in range(2):
            assert same_bits(mean_psd(specs, noise, resp, grid, HET, orientation), want)

    @settings(max_examples=40, deadline=None)
    @given(shot=st.floats(1e-3, 1e3), dark=st.floats(0.0, 0.999),
           base=st.floats(0.0, 1e-2), center_hz=st.floats(-1e7, 1e7),
           width_hz=st.floats(1.0, 1e7), notch=st.tuples(st.floats(0.0, 2e6),
                                                          st.floats(0.0, 60.0),
                                                          st.floats(1.0, 1e6)),
           n_true=st.floats(0.0, 50.0), n_bins=st.integers(16, 3000))
    def test_random_profiles_match_the_reference(self, shot, dark, base, center_hz,
                                                 width_hz, notch, n_true, n_bins):
        noise = NoiseProfile(shot_level=shot, dark_level=dark * shot, phase_noise_base=base,
                             notch_list=((TWO_PI * notch[0], notch[1], TWO_PI * notch[2]),),
                             cavity_noise_center=TWO_PI * center_hz,
                             cavity_noise_width=TWO_PI * width_hz)
        grid = default_grid(HET, TWO_PI * 1e6, n_bins)
        specs = [make_spec(n_true=n_true)]
        want = reference_mean_psd(specs, noise, None, grid, HET)
        for _ in range(2):
            assert same_bits(mean_psd(specs, noise, None, grid, HET), want)

    def test_changed_grid_or_profile_misses(self):
        """A grid one bin of which moved by a millihertz, another grid of
        the same span and a profile with one other field each get their own
        floor."""
        grid = default_grid(HET, TWO_PI * 1e6, 2048)
        nudged = grid.copy()
        nudged[1000] += 1e-3
        cases = [(grid, PEDESTAL), (nudged, PEDESTAL),
                 (default_grid(HET, TWO_PI * 1e6, 2049), PEDESTAL),
                 (grid, replace(PEDESTAL, shot_level=2.0)),
                 (grid, replace(PEDESTAL, cavity_noise_width=TWO_PI * 300e3)),
                 (grid, replace(PEDESTAL, notch_list=PEDESTAL.notch_list[:1])),
                 (grid, PEDESTAL)]
        wants = [reference_mean_psd([], noise, None, g, HET) for g, noise in cases]
        # the nudged bin's floor differs, so reusing the first floor would show
        assert wants[1][1000] != wants[0][1000]
        for (g, noise), want in zip(cases, wants):
            assert same_bits(mean_psd([], noise, None, g, HET), want)
            assert spectrum._floor_cache[0] == (g.tobytes(), noise)

    @pytest.mark.parametrize("field", ["phase_noise_base", "cavity_noise_center",
                                       "notch_center"])
    def test_nan_field_never_reuses_a_floor(self, field):
        """A NaN field makes a NaN floor, which is not kept: the profile
        (which equals itself through the tuple's identity check) never
        reads a cached floor, and the finite entry before it stays."""
        grid = default_grid(HET, TWO_PI * 1e6, 256)
        nan = math.nan
        noise = (replace(PEDESTAL, notch_list=((nan, 35.0, TWO_PI * 2e3),))
                 if field == "notch_center" else replace(PEDESTAL, **{field: nan}))
        assert noise == noise
        mean_psd([], PEDESTAL, None, grid, HET)
        kept = spectrum._floor_cache
        for _ in range(2):
            assert np.isnan(mean_psd([], noise, None, grid, HET)).all()
            assert spectrum._floor_cache is kept

    @pytest.mark.parametrize("field", ["dark_level", "phase_noise_base",
                                       "cavity_noise_center", "notch_center",
                                       "notch_depth"])
    def test_signed_zeros_give_one_floor(self, field):
        """Profiles that differ only in the sign of a zero field give the
        same bits, whichever of them fills the cache."""
        grid = default_grid(HET, TWO_PI * 1e6, 512)

        def profile(zero):
            if field == "notch_center":
                return replace(PEDESTAL, notch_list=((zero, 35.0, TWO_PI * 2e3),))
            if field == "notch_depth":
                return replace(PEDESTAL, notch_list=((TWO_PI * HET, zero, TWO_PI * 2e3),))
            return replace(PEDESTAL, **{field: zero})

        plus, minus = profile(0.0), profile(-0.0)
        want = reference_mean_psd([make_spec()], plus, None, grid, HET)
        assert same_bits(reference_mean_psd([make_spec()], minus, None, grid, HET), want)
        for first, second in ((plus, minus), (minus, plus)):
            spectrum._floor_cache = ((b"", None), np.empty(0))
            assert same_bits(mean_psd([make_spec()], first, None, grid, HET), want)
            assert same_bits(mean_psd([make_spec()], second, None, grid, HET), want)

    def test_floor_is_read_only_and_results_are_fresh(self):
        grid = default_grid(HET, TWO_PI * 1e6, 256)
        first = mean_psd([], QUIET, None, grid, HET)
        floor = spectrum._floor_cache[1]
        assert not floor.flags.writeable
        with pytest.raises(ValueError):
            floor[0] = 0.0
        second = mean_psd([], QUIET, None, grid, HET)
        for psd in (first, second):
            assert psd.flags.writeable and not np.shares_memory(psd, floor)
        assert not np.shares_memory(first, second)

    def test_mutated_trace_leaves_the_next(self):
        """Writing into a returned mean or a trace's values changes no
        later mean or trace."""
        grid = default_grid(HET, TWO_PI * 1e6, 1024)
        specs = [make_spec()]
        want = reference_mean_psd(specs, QUIET, None, grid, HET)
        for _ in range(2):
            psd = mean_psd(specs, QUIET, None, grid, HET)
            assert same_bits(psd, want)
            psd *= 3.0
            trace = synthesize_psd(specs, QUIET, None, grid, math.inf, HET)
            assert same_bits(trace.values, want)
            trace.values[:] = 0.0
            empty = mean_psd([], QUIET, None, grid, HET)
            empty += 1.0

    def test_gain_range_is_checked_first(self):
        """With a response that leaves the grid uncalibrated and a sideband
        off the grid, both forms raise the detector's error."""
        grid = default_grid(HET, TWO_PI * 1e6, 1024, span_factor=0.8)
        resp = sloped_response(grid[1:])
        for fn in (reference_mean_psd, mean_psd):
            with pytest.raises(UncalibratedFrequencyError):
                fn([make_spec()], QUIET, resp, grid, HET)


class TestSynthesize:
    def test_infinite_averages_is_mean(self):
        grid = default_grid(HET, TWO_PI * 1e6, 2048)
        trace = synthesize_psd([make_spec()], QUIET, None, grid, math.inf, HET,
                               seed=3)
        mean = mean_psd([make_spec()], QUIET, None, grid, HET)
        assert np.array_equal(trace.values, mean)

    def test_seed_determinism(self):
        grid = default_grid(HET, TWO_PI * 1e6, 2048)
        t1 = synthesize_psd([make_spec()], QUIET, None, grid, 100, HET, seed=5)
        t2 = synthesize_psd([make_spec()], QUIET, None, grid, 100, HET, seed=5)
        t3 = synthesize_psd([make_spec()], QUIET, None, grid, 100, HET, seed=6)
        assert np.array_equal(t1.values, t2.values)
        assert not np.array_equal(t1.values, t3.values)

    def test_fluctuation_statistics(self):
        """Per-bin relative scatter is 1/sqrt(averages) and the mean is
        unbiased."""
        grid = default_grid(HET, TWO_PI * 1e6, 16384)
        averages = 100
        trace = synthesize_psd([], QUIET, None, grid, averages, HET, seed=11)
        mean = mean_psd([], QUIET, None, grid, HET)
        ratio = trace.values / mean
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.005)
        assert np.std(ratio) == pytest.approx(1.0 / math.sqrt(averages), rel=0.05)

    def test_meta_fields(self):
        grid = default_grid(HET, TWO_PI * 1e6, 1024)
        trace = synthesize_psd([make_spec()], QUIET, None, grid, 100, HET,
                               seed=2, channel="cavity_y", detuning_hz=1.042e6)
        assert trace.meta["het_freq_hz"] == HET
        assert trace.meta["averages"] == 100
        assert trace.meta["seed"] == 2
        assert trace.meta["channel"] == "cavity_y"
        assert trace.meta["detuning_hz"] == 1.042e6

    def test_bad_inputs(self):
        grid = default_grid(HET, TWO_PI * 1e6, 1024)
        with pytest.raises(ValueError):
            synthesize_psd([], QUIET, None, grid, 0.5, HET)
        with pytest.raises(ValueError):
            synthesize_psd([], QUIET, None, grid, 100, HET, channel="bogus")


class TestCalibrationTrace:
    def test_levels_seeds_and_sidecar_keys(self):
        """Shot is dark + shot level, dark the dark level, drawn at seed +
        9001 and seed + 9002; the sidecar keys come in a fixed order."""
        grid = default_grid(HET, TWO_PI * 1e6, 1024)
        levels = {"shot": QUIET.dark_level + QUIET.shot_level,
                  "dark": QUIET.dark_level}
        for kind, sub_seed in zip(CAL_KINDS, (9001, 9002)):
            mean = calibration_trace(kind, QUIET, grid, math.inf, HET, 5)
            assert np.array_equal(mean.values, np.full(grid.size, levels[kind]))
            trace = calibration_trace(kind, QUIET, grid, 100, HET, 5)
            assert np.array_equal(trace.values,
                                  periodogram_draw(mean.values, 100, 5 + sub_seed))
            assert np.array_equal(trace.freq_hz, grid)
            assert list(trace.meta.items()) == [
                ("detuning_hz", None), ("het_freq_hz", HET), ("averages", 100),
                ("seed", 5 + sub_seed), ("channel", CAL_CHANNEL), ("kind", kind)]
        with pytest.raises(ValueError, match="bright"):
            calibration_trace("bright", QUIET, grid, 100, HET, 5)


class TestScanSeries:
    def test_truth_matches_closed_form(self):
        """Scan-point truth agrees with the physics functions to 1e-10."""
        sc = cluster_1d()
        grid = default_grid(HET, sc.mode_alpha.omega, 2048)
        points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                             math.inf, HET, [1000e3, 1042e3, 1080e3],
                             area_scale_c=sc.area_scale_c, channel="cavity_y")
        from dataclasses import replace
        for point in points:
            optics_i = replace(sc.optics, detuning=TWO_PI * point.detuning_hz)
            s_phi = phase_noise_psd(sc.noise, sc.mode_alpha.omega)
            occ = physics.steady_state_occupation(sc.mode_alpha, optics_i, s_phi)
            truth = point.truth["alpha"]
            assert truth["n"] == pytest.approx(occ.n_total, rel=1e-10)
            assert truth["linewidth"] == pytest.approx(
                physics.effective_linewidth(sc.mode_alpha, optics_i,
                                            sc.mode_alpha.omega), rel=1e-10)
            assert truth["center"] == pytest.approx(
                physics.effective_frequency(sc.mode_alpha, optics_i,
                                            sc.mode_alpha.omega), rel=1e-10)

    def test_invalid_detuning_is_marked(self):
        sc = cluster_1d()
        grid = default_grid(HET, sc.mode_alpha.omega, 2048)
        points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                             math.inf, HET, [0.0, 1042e3])
        assert points[0].trace is None
        assert "cooling" in points[0].error
        assert points[1].trace is not None

    def test_area_difference_constant_noise_free(self):
        """Fitted A_S - A_aS is the same C at every detuning (0.1%)."""
        sc = cluster_1d()
        grid = default_grid(HET, sc.mode_alpha.omega, 32768)
        dets = [1000e3, 1020e3, 1042e3, 1060e3, 1080e3]
        points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                             math.inf, HET, dets,
                             area_scale_c=sc.area_scale_c, channel="cavity_y")
        diffs = []
        for point in points:
            f_mode = point.truth["alpha"]["center"] / TWO_PI
            hw = 50e3
            stokes = fit_window(point.trace,
                                (HET + f_mode - hw, HET + f_mode + hw))
            anti = fit_window(point.trace,
                              (HET - f_mode - hw, HET - f_mode + hw))
            diffs.append(stokes.area - anti.area)
        diffs = np.asarray(diffs)
        assert np.ptp(diffs) / np.mean(diffs) < 1e-3
        assert np.mean(diffs) == pytest.approx(sc.area_scale_c, rel=1e-3)

    def test_seed_offsets_differ_per_point(self):
        sc = cluster_1d()
        grid = default_grid(HET, sc.mode_alpha.omega, 2048)
        points = scan_series([sc.mode_alpha], sc.optics, sc.noise, None, grid,
                             200, HET, [1042e3, 1042e3], seed=9)
        assert not np.array_equal(points[0].trace.values, points[1].trace.values)
