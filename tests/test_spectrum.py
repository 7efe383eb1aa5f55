import math

import numpy as np
import pytest

from librotor import physics
from librotor.errors import SidebandOutsideBandError
from librotor.fitting import fit_lorentzian
from librotor.noise import NoiseProfile, phase_noise_psd
from librotor.physics import LibrationMode
from librotor.presets import cluster_1d
from librotor.spectrum import (ORIENT_LO_BLUE, ORIENT_LO_RED, PsdTrace,
                               SidebandSpec, default_grid, lorentzian,
                               mean_psd, scan_series, synthesize_psd)

TWO_PI = 2.0 * math.pi

HET = 4.99814e6


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

    def test_default_grid(self):
        grid = default_grid(HET, TWO_PI * 1e6, n_bins=1024, span_factor=1.5)
        assert grid.size == 1024
        assert grid[0] == pytest.approx(HET - 1.5e6)
        assert grid[-1] == pytest.approx(HET + 1.5e6)


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
        stokes = fit_lorentzian(trace, (HET + 1e6 - 60e3, HET + 1e6 + 60e3))
        anti = fit_lorentzian(trace, (HET - 1e6 - 60e3, HET - 1e6 + 60e3))
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
            stokes = fit_lorentzian(point.trace,
                                    (HET + f_mode - hw, HET + f_mode + hw))
            anti = fit_lorentzian(point.trace,
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
