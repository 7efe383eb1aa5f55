import math
import warnings

import numpy as np
import pytest

from librotor.errors import UncalibratedFrequencyError
from librotor.fitting import fit_lorentzian
from librotor.noise import (DetectorResponse, NoiseProfile,
                            cavity_noise_background, detector_gain,
                            phase_noise_psd)

TWO_PI = 2.0 * math.pi


class TestNoiseProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseProfile(shot_level=0.5, dark_level=0.5)
        with pytest.raises(ValueError):
            NoiseProfile(notch_list=((1e6, -3.0, 1e4),))
        with pytest.raises(ValueError):
            NoiseProfile(notch_list=((1e6, 3.0, 0.0),))
        with pytest.raises(ValueError):
            NoiseProfile(cavity_noise_width=0.0)

    @pytest.mark.parametrize("kw", [
        {"notch_list": ((1e6, math.nan, 1e4),)},
        {"notch_list": ((1e6, 3.0, math.nan),)},
        {"cavity_noise_width": math.nan}])
    def test_nan_rejected(self, kw):
        with pytest.raises(ValueError):
            NoiseProfile(**kw)


class TestPhaseNoise:
    def test_flat_without_notches(self):
        prof = NoiseProfile(phase_noise_base=2e-9)
        omega = np.linspace(1e5, 1e7, 50)
        assert np.all(phase_noise_psd(prof, omega) == 2e-9)

    def test_notch_center_depth(self):
        """A 30 dB notch suppresses the base by exactly 1e-3 at its center."""
        prof = NoiseProfile(phase_noise_base=1e-9,
                            notch_list=((TWO_PI * 1e6, 30.0, TWO_PI * 1e4),))
        assert phase_noise_psd(prof, TWO_PI * 1e6) == pytest.approx(
            1e-12, rel=1e-12)

    def test_notch_half_width(self):
        """At center +/- FWHM/2 the suppression is half the depth in dB."""
        depth, width = 40.0, TWO_PI * 2e4
        prof = NoiseProfile(phase_noise_base=1e-9,
                            notch_list=((TWO_PI * 1e6, depth, width),))
        val = phase_noise_psd(prof, TWO_PI * 1e6 + width / 2.0)
        assert val == pytest.approx(1e-9 * 10 ** (-depth / 20.0), rel=1e-12)

    def test_two_notches_multiply(self):
        """Simultaneous notches compose multiplicatively (additively in dB)."""
        n1 = (TWO_PI * 1.00e6, 30.0, TWO_PI * 50e3)
        n2 = (TWO_PI * 1.05e6, 20.0, TWO_PI * 50e3)
        both = NoiseProfile(notch_list=(n1, n2))
        only1 = NoiseProfile(notch_list=(n1,))
        only2 = NoiseProfile(notch_list=(n2,))
        omega = np.linspace(0.9e6, 1.15e6, 101) * TWO_PI
        expect = (phase_noise_psd(only1, omega) * phase_noise_psd(only2, omega)
                  / both.phase_noise_base)
        assert np.allclose(phase_noise_psd(both, omega), expect, rtol=1e-12)
        # spot-check the midpoint between the notch centers
        mid = TWO_PI * 1.025e6
        assert phase_noise_psd(both, mid) == pytest.approx(
            phase_noise_psd(only1, mid) * phase_noise_psd(only2, mid) / 1e-9,
            rel=1e-12)

    @pytest.mark.parametrize("omega", [1e160, np.array([1e160, -1e160, 1e300])],
                             ids=["scalar", "array"])
    def test_far_from_a_notch_without_overflow_warning(self, omega):
        """Far from a notch the factor is 1: the square that overflows to
        inf there gives the base level and no warning."""
        prof = NoiseProfile(notch_list=((TWO_PI * 1e6, 30.0, TWO_PI * 1e4),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = phase_noise_psd(prof, omega)
        assert np.all(out == prof.phase_noise_base)


class TestCavityNoiseBump:
    def test_peak_and_half_width(self):
        prof = NoiseProfile(cavity_noise_center=TWO_PI * 4e6,
                            cavity_noise_width=TWO_PI * 32.4e3)
        peak = cavity_noise_background(prof, TWO_PI * 4e6, 1e-9)
        assert peak == pytest.approx(1e-9, rel=1e-14)
        half = cavity_noise_background(
            prof, TWO_PI * 4e6 + prof.cavity_noise_width / 2.0, 1e-9)
        assert half == pytest.approx(peak / 2.0, rel=1e-12)

    @pytest.mark.parametrize("omega", [TWO_PI * 4e6,
                                       np.linspace(1e6, 1e7, 5) * TWO_PI],
                             ids=["scalar", "array"])
    def test_far_center_without_overflow_warning(self, omega):
        """A center at 1e300 Hz puts the bump nowhere: the square that
        overflows to inf gives 0 and no warning."""
        prof = NoiseProfile(cavity_noise_center=TWO_PI * 1e300,
                            cavity_noise_width=TWO_PI * 32.4e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cavity_noise_background(prof, omega, 1e-9)
        assert np.all(out == 0.0)

    def test_bump_fit_locates_center(self):
        """Fitting the bump recovers the cavity line (i.e. the detuning)
        to better than width/100 at modest SNR."""
        width_hz = 32.4e3
        center_hz = 3.956e6
        prof = NoiseProfile(cavity_noise_center=TWO_PI * center_hz,
                            cavity_noise_width=TWO_PI * width_hz)
        grid = np.linspace(center_hz - 6 * width_hz, center_hz + 6 * width_hz,
                           2048)
        bump = cavity_noise_background(prof, TWO_PI * grid, 1.0)
        rng = np.random.default_rng(3)
        vals = 1.0 + bump + rng.normal(0.0, 0.1, grid.size)  # peak SNR = 10
        vals = np.maximum(vals, 0.0)
        fit = fit_lorentzian(grid, vals, None)
        assert abs(fit.center - center_hz) < width_hz / 100.0
        assert fit.linewidth_fwhm == pytest.approx(width_hz, rel=0.05)


class TestDetectorResponse:
    def test_exact_at_grid_nodes(self):
        grid = TWO_PI * np.array([1e6, 2e6, 3e6, 4e6])
        gain = np.array([1.0, 1.5, 0.8, 1.2])
        resp = DetectorResponse(grid, gain)
        assert np.all(detector_gain(resp, grid) == gain)

    def test_linear_between_nodes(self):
        grid = TWO_PI * np.array([1e6, 2e6])
        resp = DetectorResponse(grid, np.array([1.0, 3.0]))
        assert detector_gain(resp, TWO_PI * 1.5e6) == pytest.approx(2.0, rel=1e-14)
        assert detector_gain(resp, TWO_PI * 1.25e6) == pytest.approx(1.5, rel=1e-14)

    def test_outside_span_raises(self):
        resp = DetectorResponse(TWO_PI * np.array([1e6, 2e6]),
                                np.array([1.0, 1.0]))
        with pytest.raises(UncalibratedFrequencyError):
            detector_gain(resp, TWO_PI * 0.5e6)
        with pytest.raises(UncalibratedFrequencyError):
            detector_gain(resp, TWO_PI * np.array([1.5e6, 2.5e6]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorResponse(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            DetectorResponse(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("grid,gain", [
        ([1, 2, 3], [1, math.nan, 1]), ([1, math.nan, 3], [1, 1, 1]),
        ([1, 2, 3], [1, math.inf, 1]), ([1, 2, math.inf], [1, 1, 1])],
        ids=["nan-gain", "nan-grid", "inf-gain", "inf-grid"])
    def test_non_finite_refused(self, grid, gain):
        with pytest.raises(ValueError, match="finite"):
            DetectorResponse(grid, gain)
