"""Detection-noise models: shot/dark floors, laser phase noise with feedback
notches, and the cavity-filtered phase-noise background."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UncalibratedFrequencyError


@dataclass(frozen=True)
class NoiseProfile:
    """Parametric noise floors.

    shot_level and dark_level are relative PSD units (shot normalizes to 1
    after calibration); phase_noise_base is rad^2/Hz.  Each notch is
    (center rad/s, depth dB, width rad/s) and models the steady-state
    spectral effect of the phase-noise feedback loop.
    """

    shot_level: float = 1.0
    dark_level: float = 0.0
    phase_noise_base: float = 1e-9
    notch_list: tuple[tuple[float, float, float], ...] = ()
    cavity_noise_center: float = 0.0  # rad/s
    cavity_noise_width: float = 1.0  # rad/s, FWHM

    def __post_init__(self):
        if not self.shot_level > self.dark_level >= 0:
            raise ValueError("require shot_level > dark_level >= 0")
        object.__setattr__(self, "notch_list",
                           tuple(tuple(n) for n in self.notch_list))
        for center, depth_db, width in self.notch_list:
            if not depth_db >= 0:
                raise ValueError("notch depth must be >= 0 dB")
            if not width > 0:
                raise ValueError("notch width must be > 0")
        if not self.cavity_noise_width > 0:
            raise ValueError("cavity_noise_width must be > 0")


@dataclass(frozen=True)
class DetectorResponse:
    """Relative detector sensitivity on a frequency grid (rad/s)."""

    freq_grid: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.freq_grid, dtype=float)
        gain = np.asarray(self.gain, dtype=float)
        if grid.ndim != 1 or grid.shape != gain.shape:
            raise ValueError("freq_grid and gain must be 1-d arrays of equal length")
        if not (np.isfinite(grid).all() and np.isfinite(gain).all()):
            raise ValueError("freq_grid and gain must be finite")
        if np.any(grid[1:] <= grid[:-1]):
            raise ValueError("freq_grid must be strictly increasing")
        if np.any(gain <= 0):
            raise ValueError("gain must be positive everywhere")
        object.__setattr__(self, "freq_grid", grid)
        object.__setattr__(self, "gain", gain)


def _notch_factor(omega, center, depth_db, width):
    # Inverted Lorentzian in the dB domain, normalized to full depth at the
    # notch center; width is the FWHM of the dB dip.
    half2 = (width / 2.0) ** 2
    # far from the notch (|omega - center| >= ~1e154) the square overflows
    # to inf and the shape to 0, which is the right limit: no warning
    with np.errstate(over="ignore"):
        shape = half2 / ((omega - center) ** 2 + half2)
    return 10.0 ** (-depth_db * shape / 10.0)


def phase_noise_psd(profile: NoiseProfile, omega):
    """Laser phase noise PSD (rad^2/Hz) at angular frequency omega.

    The base level is suppressed inside each feedback notch; suppression
    factors of simultaneous notches multiply.
    """
    omega = np.asarray(omega, dtype=float)
    out = np.full_like(omega, profile.phase_noise_base)
    for center, depth_db, width in profile.notch_list:
        out = out * _notch_factor(omega, center, depth_db, width)
    return out if out.ndim else float(out)


def cavity_noise_background(profile: NoiseProfile, omega, s_phi):
    """Phase-noise pedestal in cavity transmission around the cavity line.

    A Lorentzian bump (FWHM = cavity_noise_width) centered on the cavity
    resonance, with peak value s_phi.  A forward-model term only: no
    inverse code fits it.
    """
    omega = np.asarray(omega, dtype=float)
    half2 = (profile.cavity_noise_width / 2.0) ** 2
    out = s_phi * half2 / ((omega - profile.cavity_noise_center) ** 2 + half2)
    return out if out.ndim else float(out)


def detector_gain(resp: DetectorResponse, omega):
    """Interpolated detector sensitivity; errors outside the calibrated span."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = resp.freq_grid[0], resp.freq_grid[-1]
    if np.any(omega < lo) or np.any(omega > hi):
        raise UncalibratedFrequencyError(
            f"uncalibrated frequency: outside [{lo:g}, {hi:g}] rad/s")
    out = np.interp(omega, resp.freq_grid, resp.gain)
    return out if out.ndim else float(out)
