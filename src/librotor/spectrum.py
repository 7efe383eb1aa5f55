"""Forward model: synthetic heterodyne PSD traces with Stokes/anti-Stokes
sideband pairs on top of the modeled noise floors."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import physics
from .errors import NoNetCoolingError, SidebandOutsideBandError
from .noise import (DetectorResponse, NoiseProfile, cavity_noise_background,
                    detector_gain, phase_noise_psd)
from .physics import LibrationMode, OpticalSetup

TWO_PI = 2.0 * math.pi

CHANNELS = ("backscatter_y", "cavity_y", "cavity_z", "split_x", "split_y")

# With the LO blue of the tweezer, the up-converted (anti-Stokes) photon
# beats at omega_het - Omega and the Stokes photon at omega_het + Omega.
ORIENT_LO_BLUE = "lo_blue"
ORIENT_LO_RED = "lo_red"


@dataclass(frozen=True)
class PsdTrace:
    """One measured or synthetic PSD: detection-band frequency grid (Hz),
    spectral values, and acquisition metadata."""

    freq_hz: np.ndarray
    values: np.ndarray
    meta: dict

    def __post_init__(self):
        freq = np.asarray(self.freq_hz, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if freq.ndim != 1 or freq.shape != vals.shape or freq.size < 16:
            raise ValueError("freq_hz and values must be equal-length 1-d arrays, >= 16 bins")
        if not (np.isfinite(freq).all() and np.isfinite(vals).all()):
            raise ValueError("freq_hz and values must be finite")
        if np.any(np.diff(freq) <= 0):
            raise ValueError("freq_hz must be strictly increasing")
        if np.any(vals < 0):
            raise ValueError("PSD values must be >= 0")
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SidebandSpec:
    """Sideband pair of one mode: true occupation, area scale C, and the
    (effective) linewidth and center frequency to draw at."""

    mode: LibrationMode
    n_true: float
    area_scale_c: float
    linewidth: float  # rad/s, FWHM
    center: float | None = None  # rad/s; defaults to the bare mode frequency

    def __post_init__(self):
        if self.n_true < 0:
            raise ValueError("n_true must be >= 0")
        if self.area_scale_c <= 0:
            raise ValueError("area_scale_c must be > 0")
        if self.linewidth <= 0:
            raise ValueError("linewidth must be > 0")

    @property
    def center_or_bare(self) -> float:
        return self.mode.omega if self.center is None else self.center


def lorentzian(x, center, fwhm, area, offset=0.0):
    """Area-normalized Lorentzian: offset + (area/pi)(w/2)/((x-c)^2+(w/2)^2)."""
    half = fwhm / 2.0
    return offset + (area / math.pi) * half / ((np.asarray(x, float) - center) ** 2 + half ** 2)


def default_grid(het_freq_hz: float, omega_max: float, n_bins: int = 2048,
                 span_factor: float = 1.5) -> np.ndarray:
    """Analysis grid spanning het_freq_hz +/- span_factor * Omega_max."""
    span = span_factor * omega_max / TWO_PI
    return np.linspace(het_freq_hz - span, het_freq_hz + span, n_bins)


def mean_psd(specs, noise: NoiseProfile, resp: DetectorResponse | None,
             grid_hz: np.ndarray, het_freq_hz: float,
             sideband_orientation: str = ORIENT_LO_BLUE) -> np.ndarray:
    """Noise-free (infinite-average) PSD on the given grid."""
    grid_hz = np.asarray(grid_hz, dtype=float)
    omega = TWO_PI * grid_hz
    gain = 1.0 if resp is None else detector_gain(resp, omega)
    optical = np.full_like(grid_hz, noise.shot_level)
    optical = optical + cavity_noise_background(noise, omega, phase_noise_psd(noise, omega))
    sign = -1.0 if sideband_orientation == ORIENT_LO_BLUE else 1.0
    for spec in specs:
        f_mode = spec.center_or_bare / TWO_PI
        fwhm_hz = spec.linewidth / TWO_PI
        f_anti = het_freq_hz + sign * f_mode
        f_stokes = het_freq_hz - sign * f_mode
        for f0, area in ((f_stokes, spec.area_scale_c * (spec.n_true + 1.0)),
                         (f_anti, spec.area_scale_c * spec.n_true)):
            if not grid_hz[0] <= f0 <= grid_hz[-1]:
                raise SidebandOutsideBandError(
                    f"sideband outside analysis band: {f0:g} Hz")
            if area > 0.0:
                optical = optical + lorentzian(grid_hz, f0, fwhm_hz, area)
    return noise.dark_level + gain * optical


def synthesize_psd(specs, noise: NoiseProfile, resp: DetectorResponse | None,
                   grid_hz: np.ndarray, averages: float,
                   het_freq_hz: float, seed: int | None = None,
                   sideband_orientation: str = ORIENT_LO_BLUE,
                   channel: str = "backscatter_y",
                   detuning_hz: float | None = None) -> PsdTrace:
    """Synthesize one averaged-periodogram PSD trace.

    Per-bin values are Gamma-distributed around the deterministic mean with
    shape = averages (relative std 1/sqrt(averages)); averages = inf yields
    the mean itself.  Identical seed and parameters give bit-identical traces.
    """
    if averages < 1:
        raise ValueError("averages must be >= 1")
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    mean = mean_psd(specs, noise, resp, grid_hz, het_freq_hz, sideband_orientation)
    if math.isinf(averages):
        values = mean.copy()
    else:
        rng = np.random.default_rng(noise.seed if seed is None else seed)
        values = mean * rng.gamma(shape=averages, scale=1.0 / averages, size=mean.size)
    meta = {
        "detuning_hz": detuning_hz,
        "het_freq_hz": het_freq_hz,
        "averages": averages,
        "seed": seed,
        "channel": channel,
        "sideband_orientation": sideband_orientation,
    }
    return PsdTrace(freq_hz=np.asarray(grid_hz, float), values=values, meta=meta)


@dataclass(frozen=True)
class ScanPoint:
    """One detuning step of a synthetic scan: the trace (None when the
    physics rejects the detuning) and the generating ground truth."""

    detuning_hz: float
    trace: PsdTrace | None
    error: str | None
    truth: dict


def scan_series(modes, optics: OpticalSetup, noise: NoiseProfile,
                resp: DetectorResponse | None, grid_hz: np.ndarray,
                averages: float, het_freq_hz: float, detunings_hz,
                area_scale_c: float = 1.0, seed: int = 0,
                sideband_orientation: str = ORIENT_LO_BLUE,
                channel: str = "backscatter_y") -> list[ScanPoint]:
    """Synthesize a detuning scan.

    For each detuning the occupation, effective linewidth, and effective
    frequency of every mode are recomputed from the closed-form model before
    synthesis.  A detuning with no net cooling yields an invalid point
    instead of failing the whole series.
    """
    points = []
    for i, det_hz in enumerate(detunings_hz):
        optics_i = replace(optics, detuning=TWO_PI * det_hz)
        specs = []
        truth = {}
        error = None
        try:
            for mode in modes:
                s_phi = phase_noise_psd(noise, mode.omega)
                occ = physics.steady_state_occupation(mode, optics_i, s_phi)
                gamma_eff = physics.effective_linewidth(mode, optics_i, mode.omega)
                omega_eff = physics.effective_frequency(mode, optics_i, mode.omega)
                specs.append(SidebandSpec(mode=mode, n_true=occ.n_total,
                                          area_scale_c=area_scale_c,
                                          linewidth=gamma_eff, center=omega_eff))
                truth[mode.label] = {"n": occ.n_total, "n_phase": occ.n_phase,
                                     "linewidth": gamma_eff, "center": omega_eff}
        except NoNetCoolingError as exc:
            points.append(ScanPoint(det_hz, None, str(exc), {}))
            continue
        trace = synthesize_psd(specs, noise, resp, grid_hz, averages,
                               het_freq_hz, seed=seed + i,
                               sideband_orientation=sideband_orientation,
                               channel=channel, detuning_hz=det_hz)
        points.append(ScanPoint(det_hz, trace, error, truth))
    return points
