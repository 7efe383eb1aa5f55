"""Forward model: synthetic heterodyne PSD traces with Stokes/anti-Stokes
sideband pairs on top of the modeled noise floors."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import physics
from .errors import LibrotorError, SidebandOutsideBandError
from .noise import (DetectorResponse, NoiseProfile, cavity_noise_background,
                    detector_gain, phase_noise_psd)
from .physics import TWO_PI, LibrationMode, OpticalSetup

CHANNELS = ("backscatter_y", "cavity_y", "cavity_z", "split_x", "split_y")
DEFAULT_CHANNEL = CHANNELS[0]  # of a trace whose sidecar names none
# Which cavity channel carries which librational mode; others carry every mode.
CHANNEL_MODE = {"cavity_y": "alpha", "cavity_z": "beta"}
# Trace channel and kinds of the calibration spectra: LO only, detector only.
CAL_CHANNEL, CAL_KINDS = "calibration", ("shot", "dark")

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
        if np.any(freq[1:] <= freq[:-1]):
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
        if not self.n_true >= 0:
            raise ValueError("n_true must be >= 0")
        for name in ("area_scale_c", "linewidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def center_or_bare(self) -> float:
        return self.mode.omega if self.center is None else self.center


def lorentzian(x, center, fwhm, area, offset=0.0):
    """Area-normalized Lorentzian: offset + (area/pi)(w/2)/((x-c)^2+(w/2)^2)."""
    return _lorentzian_at((np.asarray(x, float) - center) ** 2, fwhm / 2.0, area, offset)[0]


def _lorentzian_at(dx2, half, area, offset):
    """lorentzian at dx2 = (x - c)^2 with half = w/2, and its denominator."""
    den = dx2 + half ** 2
    return offset + (area / math.pi) * half / den, den


def sideband_frequencies(het_hz: float, f_mode_hz: float,
                         orientation: str) -> tuple[float, float]:
    """(f_stokes, f_anti) in Hz of a mode at f_mode_hz beating against a
    carrier at het_hz, for either LO orientation."""
    sign = -1.0 if orientation == ORIENT_LO_BLUE else 1.0
    return het_hz - sign * f_mode_hz, het_hz + sign * f_mode_hz


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


def periodogram_draw(mean: np.ndarray, averages: float, seed: int) -> np.ndarray:
    """Averaged-periodogram values around a mean PSD: Gamma-distributed per
    bin with shape = averages (relative std 1/sqrt(averages)); averages =
    inf yields a copy of the mean."""
    if math.isinf(averages):
        return mean.copy()
    rng = np.random.default_rng(seed)
    return mean * rng.gamma(shape=averages, scale=1.0 / averages, size=mean.size)


def synthesize_psd(specs, noise: NoiseProfile, resp: DetectorResponse | None,
                   grid_hz: np.ndarray, averages: float,
                   het_freq_hz: float, seed: int = 0,
                   sideband_orientation: str = ORIENT_LO_BLUE,
                   channel: str = DEFAULT_CHANNEL,
                   detuning_hz: float | None = None) -> PsdTrace:
    """Synthesize one averaged-periodogram PSD trace.

    Values are drawn around the deterministic mean by periodogram_draw.
    Identical seed and parameters give bit-identical traces.
    """
    if averages < 1:
        raise ValueError("averages must be >= 1")
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    mean = mean_psd(specs, noise, resp, grid_hz, het_freq_hz, sideband_orientation)
    values = periodogram_draw(mean, averages, seed)
    meta = {
        "detuning_hz": detuning_hz,
        "het_freq_hz": het_freq_hz,
        "averages": averages,
        "seed": seed,
        "channel": channel,
        "sideband_orientation": sideband_orientation,
    }
    return PsdTrace(freq_hz=np.asarray(grid_hz, float), values=values, meta=meta)


def calibration_trace(kind: str, noise: NoiseProfile, grid_hz: np.ndarray,
                      averages: float, het_freq_hz: float, seed: int) -> PsdTrace:
    """The shot (LO only: dark + shot level) or dark (detector only)
    calibration spectrum, drawn at seed + 9001 or seed + 9002."""
    if kind not in CAL_KINDS:
        raise ValueError(f"unknown calibration kind {kind!r}")
    shot = kind == "shot"
    level = noise.dark_level + noise.shot_level if shot else noise.dark_level
    seed += 9001 if shot else 9002
    values = periodogram_draw(np.full(grid_hz.size, level), averages, seed)
    meta = {"detuning_hz": None, "het_freq_hz": het_freq_hz, "averages": averages,
            "seed": seed, "channel": CAL_CHANNEL, "kind": kind}
    return PsdTrace(grid_hz, values, meta)


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
                channel: str = DEFAULT_CHANNEL) -> list[ScanPoint]:
    """Synthesize a detuning scan of the modes that channel carries.

    For each detuning the occupation, effective linewidth, and effective
    frequency of each mode are recomputed from the closed-form model before
    synthesis.  A detuning yields an invalid point, with the error's message,
    instead of failing the whole series when the model raises for it: no net
    cooling, a spring instability, a sideband outside the grid's span, or a
    spectrum that is not finite.
    """
    modes = [m for m in modes if CHANNEL_MODE.get(channel, m.label) == m.label]
    points = []
    for i, det_hz in enumerate(detunings_hz):
        optics_i = replace(optics, detuning=TWO_PI * det_hz)
        specs = []
        truth = {}
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
            trace = synthesize_psd(specs, noise, resp, grid_hz, averages,
                                   het_freq_hz, seed=seed + i,
                                   sideband_orientation=sideband_orientation,
                                   channel=channel, detuning_hz=det_hz)
        except (LibrotorError, ArithmeticError, ValueError) as exc:
            points.append(ScanPoint(det_hz, None, str(exc), {}))
            continue
        points.append(ScanPoint(det_hz, trace, None, truth))
    return points
