"""Sideband-asymmetry thermometry: detector calibration, sideband-pair
fitting, area-scale calibration, and occupation extraction with propagated
uncertainties, plus the full detuning-scan analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import physics
from .errors import (CalibrationError, DegenerateFitError, LibrotorError,
                     UnderdeterminedScanError, UnphysicalAsymmetryError)
from .fitting import (MIN_SCAN_POINTS, LorentzianFit, ScanFitResult,
                      fifth_percentile, fit_lorentzian, fit_occupation_curve,
                      fit_scan_frequency, fit_scan_linewidth, linear_lstsq,
                      window_bins)
from .noise import DetectorResponse, detector_gain
from .physics import TWO_PI, DerivedScalars, OpticalSetup
from .spectrum import (CHANNEL_MODE, DEFAULT_CHANNEL, ORIENT_LO_BLUE, PsdTrace,
                       lorentzian, sideband_frequencies)

# Half-width (Hz) of the window each sideband peak is fitted in.
WINDOW_HALFWIDTH_HZ = 50e3

METHOD_RATIO = "ratio"
METHOD_DIFFCAL = "difference_calibrated"


@dataclass(frozen=True)
class OccupationResult:
    """Phonon occupation from one sideband pair."""

    n: float
    n_err: float
    c_factor: float
    areas: tuple[tuple[float, float], tuple[float, float]]  # (stokes, anti) as (value, err)
    ground_state_prob: float
    method: str
    stokes_fit: LorentzianFit
    anti_fit: LorentzianFit


def _median5(values):
    """Running median over 5 bins; the end bins are repeated to fill the
    windows at the edges."""
    windows = sliding_window_view(np.pad(values, 2, mode="edge"), 5)
    return np.partition(windows, 2, axis=-1)[:, 2]


def calibrate_response(shot_trace: PsdTrace, dark_trace: PsdTrace) -> DetectorResponse:
    """Detector sensitivity from shot and dark calibration traces.

    gain = (shot - dark) per bin, median-smoothed over 5 bins and normalized
    to unit median; bins with shot <= dark are invalidated and interpolated.
    """
    if not np.array_equal(shot_trace.freq_hz, dark_trace.freq_hz):
        raise CalibrationError("calibration traces do not share a frequency grid")
    diff = shot_trace.values - dark_trace.values
    bad = diff <= 0
    if np.count_nonzero(bad) > 0.2 * diff.size:
        raise CalibrationError("calibration traces inconsistent: >20% of bins "
                               "have shot <= dark")
    if np.any(bad):
        good = ~bad
        diff = diff.copy()
        diff[bad] = np.interp(shot_trace.freq_hz[bad], shot_trace.freq_hz[good],
                              diff[good])
    gain = _median5(diff)
    gain = gain / np.median(gain)
    return DetectorResponse(TWO_PI * shot_trace.freq_hz, gain)


def gain_corrected(freq, vals, resp: DetectorResponse | None) -> np.ndarray:
    """Values measured at freq (Hz) divided by the detector gain (as they
    are without a response)."""
    if resp is None:
        return vals
    return vals / detector_gain(resp, TWO_PI * freq)


def _constrained_area_fit(freq, vals, center, fwhm, averages):
    """Linear weighted LSQ for (area, offset) with the peak shape pinned."""
    shape = lorentzian(freq, center, fwhm, 1.0)
    design = np.column_stack([shape, np.ones_like(freq)])
    params, cov = linear_lstsq(design, vals)
    if averages is not None:
        w = averages / np.maximum(design @ params, fifth_percentile(vals)) ** 2
        params, cov = linear_lstsq(design, vals, w)
    full_cov = np.zeros((4, 4))
    full_cov[2, 2] = cov[0, 0]
    full_cov[3, 3] = cov[1, 1]
    full_cov[2, 3] = full_cov[3, 2] = cov[0, 1]
    return LorentzianFit(center=center, linewidth_fwhm=fwhm,
                         area=float(params[0]), offset=float(params[1]),
                         covariance=full_cov, converged=True, pinned=True)


def trace_averages(trace: PsdTrace) -> float | None:
    """The averages behind a trace, from its metadata: None (unweighted
    fits) when unknown or infinite."""
    averages = trace.meta.get("averages")
    return None if averages is None or math.isinf(averages) else averages


def _het_freq_hz(meta: dict) -> float:
    """A trace's heterodyne carrier (Hz), from its metadata."""
    het = meta.get("het_freq_hz")
    if het is None:
        raise LibrotorError("trace metadata lacks het_freq_hz")
    return het


def fit_sideband_pair(trace: PsdTrace, resp: DetectorResponse | None,
                      mode_freq_hint_hz: float) -> tuple[LorentzianFit, LorentzianFit]:
    """Gain-correct the two sideband windows and fit the Stokes and
    anti-Stokes peaks.

    Each sideband gets its own local offset.  When the free anti-Stokes fit
    fails or wanders off the mirrored position, the fit is retried with
    center and width pinned to the Stokes values (area stays free, so a
    vanishing peak gives area ~ 0 with a finite error).  A Stokes line
    narrower than a quarter of the bin spacing is not resolved: its fit
    measures noise, so the pair is rejected.
    """
    het = _het_freq_hz(trace.meta)
    freq = trace.freq_hz
    if resp is not None:  # the whole grid must lie in the calibrated span
        detector_gain(resp, TWO_PI * freq[[0, -1]])
    f_stokes, f_anti = sideband_frequencies(
        het, mode_freq_hint_hz,
        trace.meta.get("sideband_orientation", ORIENT_LO_BLUE))
    averages = trace_averages(trace)
    hw = WINDOW_HALFWIDTH_HZ

    def window(f_center):  # the bins within hw of f_center, gain-corrected
        bins = window_bins(freq, (f_center - hw, f_center + hw))
        return freq[bins], gain_corrected(freq[bins], trace.values[bins], resp)

    stokes = fit_lorentzian(*window(f_stokes), averages)
    bin_hz = (freq[-1] - freq[0]) / (freq.size - 1)
    if stokes.linewidth_fwhm < 0.25 * bin_hz:
        raise LibrotorError(
            f"unresolved sideband: fitted width {stokes.linewidth_fwhm:.3g} Hz "
            f"is below a quarter of the {bin_hz:.3g} Hz bin spacing")
    mirror = 2.0 * het - stokes.center
    init = np.array([mirror, stokes.linewidth_fwhm, stokes.area * 0.5,
                     stokes.offset])
    anti_freq, anti_vals = window(f_anti)
    try:
        anti = fit_lorentzian(anti_freq, anti_vals, averages, init=init)
        ok = (anti.converged
              and 0.25 * stokes.linewidth_fwhm <= anti.linewidth_fwhm
              <= 4.0 * stokes.linewidth_fwhm
              and abs(anti.center - mirror) <= 3.0 * stokes.linewidth_fwhm)
    except DegenerateFitError:
        anti, ok = None, False
    if not ok:
        anti = _constrained_area_fit(anti_freq, anti_vals, mirror,
                                     stokes.linewidth_fwhm, averages)
    return stokes, anti


def _or_error(fn, *args):
    """fn(*args), or the LibrotorError it raised."""
    try:
        return fn(*args)
    except LibrotorError as exc:
        return exc


def _occupation_from_areas(a_s, err_s, a_as, err_as, method, c, c_err):
    if method == METHOD_RATIO:
        if a_as < 0.0:
            if a_as >= -2.0 * err_as:
                # consistent with the ground state: clamp, keep an upper error
                n_err = err_as / max(a_s, 1e-300)
                return 0.0, max(n_err, 1e-300), a_s - a_as
            raise UnphysicalAsymmetryError(
                "unphysical asymmetry: anti-Stokes area negative beyond 2 sigma")
        if a_s <= a_as:
            raise UnphysicalAsymmetryError(
                "unphysical asymmetry: Stokes area does not exceed anti-Stokes")
        diff = a_s - a_as
        n = a_as / diff
        dn_ds = -a_as / diff ** 2
        dn_das = a_s / diff ** 2
        n_err = math.sqrt((dn_ds * err_s) ** 2 + (dn_das * err_as) ** 2)
        return n, max(n_err, 1e-300), diff
    # difference-calibrated
    n = (a_s + a_as - c) / (2.0 * c)
    var = (err_s ** 2 + err_as ** 2) / (4.0 * c ** 2)
    var += (c_err * (a_s + a_as) / (2.0 * c ** 2)) ** 2
    if n < 0.0:
        n_err = math.sqrt(var)
        if n >= -2.0 * n_err:
            return 0.0, max(n_err, 1e-300), c
        raise UnphysicalAsymmetryError(
            "unphysical asymmetry: calibrated occupation negative beyond 2 sigma")
    return n, max(math.sqrt(var), 1e-300), c


def occupation_from_fits(stokes: LorentzianFit, anti: LorentzianFit,
                         method: str = METHOD_RATIO,
                         c: tuple[float, float] | float | None = None,
                         ) -> OccupationResult:
    """Occupation with first-order error propagation from a fitted sideband
    pair.

    method 'ratio' uses n = A_aS / (A_S - A_aS); 'difference_calibrated'
    needs a supplied C (a value or a (value, error) pair) and uses
    n = (A_S + A_aS - C) / 2C.
    """
    if method not in (METHOD_RATIO, METHOD_DIFFCAL):
        raise ValueError(f"unknown method {method!r}")
    if method == METHOD_DIFFCAL and c is None:
        raise ValueError("difference_calibrated method requires a C value")
    err_s = stokes.errors()[2]
    err_as = anti.errors()[2]
    c, c_err = c if isinstance(c, tuple) else (float(c or 0.0), 0.0)
    n, n_err, c_used = _occupation_from_areas(stokes.area, err_s, anti.area,
                                              err_as, method, c, c_err)
    return OccupationResult(n=n, n_err=n_err, c_factor=c_used,
                            areas=((stokes.area, float(err_s)),
                                   (anti.area, float(err_as))),
                            ground_state_prob=1.0 / (n + 1.0), method=method,
                            stokes_fit=stokes, anti_fit=anti)


def extract_occupation(trace: PsdTrace, resp: DetectorResponse | None,
                       mode_freq_hint_hz: float,
                       c_override: tuple[float, float] | float | None = None,
                       method: str = METHOD_RATIO) -> OccupationResult:
    """Full single-trace pipeline: gain correction, sideband-pair fit, and
    occupation (see occupation_from_fits)."""
    return occupation_from_fits(*fit_sideband_pair(trace, resp, mode_freq_hint_hz),
                                method, c_override)


@dataclass(frozen=True)
class CFactor:
    """Calibrated sideband area scale C with its uncertainty."""

    c: float
    c_err: float
    consistent: bool


def _chi2_sf(dof, x):
    """Chi-square survival function P(X > x) for an integer dof >= 1.

    The regularized upper incomplete gamma function of half-integer order
    is a finite series: Q(dof) = Q(dof - 2) + (x/2)^(dof/2 - 1) e^(-x/2) /
    Gamma(dof/2), from Q(0) = 0 or Q(1) = erfc(sqrt(x/2)).
    """
    if x == math.inf:
        return 0.0
    if dof % 2:
        q, k = math.erfc(math.sqrt(0.5 * x)), 1
        term = math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)
    else:
        q, k, term = 0.0, 0, math.exp(-0.5 * x)
    while k < dof:  # term = (x/2)^(k/2) e^(-x/2) / Gamma(k/2 + 1)
        q += term
        k += 2
        term *= x / k
    return q


def calibrate_c(area_records) -> CFactor:
    """Inverse-variance-weighted mean of (A_S - A_aS) across a scan series.

    area_records: iterable of (a_stokes, err_stokes, a_anti, err_anti).
    Mutual inconsistency (chi-square p < 1e-3) sets the warning flag, it is
    not a failure.
    """
    rec = np.asarray(list(area_records), dtype=float)
    if rec.shape[0] < 2:
        raise LibrotorError("C calibration needs at least 2 spectra")
    diffs = rec[:, 0] - rec[:, 2]
    var = rec[:, 1] ** 2 + rec[:, 3] ** 2
    if np.all(var > 0):
        w = 1.0 / var
        c = float(np.sum(w * diffs) / np.sum(w))
        c_err = float(1.0 / math.sqrt(np.sum(w)))
        chi2 = float(np.sum((diffs - c) ** 2 / var))
        p = _chi2_sf(max(diffs.size - 1, 1), chi2)
    else:
        c = float(np.mean(diffs))
        scatter = float(np.std(diffs, ddof=1)) if diffs.size > 1 else 0.0
        c_err = scatter / math.sqrt(diffs.size)
        p = 1.0 if scatter == 0.0 else 0.0
    return CFactor(c=c, c_err=c_err, consistent=p >= 1e-3)


# ---------------------------------------------------------------------------
# full scan analysis

@dataclass(frozen=True)
class TraceAnalysis:
    detuning_hz: float
    occupation: OccupationResult | None
    error: str | None = None


@dataclass(frozen=True)
class ModeScanReport:
    """Scan analysis of one channel.  A channel with too few analyzable
    traces keeps only its per-trace results and the reason in `error`
    (n_best is None exactly then); `error` also says why a scan fit was
    skipped."""

    label: str
    channel: str
    traces: list[TraceAnalysis]
    c_cal: CFactor | None = None
    frequency_fit: ScanFitResult | None = None
    linewidth_fit: ScanFitResult | None = None
    occupation_fit: ScanFitResult | None = None
    inertia: float | None = None
    derived: DerivedScalars | None = None
    n_best: float | None = None
    n_best_err: float | None = None
    best_detuning_hz: float | None = None
    error: str | None = None


def trace_hint(trace: PsdTrace) -> float | LibrotorError:
    """The offset (Hz) of the trace's dominant sideband from its heterodyne
    carrier, or the LibrotorError of a trace without a carrier or without
    a sideband band on its grid."""
    het = _or_error(_het_freq_hz, trace.meta)
    if isinstance(het, LibrotorError):
        return het
    offsets = np.abs(trace.freq_hz - het)
    span = trace.freq_hz[-1] - trace.freq_hz[0]
    idx = np.flatnonzero((offsets > 0.05 * span) & (offsets < 0.48 * span))
    if idx.size == 0:
        return LibrotorError(f"no sideband band on the grid around the {het:g} Hz carrier")
    return float(offsets[idx[np.argmax(trace.values[idx])]])


def _channel_groups(metas) -> dict[str, list[int]]:
    """The indices of each channel's traces in scan order, by channel name
    (DEFAULT_CHANNEL for a trace without one)."""
    groups: dict[str, list[int]] = {}
    for i, meta in enumerate(metas):
        groups.setdefault(meta.get("channel", DEFAULT_CHANNEL), []).append(i)
    return {channel: sorted(groups[channel],
                            key=lambda i: metas[i].get("detuning_hz") or 0.0)
            for channel in sorted(groups)}


def channel_hints(metas, hints) -> list:
    """The hint rule of the occupation pass: the hint each trace is fitted
    at, from the traces' metadata and trace_hint results.  A trace keeps its
    own hint's LibrotorError, or else takes its channel's first float hint
    in scan order, so a two-mode channel is analysed at one line."""
    fitted = list(hints)
    for idx in _channel_groups(metas).values():
        floats = [i for i in idx if isinstance(hints[i], float)]
        for i in floats:
            fitted[i] = hints[floats[0]]
    return fitted


def sideband_pair(trace: PsdTrace, resp: DetectorResponse | None, hint):
    """The trace's sideband pair fitted at hint, its channel_hints result,
    or the LibrotorError of that hint or of the fit."""
    if isinstance(hint, LibrotorError):
        return hint
    return _or_error(fit_sideband_pair, trace, resp, hint)


def channel_occupations(metas, pairs, method: str,
                        ) -> dict[str, tuple[list[int], list, CFactor | None]]:
    """The reduce of the occupation pass, over the traces' metadata and
    sideband_pair results: per channel (_channel_groups), its trace indices,
    each trace's OccupationResult or LibrotorError, and the channel's area
    scale C, calibrated from the ratio areas when 2 traces give them;
    without C each diffcal trace fails."""
    def occupations(idx, estimator, c=None):
        return [pairs[i] if isinstance(pairs[i], LibrotorError)
                else _or_error(occupation_from_fits, *pairs[i], estimator, c)
                for i in idx]

    passes = {}
    for channel, idx in _channel_groups(metas).items():
        results = occupations(idx, METHOD_RATIO)
        ratio = [o for o in results if isinstance(o, OccupationResult)]
        c_cal = (calibrate_c([(*o.areas[0], *o.areas[1]) for o in ratio])
                 if len(ratio) >= 2 else None)
        if method == METHOD_DIFFCAL and c_cal is not None:
            results = occupations(idx, METHOD_DIFFCAL, (c_cal.c, c_cal.c_err))
        elif method == METHOD_DIFFCAL:
            error = LibrotorError(f"difference-calibrated analysis needs at "
                                  f"least 2 analyzable traces on channel "
                                  f"{channel} to calibrate C")
            results = [error if isinstance(o, OccupationResult) else o
                       for o in results]
        passes[channel] = idx, results, c_cal
    return passes


def analyze_scan(traces, setup: OpticalSetup,
                 resp: DetectorResponse | None = None,
                 method: str = METHOD_DIFFCAL) -> list[ModeScanReport]:
    """End-to-end analysis of a detuning scan, one report per channel.

    Traces are grouped by detection channel (one librational mode per cavity
    channel).  Per-trace sideband fits feed the C calibration, the
    occupation extraction, and the three scan fits; the coupling from the
    linewidth fit then gives the moment of inertia and derived scalars.
    UnderdeterminedScanError is raised only when no channel has enough
    analyzable traces.
    """
    metas = [t.meta for t in traces]
    hints = channel_hints(metas, [trace_hint(t) for t in traces])
    return scan_reports(metas, [sideband_pair(t, resp, h)
                                for t, h in zip(traces, hints)], setup, method)


def scan_reports(metas, pairs, setup: OpticalSetup,
                 method: str = METHOD_DIFFCAL) -> list[ModeScanReport]:
    """analyze_scan from the traces' metadata and sideband_pair results."""
    reports = [_analyze_channel(channel, [metas[i] for i in idx], results,
                                c_cal, setup)
               for channel, (idx, results, c_cal)
               in channel_occupations(metas, pairs, method).items()]
    if all(mode.n_best is None for mode in reports):
        raise UnderdeterminedScanError("; ".join(mode.error for mode in reports))
    return reports


def _analyze_channel(channel, ch_metas, results, c_cal, setup) -> ModeScanReport:
    label = CHANNEL_MODE.get(channel, "alpha")
    fitted = [(meta, o) for meta, o in zip(ch_metas, results)
              if isinstance(o, OccupationResult)]
    analyses = [TraceAnalysis(meta.get("detuning_hz"),
                              *((o, None) if isinstance(o, OccupationResult)
                                else (None, str(o))))
                for meta, o in zip(ch_metas, results)]
    if len(fitted) < MIN_SCAN_POINTS:
        return ModeScanReport(label, channel, analyses, c_cal,
                              error=f"underdetermined scan: only {len(fitted)} "
                                    f"analyzable traces on channel {channel}")

    # Build scan-fit inputs: the sideband pair gives two estimates each of
    # the effective frequency and linewidth; combine by inverse variance.
    freq_pts, lw_pts, occ_pts = [], [], []
    for meta, occ in fitted:
        det_hz = meta.get("detuning_hz")
        if det_hz is None:
            continue
        het = _het_freq_hz(meta)
        ests_f, ests_w = [], []
        for fit in (occ.stokes_fit, occ.anti_fit):
            if fit.pinned:
                continue  # constrained fit carries no frequency information
            errs = fit.errors()
            ests_f.append((abs(fit.center - het), errs[0]))
            ests_w.append((fit.linewidth_fwhm, errs[1]))
        f_eff, f_err = _ivw(ests_f)
        w_eff, w_err = _ivw(ests_w)
        det = TWO_PI * det_hz
        freq_pts.append((det, TWO_PI * f_eff, TWO_PI * f_err))
        lw_pts.append((det, TWO_PI * w_eff, TWO_PI * w_err))
        occ_pts.append((det, occ.n, occ.n_err))

    frequency_fit = linewidth_fit = occupation_fit = inertia = derived = None
    error = None
    try:
        frequency_fit = fit_scan_frequency(freq_pts, setup.kappa)
        omega_bare = frequency_fit.omega_bare
        linewidth_fit = fit_scan_linewidth(lw_pts, omega_bare, setup.kappa)
        occupation_fit = fit_occupation_curve(occ_pts, omega_bare, setup.kappa,
                                              g_fixed=linewidth_fit.g_abs)
    except (UnderdeterminedScanError, DegenerateFitError) as exc:
        error = str(exc)

    n_best, n_best_err, best_det = min(
        ((o.n, o.n_err, meta.get("detuning_hz")) for meta, o in fitted),
        key=lambda v: v[0])

    if linewidth_fit is not None and abs(setup.e_cav0) > 0 \
            and abs(setup.e_tw0) > 0:
        inertia = physics.moment_of_inertia_from_coupling(
            linewidth_fit.g_abs, omega_bare, setup)
        derived = physics.derived_scalars(omega_bare, n_best, inertia)

    return ModeScanReport(
        label=label, channel=channel, traces=analyses, c_cal=c_cal,
        frequency_fit=frequency_fit, linewidth_fit=linewidth_fit,
        occupation_fit=occupation_fit, inertia=inertia, derived=derived,
        n_best=n_best, n_best_err=n_best_err, best_detuning_hz=best_det,
        error=error)


def _ivw(estimates):
    """Inverse-variance-weighted mean of (value, err) pairs."""
    vals = np.array([v for v, _ in estimates], dtype=float)
    errs = np.array([e for _, e in estimates], dtype=float)
    if np.all(errs > 0):
        w = 1.0 / errs ** 2
        return float(np.sum(w * vals) / np.sum(w)), float(1.0 / math.sqrt(np.sum(w)))
    return float(np.mean(vals)), float(np.max(errs))
