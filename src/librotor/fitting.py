"""Weighted nonlinear least squares (damped Gauss-Newton) and the model
fitters used by the thermometry and scan pipelines.

All models carry analytic Jacobians.  Convergence: relative parameter step
< 1e-10 and relative cost decrease < 1e-12, or 200 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import physics
from .errors import DegenerateFitError, UnderdeterminedScanError
from .spectrum import PsdTrace, lorentzian

XTOL = 1e-10
FTOL = 1e-12
MAX_ITER = 200

# Scan-fit residual clipping: points beyond CLIP_SIGMA are dropped and the
# fit repeated, at most MAX_CLIP_ROUNDS times.
CLIP_SIGMA = 5.0
MAX_CLIP_ROUNDS = 2

# Fewest scan points (and inliers) a scan fit accepts.
MIN_SCAN_POINTS = 4


# ---------------------------------------------------------------------------
# core optimizer

def levenberg_marquardt(model, jacobian, x, y, p0, weights=None):
    """Minimize sum(w (y - model(x, p))^2) with LM damping.

    weights are 1/sigma^2 per point.  Returns (params, covariance,
    converged, cost).  Covariance is (J^T W J)^-1 at the solution; with unit
    weights it is scaled by the reduced chi-square.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    unit_weights = weights is None
    w = np.ones_like(y) if unit_weights else np.asarray(weights, dtype=float)

    def cost_of(params):
        r = y - model(x, params)
        return r, float((w * r * r).sum())

    r, cost = cost_of(p)
    lam = 1e-3
    converged = False
    for _ in range(MAX_ITER):
        jac = jacobian(x, p)
        jtw = jac.T * w
        a_mat = jtw @ jac
        grad = jtw @ r
        diag = a_mat.diagonal()
        if min(diag.tolist()) <= 0 or not all(map(math.isfinite, a_mat.flat)):
            raise DegenerateFitError("degenerate fit window")
        damped = a_mat + 0.0  # a + lam diag(d) off the diagonal; on it, set per lam
        damped_diag = damped.reshape(-1)[::p.size + 1]
        for _ in range(60):
            np.multiply(diag, lam, out=damped_diag)
            damped_diag += diag
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                raise DegenerateFitError("degenerate fit window") from None
            p_new = p + step
            r_new, cost_new = cost_of(p_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                break
            lam *= 10.0
        else:  # no step in 60 was accepted
            break
        converged = (cost - cost_new) / max(cost, 1e-300) < FTOL and all(
            abs(s) / (abs(q) + 1e-300) < XTOL
            for s, q in zip(step.tolist(), p.tolist()))
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 10.0, 1e-14)
        if converged:
            break

    jac = jacobian(x, p)
    jtw = jac.T * w
    a_mat = jtw @ jac
    try:
        cov = np.linalg.inv(a_mat)
    except np.linalg.LinAlgError:
        raise DegenerateFitError("degenerate fit window") from None
    if unit_weights:
        dof = max(y.size - p.size, 1)
        cov = cov * (cost / dof)
    return p, cov, converged, cost


def linear_lstsq(design, y, w=None):
    """Weighted linear least squares for y ~ design @ p.

    Returns (p, covariance) with covariance (D^T W D)^-1; with unit weights
    (w None) it is scaled by the reduced chi-square.
    """
    wd = design * (np.ones_like(y) if w is None else w)[:, None]
    a_mat = wd.T @ design
    try:
        params = np.linalg.solve(a_mat, wd.T @ y)
        cov = np.linalg.inv(a_mat)
    except np.linalg.LinAlgError:
        raise DegenerateFitError("degenerate fit window") from None
    if w is None:
        resid = y - design @ params
        cov = cov * float(np.sum(resid ** 2)) / max(y.size - design.shape[1], 1)
    return params, cov


# ---------------------------------------------------------------------------
# Lorentzian peak fits

@dataclass(frozen=True)
class LorentzianFit:
    """Fitted peak: center and FWHM in Hz, area in PSD*Hz, plus offset."""

    center: float
    linewidth_fwhm: float
    area: float
    offset: float
    covariance: np.ndarray
    converged: bool
    pinned: bool = False  # center and width fixed, only area and offset fitted

    def errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


def _lorentz_model(x, p):
    c, fwhm, area, offset = p
    return lorentzian(x, c, abs(fwhm), area, offset)


def _lorentz_jac(x, p):
    c, fwhm, area, _ = p.tolist()
    half, scale = abs(fwhm) / 2.0, area / math.pi
    dx = x - c
    dx2 = dx * dx
    den = dx2 + half * half
    jac = np.empty((x.size, 4))
    col0, col1, col2 = jac[:, 0], jac[:, 1], jac[:, 2]
    # trial steps may explore huge linewidths; an inf here just makes the
    # step rejectable, so the overflow is not worth a warning
    with np.errstate(over="ignore"):
        den2 = den * den
        np.divide(np.multiply(dx, scale * half * 2.0, out=col0), den2, out=col0)
        np.multiply(np.subtract(dx2, half * half, out=col1), scale, out=col1)
        col1 /= den2
        col1 /= 2.0
    np.divide(half, np.multiply(den, math.pi, out=col2), out=col2)
    jac[:, 3] = 1.0
    return jac


def initial_lorentzian_guess(freq, vals):
    """Heuristic start: max bin center (ties -> lower frequency), half-max
    crossing width, trapezoid area above the edge-median offset."""
    freq = np.asarray(freq, float)
    vals = np.asarray(vals, float)
    n_edge = max(2, vals.size // 8)
    offset = float(np.median(np.concatenate([vals[:n_edge], vals[-n_edge:]])))
    imax = int(np.argmax(vals))  # argmax returns the first (lower-freq) max
    center = float(freq[imax])
    peak = vals[imax] - offset
    half_level = offset + peak / 2.0
    above = vals >= half_level
    lo = imax
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = imax
    while hi < vals.size - 1 and above[hi + 1]:
        hi += 1
    df = freq[1] - freq[0] if freq.size > 1 else 1.0
    fwhm = max(float(freq[hi] - freq[lo]), df)
    area = float(np.trapezoid(vals - offset, freq))
    if area <= 0 or not np.isfinite(area):
        area = max(peak, 1e-30) * fwhm * math.pi / 2.0
    return np.array([center, fwhm, area, offset])


def window_bins(freq, window: tuple[float, float]) -> slice:
    """The bins of the increasing grid freq in [window[0], window[1]]."""
    return slice(np.searchsorted(freq, window[0], "left"),
                 np.searchsorted(freq, window[1], "right"))


def fifth_percentile(vals) -> float:
    """np.percentile(vals, 5) of finite values from one partial sort:
    numpy's linear rule between the order statistics around 0.05 (n - 1)."""
    pos = (vals.size - 1) * 0.05
    kth = [int(pos), min(int(pos) + 1, vals.size - 1)]
    a, b = np.partition(vals, kth)[kth].tolist()
    t = pos - kth[0]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)


def trace_averages(trace: PsdTrace) -> float | None:
    """The averages behind a trace, from its metadata: None (unweighted
    fits) when unknown or infinite."""
    averages = trace.meta.get("averages")
    return None if averages is None or math.isinf(averages) else averages


def fit_lorentzian(trace: PsdTrace, window: tuple[float, float],
                   init=None) -> LorentzianFit:
    """Fit a single Lorentzian inside [window[0], window[1]] Hz.

    With known averages (see trace_averages) the weights follow the
    averaged-periodogram variance model sigma_i^2 = model_i^2 / averages,
    iterated once on the fitted model; otherwise unit weights.
    """
    bins = window_bins(trace.freq_hz, window)
    freq, vals = trace.freq_hz[bins], trace.values[bins]
    if freq.size < 8:
        raise DegenerateFitError("degenerate fit window: fewer than 8 bins")
    averages = trace_averages(trace)
    p0 = np.asarray(init, float) if init is not None else initial_lorentzian_guess(freq, vals)

    weights = None
    if averages is not None:
        var = np.maximum(vals, fifth_percentile(vals)) ** 2 / averages
        weights = 1.0 / var
    p, cov, converged, _ = levenberg_marquardt(_lorentz_model, _lorentz_jac,
                                               freq, vals, p0, weights)
    if averages is not None:
        # Re-weight from the fitted model to remove the data-weighting bias.
        mvals = _lorentz_model(freq, p)
        weights = averages / np.maximum(mvals, 1e-300) ** 2
        p, cov, converged, _ = levenberg_marquardt(_lorentz_model, _lorentz_jac,
                                                   freq, vals, p, weights)
    p[1] = abs(p[1])
    return LorentzianFit(center=float(p[0]), linewidth_fwhm=float(p[1]),
                         area=float(p[2]), offset=float(p[3]),
                         covariance=cov, converged=bool(converged))


# ---------------------------------------------------------------------------
# detuning-scan fits

@dataclass(frozen=True)
class ScanFitResult:
    """Parameters recovered from a detuning scan.  Fields not constrained by
    the particular fit are None."""

    g_abs: float | None = None  # rad/s
    omega_bare: float | None = None  # rad/s
    gamma_intrinsic: float | None = None  # rad/s
    gamma_total_heating: float | None = None  # phonons/s
    n_phase: float | None = None
    covariance: np.ndarray | None = None
    inlier_mask: np.ndarray | None = None
    converged: bool = True

    def param_errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


def _prepare_scan_points(points):
    pts = np.asarray([(p[0], p[1], p[2] if len(p) > 2 else 0.0) for p in points],
                     dtype=float)
    if pts.shape[0] < MIN_SCAN_POINTS:
        raise UnderdeterminedScanError("underdetermined scan: fewer than "
                                       f"{MIN_SCAN_POINTS} points")
    if np.unique(pts[:, 0]).size != pts.shape[0]:
        raise UnderdeterminedScanError("underdetermined scan: duplicate detunings")
    x, y, err = pts[:, 0], pts[:, 1], pts[:, 2]
    # mixed or absent errors: fall back to unit weights
    return x, y, 1.0 / err ** 2 if np.all(err > 0) else None


def _clipped_fit(solve, model, y, w, p0=None):
    """Weighted fit with iterative residual clipping (the scan fits may see
    occasional wild linewidth points).  solve(mask, p) fits the points under
    mask, starting from p, and returns (params, covariance, converged);
    model(p) predicts every point."""
    mask = np.ones_like(y, dtype=bool)
    p = p0
    for round_idx in range(MAX_CLIP_ROUNDS + 1):
        if np.count_nonzero(mask) < MIN_SCAN_POINTS:
            raise UnderdeterminedScanError("underdetermined scan: fewer than "
                                           f"{MIN_SCAN_POINTS} inliers")
        p, cov, converged = solve(mask, p)
        resid = y - model(p)
        sig = 1.0 / np.sqrt(w) if w is not None else \
            np.full_like(y, max(np.std(resid[mask]), 1e-300))
        new_mask = np.abs(resid / sig) <= CLIP_SIGMA
        if round_idx == MAX_CLIP_ROUNDS or np.array_equal(new_mask, mask):
            break
        mask = new_mask
    return p, cov, converged, mask


def _clipped_linear_fit(design, y, w, offset=0.0):
    """Clipped weighted fit of the linear model y ~ design @ p + offset,
    solved in closed form; returns (params, covariance, inlier mask)."""
    target = y - offset

    def solve(mask, _):
        wm = None if w is None else w[mask]
        return (*linear_lstsq(design[mask], target[mask], wm), True)

    p, cov, _, mask = _clipped_fit(solve, lambda p: design @ p + offset, y, w)
    return p, cov, mask


def fit_scan_linewidth(points, omega: float, kappa: float) -> ScanFitResult:
    """Fit gamma_eff(Delta) measured at omega with free (|g|, gamma_intrinsic).

    The model gamma_intrinsic + |g|^2 D(Delta), with D the optical damping
    at unit coupling, is linear in (|g|^2, gamma_intrinsic) and is solved in
    closed form; the covariance of (|g|, gamma_intrinsic) follows through
    the Jacobian diag(1 / 2|g|, 1).
    """
    x, y, w = _prepare_scan_points(points)
    damping = physics.backaction(1.0, omega, kappa, x, omega)[0]
    design = np.column_stack([damping, np.ones_like(x)])
    (g2, gamma0), cov, mask = _clipped_linear_fit(design, y, w)
    if not g2 > 0:
        raise DegenerateFitError("linewidth scan fit gives no optical "
                                 f"damping (|g|^2 = {g2:.3g})")
    g = math.sqrt(g2)
    jac = np.diag([0.5 / g, 1.0])
    return ScanFitResult(g_abs=g, omega_bare=omega,
                         gamma_intrinsic=float(gamma0),
                         covariance=jac @ cov @ jac, inlier_mask=mask)


def fit_scan_frequency(points, kappa: float) -> ScanFitResult:
    """Fit the optical-spring curve Omega_eff(Delta) with free (|g|, Omega_bare)."""
    x, y, w = _prepare_scan_points(points)
    half2 = (kappa / 2.0) ** 2

    def model(det, p):
        g, om0 = p
        shift = physics.backaction(g, om0, kappa, det, om0)[1]
        return np.sqrt(np.maximum(om0 * om0 - shift, 0.0))

    def jac(det, p):
        g, om0 = p
        num = half2 - om0 * om0 + det * det
        d1 = half2 + (om0 + det) ** 2
        d2 = half2 + (om0 - det) ** 2
        s_val = physics.backaction(g, om0, kappa, det, om0)[1]
        val = np.sqrt(np.maximum(om0 * om0 - s_val, 1e-300))
        ds_dg = 2.0 * s_val / g
        # d(s)/d(om0) via logarithmic derivative of each factor
        ds_dom = s_val * (1.0 / om0 - 2.0 * om0 / num
                          - 2.0 * (om0 + det) / d1 + 2.0 * (det - om0) / d2)
        out = np.empty((det.size, 2))
        out[:, 0] = -ds_dg / (2.0 * val)
        out[:, 1] = (2.0 * om0 - ds_dom) / (2.0 * val)
        return out

    def solve(mask, p):
        wm = None if w is None else w[mask]
        return levenberg_marquardt(model, jac, x[mask], y[mask], p, wm)[:3]

    p0 = np.array([kappa * 0.1, float(np.max(y))])
    p, cov, converged, mask = _clipped_fit(solve, lambda p: model(x, p), y, w, p0)
    return ScanFitResult(g_abs=abs(float(p[0])), omega_bare=float(p[1]),
                         covariance=cov, inlier_mask=mask, converged=converged)


def fit_occupation_curve(points, omega: float, kappa: float,
                         g_fixed: float) -> ScanFitResult:
    """Fit n(Delta) with free (Gamma_total, n_phase) at a pinned coupling.

    The coupling must come from the linewidth (or spring) fit: in the
    occupation model Gamma and |g| only enter through Gamma/|g|^2 plus a
    parameter-free offset, so freeing |g| here would make the problem
    structurally unidentifiable.  Points where the model has no net cooling
    are rejected up front.  With |g| pinned the model
    n = Gamma / (A- - A+) + n_phase + A+ / (A- - A+) is linear in
    (Gamma, n_phase) and is solved in closed form.
    """
    if g_fixed is None or g_fixed <= 0:
        raise ValueError("fit_occupation_curve needs a pinned |g| > 0 (the "
                         "heating rate is only identifiable as Gamma/|g|^2 "
                         "otherwise)")
    x, y, w = _prepare_scan_points(points)
    am, ap = physics.cavity_rates(g_fixed, omega, kappa, x)
    valid = am > ap
    if np.count_nonzero(valid) < MIN_SCAN_POINTS:
        raise UnderdeterminedScanError("underdetermined scan: fewer than "
                                       f"{MIN_SCAN_POINTS} points with net cooling")
    y, w = y[valid], None if w is None else w[valid]
    net = am[valid] - ap[valid]
    design = np.column_stack([1.0 / net, np.ones_like(net)])
    p, cov, mask = _clipped_linear_fit(design, y, w, ap[valid] / net)
    return ScanFitResult(g_abs=g_fixed, omega_bare=omega,
                         gamma_total_heating=float(p[0]), n_phase=float(p[1]),
                         covariance=cov, inlier_mask=mask)
