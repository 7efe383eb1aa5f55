"""Weighted nonlinear least squares (damped Gauss-Newton) and the model
fitters used by the thermometry and scan pipelines.

All models carry analytic Jacobians.  A fit converges when an accepted
step is below STEP_SIGMA standard errors, measured in the metric of the
undamped normal matrix; it stops unconverged after MAX_ITER iterations or
when none of 60 dampings gives a step that keeps the cost from rising.
The first pass of a weighted Lorentzian fit, which only draws the model the
second pass is weighted from, stops sooner, at FIRST_PASS_SIGMA, and forms
no covariance.  The Lorentzian Jacobian is column-major, as MINPACK's lmder
keeps its own, so the normal-equation products read contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # private: tests pin it to numpy.linalg

from . import physics
from .errors import DegenerateFitError, UnderdeterminedScanError
from .spectrum import _lorentzian_at

# A step this many standard errors long (or shorter) ends a fit.
STEP_SIGMA = 1e-4
MAX_ITER = 200

# The stop of a weighted Lorentzian fit's first pass, whose result nothing
# reads but the re-weighting.  A first-pass model off by d standard errors
# moves the second pass's optimum by about 2 d / sqrt(averages) standard
# errors, the relative error of a bin: at 100 averages the final fit stays
# within 2e-3 standard errors of a first pass run to STEP_SIGMA.
FIRST_PASS_SIGMA = 1e-2

# Fewest scan points a scan fit accepts.
MIN_SCAN_POINTS = 4


# ---------------------------------------------------------------------------
# core optimizer

# numpy.linalg's solve and inv on float64 minus their costly per-call wrapper:
# a singular matrix gives all NaN (and the invalid flag, which callers ignore).
def _solve(a_mat, b):
    return _nonsingular(_umath_linalg.solve1(a_mat, b, signature="dd->d"))


def _inv(a_mat):
    return _nonsingular(_umath_linalg.inv(a_mat, signature="d->d"))


def _nonsingular(out):
    if any(map(math.isnan, out.ravel().tolist())):
        raise DegenerateFitError("degenerate fit window")
    return out


# trial steps may explore huge centers and linewidths; an inf or nan in the
# model or the Jacobian just makes the step rejectable or the window degenerate
@np.errstate(over="ignore", invalid="ignore")
def levenberg_marquardt(model, jacobian, x, y, p0, weights=None, *,
                        stop=None, covariance=True):
    """Minimize sum(w (y - model(x, p))^2) with LM damping.

    weights are 1/sigma^2 per point.  Returns (params, covariance,
    converged, cost).  Covariance is (J^T W J)^-1 at the solution; with unit
    weights it is scaled by the reduced chi-square s2.  With covariance False
    it is None, but the Jacobian at the solution is still computed: a
    caller's next fit from that point starts on it.

    converged: an accepted step ended the fit because step^T (J^T W J) step
    <= stop^2 s2, with J^T W J the undamped matrix the step was solved
    from, i.e. the step is at most stop standard errors long (stop is
    STEP_SIGMA when None).
    The test is scale-free, so it holds as well for a parameter near 0 as
    for a large one.  Weighted fits take s2 = 1; unit-weight fits take the
    reduced chi-square at the accepted point, floored at
    (eps / stop)^2 sum(y^2).  The floor is the rounding of y: a step's
    step^T (J^T J) step never exceeds the cost it starts from, and on
    noise-free data the cost falls to about eps^2 sum(y^2), where steps are
    rounding noise.  Without the floor such a fit would run to MAX_ITER.
    """
    stop = STEP_SIGMA if stop is None else stop
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    unit_weights = weights is None
    w = np.ones_like(y) if unit_weights else np.asarray(weights, dtype=float)
    dof = max(y.size - p.size, 1)
    if unit_weights:
        s2_floor = (np.finfo(float).eps / stop) ** 2 * float(y @ y)

    def cost_of(params):
        r = y - model(x, params)
        return r, float(np.add.reduce(w * r * r))  # .sum() minus its wrapper

    r, cost = cost_of(p)
    lam = 1e-3
    converged = False
    for _ in range(MAX_ITER):
        jac = jacobian(x, p)
        jtw = jac.T * w
        a_mat = jtw @ jac
        grad = jtw @ r
        diag, entries = a_mat.diagonal(), a_mat.ravel().tolist()
        if min(entries[::p.size + 1]) <= 0 or not all(map(math.isfinite, entries)):
            raise DegenerateFitError("degenerate fit window")
        damped = a_mat + 0.0  # a + lam diag(d) off the diagonal; on it, set per lam
        damped_diag = damped.reshape(-1)[::p.size + 1]
        for _ in range(60):
            np.multiply(diag, lam, out=damped_diag)
            damped_diag += diag
            step = _solve(damped, grad)
            p_new = p + step
            r_new, cost_new = cost_of(p_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                break
            lam *= 10.0
        else:  # no step in 60 was accepted
            break
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 10.0, 1e-14)
        s2 = max(cost / dof, s2_floor) if unit_weights else 1.0
        if float(step @ a_mat @ step) <= stop ** 2 * s2:
            converged = True
            break

    jac = jacobian(x, p)
    if not covariance:
        return p, None, converged, cost
    cov = _inv((jac.T * w) @ jac)
    if unit_weights:
        cov = cov * (cost / dof)
    return p, cov, converged, cost


def linear_lstsq(design, y, w=None):
    """Weighted linear least squares for y ~ design @ p.

    Returns (p, covariance) with covariance (D^T W D)^-1; with unit weights
    (w None) it is scaled by the reduced chi-square.
    """
    wd = design * (np.ones_like(y) if w is None else w)[:, None]
    a_mat = wd.T @ design
    with np.errstate(over="ignore", invalid="ignore"):
        params, cov = _solve(a_mat, wd.T @ y), _inv(a_mat)
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


class _Lorentzian:
    """The Lorentzian model of one fit and its Jacobian at p = (center, fwhm,
    area, offset), width |fwhm|, each giving its last result again for the
    same p (x fixed).  The Jacobian takes x - c and (x - c)^2 from the model
    at p, and the denominator too where half * half is the model's half ** 2."""

    _model_key = _jac_key = None

    def model(self, x, p):
        key = p.tobytes()
        if key != self._model_key:
            c, fwhm, area, offset = p.tolist()
            dx = x - c
            dx2, half = dx * dx, np.float64(abs(fwhm) / 2.0)  # ** 2: inf, not OverflowError
            self._value, den = _lorentzian_at(dx2, half, area, offset)
            self._model_key, self._at_model = key, (dx, dx2, den, half)
        return self._value

    def jacobian(self, x, p):
        key = p.tobytes()
        if key != self._jac_key:
            if key != self._model_key:
                self.model(x, p)
            dx, dx2, den, model_half = self._at_model
            half, scale = float(model_half), p.item(2) / math.pi
            if half * half != model_half ** 2:
                den = dx2 + half * half
            cols = np.empty((4, x.size))  # J^T: BLAS reads J's columns contiguous
            col0, col1, col2 = cols[0], cols[1], cols[2]
            den2 = den * den
            np.divide(np.multiply(dx, scale * half * 2.0, out=col0), den2, out=col0)
            np.multiply(np.subtract(dx2, half * half, out=col1), scale, out=col1)
            col1 /= den2
            col1 *= 0.5
            np.divide(half, np.multiply(den, math.pi, out=col2), out=col2)
            cols[3] = 1.0
            self._jac_key, self._jac = key, cols.T
        return self._jac


def initial_lorentzian_guess(freq, vals):
    """Heuristic start: max bin center (ties -> lower frequency), half-max
    crossing width, trapezoid area above the edge-median offset."""
    freq = np.asarray(freq, float)
    vals = np.asarray(vals, float)
    n_edge = max(2, vals.size // 8)
    edges = np.concatenate([vals[:n_edge], vals[-n_edge:]])
    mid = edges.size // 2  # even: np.median is the mean of the middle two
    edges.partition([mid - 1, mid, -1])  # or NaN, as a NaN sorts last
    offset = math.nan if math.isnan(edges[-1]) else \
        float(np.add.reduce(edges[mid - 1:mid + 1]) / 2.0)
    imax = int(np.argmax(vals))  # argmax returns the first (lower-freq) max
    peak = vals[imax] - offset
    above = vals >= offset + peak / 2.0
    left, right = np.flatnonzero(~above[:imax]), np.flatnonzero(~above[imax + 1:])
    lo = left[-1] + 1 if left.size else 0  # the run at half maximum or above
    hi = imax + right[0] if right.size else vals.size - 1
    df = freq[1] - freq[0] if freq.size > 1 else 1.0
    fwhm = max(float(freq[hi] - freq[lo]), df)
    y = vals - offset  # np.trapezoid(y, freq)'s terms and sum
    area = float(np.add.reduce((freq[1:] - freq[:-1]) * (y[1:] + y[:-1]) / 2.0))
    if area <= 0 or not np.isfinite(area):
        area = max(peak, 1e-30) * fwhm * math.pi / 2.0
    return np.array([freq[imax], fwhm, area, offset])


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


def weight_floor(vals) -> float:
    """The least level a bin's weight, averages / level^2, is drawn from:
    the fifth percentile of vals, or of its bins above 0 where that is not
    above 0 (at least 5% of the bins at 0 or below), since a level of 0 has
    no finite weight.  DegenerateFitError when no bin is above 0."""
    floor = fifth_percentile(vals)
    if floor > 0:
        return floor
    positive = vals[vals > 0]
    if positive.size == 0:
        raise DegenerateFitError("degenerate fit window: no bin above 0")
    return fifth_percentile(positive)


def _check_width(freq, p):
    """DegenerateFitError for a FWHM above 10 spans of the window freq: a
    tilt of the floor, not a peak, that can overflow the re-weighting."""
    if abs(p[1]) > 10.0 * (freq[-1] - freq[0]):
        raise DegenerateFitError(f"degenerate fit window: fitted FWHM "
                                 f"{abs(p[1]):.3g} Hz is above 10 window spans")


def fit_lorentzian(freq, vals, averages: float | None,
                   init=None) -> LorentzianFit:
    """Fit a single Lorentzian to the bins of one window: increasing
    frequencies freq (Hz) and their PSD values vals.

    With known averages (the periodogram averages behind vals; None when
    unknown or infinite) the weights follow the averaged-periodogram
    variance model sigma_i^2 = model_i^2 / averages, iterated once on the
    fitted model; otherwise unit weights, in one pass.  The first of the two
    weighted passes, weighted from the data, stops at FIRST_PASS_SIGMA
    standard errors, since its result only sets the second pass's weights;
    the second stops at STEP_SIGMA.  The first pass floors the data a
    weight is drawn from at floor = weight_floor(vals), the second its
    model at eps * floor, so that every weight is finite.  A pass that ends,
    or gives up, at a FWHM above 10 window spans is a DegenerateFitError
    that says so.
    """
    if freq.size < 8:
        raise DegenerateFitError("degenerate fit window: fewer than 8 bins")
    p0 = np.asarray(init, float) if init is not None else initial_lorentzian_guess(freq, vals)

    if averages is None:
        weights = stop = None
    else:
        floor = weight_floor(vals)
        weights = 1.0 / (np.maximum(vals, floor) ** 2 / averages)
        stop = FIRST_PASS_SIGMA
    # model and Jacobian at pass one's end serve re-weighting and pass two
    line = _Lorentzian()

    def fit_pass(p, weights, **kwargs):
        try:
            p, cov, converged, _ = levenberg_marquardt(
                line.model, line.jacobian, freq, vals, p, weights, **kwargs)
        except DegenerateFitError:  # given up at the last Jacobian's p
            _check_width(freq, np.frombuffer(line._jac_key))
            raise
        _check_width(freq, p)
        return p, cov, converged

    p, cov, converged = fit_pass(p0, weights, stop=stop,
                                 covariance=averages is None)
    if averages is not None:
        # Re-weight from the fitted model to remove the data-weighting bias;
        # a model below eps * floor, 0 at the window's scale, weighs as that.
        level = np.maximum(line.model(freq, p), floor * np.finfo(float).eps)
        p, cov, converged = fit_pass(p, averages / level ** 2)
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
    x, y, err = pts.T.copy()  # contiguous: BLAS sums a strided column in another order
    # mixed or absent errors: fall back to unit weights
    return x, y, 1.0 / err ** 2 if np.all(err > 0) else None


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
    (g2, gamma0), cov = linear_lstsq(design, y, w)
    if not g2 > 0:
        raise DegenerateFitError("linewidth scan fit gives no optical "
                                 f"damping (|g|^2 = {g2:.3g})")
    g = math.sqrt(g2)
    jac = np.diag([0.5 / g, 1.0])
    return ScanFitResult(g_abs=g, omega_bare=omega,
                         gamma_intrinsic=float(gamma0),
                         covariance=jac @ cov @ jac)


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

    p0 = np.array([kappa * 0.1, float(np.max(y))])
    p, cov, converged, _ = levenberg_marquardt(model, jac, x, y, p0, w)
    return ScanFitResult(g_abs=abs(float(p[0])), omega_bare=float(p[1]),
                         covariance=cov, converged=converged)


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
    p, cov = linear_lstsq(design, y - ap[valid] / net, w)
    return ScanFitResult(g_abs=g_fixed, omega_bare=omega,
                         gamma_total_heating=float(p[0]), n_phase=float(p[1]),
                         covariance=cov)
