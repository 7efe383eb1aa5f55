"""Weighted least squares by variable projection (Golub & Pereyra 1973,
with Kaufman's 1975 normal matrix): the fitters of the thermometry and scan
pipelines.

A nonlinear fit takes damped Gauss-Newton steps over the parameters its
model is not linear in, and solves the others in closed form at each trial
point: a Lorentzian pass steps center and width, the spring scan fit
Omega_0.  A step solves (A + lam diag(A)) step = g, A the reduced normal
matrix and g the gradient, and is accepted where the cost is finite and not
above the current one.  A fit converges when an accepted step has
step^T A step <= STEP_SIGMA^2 s2 (A undamped), and stops unconverged after
MAX_ITER iterations or when none of LAMBDA_TRIES dampings is accepted.
Weighted fits take s2 = 1, unit-weight fits the reduced chi-square floored
at (eps / STEP_SIGMA)^2 sum(y^2): the rounding of y, below which the steps
of a noise-free fit are rounding noise that would run to MAX_ITER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # private: tests pin it to numpy.linalg

from . import physics
from .errors import DegenerateFitError, UnderdeterminedScanError
from .spectrum import lorentzian

# A step this many standard errors long (or shorter) ends a fit.
STEP_SIGMA = 1e-4
MAX_ITER = 200

# The stop of a weighted Lorentzian fit's first pass, whose result nothing
# reads but the re-weighting.  A first-pass model off by d standard errors
# moves the second pass's optimum by about 2 d / sqrt(averages) standard
# errors, the relative error of a bin: at 100 averages the final fit stays
# within 2e-3 standard errors of a first pass run to STEP_SIGMA.
FIRST_PASS_SIGMA = 1e-2

# The damping schedule of both Gauss-Newton loops (a Lorentzian pass's and
# the spring fit's): the first trial's lam, how many trials, each at
# 10 times the last lam, a step gets before the fit gives up, and the least
# lam an accepted step leaves for the next.
LAMBDA_START = 1e-3
LAMBDA_TRIES = 60
LAMBDA_FLOOR = 1e-14

# Fewest scan points a scan fit accepts.
MIN_SCAN_POINTS = 4


# ---------------------------------------------------------------------------
# linear algebra

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


def _gram(x, y, sw):
    """A pass's gram(c, h): the Gram of five rows at center c and half-width
    h > 0, each times sw = sqrt(w) (1.0 for unit weights):

        L, 1, y, dL/dc, dL/dh - L / h,

    with L the unit-area Lorentzian (h / pi) / ((x - c)^2 + h^2), so that
    the model area L + offset is spectrum.lorentzian at FWHM 2 h.  The last
    row, -2 h L / ((x - c)^2 + h^2), is the part of dL/dh off L, all that a
    step sees once L is projected out; taking L / h off analytically keeps
    that part's digits where the line is narrower than a bin.  Row-major in
    Python floats: entry (i, j) is item 5 i + j.

    The pass owns one 5 x n buffer: its rows 1 and y are filled here, and
    each gram(c, h) writes L, dL/dc and the last row in place by the same
    operations, in the same order, as rows built afresh at each point, so
    its Gram is theirs bit for bit."""
    rows = np.empty((5, x.size))
    lor, l_c, l_h = rows[0], rows[3], rows[4]
    dx, den = np.empty(x.size), np.empty(x.size)
    rows[1] = sw
    np.multiply(y, sw, out=rows[2])

    def gram(c, h):
        np.subtract(x, c, out=dx)
        np.add(np.multiply(dx, dx, out=den), h * h, out=den)
        np.divide(h / math.pi, den, out=lor)
        np.divide(np.multiply(lor, 2.0, out=l_h), den, out=l_h)  # q = 2 L / den
        np.multiply(l_h, dx, out=l_c)
        np.multiply(l_h, -h, out=l_h)
        for row in (lor, l_c, l_h):
            np.multiply(row, sw, out=row)
        return (rows @ rows.T).ravel().tolist()
    return gram


# The least share of sum(w L^2) that L keeps once centred on the constant
# row: below it L and 1 are collinear to half the digits, and the cost,
# whose rounding grows as the inverse of that share, is no longer sound.
_COLLINEAR = math.sqrt(np.finfo(float).eps)


def _linear(g):
    """(area, offset, cost, ss_c) of the linear solve y ~ area L + offset in
    the Gram g, or None where its 2x2 system is singular: L centred on the
    constant row, whose weighted sum of squares is ss_c, keeps at most
    _COLLINEAR of sum(w L^2).  Every product is centred first, so the cost
    rounds in proportion to the centred sum(w y^2), not to area or offset."""
    ll, l1, ly, oo, oy, yy = g[0], g[1], g[2], g[6], g[7], g[12]
    if not oo > 0.0:
        return None
    ss_c = ll - l1 * l1 / oo
    if not ss_c > _COLLINEAR * ll:
        return None
    sy_c = ly - l1 * oy / oo
    area = sy_c / ss_c
    return area, (oy - area * l1) / oo, (yy - oy * oy / oo) - area * sy_c, ss_c


def _cost(g, area, offset):
    """The cost sum(w (y - area L - offset)^2) from the Gram g."""
    return (g[12] - 2.0 * (area * g[2] + offset * g[7])
            + area * (area * g[0] + 2.0 * offset * g[1])
            + offset * offset * g[6])


def _reduced(g, area, ss_c):
    """Kaufman's reduced normal matrix (a00, a01, a11) and gradient (g0, g1)
    over (c, h) at the linear solution (area, ss_c) of the Gram g: the
    model's derivatives area dL/dc and area dL/dh, each projected off L and
    1 (which leaves of dL/dh only the Gram's last row), in products with
    each other and with y.  Each product is centred on the constant row
    first."""
    oo, c1, c2, c3, c4 = g[6], g[1], g[11], g[16], g[21]  # row i's g[5 i + 1]
    lc, lh = g[15] - c3 * c1 / oo, g[20] - c4 * c1 / oo
    a2 = area * area
    return ((a2 * ((g[18] - c3 * c3 / oo) - lc * lc / ss_c),
             a2 * ((g[19] - c3 * c4 / oo) - lc * lh / ss_c),
             a2 * ((g[24] - c4 * c4 / oo) - lh * lh / ss_c)),
            (area * ((g[17] - c3 * c2 / oo) - area * lc),
             area * ((g[22] - c4 * c2 / oo) - area * lh)))


def _check_width(freq, fwhm):
    """DegenerateFitError for a FWHM above 10 spans of the window freq: a
    tilt of the floor, not a peak, that can overflow the re-weighting."""
    if fwhm > 10.0 * (freq[-1] - freq[0]):
        raise DegenerateFitError(f"degenerate fit window: fitted FWHM "
                                 f"{fwhm:.3g} Hz is above 10 window spans")


# trial points may reach huge centres and widths, or a width that puts a
# bin's denominator at 0: an inf or nan in the Gram just makes a trial
# rejectable or the window degenerate
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _line_pass(x, y, w, c, h, stop, start=None):
    """One weighted pass of a Lorentzian fit by variable projection: damped
    Gauss-Newton over (c, h >= 0), (area, offset) solved at each point.

    Steps, damping and stop are the module's, with stop for STEP_SIGMA; the
    trial point is (c + step_c, |h + step_h|), and a trial whose linear or
    damped 2x2 system is singular is rejected.  Every point's Gram comes
    from the one buffer of the pass's _gram.  start, the fit's starting
    (area, offset), is degenerate where its cost at (c, h) is not finite.
    Returns (c, h, the Gram and _linear's result there, converged).  A
    DegenerateFitError gives the width's message where its point lies above
    10 window spans."""
    gram = _gram(x, y, 1.0 if w is None else np.sqrt(w))

    def degenerate():
        _check_width(x, 2.0 * h)
        return DegenerateFitError("degenerate fit window")

    if not (h > 0.0 and math.isfinite(h)):
        raise degenerate()
    g = gram(c, h)
    lin = _linear(g)
    if lin is None or not math.isfinite(lin[2]):
        raise degenerate()
    if start is not None and not math.isfinite(_cost(g, *start)):
        raise degenerate()
    dof = max(x.size - 4, 1)
    s2 = 1.0
    if w is None:
        s2_floor = (np.finfo(float).eps / stop) ** 2 * g[12]
    lam = LAMBDA_START
    converged = False
    for _ in range(MAX_ITER):
        area, _, cost, ss_c = lin
        (a00, a01, a11), (g0, g1) = _reduced(g, area, ss_c)
        if not (a00 > 0.0 and a11 > 0.0
                and all(map(math.isfinite, (a00, a01, a11, g0, g1)))):
            raise degenerate()
        for _ in range(LAMBDA_TRIES):
            d00, d11 = a00 * lam + a00, a11 * lam + a11
            ddet = d00 * d11 - a01 * a01
            if ddet > 0.0:
                s0 = (d11 * g0 - a01 * g1) / ddet
                s1 = (d00 * g1 - a01 * g0) / ddet
                c_new, h_new = c + s0, abs(h + s1)
                if h_new > 0.0:
                    g_new = gram(c_new, h_new)
                    lin_new = _linear(g_new)
                    if (lin_new is not None and math.isfinite(lin_new[2])
                            and lin_new[2] <= cost):
                        break
            lam *= 10.0
        else:  # no trial was accepted
            break
        c, h, g, lin = c_new, h_new, g_new, lin_new
        lam = max(lam / 10.0, LAMBDA_FLOOR)
        if w is None:
            s2 = max(lin[2] / dof, s2_floor)
        size2 = s0 * (a00 * s0 + a01 * s1) + s1 * (a01 * s0 + a11 * s1)
        if size2 <= stop * stop * s2:
            converged = True
            break
    _check_width(x, 2.0 * h)
    return c, h, g, lin, converged


# a line narrower than a bin can leave J^T W J singular: its inverse's NaN
# is a DegenerateFitError, not a warning
@np.errstate(over="ignore", invalid="ignore")
def _line_covariance(g, area, h):
    """(J^T W J)^-1 over (center, fwhm, area, offset) at the point (c, h) of
    the Gram g, whose linear solve gave area.  J's columns are area dL/dc,
    (area / 2) (L / h + the Gram's last row), L and 1, each a combination v
    of the Gram's rows, so J^T W J is v^T g v.  DegenerateFitError where it
    is singular."""
    v = np.zeros((5, 4))
    v[3, 0] = area
    v[0, 1], v[4, 1] = area / (2.0 * h), area / 2.0
    v[0, 2] = v[1, 3] = 1.0
    return _inv(v.T @ np.reshape(g, (5, 5)) @ v)


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


def fit_lorentzian(freq, vals, averages: float | None,
                   init=None) -> LorentzianFit:
    """Fit a single Lorentzian to the bins of one window: increasing
    frequencies freq (Hz) and their PSD values vals.

    Each pass is a _line_pass.  init (default
    initial_lorentzian_guess) gives the start's center and width; its area
    and offset serve only to turn away a start whose own cost is not
    finite, a DegenerateFitError.

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
    that says so.  On a window that holds no line, the fit can instead
    narrow onto its highest bin: a converged line narrower than a bin,
    whose area is within its error of 0.  Callers judge such a fit (as
    thermometry.fit_sideband_pair does); fit_lorentzian returns it.
    """
    if freq.size < 8:
        raise DegenerateFitError("degenerate fit window: fewer than 8 bins")
    p0 = (initial_lorentzian_guess(freq, vals) if init is None
          else np.asarray(init, float)).tolist()
    c, h = p0[0], abs(p0[1]) / 2.0
    if averages is None:
        c, h, g, lin, converged = _line_pass(freq, vals, None, c, h,
                                             STEP_SIGMA, p0[2:])
        # the reduced chi-square from the residuals: the Gram's cost rounds
        # to eps sum(y^2), far above the cost of a noise-free window
        r = vals - lorentzian(freq, c, 2.0 * h, lin[0], lin[1])
        scale = float(r @ r) / max(freq.size - 4, 1)
    else:
        floor = weight_floor(vals)
        weights = 1.0 / (np.maximum(vals, floor) ** 2 / averages)
        c, h, _, lin, _ = _line_pass(freq, vals, weights, c, h,
                                     FIRST_PASS_SIGMA, p0[2:])
        # Re-weight from the fitted model to remove the data-weighting bias;
        # a model below eps * floor, 0 at the window's scale, weighs as that.
        level = np.maximum(lorentzian(freq, c, 2.0 * h, lin[0], lin[1]),
                           floor * np.finfo(float).eps)
        c, h, g, lin, converged = _line_pass(freq, vals, averages / level ** 2,
                                             c, h, STEP_SIGMA)
        scale = 1.0
    return LorentzianFit(center=c, linewidth_fwhm=2.0 * h, area=lin[0],
                         offset=lin[1],
                         covariance=_line_covariance(g, lin[0], h) * scale,
                         converged=converged)


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


def _coupling(g2, cov, message, **fields):
    """The ScanFitResult of fields with |g| from a scan fit's |g|^2 and the
    covariance of (|g|, p) from cov, that of (|g|^2, p).  A |g|^2 not above
    0 is a DegenerateFitError: message, then |g|^2."""
    if not g2 > 0:
        raise DegenerateFitError(f"{message} (|g|^2 = {g2:.3g})")
    jac = np.diag([0.5 / math.sqrt(g2), 1.0])
    return ScanFitResult(g_abs=math.sqrt(g2), covariance=jac @ cov @ jac,
                         **fields)


def fit_scan_linewidth(points, omega: float, kappa: float) -> ScanFitResult:
    """Fit gamma_eff(Delta) measured at omega with free (|g|, gamma_intrinsic).

    The model gamma_intrinsic + |g|^2 D(Delta), with D the optical damping
    at unit coupling, is linear in (|g|^2, gamma_intrinsic) and is solved in
    closed form.
    """
    x, y, w = _prepare_scan_points(points)
    damping = physics.backaction(1.0, omega, kappa, x, omega)[0]
    design = np.column_stack([damping, np.ones_like(x)])
    (g2, gamma0), cov = linear_lstsq(design, y, w)
    return _coupling(g2, cov, "linewidth scan fit gives no optical damping",
                     omega_bare=omega, gamma_intrinsic=float(gamma0))


# a trial Omega_0 may overflow K, and a weight or K's sum of squares may not
# be finite: a trial is then rejected, or the scan is degenerate
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_scan_frequency(points, kappa: float) -> ScanFitResult:
    """Fit the optical-spring curve Omega_eff(Delta) with free (|g|, Omega_bare).

    Variable projection over Omega_0 on Omega_eff^2 = Omega_0^2 - |g|^2 K,
    K the spring shift of physics.backaction at unit coupling, each point
    weighted w / (4 Omega_eff^2) (w = 1 for unit weights).  At each Omega_0,
    |g|^2 >= 0 is solved in closed form; Omega_0 takes the module's steps
    from the highest Omega_eff, with dK/dOmega_0 from a complex step.  The
    covariance of (|g|^2, Omega_0) is the inverse 2x2 normal matrix; a fit
    that ends at |g|^2 = 0 is an unresolved spring.
    """
    x, y, w = _prepare_scan_points(points)
    v = (1.0 if w is None else w) / (4.0 * y * y)

    def project(om0):  # (|g|^2, cost, curvature, gradient, t, kk), or None
        probe = complex(om0, om0 * np.finfo(float).eps)  # a complex step
        shift = physics.backaction(1.0, probe, kappa, x, probe)[1]
        k, vk, b = shift.real, v * shift.real, om0 * om0 - y * y
        kk = float(vk @ k) or math.nan  # 0 where every K^2 underflows
        g2 = max(float(vk @ b) / kk, 0.0)  # |g|^2 >= 0, as in the model
        r = g2 * k - b  # Omega_eff^2 less the model
        j = 2.0 * om0 - g2 * (shift.imag / probe.imag)  # the model's dOmega_0
        t = float(vk @ j) / kk if g2 > 0.0 else 0.0  # none: |g|^2 held at 0
        jr = j - t * k  # the part of j off K
        out = (g2, float(v @ (r * r)), float(v @ (jr * jr)),
               float(v @ (jr * r)), t, kk)
        return out if out[2] > 0.0 and all(map(math.isfinite, out)) else None

    om0 = float(np.max(y))
    at = project(om0)
    if at is None:
        raise DegenerateFitError("degenerate fit window")
    dof = max(x.size - 2, 1)
    floor = (np.finfo(float).eps / STEP_SIGMA) ** 2 * float(y @ y)
    lam = LAMBDA_START
    converged = False
    for _ in range(MAX_ITER):
        _, cost, a, grad, _, _ = at
        for _ in range(LAMBDA_TRIES):
            step = grad / (a * lam + a)
            trial = project(om0 + step)
            if trial is not None and trial[1] <= cost:
                break
            lam *= 10.0
        else:  # no trial was accepted
            break
        om0, at = om0 + step, trial
        lam = max(lam / 10.0, LAMBDA_FLOOR)
        s2 = 1.0 if w is not None else max(at[1] / dof, floor)
        if step * a * step <= STEP_SIGMA ** 2 * s2:
            converged = True
            break
    g2, cost, a, _, t, kk = at
    cov = np.array([[1.0 / kk + t * t / a, t / a], [t / a, 1.0 / a]])
    return _coupling(g2, cov * (1.0 if w is not None else cost / dof),
                     "frequency scan fit gives no optical spring",
                     omega_bare=om0, converged=converged)


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
