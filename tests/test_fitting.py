import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from librotor import fitting
from librotor.errors import DegenerateFitError, UnderdeterminedScanError
from librotor.fitting import (MAX_ITER, fifth_percentile, fit_lorentzian,
                              fit_occupation_curve, fit_scan_frequency,
                              fit_scan_linewidth, initial_lorentzian_guess,
                              levenberg_marquardt, linear_lstsq, window_bins)
from librotor.physics import (LibrationMode, OpticalSetup, backaction,
                              cavity_rates)
from librotor.spectrum import (PsdTrace, default_grid, lorentzian,
                               periodogram_draw)

TWO_PI = 2.0 * math.pi
KAPPA = TWO_PI * 32.4e3
OMEGA = TWO_PI * 1030e3


def make_optics(detuning):
    return OpticalSetup(e_tw0=1e8 + 0j, e_cav0=1e6 + 0j, kappa=KAPPA,
                        detuning=detuning, wavelength=1550e-9)


def lorentz_trace(center=1e6, fwhm=5e3, area=1e5, offset=1.0,
                  span=200e3, n_bins=4096, noise_sigma=0.0, seed=0,
                  averages=None):
    grid = np.linspace(center - span, center + span, n_bins)
    vals = lorentzian(grid, center, fwhm, area, offset)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        vals = vals + rng.normal(0.0, noise_sigma, grid.size)
        vals = np.maximum(vals, 0.0)
    meta = {} if averages is None else {"averages": averages}
    return PsdTrace(grid, vals, meta)


class TestLevenbergMarquardt:
    def test_exact_linear_problem(self):
        x = np.linspace(0, 10, 50)
        y = 3.0 * x + 2.0

        def model(x, p):
            return p[0] * x + p[1]

        def jac(x, p):
            return np.column_stack([x, np.ones_like(x)])

        p, cov, converged, cost = levenberg_marquardt(model, jac, x, y,
                                                      [1.0, 0.0])
        assert converged
        assert p[0] == pytest.approx(3.0, abs=1e-10)
        assert p[1] == pytest.approx(2.0, abs=1e-10)
        assert cost < 1e-18

    def test_degenerate_jacobian_raises(self):
        x = np.linspace(0, 1, 20)
        y = np.ones_like(x)

        def model(x, p):
            return np.full_like(x, p[0])

        def jac(x, p):
            return np.zeros((x.size, 1))

        with pytest.raises(DegenerateFitError):
            levenberg_marquardt(model, jac, x, y, [0.5])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_singular_normal_matrix_raises_without_a_warning(self, weighted):
        """Two identical Jacobian columns with a positive diagonal: the
        damped steps solve, the covariance's exactly singular matrix raises."""
        x = np.arange(1.0, 21.0)

        def model(x, p):
            return (p[0] + p[1]) * x

        def jac(x, p):
            return np.column_stack([x, x])

        weights = np.full_like(x, 4.0) if weighted else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFitError):
                levenberg_marquardt(model, jac, x, 2.0 * x, [0.5, 0.25],
                                    weights)


class TestLinearLstsq:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_identical_columns_raise_without_a_warning(self, weighted):
        x = np.linspace(0.0, 1.0, 12)
        design = np.column_stack([x, x])
        w = np.full_like(x, 2.0) if weighted else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFitError):
                linear_lstsq(design, 3.0 * x, w)


class TestLorentzianFit:
    def test_noise_free_recovery(self):
        """Exact data comes back to 1e-8 relative in all four parameters."""
        trace = lorentz_trace(center=1.234e6, fwhm=7.5e3, area=3.3e4,
                              offset=2.5)
        fit = fit_lorentzian(trace.freq_hz, trace.values, None)
        assert fit.converged
        assert fit.center == pytest.approx(1.234e6, rel=1e-8)
        assert fit.linewidth_fwhm == pytest.approx(7.5e3, rel=1e-8)
        assert fit.area == pytest.approx(3.3e4, rel=1e-8)
        assert fit.offset == pytest.approx(2.5, rel=1e-8)

    def test_initial_guess_tie_breaks_low(self):
        freq = np.linspace(0.0, 100.0, 101)
        vals = np.ones_like(freq)
        vals[30] = vals[70] = 10.0
        guess = initial_lorentzian_guess(freq, vals)
        assert guess[0] == freq[30]

    def test_window_too_small(self):
        trace = lorentz_trace()
        bins = window_bins(trace.freq_hz, (1e6 - 100.0, 1e6 + 100.0))
        with pytest.raises(DegenerateFitError):
            fit_lorentzian(trace.freq_hz[bins], trace.values[bins], None)

    @pytest.mark.parametrize("averages", [None, 100.0])
    @pytest.mark.parametrize("init", [[0.0, 1e160, 1e4, 1.0],
                                      [1e160, 1e4, 1e4, 1.0],
                                      [0.0, 1e4, 1e4, 1e308]],
                             ids=["huge-width", "huge-center", "huge-offset"])
    def test_overflowing_start_is_degenerate_without_a_warning(
            self, init, averages):
        """A start whose model overflows ends in DegenerateFitError, weighted
        or not, and no RuntimeWarning escapes on the way there.  A huge
        offset leaves the Jacobian finite: the first step, solved from an
        infinite gradient, is NaN."""
        freq = np.linspace(-5e4, 5e4, 64)
        vals = lorentzian(freq, 0.0, 1e4, 1e4, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFitError):
                fit_lorentzian(freq, vals, averages, init=init)

    def test_peakless_window_is_degenerate(self):
        """A window of Gamma noise about a flat mean (100 averages, seed 47)
        at criterion 08's Stokes line: its fit tilts the floor with a FWHM
        of 1.1e76 Hz that LM calls converged.  A FWHM above 10 window spans
        is a DegenerateFitError instead."""
        grid = default_grid(4.99814e6, TWO_PI * 1e6, 8192)
        freq = grid[window_bins(grid, (3.94814e6, 4.04814e6))]
        vals = periodogram_draw(np.ones(freq.size), 100, 47)
        with pytest.raises(DegenerateFitError, match="above 10 window spans"):
            fit_lorentzian(freq, vals, 100)

    def test_rescale_invariance(self):
        """Scaling the data by c scales area and offset by c, leaves center
        and width alone."""
        trace = lorentz_trace(noise_sigma=0.05, seed=4)
        scaled = PsdTrace(trace.freq_hz, 7.0 * trace.values, dict(trace.meta))
        f1 = fit_lorentzian(trace.freq_hz, trace.values, None)
        f2 = fit_lorentzian(scaled.freq_hz, scaled.values, None)
        assert f2.center == pytest.approx(f1.center, abs=1.0)
        assert f2.linewidth_fwhm == pytest.approx(f1.linewidth_fwhm, rel=1e-6)
        assert f2.area == pytest.approx(7.0 * f1.area, rel=1e-6)
        assert f2.offset == pytest.approx(7.0 * f1.offset, rel=1e-6)

    def test_shift_invariance(self):
        trace = lorentz_trace(noise_sigma=0.05, seed=4)
        shifted = PsdTrace(trace.freq_hz + 5e5, trace.values, dict(trace.meta))
        f1 = fit_lorentzian(trace.freq_hz, trace.values, None)
        f2 = fit_lorentzian(shifted.freq_hz, shifted.values, None)
        assert f2.center == pytest.approx(f1.center + 5e5, abs=1e-3)
        assert f2.area == pytest.approx(f1.area, rel=1e-9)

    def test_monte_carlo_pulls(self):
        """Gamma-fluctuation data: fitted area lands within 3 sigma of truth
        in >= 99% of trials, and 1-sigma coverage is near 68%."""
        grid = np.linspace(1e6 - 100e3, 1e6 + 100e3, 1024)
        averages = 100
        mean = lorentzian(grid, 1e6, 5e3, 1e5, 1.0)
        rng = np.random.default_rng(12)
        within3 = within1 = 0
        trials = 400
        for _ in range(trials):
            vals = mean * rng.gamma(averages, 1.0 / averages, grid.size)
            fit = fit_lorentzian(grid, vals, averages)
            err = fit.errors()[2]
            pull = abs(fit.area - 1e5) / err
            within3 += pull < 3.0
            within1 += pull < 1.0
        assert within3 / trials >= 0.99
        assert within1 / trials == pytest.approx(0.68, abs=0.06)

    def test_fit_determinism(self):
        trace = lorentz_trace(noise_sigma=0.1, seed=8)
        f1 = fit_lorentzian(trace.freq_hz, trace.values, None)
        f2 = fit_lorentzian(trace.freq_hz, trace.values, None)
        assert f1.center == f2.center and f1.area == f2.area


def linewidth_data(g=TWO_PI * 8e3, gamma0=12.0, dets_hz=None):
    if dets_hz is None:
        dets_hz = np.linspace(990e3, 1080e3, 12)
    dets = TWO_PI * np.asarray(dets_hz)
    half2 = (KAPPA / 2.0) ** 2
    den = (half2 + (OMEGA + dets) ** 2) * (half2 + (OMEGA - dets) ** 2)
    y = gamma0 + 4.0 * g * g * OMEGA * dets * KAPPA / den
    return dets, y


class TestScanFits:
    def test_linewidth_fit_exact(self):
        dets, y = linewidth_data()
        fit = fit_scan_linewidth([(d, v) for d, v in zip(dets, y)], OMEGA, KAPPA)
        assert fit.g_abs == pytest.approx(TWO_PI * 8e3, rel=1e-6)
        assert fit.gamma_intrinsic == pytest.approx(12.0, rel=1e-4)

    def test_linewidth_fit_10pc_noise(self):
        dets, y = linewidth_data()
        rng = np.random.default_rng(21)
        noisy = y * (1.0 + 0.1 * rng.standard_normal(y.size))
        pts = [(d, v, 0.1 * t) for d, v, t in zip(dets, noisy, y)]
        fit = fit_scan_linewidth(pts, OMEGA, KAPPA)
        assert fit.g_abs == pytest.approx(TWO_PI * 8e3, rel=0.03)

    def test_frequency_fit_exact(self):
        """Per-mille optical-spring shifts still pin |g| to 10%."""
        g = TWO_PI * 8e3
        dets_hz = np.linspace(990e3, 1080e3, 12)
        pts = []
        half2 = (KAPPA / 2.0) ** 2
        for det in TWO_PI * dets_hz:
            num = half2 - OMEGA ** 2 + det ** 2
            den = (half2 + (OMEGA + det) ** 2) * (half2 + (OMEGA - det) ** 2)
            shift = 4.0 * g * g * OMEGA * det * num / den
            om_eff = math.sqrt(OMEGA ** 2 - shift)
            assert abs(om_eff - OMEGA) / OMEGA < 5e-3  # per-mille scale
            pts.append((det, om_eff))
        fit = fit_scan_frequency(pts, KAPPA)
        assert fit.omega_bare == pytest.approx(OMEGA, rel=1e-6)
        assert fit.g_abs == pytest.approx(g, rel=0.10)

    def test_occupation_fit_exact(self):
        g = TWO_PI * 8e3
        gamma, n_phi = 6.8e3, 0.02
        half2 = (KAPPA / 2.0) ** 2
        pts = []
        for det in TWO_PI * np.linspace(990e3, 1080e3, 12):
            am = g * g * KAPPA / (half2 + (det - OMEGA) ** 2)
            ap = g * g * KAPPA / (half2 + (det + OMEGA) ** 2)
            pts.append((det, (gamma + ap) / (am - ap) + n_phi))
        fit = fit_occupation_curve(pts, OMEGA, KAPPA, g_fixed=g)
        assert fit.gamma_total_heating == pytest.approx(gamma, rel=1e-6)
        assert fit.n_phase == pytest.approx(n_phi, abs=1e-6)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_occupation_fit_matches_levenberg_marquardt(self, weighted):
        """The closed-form occupation fit is the least-squares optimum that
        damped Gauss-Newton reaches on the same model, covariance included."""
        g = TWO_PI * 8e3
        dets = TWO_PI * np.linspace(990e3, 1080e3, 12)
        am, ap = cavity_rates(g, OMEGA, KAPPA, dets)
        truth = (6.8e3 + ap) / (am - ap) + 0.02
        err = 0.05 * truth
        y = truth + err * np.random.default_rng(5).standard_normal(dets.size)
        pts = list(zip(dets, y, err)) if weighted else list(zip(dets, y))
        fit = fit_occupation_curve(pts, OMEGA, KAPPA, g_fixed=g)
        assert fit.inlier_mask.all()

        def model(x, p):
            return (p[0] + ap) / (am - ap) + p[1]

        def jac(x, p):
            return np.column_stack([1.0 / (am - ap), np.ones_like(x)])

        p, cov, converged, _ = levenberg_marquardt(
            model, jac, dets, y, [1e3, 0.0], 1.0 / err ** 2 if weighted else None)
        assert converged
        assert fit.gamma_total_heating == pytest.approx(p[0], rel=1e-8)
        assert fit.n_phase == pytest.approx(p[1], rel=1e-8)
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-8)

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("outlier", [False, True])
    def test_linewidth_fit_matches_levenberg_marquardt(self, weighted, outlier):
        """The closed-form linewidth fit is the least-squares optimum that
        damped Gauss-Newton reaches on gamma0 + |g|^2 D(Delta) over the
        points it keeps, covariance of (|g|, gamma0) included."""
        dets, truth = linewidth_data()
        y = truth * (1.0 + 0.05 * np.random.default_rng(8).standard_normal(dets.size))
        if outlier:
            y[4] *= 30.0  # a wild point, with the error bar its size implies
        err = 0.05 * y
        pts = list(zip(dets, y, err)) if weighted else list(zip(dets, y))
        fit = fit_scan_linewidth(pts, OMEGA, KAPPA)
        keep = fit.inlier_mask
        if weighted:  # unit weights clip by the scatter, which the outlier sets
            assert np.flatnonzero(~keep).tolist() == ([4] if outlier else [])

        damping = backaction(1.0, OMEGA, KAPPA, dets[keep], OMEGA)[0]

        def model(x, p):
            return p[1] + p[0] ** 2 * damping

        def jac(x, p):
            return np.column_stack([2.0 * p[0] * damping, np.ones_like(x)])

        p, cov, converged, _ = levenberg_marquardt(
            model, jac, dets[keep], y[keep], [TWO_PI * 5e3, 0.0],
            1.0 / err[keep] ** 2 if weighted else None)
        assert converged
        assert fit.g_abs == pytest.approx(abs(p[0]), rel=1e-8)
        assert fit.gamma_intrinsic == pytest.approx(p[1], rel=1e-6)
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-6)

    def test_linewidth_fit_without_optical_damping_is_degenerate(self):
        """A linewidth that falls where the optical damping rises would
        need |g|^2 < 0."""
        dets, y = linewidth_data()
        with pytest.raises(DegenerateFitError, match="no optical damping"):
            fit_scan_linewidth([(d, 24.0 - v) for d, v in zip(dets, y)],
                               OMEGA, KAPPA)

    def test_occupation_fit_requires_pinned_coupling(self):
        """Gamma and |g| only enter the occupation model through Gamma/g^2,
        so the fit refuses to run without a pinned coupling."""
        pts = [(TWO_PI * d, 0.3) for d in (1000e3, 1020e3, 1042e3, 1060e3)]
        with pytest.raises(ValueError, match="pinned"):
            fit_occupation_curve(pts, OMEGA, KAPPA, g_fixed=None)

    def test_cross_estimator_consistency(self):
        """Linewidth and spring fits of the same underlying scan agree on
        |g| within 1%."""
        g = TWO_PI * 8e3
        dets, y = linewidth_data(g=g)
        lw = fit_scan_linewidth([(d, v) for d, v in zip(dets, y)], OMEGA, KAPPA)
        half2 = (KAPPA / 2.0) ** 2
        freq_pts = []
        for det in dets:
            num = half2 - OMEGA ** 2 + det ** 2
            den = (half2 + (OMEGA + det) ** 2) * (half2 + (OMEGA - det) ** 2)
            freq_pts.append((det, math.sqrt(
                OMEGA ** 2 - 4.0 * g * g * OMEGA * det * num / den)))
        fr = fit_scan_frequency(freq_pts, KAPPA)
        assert lw.g_abs == pytest.approx(fr.g_abs, rel=0.01)

    def test_outlier_clipping(self):
        dets, y = linewidth_data()
        y = y.copy()
        y[5] *= 30.0  # one wild point
        pts = [(d, v, 0.01 * v) for d, v in zip(dets, y)]
        fit = fit_scan_linewidth(pts, OMEGA, KAPPA)
        assert not fit.inlier_mask[5]
        assert fit.g_abs == pytest.approx(TWO_PI * 8e3, rel=0.02)

    def test_underdetermined(self):
        dets, y = linewidth_data(dets_hz=np.array([1000e3, 1020e3, 1040e3]))
        with pytest.raises(UnderdeterminedScanError):
            fit_scan_linewidth([(d, v) for d, v in zip(dets, y)], OMEGA, KAPPA)

    def test_duplicate_detunings(self):
        dets, y = linewidth_data(dets_hz=np.array([1000e3, 1000e3, 1040e3,
                                                   1060e3]))
        with pytest.raises(UnderdeterminedScanError):
            fit_scan_linewidth([(d, v) for d, v in zip(dets, y)], OMEGA, KAPPA)


# ---------------------------------------------------------------------------
# the optimizer against its reference: same iterates, bit for bit

def reference_lm(model, jacobian, x, y, p0, weights=None):
    """The plain damped Gauss-Newton loop levenberg_marquardt must
    reproduce: same calls, same iterates, same result bits."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    unit_weights = weights is None
    w = np.ones_like(y) if unit_weights else np.asarray(weights, dtype=float)

    def cost_of(params):
        r = y - model(x, params)
        return r, float(np.sum(w * r * r))

    dof = max(y.size - p.size, 1)
    r, cost = cost_of(p)
    lam = 1e-3
    converged = False
    for _ in range(fitting.MAX_ITER):
        jac = jacobian(x, p)
        jtw = jac.T * w
        a_mat = jtw @ jac
        grad = jtw @ r
        diag = np.diag(a_mat).copy()
        if np.any(diag <= 0) or not np.all(np.isfinite(a_mat)):
            raise DegenerateFitError("degenerate fit window")
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(a_mat + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                raise DegenerateFitError("degenerate fit window") from None
            p_new = p + step
            r_new, cost_new = cost_of(p_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 10.0, 1e-14)
        # the accepted step, in standard errors: converged below STEP_SIGMA
        if unit_weights:  # reduced chi-square, floored at the rounding of y
            s2 = max(cost / dof, (np.finfo(float).eps / fitting.STEP_SIGMA) ** 2
                     * float(y @ y))
        else:
            s2 = 1.0
        if float(step @ a_mat @ step) <= fitting.STEP_SIGMA ** 2 * s2:
            converged = True
            break

    jac = jacobian(x, p)
    jtw = jac.T * w
    a_mat = jtw @ jac
    try:
        cov = np.linalg.inv(a_mat)
    except np.linalg.LinAlgError:
        raise DegenerateFitError("degenerate fit window") from None
    if unit_weights:
        cov = cov * (cost / dof)
    return p, cov, converged, cost


def lorentz_fns():
    """A fresh fit's Lorentzian model and Jacobian."""
    line = fitting._Lorentzian()
    return line.model, line.jacobian


def reference_lorentz_model(x, p):
    """spectrum.lorentzian at the parameters, its width |fwhm|."""
    c, fwhm, area, offset = p
    return lorentzian(x, c, abs(fwhm), area, offset)


def reference_lorentz_jac(x, p):
    """The Lorentzian Jacobian written out column by column."""
    c, fwhm, area, offset = p
    half = abs(fwhm) / 2.0
    dx = x - c
    den = dx * dx + half * half
    jac = np.empty((x.size, 4))
    with np.errstate(over="ignore"):
        jac[:, 0] = (area / math.pi) * half * 2.0 * dx / den ** 2
        jac[:, 1] = (area / math.pi) * (dx * dx - half * half) / den ** 2 / 2.0
    jac[:, 2] = half / (math.pi * den)
    jac[:, 3] = 1.0
    return jac


def logged(fn, kind, log):
    """fn, logging (kind, bytes of p) for every call."""
    def wrapper(x, p):
        log.append((kind, np.asarray(p, float).tobytes()))
        return fn(x, p)
    return wrapper


def run_logged(lm, model, jacobian, x, y, p0, weights):
    """lm's result (or the DegenerateFitError it raised) and the log of
    every model and Jacobian call it made."""
    log = []
    try:
        result = lm(logged(model, "model", log), logged(jacobian, "jac", log),
                    x, y, p0, weights)
    except DegenerateFitError as exc:
        result = exc
    return result, log


def assert_same_as_reference(model, jacobian, ref_model, ref_jacobian, x, y,
                             p0, weights):
    """levenberg_marquardt on model and jacobian and reference_lm on the
    reference pair make the same calls with the same parameters and return
    the same bits; the result (or the error)."""
    got, got_log = run_logged(levenberg_marquardt, model, jacobian, x, y, p0,
                              weights)
    want, want_log = run_logged(reference_lm, ref_model, ref_jacobian, x, y,
                                p0, weights)
    assert got_log == want_log
    assert type(got) is type(want)
    if isinstance(want, DegenerateFitError):
        return got
    (p, cov, converged, cost), (p_ref, cov_ref, converged_ref, cost_ref) = got, want
    # bytes, so signed zeros and NaNs count too
    assert p.tobytes() == p_ref.tobytes()
    assert cov.tobytes() == cov_ref.tobytes()
    assert converged is converged_ref
    assert np.float64(cost).tobytes() == np.float64(cost_ref).tobytes()
    return got


def sideband_window(seed, n_bins, fwhm, area, averages, shift):
    """A 100 kHz window of gamma-distributed periodogram bins around a
    Lorentzian of the given area (0: a flat window, as the anti-Stokes
    line of a mode at n = 0)."""
    rng = np.random.default_rng(seed)
    freq = np.linspace(4.95e6, 5.05e6, n_bins)
    mean = lorentzian(freq, 5e6 + shift, fwhm, area, 1.0)
    return freq, mean * rng.gamma(averages, 1.0 / averages, n_bins)


def first_pass_weights(vals, averages):
    """fit_lorentzian's first weights: floored data, averaged variance."""
    return 1.0 / (np.maximum(vals, fifth_percentile(vals)) ** 2 / averages)


class TestLevenbergMarquardtReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(8, 400),
           fwhm=st.floats(500.0, 3e4), area=st.floats(1e2, 1e5),
           averages=st.sampled_from([None, 10, 100, 1000]),
           shift=st.floats(-2e4, 2e4), guess=st.booleans())
    def test_lorentzian_windows(self, seed, n_bins, fwhm, area, averages,
                                shift, guess):
        """Peaks in weighted (known averages) and unit-weight windows, from
        the heuristic start or a start off the truth."""
        freq, vals = sideband_window(seed, n_bins, fwhm, area, averages or 100,
                                     shift)
        p0 = initial_lorentzian_guess(freq, vals) if guess else \
            np.array([5e6, 0.7 * fwhm, 0.5 * area, 1.1])
        weights = None if averages is None else first_pass_weights(vals, averages)
        assert_same_as_reference(*lorentz_fns(), reference_lorentz_model,
                                 reference_lorentz_jac, freq, vals, p0, weights)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(64, 300),
           area=st.floats(10.0, 1e3), weighted=st.booleans())
    @example(seed=5, n_bins=265, area=500.0, weighted=True)
    def test_flat_windows(self, seed, n_bins, area, weighted):
        """A flat window fitted from a peak start (the anti-Stokes fit at
        n = 0): some runs end at MAX_ITER without converging."""
        freq, vals = sideband_window(seed, n_bins, 5e3, 0.0, 100, 0.0)
        p0 = np.array([5e6 + 1e3, 5e3, area, 1.0])
        weights = first_pass_weights(vals, 100) if weighted else None
        assert_same_as_reference(*lorentz_fns(), reference_lorentz_model,
                                 reference_lorentz_jac, freq, vals, p0, weights)

    def test_flat_windows_reach_the_iteration_cap(self):
        """The flat-window case above does run to the cap, both ways (on
        seeds 0 and 20 of these 40)."""
        capped = 0
        for seed in range(40):
            freq, vals = sideband_window(seed, 265, 5e3, 0.0, 100, 0.0)
            p0 = np.array([5e6 + 1e3, 5e3, 500.0, 1.0])
            calls = []
            model, jac = lorentz_fns()
            result = assert_same_as_reference(
                model, logged(jac, "jac", calls), reference_lorentz_model,
                reference_lorentz_jac, freq, vals, p0,
                first_pass_weights(vals, 100))
            if not isinstance(result, DegenerateFitError) and not result[2]:
                capped += len(calls) == MAX_ITER + 1
        assert capped >= 2

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(8, 200),
           weighted=st.booleans(), zero=st.sampled_from(["area", "both"]))
    def test_degenerate_windows_raise(self, seed, n_bins, weighted, zero):
        """A start with zero area (and zero width) leaves Jacobian columns
        empty: both loops raise after the same calls."""
        freq, vals = sideband_window(seed, n_bins, 5e3, 1e3, 100, 0.0)
        p0 = np.array([5e6, 0.0 if zero == "both" else 5e3, 0.0, 1.0])
        weights = first_pass_weights(vals, 100) if weighted else None
        result = assert_same_as_reference(
            *lorentz_fns(), reference_lorentz_model, reference_lorentz_jac,
            freq, vals, p0, weights)
        assert isinstance(result, DegenerateFitError)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g_khz=st.floats(2.0, 20.0),
           n_points=st.integers(4, 14),
           rel_noise=st.one_of(st.just(0.0), st.floats(1e-7, 1e-4)),
           weighted=st.booleans())
    def test_scan_frequency_model(self, seed, g_khz, n_points, rel_noise,
                                  weighted):
        """fit_scan_frequency's 2-parameter optical-spring model, every LM
        run of its clipping rounds."""
        rng = np.random.default_rng(seed)
        dets = TWO_PI * np.sort(rng.uniform(940e3, 1090e3, n_points))
        shift = backaction(TWO_PI * g_khz * 1e3, OMEGA, KAPPA, dets, OMEGA)[1]
        om_eff = np.sqrt(OMEGA ** 2 - shift)
        y = om_eff * (1.0 + rel_noise * rng.standard_normal(n_points))
        pts = [(d, v, rel_noise * v) if weighted else (d, v)
               for d, v in zip(dets, y)]
        runs = []

        def both(model, jacobian, x, y, p0, weights=None):
            runs.append(x.size)
            result = assert_same_as_reference(model, jacobian, model, jacobian,
                                              x, y, p0, weights)
            if isinstance(result, DegenerateFitError):
                raise result
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitting, "levenberg_marquardt", both)
            try:
                fit_scan_frequency(pts, KAPPA)
            except (DegenerateFitError, UnderdeterminedScanError):
                pass
        assert runs


# ---------------------------------------------------------------------------
# a fit's Lorentzian model and Jacobian against their references

@pytest.mark.parametrize("fwhm", [5e3, -5e3, 5346.32])
def test_lorentzian_model_and_jacobian_match_the_references(fwhm):
    """The model is spectrum.lorentzian at width |fwhm| and the Jacobian
    reference_lorentz_jac, bit for bit: at a p the model has not seen and at
    the p it just saw, whose x - c the Jacobian takes.  At FWHM 5346.32
    half * half is not half ** 2, so the model's denominator is not the
    Jacobian's.  A repeated p gives the last result again."""
    freq = np.linspace(4.95e6, 5.05e6, 265)
    half = abs(fwhm) / 2.0
    assert (half * half != half ** 2) == (fwhm == 5346.32)
    p = np.array([5e6 + 1234.5, fwhm, 2e4, 1.1])
    other, fresh = p + [300.0, 25.0, -1e3, 0.1], p + [-800.0, 10.0, 5e3, 0.0]

    def assert_model(q):
        got = model(freq, q)
        assert got.tobytes() == lorentzian(freq, q[0], abs(q[1]), q[2],
                                           q[3]).tobytes()
        assert model(freq, q.copy()) is got

    def assert_jac(q):
        got = jac(freq, q)
        assert got.shape == (freq.size, 4) and got.flags.c_contiguous
        assert got.tobytes() == reference_lorentz_jac(freq, q).tobytes()
        assert jac(freq, q.copy()) is got

    model, jac = lorentz_fns()
    assert_jac(p)  # before any model call
    assert_model(other)
    assert_jac(other)
    assert_jac(fresh)  # the model last saw other
    assert_model(p)
    assert_jac(p)


# ---------------------------------------------------------------------------
# the LAPACK helpers against the numpy.linalg calls they stand for

def spd_matrix(seed, n, kind, log_cond, log_lam):
    """A symmetric positive-definite n x n matrix with condition number
    10**log_cond, damped as in levenberg_marquardt when kind is "damped"."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a_mat = (q * np.logspace(0.0, -log_cond, n)) @ q.T
    a_mat = (a_mat + a_mat.T) * 10.0 ** rng.uniform(-8.0, 8.0)
    if kind == "damped":
        a_mat = a_mat + 10.0 ** log_lam * np.diag(a_mat.diagonal())
    return a_mat, rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 4]),
       kind=st.sampled_from(["spd", "damped", "ill"]),
       log_cond=st.floats(0.0, 3.0), log_ill=st.floats(3.0, 15.0),
       log_lam=st.floats(-14.0, 10.0))
def test_helpers_match_numpy_linalg(seed, n, kind, log_cond, log_lam, log_ill):
    """_solve and _inv give np.linalg.solve's and np.linalg.inv's bytes on
    well-conditioned, LM-damped and ill-conditioned (to 1e15) matrices."""
    a_mat, b = spd_matrix(seed, n, kind, log_ill if kind == "ill" else log_cond,
                           log_lam)
    for helper, reference, args in ((fitting._solve, np.linalg.solve, (a_mat, b)),
                                    (fitting._inv, np.linalg.inv, (a_mat,))):
        try:
            want = reference(*args)
        except np.linalg.LinAlgError:
            with pytest.raises(DegenerateFitError):
                helper(*args)
            continue
        assert helper(*args).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the two passes of a weighted Lorentzian fit share the point where they meet

def counted_fit(monkeypatch, freq, vals, averages):
    """fit_lorentzian's fit, the log of its model and Jacobian computations
    (the calls that do not give their last result again) and its number of
    levenberg_marquardt runs."""
    log, runs, last = [], [], {}

    def computed(kind, p, out):
        if out is not last.get(kind):  # the last result is alive: a new id
            log.append((kind, np.asarray(p, float).tobytes()))
        last[kind] = out
        return out

    class Logged(fitting._Lorentzian):
        def model(self, x, p):
            return computed("model", p, super().model(x, p))

        def jacobian(self, x, p):
            return computed("jac", p, super().jacobian(x, p))

    def counted_lm(*args):
        runs.append(1)
        return levenberg_marquardt(*args)

    monkeypatch.setattr(fitting, "_Lorentzian", Logged)
    monkeypatch.setattr(fitting, "levenberg_marquardt", counted_lm)
    return fit_lorentzian(freq, vals, averages), log, len(runs)


def assert_fit_is(fit, p, cov, converged):
    p[1] = abs(p[1])
    assert [fit.center, fit.linewidth_fwhm, fit.area, fit.offset] == p.tolist()
    assert fit.covariance.tobytes() == cov.tobytes()
    assert fit.converged is converged and not fit.pinned


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weighted_fit_shares_where_its_passes_meet(monkeypatch, seed):
    """Two plain levenberg_marquardt passes with the re-weighting between
    them, composed by hand, give the fit's bits; the fit makes the same
    computations but for the re-weighting model and pass two's starting
    model and Jacobian, which are pass one's last ones."""
    averages = 100
    freq, vals = sideband_window(seed, 265, 5e3, 2e4, averages, 0.0)
    log = []
    model = logged(reference_lorentz_model, "model", log)
    jac = logged(reference_lorentz_jac, "jac", log)
    weights = 1.0 / (np.maximum(vals, fifth_percentile(vals)) ** 2 / averages)
    p, _, converged, _ = levenberg_marquardt(
        model, jac, freq, vals, initial_lorentzian_guess(freq, vals), weights)
    assert converged and log[-1] == ("jac", p.tobytes())
    first_pass = len(log)
    weights = averages / np.maximum(model(freq, p), 1e-300) ** 2
    p, cov, converged, _ = levenberg_marquardt(model, jac, freq, vals, p,
                                               weights)
    assert converged

    fit, fit_log, runs = counted_fit(monkeypatch, freq, vals, averages)
    assert runs == 2
    assert fit_log == log[:first_pass] + log[first_pass + 3:]
    assert_fit_is(fit, p, cov, converged)


def test_unit_weight_fit_is_one_pass(monkeypatch):
    freq, vals = sideband_window(4, 265, 5e3, 2e4, 100, 0.0)
    log = []
    p, cov, converged, _ = levenberg_marquardt(
        logged(reference_lorentz_model, "model", log),
        logged(reference_lorentz_jac, "jac", log), freq, vals,
        initial_lorentzian_guess(freq, vals))
    fit, fit_log, runs = counted_fit(monkeypatch, freq, vals, None)
    assert runs == 1 and fit_log == log
    assert_fit_is(fit, p, cov, converged)


# ---------------------------------------------------------------------------
# the stopping rule: an accepted step below STEP_SIGMA standard errors

def lorentzian_lm(freq, vals, p0, weights=None):
    """levenberg_marquardt on the Lorentzian model, and its iteration count."""
    calls = []
    model, jac = lorentz_fns()
    result = levenberg_marquardt(model, logged(jac, "jac", calls), freq, vals,
                                 p0, weights)
    return result, len(calls) - 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(64, 400),
       fwhm=st.floats(5e3, 3e4), height=st.floats(3.0, 100.0),
       averages=st.sampled_from([None, 10, 100, 1000]),
       shift=st.floats(-2e4, 2e4), guess=st.booleans())
def test_stop_lies_within_a_thousandth_sigma(seed, n_bins, fwhm, height,
                                             averages, shift, guess):
    """Resolved peaks (at least 3 bins wide, 3 offsets high), weighted and
    unit-weight, from the heuristic start or one a quarter width off: the
    fit stops within 1e-3 standard errors of where it stops at
    STEP_SIGMA = 1e-8, per parameter.  (From a start several widths away
    from a weak peak, a heavily damped short step can end a fit early, on
    a plateau; such starts are left out.)"""
    area = height * math.pi * fwhm / 2.0
    freq, vals = sideband_window(seed, n_bins, fwhm, area, averages or 100,
                                 shift)
    p0 = initial_lorentzian_guess(freq, vals) if guess else \
        np.array([5e6 + shift + 0.25 * fwhm, 0.7 * fwhm, 0.5 * area, 1.1])
    weights = None if averages is None else first_pass_weights(vals, averages)
    try:
        (p, _, converged, _), _ = lorentzian_lm(freq, vals, p0, weights)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitting, "STEP_SIGMA", 1e-8)
            (p_tight, cov_tight, tight_converged, _), _ = lorentzian_lm(
                freq, vals, p0, weights)
    except DegenerateFitError:
        assume(False)
    assume(tight_converged)  # otherwise there is no optimum to compare with
    assert converged
    sigma = np.sqrt(np.diag(cov_tight))
    assert np.all(np.abs(p - p_tight) <= 1e-3 * sigma)


@pytest.mark.parametrize("start", ["heuristic", "off the truth"])
def test_noise_free_windows_converge(start):
    """Exact unit-weight Lorentzians of several widths, areas and offsets
    converge at the truth well before MAX_ITER.  Their chi-square falls to
    the rounding of the data, so they converge only through the floor on
    s2: without it 15 of the heuristic starts run to MAX_ITER, and with a
    floor n times lower, (eps / STEP_SIGMA)^2 mean(y^2), still 4."""
    failed = []
    for fwhm, area, offset, n_bins in itertools.product(
            (1e3, 5e3, 2e4), (1e2, 1e4, 1e6), (0.0, 0.1, 1.0, 100.0),
            (64, 128, 265, 531)):
        freq = np.linspace(4.95e6, 5.05e6, n_bins)
        truth = np.array([5e6 + 3e3, fwhm, area, offset])
        vals = lorentzian(freq, *truth)
        p0 = initial_lorentzian_guess(freq, vals) if start == "heuristic" else \
            truth * [1.0, 0.8, 0.7, 1.0] + [0.2 * fwhm, 0.0, 0.0,
                                           0.2 * area / (math.pi * fwhm)]
        (p, _, converged, _), iterations = lorentzian_lm(freq, vals, p0)
        scale = np.maximum(np.abs(truth), 1e-3)
        if not (converged and iterations < MAX_ITER
                and np.all(np.abs(p - truth) <= 1e-8 * scale)):
            failed.append((fwhm, area, offset, n_bins, iterations))
    assert failed == []


def test_flat_windows_reach_the_cap_less_often():
    """Flat windows from a peak start, seeds 0-199, weighted and unit
    weights: 21 of the 400 runs go to MAX_ITER, against 76 under the former
    stop test (relative cost decrease below 1e-12 and every step below 1e-10
    of its parameter)."""
    capped = 0
    for seed, weighted in itertools.product(range(200), (True, False)):
        freq, vals = sideband_window(seed, 265, 5e3, 0.0, 100, 0.0)
        p0 = np.array([5e6 + 1e3, 5e3, 500.0, 1.0])
        try:
            (_, _, converged, _), iterations = lorentzian_lm(
                freq, vals, p0, first_pass_weights(vals, 100) if weighted else None)
        except DegenerateFitError:
            continue
        capped += not converged and iterations == MAX_ITER
    assert capped < 76


# ---------------------------------------------------------------------------
# the selection and window helpers against what they replace

@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20000),
       pool=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8),
       plateau=st.integers(1, 40),
       distinct_share=st.sampled_from([0.0, 0.1, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, pool=[3.0], plateau=1, distinct_share=0.0, seed=0)
@example(n=21, pool=[0.0, 1.0], plateau=1, distinct_share=1.0, seed=0)
def test_fifth_percentile_matches_numpy(n, pool, plateau, distinct_share, seed):
    """Plateaus of equal values from a small pool (ties), with a share of
    bins replaced by distinct values; n = 21 puts the index on a bin."""
    rng = np.random.default_rng(seed)
    runs = rng.integers(0, len(pool), size=-(-n // plateau))
    values = np.asarray(pool)[runs].repeat(plateau)[:n]
    distinct = rng.random(n) < distinct_share
    values[distinct] = rng.gamma(2.0, 1.0, np.count_nonzero(distinct))
    want = np.percentile(values, 5)
    got = fifth_percentile(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_fifth_percentile_at_the_midpoint():
    """At t = 0.5 (n = 11) numpy takes b - d (1 - t), which here differs
    from a + d t because b - a rounds."""
    a, b = 0.13436424411240122, 4494910647887381.5
    values = np.array([b] * 10 + [a])
    assert fifth_percentile(values) == np.percentile(values, 5)
    assert fifth_percentile(values) != a + (b - a) * 0.5


def reference_initial_guess(freq, vals):
    """initial_lorentzian_guess written with np.median, two loops over the
    bins at half maximum or above, and np.trapezoid."""
    freq = np.asarray(freq, float)
    vals = np.asarray(vals, float)
    n_edge = max(2, vals.size // 8)
    offset = float(np.median(np.concatenate([vals[:n_edge], vals[-n_edge:]])))
    imax = int(np.argmax(vals))
    peak = vals[imax] - offset
    above = vals >= offset + peak / 2.0
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
    return np.array([float(freq[imax]), fwhm, area, offset])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 600),
       pool=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0])
                     | st.floats(-1e6, 1e6), min_size=1, max_size=6),
       plateau=st.integers(1, 30), peak=st.floats(0.0, 1e3),
       nan_at=st.one_of(st.none(), st.integers(0, 599)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, pool=[3.0], plateau=1, peak=0.0, nan_at=None, seed=0)
@example(n=64, pool=[-0.0], plateau=64, peak=0.0, nan_at=None, seed=0)
@example(n=64, pool=[1.0], plateau=1, peak=10.0, nan_at=3, seed=0)
def test_initial_guess_matches_its_reference(n, pool, plateau, peak, nan_at,
                                             seed):
    """Windows of plateaus from a small pool (ties, signed zeros, negative
    peaks) with a Lorentzian on top or not, and at most one NaN: the same
    bits as the reference, NaN offset included."""
    rng = np.random.default_rng(seed)
    freq = np.cumsum(rng.uniform(0.5, 2.0, n)) + 1e6
    runs = rng.integers(0, len(pool), size=-(-n // plateau))
    vals = np.asarray(pool)[runs].repeat(plateau)[:n]
    if peak:  # else adding 0.0 would turn -0.0 into 0.0
        vals = vals + lorentzian(freq, freq[rng.integers(n)], 20.0, peak)
    if nan_at is not None:
        vals[nan_at % n] = np.nan
    with np.errstate(invalid="ignore"):
        got = initial_lorentzian_guess(freq, vals)
        want = reference_initial_guess(freq, vals)
    assert got.tobytes() == want.tobytes()


def window_mask(freq, window):
    return (freq >= window[0]) & (freq <= window[1])


@settings(max_examples=200, deadline=None)
@given(grid=st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=60,
                     unique=True).map(sorted),
       edges=st.lists(st.one_of(st.floats(-2e7, 2e7), st.integers(0, 59)),
                      min_size=2, max_size=2))
def test_window_bins_match_masks(grid, edges):
    """Window edges anywhere, on a bin center (an integer picks grid[i]),
    or off the grid; reversed windows select nothing."""
    freq = np.asarray(grid)
    window = tuple(float(freq[e % freq.size]) if isinstance(e, int) else e
                   for e in edges)
    want = np.flatnonzero(window_mask(freq, window))
    got = np.arange(freq.size)[window_bins(freq, window)]
    assert np.array_equal(got, want)


def test_window_bins_on_the_sideband_grid():
    """The sideband windows of the thermometry grid, edges on and between
    bins, give the masked bins."""
    freq = np.linspace(3.5e6, 6.5e6, 8192)
    for lo, hi in [(freq[100], freq[365]), (freq[0], freq[-1]),
                   (freq[0] - 1.0, freq[10] + 0.5), (freq[-3], freq[-1] + 1e6),
                   (4.95e6, 5.05e6), (7e6, 8e6), (1e6, 2e6), (5e6, 4.9e6)]:
        bins = window_bins(freq, (lo, hi))
        assert np.array_equal(freq[bins], freq[window_mask(freq, (lo, hi))])
