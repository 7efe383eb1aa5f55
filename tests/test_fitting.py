import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from librotor import fitting
from librotor.errors import DegenerateFitError, UnderdeterminedScanError
from librotor.fitting import (MAX_ITER, fifth_percentile, fit_lorentzian,
                              fit_occupation_curve, fit_scan_frequency,
                              fit_scan_linewidth, initial_lorentzian_guess,
                              levenberg_marquardt, window_bins)
from librotor.physics import (LibrationMode, OpticalSetup, backaction,
                              cavity_rates)
from librotor.spectrum import PsdTrace, lorentzian

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


class TestLorentzianFit:
    def test_noise_free_recovery(self):
        """Exact data comes back to 1e-8 relative in all four parameters."""
        trace = lorentz_trace(center=1.234e6, fwhm=7.5e3, area=3.3e4,
                              offset=2.5)
        fit = fit_lorentzian(trace, (trace.freq_hz[0], trace.freq_hz[-1]))
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
        with pytest.raises(DegenerateFitError):
            fit_lorentzian(trace, (1e6 - 100.0, 1e6 + 100.0))

    def test_rescale_invariance(self):
        """Scaling the data by c scales area and offset by c, leaves center
        and width alone."""
        trace = lorentz_trace(noise_sigma=0.05, seed=4)
        scaled = PsdTrace(trace.freq_hz, 7.0 * trace.values, dict(trace.meta))
        window = (trace.freq_hz[0], trace.freq_hz[-1])
        f1 = fit_lorentzian(trace, window)
        f2 = fit_lorentzian(scaled, window)
        assert f2.center == pytest.approx(f1.center, abs=1.0)
        assert f2.linewidth_fwhm == pytest.approx(f1.linewidth_fwhm, rel=1e-6)
        assert f2.area == pytest.approx(7.0 * f1.area, rel=1e-6)
        assert f2.offset == pytest.approx(7.0 * f1.offset, rel=1e-6)

    def test_shift_invariance(self):
        trace = lorentz_trace(noise_sigma=0.05, seed=4)
        shifted = PsdTrace(trace.freq_hz + 5e5, trace.values, dict(trace.meta))
        f1 = fit_lorentzian(trace, (trace.freq_hz[0], trace.freq_hz[-1]))
        f2 = fit_lorentzian(shifted, (shifted.freq_hz[0], shifted.freq_hz[-1]))
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
            trace = PsdTrace(grid, vals, {"averages": averages})
            fit = fit_lorentzian(trace, (grid[0], grid[-1]))
            err = fit.errors()[2]
            pull = abs(fit.area - 1e5) / err
            within3 += pull < 3.0
            within1 += pull < 1.0
        assert within3 / trials >= 0.99
        assert within1 / trials == pytest.approx(0.68, abs=0.06)

    def test_fit_determinism(self):
        trace = lorentz_trace(noise_sigma=0.1, seed=8)
        window = (trace.freq_hz[0], trace.freq_hz[-1])
        f1 = fit_lorentzian(trace, window)
        f2 = fit_lorentzian(trace, window)
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
        rel_step = float(np.max(np.abs(step) / (np.abs(p) + 1e-300)))
        rel_dcost = (cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 10.0, 1e-14)
        if rel_step < fitting.XTOL and rel_dcost < fitting.FTOL:
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
        dof = max(y.size - p.size, 1)
        cov = cov * (cost / dof)
    return p, cov, converged, cost


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


def assert_same_as_reference(model, jacobian, ref_jacobian, x, y, p0, weights):
    """levenberg_marquardt and reference_lm make the same calls with the
    same parameters and return the same bits; the result (or the error)."""
    got, got_log = run_logged(levenberg_marquardt, model, jacobian, x, y, p0,
                              weights)
    want, want_log = run_logged(reference_lm, model, ref_jacobian, x, y, p0,
                                weights)
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
    return averages / np.maximum(vals, fifth_percentile(vals)) ** 2


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
        assert_same_as_reference(fitting._lorentz_model, fitting._lorentz_jac,
                                 reference_lorentz_jac, freq, vals, p0, weights)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(64, 300),
           area=st.floats(10.0, 1e3), weighted=st.booleans())
    @example(seed=5, n_bins=265, area=500.0, weighted=True)
    def test_flat_windows(self, seed, n_bins, area, weighted):
        """A flat window fitted from a peak start (the anti-Stokes fit at
        n = 0): many runs end at MAX_ITER without converging."""
        freq, vals = sideband_window(seed, n_bins, 5e3, 0.0, 100, 0.0)
        p0 = np.array([5e6 + 1e3, 5e3, area, 1.0])
        weights = first_pass_weights(vals, 100) if weighted else None
        assert_same_as_reference(fitting._lorentz_model, fitting._lorentz_jac,
                                 reference_lorentz_jac, freq, vals, p0, weights)

    def test_flat_windows_reach_the_iteration_cap(self):
        """The flat-window case above does run to the cap, both ways."""
        capped = 0
        for seed in range(20):
            freq, vals = sideband_window(seed, 265, 5e3, 0.0, 100, 0.0)
            p0 = np.array([5e6 + 1e3, 5e3, 500.0, 1.0])
            calls = []
            jac = logged(fitting._lorentz_jac, "jac", calls)
            result = assert_same_as_reference(
                fitting._lorentz_model, jac, reference_lorentz_jac, freq, vals,
                p0, first_pass_weights(vals, 100))
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
            fitting._lorentz_model, fitting._lorentz_jac, reference_lorentz_jac,
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
            result = assert_same_as_reference(model, jacobian, jacobian, x, y,
                                              p0, weights)
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
