import math

import numpy as np
import pytest

from librotor.errors import DegenerateFitError, UnderdeterminedScanError
from librotor.fitting import (fit_lorentzian, fit_occupation_curve,
                              fit_scan_frequency, fit_scan_linewidth,
                              initial_lorentzian_guess, levenberg_marquardt)
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
