import math

import numpy as np
import pytest

from librotor.geometry import (LABEL_DUMBBELL, LABEL_SPHERE, LABEL_TRIMER,
                               LABEL_UNCLASSIFIED, REFERENCE_BANDS,
                               DampingMeasurement, classify, ratio_error)


def meas(ratio, rel_err=0.0, scale=100.0):
    """Measurement with gamma_y/gamma_x = ratio and the requested relative
    ratio error split evenly between the two rates."""
    per_axis = rel_err / math.sqrt(2.0)
    return DampingMeasurement(gamma_x=scale, gamma_y=scale * ratio,
                              sigma_x=scale * per_axis,
                              sigma_y=scale * ratio * per_axis)


class TestRatioError:
    def test_propagation_formula(self):
        m = DampingMeasurement(gamma_x=100.0, gamma_y=130.0, sigma_x=2.0,
                               sigma_y=3.0)
        r, sigma = ratio_error(m)
        assert r == pytest.approx(1.3, rel=1e-14)
        expect = 1.3 * math.sqrt((2.0 / 100.0) ** 2 + (3.0 / 130.0) ** 2)
        assert sigma == pytest.approx(expect, rel=1e-14)

    def test_monte_carlo_matches_propagation(self):
        """First-order error propagation agrees with the empirical scatter
        of 1e5 noisy draws to 3%."""
        rng = np.random.default_rng(8)
        gx, gy, sx, sy = 100.0, 127.0, 1.5, 2.0
        draws = (rng.normal(gy, sy, 100_000) / rng.normal(gx, sx, 100_000))
        _, sigma = ratio_error(DampingMeasurement(gx, gy, sx, sy))
        assert np.std(draws) == pytest.approx(sigma, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            DampingMeasurement(gamma_x=0.0, gamma_y=1.0)
        with pytest.raises(ValueError):
            DampingMeasurement(gamma_x=1.0, gamma_y=1.0, sigma_x=-0.1)

    @pytest.mark.parametrize("field", ["gamma_x", "gamma_y", "sigma_x",
                                       "sigma_y"])
    def test_nan_rejected(self, field):
        kw = {"gamma_x": 100.0, "gamma_y": 127.0, "sigma_x": 1.0,
              "sigma_y": 1.0, field: math.nan}
        with pytest.raises(ValueError):
            DampingMeasurement(**kw)

    @pytest.mark.parametrize("field", ["gamma_x", "gamma_y"])
    def test_infinite_rate_rejected(self, field):
        with pytest.raises(ValueError, match="finite"):
            DampingMeasurement(**{"gamma_x": 100.0, "gamma_y": 127.0,
                                  field: math.inf})

    @pytest.mark.parametrize("field", ["sigma_x", "sigma_y"])
    def test_infinite_error_rejected(self, field):
        with pytest.raises(ValueError, match="finite"):
            DampingMeasurement(**{"gamma_x": 100.0, "gamma_y": 127.0,
                                  field: math.inf})

    @pytest.mark.parametrize("kw, match", [
        ({"gamma_x": 1e-300, "gamma_y": 1e300}, "damping ratio gamma_y/gamma_x"),
        ({"gamma_x": 1.0, "gamma_y": 1.27, "sigma_x": 1e160}, "ratio error"),
        ({"gamma_x": 1e-300, "gamma_y": 1e-10, "sigma_y": 1e10}, "ratio error")])
    def test_non_finite_ratio_or_error_raises(self, kw, match):
        """Finite rates and errors whose ratio, or whose propagated error,
        is not finite (an overflow of the ratio, of a relative error
        squared, or of the product): a ValueError that names which."""
        with pytest.raises(ValueError, match=match):
            ratio_error(DampingMeasurement(**kw))


class TestClassify:
    def test_golden_ratios(self):
        assert classify(meas(1.00, 0.002)).label == LABEL_SPHERE
        assert classify(meas(1.267, 0.002)).label == LABEL_DUMBBELL
        assert classify(meas(1.378, 0.002)).label == LABEL_TRIMER

    def test_overlapping_bands_unclassified(self):
        """1.32 +- 0.05: the 3-sigma window reaches both the dumbbell and
        trimer bands, so no unique label."""
        result = classify(meas(1.32, 0.05 / 1.32))
        assert result.label == LABEL_UNCLASSIFIED
        assert set(result.candidates) >= {LABEL_DUMBBELL, LABEL_TRIMER}
        assert "several" in result.note

    def test_no_band_unclassified(self):
        result = classify(meas(2.0, 0.001))
        assert result.label == LABEL_UNCLASSIFIED
        assert result.candidates == ()
        assert "no reference band" in result.note

    def test_scale_invariance(self):
        for scale in (1e-3, 1.0, 1e4):
            r = classify(meas(1.267, 0.002, scale=scale))
            assert r.label == LABEL_DUMBBELL
            assert r.ratio == pytest.approx(1.267, rel=1e-12)
            ref = classify(meas(1.267, 0.002, scale=1.0))
            assert r.confidence == pytest.approx(ref.confidence, rel=1e-9)

    def test_in_band_confidence(self):
        """Any ratio inside a band with negligible error classifies there
        with confidence > 0.99."""
        for label, (lo, hi) in REFERENCE_BANDS.items():
            for ratio in np.linspace(lo, hi, 7):
                result = classify(meas(float(ratio), 1e-4))
                assert result.label == label
                assert result.confidence > 0.99

    def test_zero_error_inside_band(self):
        result = classify(DampingMeasurement(gamma_x=1.0, gamma_y=1.267))
        assert result.label == LABEL_DUMBBELL
        assert result.confidence == 1.0

    def test_wide_error_spans_everything(self):
        result = classify(meas(1.2, 0.3))
        assert result.label == LABEL_UNCLASSIFIED
        assert len(result.candidates) >= 2
