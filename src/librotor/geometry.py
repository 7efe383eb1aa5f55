"""Particle-geometry classification from translational gas-damping
anisotropy gamma_y / gamma_x."""

from __future__ import annotations

import math
from dataclasses import dataclass

LABEL_SPHERE = "sphere"
LABEL_DUMBBELL = "dumbbell"
LABEL_TRIMER = "trimer"
LABEL_UNCLASSIFIED = "unclassified"

# Reference damping-ratio bands.  The sphere band allows +/-2% around unity
# and the trimer point value is widened by +/-0.02.
REFERENCE_BANDS = {
    LABEL_SPHERE: (0.98, 1.02),
    LABEL_DUMBBELL: (1.258, 1.276),
    LABEL_TRIMER: (1.358, 1.398),
}


@dataclass(frozen=True)
class DampingMeasurement:
    """Translational damping rates along x and y with 1-sigma errors."""

    gamma_x: float
    gamma_y: float
    sigma_x: float = 0.0
    sigma_y: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma_x < math.inf or not 0 < self.gamma_y < math.inf:
            raise ValueError("damping rates must be finite and > 0")
        if not (0 <= self.sigma_x < math.inf and 0 <= self.sigma_y < math.inf):
            raise ValueError("errors must be finite and >= 0")


@dataclass(frozen=True)
class GeometryClass:
    label: str
    ratio: float
    ratio_err: float
    confidence: float
    candidates: tuple[str, ...] = ()
    note: str = ""


def ratio_error(m: DampingMeasurement) -> tuple[float, float]:
    """Damping ratio gamma_y/gamma_x with first-order error propagation.
    ValueError, naming which, where the ratio or its error is not finite."""
    r = m.gamma_y / m.gamma_x
    rel_x, rel_y = m.sigma_x / m.gamma_x, m.sigma_y / m.gamma_y
    if not math.isfinite(r):
        raise ValueError(f"damping ratio gamma_y/gamma_x = {m.gamma_y:.3g} / "
                         f"{m.gamma_x:.3g} is not finite")
    try:
        sigma = r * math.sqrt(rel_x ** 2 + rel_y ** 2)
    except OverflowError:  # a relative error squared above the float range
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ValueError(f"damping ratio error is not finite (relative errors "
                         f"{rel_x:.3g} in gamma_x, {rel_y:.3g} in gamma_y)")
    return r, sigma


def _normal_cdf(x):
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _band_probability(ratio, sigma, lo, hi):
    if sigma == 0.0:
        return 1.0 if lo <= ratio <= hi else 0.0
    return _normal_cdf((hi - ratio) / sigma) - _normal_cdf((lo - ratio) / sigma)


def classify(m: DampingMeasurement) -> GeometryClass:
    """Assign a geometry label from the damping-rate ratio.

    Acceptance window per band: the band widened by 3 sigma_r on each side.
    A ratio accepted by more than one band (or none) is unclassified; big
    clusters have no reference ratio and land here by construction.
    """
    r, sigma = ratio_error(m)
    hits = []
    for label, (lo, hi) in REFERENCE_BANDS.items():
        if lo - 3.0 * sigma <= r <= hi + 3.0 * sigma:
            hits.append(label)
    if len(hits) == 1:
        label = hits[0]
        lo, hi = REFERENCE_BANDS[label]
        conf = _band_probability(r, sigma, lo - 3.0 * sigma, hi + 3.0 * sigma)
        return GeometryClass(label=label, ratio=r, ratio_err=sigma,
                             confidence=conf, candidates=(label,))
    if len(hits) > 1:
        note = "error bar spans several reference bands"
    else:
        note = ("ratio matches no reference band; large clusters have no "
                "reference ratio")
    return GeometryClass(label=LABEL_UNCLASSIFIED, ratio=r, ratio_err=sigma,
                         confidence=0.0, candidates=tuple(hits), note=note)
