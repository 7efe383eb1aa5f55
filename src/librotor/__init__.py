"""Cavity cooling of nanorotor librational modes: closed-form physics,
synthetic heterodyne spectra, and the sideband-thermometry inverse pipeline."""

__version__ = "0.1.0"

from . import (fitting, geometry, io, noise, physics, presets, spectrum,
               thermometry)
from .errors import LibrotorError
