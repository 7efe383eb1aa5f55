"""Ready-made parameter sets for a silica nano-cluster (1D cooling of the
alpha mode) and a silica nano-dumbbell (2D cooling of both modes).

Field amplitudes and susceptibilities are solved backwards from target mode
frequencies, couplings, and occupations, so the forward model reproduces
the intended desk-scale numbers exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .noise import NoiseProfile, phase_noise_psd
from .physics import (EPSILON_0, HBAR, TWO_PI, LibrationMode, OpticalSetup,
                      RotorModel, build_modes, cavity_rates,
                      moment_of_inertia_from_coupling, zero_point_amplitude)

KAPPA = TWO_PI * 32.4e3  # rad/s
WAVELENGTH = 1550e-9
HET_FREQ_HZ = 4.99814e6
# Polarizability susceptibilities of the a and c axes; chi_b is solved for.
_CHI_A, _CHI_C = 1.0, 1.5


@dataclass(frozen=True)
class Scenario:
    """A complete forward-model parameter set."""

    rotor: RotorModel
    optics: OpticalSetup
    mode_alpha: LibrationMode
    mode_beta: LibrationMode
    noise: NoiseProfile
    het_freq_hz: float
    area_scale_c: float

    @property
    def modes(self) -> tuple[LibrationMode, LibrationMode]:
        return self.mode_alpha, self.mode_beta


def _sphere_volume(diameter):
    return math.pi * diameter ** 3 / 6.0


def _g_for_occupation(n_target, gamma_heating, omega, kappa, detuning):
    """Coupling magnitude that lands the steady state at n_target."""
    q_minus, q_plus = cavity_rates(1.0, omega, kappa, detuning)
    g2 = gamma_heating / (n_target * (q_minus - q_plus) - q_plus)
    if g2 <= 0:
        raise ValueError("occupation target unreachable at this detuning")
    return math.sqrt(g2)


def _noise(notches, base, detuning_hz):
    """The presets' noise: (omega, depth_db) notches 10 kHz wide and the
    cavity-noise pedestal at the detuned drive."""
    return NoiseProfile(
        shot_level=1.0, dark_level=0.05, phase_noise_base=base,
        notch_list=tuple((omega, depth, TWO_PI * 10e3) for omega, depth in notches),
        cavity_noise_center=TWO_PI * (HET_FREQ_HZ - detuning_hz),
        cavity_noise_width=KAPPA)


def _optics(omega_alpha, g_alpha, inertia_b, volume, detuning_hz, n_cav):
    """Optics whose fields land the alpha mode at omega_alpha and |g_alpha|."""
    dchi_a = _CHI_C - _CHI_A
    # Invert Omega_alpha = sqrt(eps0 V dchi / 2 I_b) |E_tw|.
    e_tw = omega_alpha / math.sqrt(EPSILON_0 * volume * dchi_a / (2.0 * inertia_b))
    k_needed = HBAR * g_alpha / zero_point_amplitude(inertia_b, omega_alpha)
    e_cav = k_needed / (EPSILON_0 * volume / 4.0 * dchi_a * e_tw)
    return OpticalSetup(e_tw0=complex(e_tw), e_cav0=complex(e_cav),
                        kappa=KAPPA, detuning=TWO_PI * detuning_hz,
                        wavelength=WAVELENGTH, n_cav=n_cav)


def _scenario(inertias, volume, omega_beta, optics, noise, gamma_thermal,
              gamma_recoil):
    """The Scenario of rotor inertias (I_a, I_b, I_c), chi_b set by the
    beta-mode frequency with the optics' tweezer field."""
    inertia_a, inertia_b, inertia_c = inertias
    chi_b = _CHI_C - 2.0 * inertia_a * omega_beta ** 2 / (
        EPSILON_0 * volume * optics.e_tw0.real ** 2)
    rotor = RotorModel(inertia_a=inertia_a, inertia_b=inertia_b,
                       inertia_c=inertia_c, chi_a=_CHI_A, chi_b=chi_b,
                       chi_c=_CHI_C, volume=volume)
    mode_alpha, mode_beta = (
        replace(mode, gamma_thermal=t, gamma_recoil=gamma_recoil, gamma_intrinsic=1.0)
        for mode, t in zip(build_modes(rotor, optics), gamma_thermal))
    return Scenario(rotor=rotor, optics=optics, mode_alpha=mode_alpha,
                    mode_beta=mode_beta, noise=noise,
                    het_freq_hz=HET_FREQ_HZ, area_scale_c=1e5)


def cluster_1d() -> Scenario:
    """SiO2 cluster, alpha at 1030 kHz and beta at 612 kHz, tuned so the
    alpha mode settles at n = 0.21 at a detuning of 1042 kHz with a total
    heating rate of 6.8e3 phonons/s."""
    omega_alpha = TWO_PI * 1030e3
    inertia_b = 3.3e-32
    volume = 3.0 * _sphere_volume(119e-9)
    detuning_hz = 1042e3
    gamma_recoil = 3.2e3
    gamma_thermal = 3.6e3
    g_alpha = _g_for_occupation(0.21, gamma_recoil + gamma_thermal,
                                omega_alpha, KAPPA, TWO_PI * detuning_hz)
    optics = _optics(omega_alpha, g_alpha, inertia_b, volume, detuning_hz, 1e8)
    noise = _noise(((omega_alpha, 35.0),), 1e-9, detuning_hz)
    return _scenario((4.5e-32, inertia_b, 0.9e-32), volume, TWO_PI * 612e3,
                     optics, noise, (gamma_thermal, gamma_thermal), gamma_recoil)


def dumbbell_2d() -> Scenario:
    """Silica dumbbell with alpha at 1035 kHz and beta at 978 kHz, tuned so
    simultaneous cooling at a detuning of 984 kHz lands near (n_alpha,
    n_beta) = (1.02, 0.73) with the beta mode dominated by phase noise
    (n_phi about 0.38)."""
    omega_alpha = TWO_PI * 1035e3
    omega_beta = TWO_PI * 978e3
    inertia_b = 1.9e-32
    volume = 2.0 * _sphere_volume(156e-9)
    detuning_hz = 984e3
    gamma_alpha = 18e3  # total heating, phonons/s
    gamma_beta = 20e3
    gamma_recoil = 4e3
    base = 1e-9
    # Phase-noise occupations set by the notch depths: 50 dB at alpha,
    # 30 dB at beta, with the unnotched level pinned to n_phi0 = 380.
    n_phi0 = 380.0
    noise = _noise(((omega_alpha, 50.0), (omega_beta, 30.0)), base, detuning_hz)
    # Residual phase-noise occupations include the tail of the other notch.
    n_phi_alpha = n_phi0 * phase_noise_psd(noise, omega_alpha) / base
    n_phi_beta = n_phi0 * phase_noise_psd(noise, omega_beta) / base

    g_alpha = _g_for_occupation(1.02 - n_phi_alpha, gamma_alpha,
                                omega_alpha, KAPPA, TWO_PI * detuning_hz)
    g_beta = _g_for_occupation(0.73 - n_phi_beta, gamma_beta,
                               omega_beta, KAPPA, TWO_PI * detuning_hz)
    optics = _optics(omega_alpha, g_alpha, inertia_b, volume, detuning_hz,
                     n_phi0 * KAPPA / base)
    # I_a follows from the beta-mode coupling with the shared fields
    inertia_a = moment_of_inertia_from_coupling(g_beta, omega_beta, optics)
    return _scenario((inertia_a, inertia_b, 0.4e-32), volume, omega_beta,
                     optics, noise,
                     (gamma_alpha - gamma_recoil, gamma_beta - gamma_recoil),
                     gamma_recoil)
