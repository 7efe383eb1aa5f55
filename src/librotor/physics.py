"""Closed-form optomechanics of a librationally trapped nanorotor.

All frequencies and rates in this module are angular (rad/s).  File formats
and the CLI speak Hz and convert exactly by 2*pi at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LibrotorError, NoNetCoolingError, SpringInstabilityError

TWO_PI = 2.0 * math.pi

# SI values (CODATA 2022); HBAR and K_B are exact by definition of the SI.
HBAR = 6.62607015e-34 / TWO_PI  # J s
K_B = 1.380649e-23  # J / K
EPSILON_0 = 8.8541878188e-12  # F / m

GAMMA_ZERO = "gamma_zero"
GAMMA_HALF_PI = "gamma_half_pi"


@dataclass(frozen=True)
class RotorModel:
    """Rigid-rotor identity: principal moments of inertia, optical
    susceptibilities, volume, and the Euler-angle branch of the third angle.

    Inertias in kg m^2, volume in m^3, susceptibilities dimensionless with
    chi_a <= chi_b < chi_c, so that chi_c exceeds both modes' minor one.
    """

    inertia_a: float
    inertia_b: float
    inertia_c: float
    chi_a: float
    chi_b: float
    chi_c: float
    volume: float
    gamma_euler_branch: str = GAMMA_HALF_PI

    def __post_init__(self):
        for name in ("inertia_a", "inertia_b", "inertia_c", "volume"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not (self.chi_a <= self.chi_b <= self.chi_c):
            raise ValueError("susceptibilities must satisfy chi_a <= chi_b <= chi_c")
        if self.gamma_euler_branch not in (GAMMA_ZERO, GAMMA_HALF_PI):
            raise ValueError(f"unknown gamma_euler_branch {self.gamma_euler_branch!r}")
        modes = [label for label, (chi, _) in zip(("alpha", "beta"), self.branch_axes())
                 if not chi < self.chi_c]
        if modes:
            raise ValueError(f"untrapped libration ({', '.join(modes)}): degenerate "
                             f"susceptibility, chi_c must exceed chi_b")

    def branch_axes(self):
        """Per-mode (chi_minor, inertia) pairs for the alpha and beta modes.

        On the gamma ~ pi/2 branch alpha librates about the b-axis
        (chi_c - chi_a, I_b) and beta about the a-axis (chi_c - chi_b, I_a).
        The gamma ~ 0 branch swaps the a and b indices.
        """
        if self.gamma_euler_branch == GAMMA_HALF_PI:
            return (self.chi_a, self.inertia_b), (self.chi_b, self.inertia_a)
        return (self.chi_b, self.inertia_a), (self.chi_a, self.inertia_b)


@dataclass(frozen=True)
class OpticalSetup:
    """Tweezer and cavity drive parameters.

    Field amplitudes are complex (V/m); kappa and detuning are angular
    (rad/s).
    """

    e_tw0: complex
    e_cav0: complex
    kappa: float
    detuning: float
    wavelength: float
    n_cav: float = 0.0

    def __post_init__(self):
        for name in ("kappa", "wavelength"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.n_cav >= 0:
            raise ValueError("n_cav must be >= 0")


@dataclass(frozen=True)
class LibrationMode:
    """One librational mode: frequency, coupling, zero-point amplitude, and
    the heating channels feeding it."""

    label: str  # "alpha" or "beta"
    omega: float  # rad/s
    g: complex  # rad/s
    zpf: float  # rad
    gamma_thermal: float = 0.0  # phonons/s
    gamma_recoil: float = 0.0  # phonons/s
    gamma_intrinsic: float = 0.0  # rad/s

    def __post_init__(self):
        if self.label not in ("alpha", "beta"):
            raise ValueError("label must be 'alpha' or 'beta'")
        for name in ("omega", "zpf"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("gamma_thermal", "gamma_recoil", "gamma_intrinsic"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def gamma_heating(self) -> float:
        """Total non-cavity heating rate (phonons/s)."""
        return self.gamma_thermal + self.gamma_recoil


@dataclass(frozen=True)
class OccupationBudget:
    """Steady-state occupation and its phase-noise part."""

    n_total: float
    n_phase: float


def libration_frequencies(rotor: RotorModel, optics: OpticalSetup) -> tuple[float, float]:
    """Harmonic libration frequencies (Omega_alpha, Omega_beta) in rad/s.

    Omega_alpha = sqrt(eps0 V (chi_c - chi_a) / (2 I_b)) |E_tw(0)| and the
    beta analogue with (chi_c - chi_b, I_a), axes as RotorModel.branch_axes
    pairs them: the formula alone, 0 without a tweezer field.
    """
    e_tw = abs(optics.e_tw0)
    return tuple(math.sqrt(EPSILON_0 * rotor.volume * (rotor.chi_c - chi)
                           / (2.0 * inertia)) * e_tw
                 for chi, inertia in rotor.branch_axes())


def zero_point_amplitude(inertia, omega):
    """Ground-state angular width sqrt(hbar / 2 I Omega) in rad."""
    return math.sqrt(HBAR / (2.0 * inertia * omega))


def cavity_rates(g, omega, kappa, detuning):
    """(A_minus, A_plus): anti-Stokes (cooling) and Stokes (heating) rates.

    A^pm = |g|^2 kappa / ((kappa/2)^2 + (Delta pm Omega)^2), with the
    anti-Stokes rate taking the (Delta - Omega) denominator.  Any argument
    may be a numpy array.
    """
    g2 = abs(g) ** 2
    half2 = (kappa / 2.0) ** 2
    a_minus = g2 * kappa / (half2 + (detuning - omega) ** 2)
    a_plus = g2 * kappa / (half2 + (detuning + omega) ** 2)
    return a_minus, a_plus


def backaction(g, omega, kappa, detuning, omega_eval):
    """(optical damping, spring shift of Omega^2) at omega_eval, in rad/s
    and rad^2/s^2.  Any argument may be a numpy array.

    Both share 4 |g|^2 Omega Delta / D with
    D = ((kappa/2)^2 + (omega + Delta)^2) ((kappa/2)^2 + (omega - Delta)^2);
    the damping multiplies it by kappa, the shift by
    (kappa/2)^2 - omega^2 + Delta^2.
    """
    g2 = abs(g) ** 2
    half2 = (kappa / 2.0) ** 2
    den = ((half2 + (omega_eval + detuning) ** 2)
           * (half2 + (omega_eval - detuning) ** 2))
    pref = 4.0 * g2 * omega * detuning
    return (pref * kappa / den,
            pref * (half2 - omega_eval ** 2 + detuning ** 2) / den)


def sideband_rates(mode: LibrationMode, optics: OpticalSetup) -> tuple[float, float]:
    """(A_minus, A_plus) of one mode under one drive; see cavity_rates."""
    return cavity_rates(mode.g, mode.omega, optics.kappa, optics.detuning)


def steady_state_occupation(mode: LibrationMode, optics: OpticalSetup,
                            s_phi_at_omega: float = 0.0) -> OccupationBudget:
    """Equilibrium phonon occupation under cavity cooling.

    n = (Gamma + A+) / (A- - A+) + n_phi with Gamma the total non-cavity
    heating rate and n_phi = S_phi(Omega) n_cav / kappa (S_phi single-sided,
    rad^2/Hz, kappa in rad/s -- the convention adopted here).
    """
    a_minus, a_plus = sideband_rates(mode, optics)
    if a_minus <= a_plus:
        raise NoNetCoolingError("no net cooling at this detuning")
    n_phase = s_phi_at_omega * optics.n_cav / optics.kappa
    n_total = (mode.gamma_heating + a_plus) / (a_minus - a_plus) + n_phase
    return OccupationBudget(n_total=n_total, n_phase=n_phase)


def minimum_occupation(kappa: float, omega: float, form: str = "paper") -> float:
    """Detuning-independent occupation floor in the resolved-sideband limit.

    Two published forms coexist and disagree by a factor of 4: the quoted
    closed form kappa^2 / 4 Omega^2 ('paper') and the Delta = Omega limit of
    the rate-ratio occupation, A+/(A- - A+) -> kappa^2 / 16 Omega^2
    ('rate_ratio').  Both are kept; the acceptance tests check each.
    """
    if kappa <= 0 or omega <= 0:
        raise ValueError("kappa and omega must be > 0")
    if form == "paper":
        return kappa ** 2 / (4.0 * omega ** 2)
    if form == "rate_ratio":
        return kappa ** 2 / (16.0 * omega ** 2)
    raise ValueError(f"unknown form {form!r}")


def effective_linewidth(mode: LibrationMode, optics: OpticalSetup,
                        omega_eval: float) -> float:
    """Cavity-broadened motional linewidth gamma_eff(omega) in rad/s."""
    return mode.gamma_intrinsic + backaction(mode.g, mode.omega, optics.kappa,
                                             optics.detuning, omega_eval)[0]


def effective_frequency(mode: LibrationMode, optics: OpticalSetup,
                        omega_eval: float) -> float:
    """Optical-spring-shifted mode frequency Omega_eff(omega) in rad/s."""
    radicand = mode.omega ** 2 - backaction(mode.g, mode.omega, optics.kappa,
                                            optics.detuning, omega_eval)[1]
    if radicand <= 0:
        raise SpringInstabilityError("spring instability: radicand not positive")
    return math.sqrt(radicand)


def moment_of_inertia_from_coupling(g: complex, omega: float,
                                    optics: OpticalSetup) -> float:
    """Moment of inertia of a mode's libration axis from its fitted coupling.

    Exact algebraic inverse of the coupling build_modes gives a mode:
    I = 8 hbar |g|^2 |E_tw(0)|^2 / (Omega^3 |E_c(0)|^2).
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if abs(optics.e_cav0) == 0:
        raise LibrotorError("inertia unidentifiable: zero cavity field")
    return (8.0 * HBAR * abs(g) ** 2 * abs(optics.e_tw0) ** 2
            / (omega ** 3 * abs(optics.e_cav0) ** 2))


@dataclass(frozen=True)
class DerivedScalars:
    sigma: float  # angular standard deviation, rad
    temperature: float  # K
    t_rev: float  # s
    j_mean: float  # dimensionless


def mode_temperature(omega: float, n: float) -> float:
    """Effective temperature of a harmonic mode at occupation n by Bose
    inversion, T = hbar Omega / (k_B ln(1 + 1/n)), with T(0) = 0 by
    continuous extension.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    return HBAR * omega / (K_B * math.log1p(1.0 / n))


def derived_scalars(omega: float, n: float, inertia: float) -> DerivedScalars:
    """Angular width, temperature, revival time, and mean angular momentum.

    sigma = zpf sqrt(2n+1) with zpf = zero_point_amplitude(inertia, omega);
    T by Bose inversion; T_rev = 2 pi I / hbar; j = sqrt(k_B T I) / hbar.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sigma = zero_point_amplitude(inertia, omega) * math.sqrt(2.0 * n + 1.0)
    temp = mode_temperature(omega, n)
    t_rev = TWO_PI * inertia / HBAR
    j_mean = math.sqrt(K_B * temp * inertia) / HBAR
    return DerivedScalars(sigma=sigma, temperature=temp, t_rev=t_rev, j_mean=j_mean)


def build_modes(rotor: RotorModel,
                optics: OpticalSetup) -> tuple[LibrationMode, LibrationMode]:
    """Both modes of the trapped rotor, without heating (set it with
    dataclasses.replace); a frequency 0 or not finite is a ValueError.

    Omega from libration_frequencies, zpf = zero_point_amplitude(I, Omega)
    and the coupling g = zpf k / hbar (rad/s, complex) with
    k = (eps0 V / 4) (chi_c - chi_minor) E_c(0) E_tw*(0), (chi_minor, I) as
    RotorModel.branch_axes pairs them; zero cavity field gives g = 0.
    """
    prod = optics.e_cav0 * optics.e_tw0.conjugate()
    pref = EPSILON_0 * rotor.volume / 4.0
    modes = []
    for label, (chi, inertia), omega in zip(("alpha", "beta"), rotor.branch_axes(),
                                            libration_frequencies(rotor, optics)):
        if not omega > 0:
            raise ValueError("frequencies must be > 0")
        zpf = zero_point_amplitude(inertia, omega)
        modes.append(LibrationMode(label=label, omega=omega, zpf=zpf,
                                   g=zpf * (pref * (rotor.chi_c - chi) * prod) / HBAR))
    return tuple(modes)
