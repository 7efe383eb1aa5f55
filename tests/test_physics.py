import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import epsilon_0, hbar, k as k_B

from librotor import physics
from librotor.errors import (LibrotorError, NoNetCoolingError,
                             SpringInstabilityError)
from librotor.physics import (GAMMA_ZERO, LibrationMode, OpticalSetup,
                              RotorModel, backaction, build_modes,
                              cavity_rates, derived_scalars, effective_frequency,
                              effective_linewidth, libration_frequencies,
                              minimum_occupation,
                              moment_of_inertia_from_coupling,
                              sideband_rates, steady_state_occupation)
from librotor.presets import cluster_1d, dumbbell_2d

TWO_PI = 2.0 * math.pi


def make_optics(kappa=TWO_PI * 32.4e3, detuning=TWO_PI * 1e6,
                e_tw=1e8, e_cav=1e6, **kw):
    return OpticalSetup(e_tw0=complex(e_tw), e_cav0=complex(e_cav),
                        kappa=kappa, detuning=detuning,
                        wavelength=1550e-9, **kw)


def make_mode(omega=TWO_PI * 1e6, g=TWO_PI * 10e3, zpf=1.5e-5, **kw):
    return LibrationMode(label="alpha", omega=omega, g=complex(g), zpf=zpf, **kw)


def make_rotor(**kw):
    defaults = dict(inertia_a=4.5e-32, inertia_b=3.3e-32, inertia_c=0.9e-32,
                    chi_a=1.0, chi_b=1.2, chi_c=1.5, volume=2.6e-21)
    defaults.update(kw)
    return RotorModel(**defaults)


# ---------------------------------------------------------------------------
# libration frequencies

class TestLibrationFrequencies:
    def test_cluster_preset_frequencies(self):
        sc = cluster_1d()
        om_a, om_b = libration_frequencies(sc.rotor, sc.optics)
        assert om_a / TWO_PI == pytest.approx(1030e3, rel=1e-9)
        assert om_b / TWO_PI == pytest.approx(612e3, rel=1e-9)

    def test_formula(self):
        rotor = make_rotor()
        optics = make_optics()
        om_a, om_b = libration_frequencies(rotor, optics)
        expect_a = math.sqrt(epsilon_0 * rotor.volume * (rotor.chi_c - rotor.chi_a)
                             / (2.0 * rotor.inertia_b)) * abs(optics.e_tw0)
        expect_b = math.sqrt(epsilon_0 * rotor.volume * (rotor.chi_c - rotor.chi_b)
                             / (2.0 * rotor.inertia_a)) * abs(optics.e_tw0)
        assert om_a == pytest.approx(expect_a, rel=1e-14)
        assert om_b == pytest.approx(expect_b, rel=1e-14)

    def test_field_scaling(self):
        rotor = make_rotor()
        om1 = libration_frequencies(rotor, make_optics(e_tw=1e8))
        om2 = libration_frequencies(rotor, make_optics(e_tw=2e8))
        assert om2[0] == pytest.approx(2.0 * om1[0], rel=1e-14)
        assert om2[1] == pytest.approx(2.0 * om1[1], rel=1e-14)

    def test_inertia_scaling(self):
        om1 = libration_frequencies(make_rotor(), make_optics())
        om2 = libration_frequencies(make_rotor(inertia_b=4 * 3.3e-32),
                                    make_optics())
        assert om2[0] == pytest.approx(om1[0] / 2.0, rel=1e-14)

    @pytest.mark.parametrize("edit,modes", [
        ({"chi_b": 1.5}, "beta"),
        ({"chi_b": 1.5, "gamma_euler_branch": GAMMA_ZERO}, "alpha"),
        ({"chi_a": 1.5, "chi_b": 1.5}, "alpha, beta")],
        ids=["chi_b-is-chi_c", "chi_b-is-chi_c-gamma-zero", "chi_a-is-chi_c"])
    def test_degenerate_susceptibility_is_refused(self, edit, modes):
        """A rotor whose librating axis has chi_c not above its minor
        susceptibility leaves that mode untrapped: RotorModel refuses it,
        naming the mode on either Euler branch."""
        with pytest.raises(ValueError, match=re.escape(
                f"untrapped libration ({modes}): degenerate susceptibility, "
                f"chi_c must exceed chi_b")):
            make_rotor(**edit)

    def test_branch_swap(self):
        """The gamma ~ 0 Euler branch swaps which axis each mode librates
        about, so frequencies cross over to the swapped (chi, I) pairs."""
        r1 = make_rotor()
        r2 = make_rotor(gamma_euler_branch=GAMMA_ZERO)
        om1 = libration_frequencies(r1, make_optics())
        om2 = libration_frequencies(r2, make_optics())
        expect_a = math.sqrt(epsilon_0 * r1.volume * (r1.chi_c - r1.chi_b)
                             / (2.0 * r1.inertia_a)) * 1e8
        assert om2[0] == pytest.approx(expect_a, rel=1e-14)
        assert om2[0] != pytest.approx(om1[0], rel=1e-3)

    def test_rotor_validation(self):
        with pytest.raises(ValueError):
            make_rotor(inertia_b=-1.0)
        with pytest.raises(ValueError):
            make_rotor(chi_a=2.0)  # violates chi_a <= chi_b

    @pytest.mark.parametrize("field", ["inertia_a", "inertia_b", "inertia_c",
                                       "chi_a", "chi_b", "chi_c", "volume"])
    def test_rotor_rejects_nan(self, field):
        with pytest.raises(ValueError):
            make_rotor(**{field: math.nan})


class TestDriveAndModeChecks:
    @pytest.mark.parametrize("field", ["kappa", "wavelength", "n_cav"])
    def test_optics_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            OpticalSetup(**{"e_tw0": 1e8, "e_cav0": 1e6, "kappa": 1e5,
                            "detuning": 6e6, "wavelength": 1.55e-6,
                            field: math.nan})

    @pytest.mark.parametrize("field", ["omega", "zpf", "gamma_thermal",
                                       "gamma_recoil", "gamma_intrinsic"])
    def test_mode_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            make_mode(**{field: math.nan})


# ---------------------------------------------------------------------------
# zero-point amplitudes and couplings

class TestCouplings:
    def test_zpf_value(self):
        """Each mode's zero-point amplitude is sqrt(hbar / 2 I Omega) with the
        inertia of its libration axis; a tweezer field that puts alpha at
        1030 kHz pins the value."""
        rotor = make_rotor()
        e_tw = TWO_PI * 1030e3 / math.sqrt(physics.EPSILON_0 * rotor.volume
                                           * (rotor.chi_c - rotor.chi_a) / (2.0 * 3.3e-32))
        alpha, beta = build_modes(rotor, make_optics(e_tw=e_tw))
        assert alpha.omega == pytest.approx(TWO_PI * 1030e3, rel=1e-14)
        assert alpha.zpf == pytest.approx(
            math.sqrt(hbar / (2.0 * 3.3e-32 * alpha.omega)), rel=1e-14)
        assert alpha.zpf == pytest.approx(1.5712944127581658e-05, rel=1e-12)
        assert beta.zpf == pytest.approx(
            math.sqrt(hbar / (2.0 * 4.5e-32 * beta.omega)), rel=1e-14)

    def test_coupling_zero_cavity_field(self):
        alpha, beta = build_modes(make_rotor(), make_optics(e_cav=0.0))
        assert alpha.g == 0.0 and beta.g == 0.0

    def test_coupling_phase(self):
        rotor = make_rotor()
        optics_r = make_optics()
        optics_c = OpticalSetup(e_tw0=1e8 * np.exp(0.3j), e_cav0=1e6 + 0j,
                                kappa=optics_r.kappa, detuning=optics_r.detuning,
                                wavelength=1550e-9)
        g_r = build_modes(rotor, optics_r)[0].g
        g_c = build_modes(rotor, optics_c)[0].g
        assert abs(g_c) == pytest.approx(abs(g_r), rel=1e-14)
        assert g_c.imag != 0.0

    def test_inertia_inversion_round_trip(self):
        """The inertia extracted from a coupling must reproduce the inertia
        that generated it, exactly (1000 random parameter draws)."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            inertia_b = 10.0 ** rng.uniform(-34, -30)
            rotor = make_rotor(inertia_b=inertia_b)
            optics = make_optics(e_tw=10 ** rng.uniform(6, 9),
                                 e_cav=10 ** rng.uniform(4, 8))
            alpha, _ = build_modes(rotor, optics)
            back = moment_of_inertia_from_coupling(alpha.g, alpha.omega, optics)
            assert back == pytest.approx(inertia_b, rel=1e-12)

    def test_inertia_needs_cavity_field(self):
        with pytest.raises(LibrotorError, match="zero cavity field"):
            moment_of_inertia_from_coupling(TWO_PI * 1e3, TWO_PI * 1e6,
                                            make_optics(e_cav=0.0))


@settings(max_examples=100, deadline=None)
@given(inertias=st.tuples(*[st.floats(-34.0, -30.0)] * 3),
       chis=st.lists(st.floats(1.0, 3.0), min_size=3, max_size=3, unique=True),
       volume=st.floats(-23.0, -19.0),
       branch=st.sampled_from([GAMMA_ZERO, physics.GAMMA_HALF_PI]),
       fields=st.tuples(st.floats(6.0, 9.0), st.floats(4.0, 8.0)),
       phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 2))
def test_inertia_inversion_undoes_build_modes(inertias, chis, volume,
                                             branch, fields, phases):
    """For either mode on either Euler branch, the coupling that
    build_modes gives is turned back into that mode's moment of inertia.
    Exponents are drawn, the magnitudes are 10**x."""
    chi_a, chi_b, chi_c = sorted(chis)
    i_a, i_b, i_c = (10.0 ** x for x in inertias)
    rotor = RotorModel(inertia_a=i_a, inertia_b=i_b, inertia_c=i_c,
                       chi_a=chi_a, chi_b=chi_b, chi_c=chi_c,
                       volume=10.0 ** volume, gamma_euler_branch=branch)
    optics = make_optics(e_tw=10.0 ** fields[0] * np.exp(1j * phases[0]),
                         e_cav=10.0 ** fields[1] * np.exp(1j * phases[1]))
    for (_, inertia), mode in zip(rotor.branch_axes(), build_modes(rotor, optics)):
        back = moment_of_inertia_from_coupling(mode.g, mode.omega, optics)
        assert back == pytest.approx(inertia, rel=1e-12)


# (g, Omega, kappa, Delta, omega_eval) in Hz, plus the coupling phase
kernel_rows = st.lists(st.tuples(
    st.floats(1e2, 1e5), st.floats(1e5, 3e6), st.floats(1e3, 3e5),
    st.floats(-3e6, 3e6), st.floats(1e5, 3e6), st.floats(-math.pi, math.pi)),
    min_size=1, max_size=16)


@settings(max_examples=100, deadline=None)
@given(kernel_rows)
def test_kernels_on_arrays_match_scalar_functions(rows):
    """cavity_rates and backaction evaluated on arrays give, element by
    element, what the public per-mode functions give."""
    *hz, phase = (np.array(c) for c in zip(*rows))
    g_hz, om, kap, det, om_eval = (TWO_PI * c for c in hz)
    g = g_hz * np.exp(1j * phase)
    am, ap = cavity_rates(g, om, kap, det)
    damping, shift = backaction(g, om, kap, det, om_eval)
    for i in range(len(rows)):
        mode = LibrationMode(label="alpha", omega=om[i], g=complex(g[i]),
                             zpf=1.5e-5)
        optics = make_optics(kappa=kap[i], detuning=det[i])
        assert sideband_rates(mode, optics) == pytest.approx((am[i], ap[i]),
                                                             rel=1e-14)
        assert effective_linewidth(mode, optics, om_eval[i]) == pytest.approx(
            damping[i], rel=1e-14)
        radicand = om[i] ** 2 - shift[i]
        if radicand > 0.5 * om[i] ** 2:  # no cancellation to amplify rounding
            assert effective_frequency(mode, optics, om_eval[i]) == \
                pytest.approx(math.sqrt(radicand), rel=1e-14)

# ---------------------------------------------------------------------------
# sideband rates and occupation

class TestOccupation:
    def test_sideband_rates_frozen(self):
        mode = make_mode()
        optics = make_optics()
        a_minus, a_plus = sideband_rates(mode, optics)
        assert a_minus == pytest.approx(77570.18897752577, rel=1e-12)
        assert a_plus == pytest.approx(5.089046206493856, rel=1e-12)

    def test_occupation_frozen(self):
        mode = make_mode(gamma_thermal=3.6e3, gamma_recoil=3.2e3)
        occ = steady_state_occupation(mode, make_optics())
        assert occ.n_total == pytest.approx(0.08773390419443954, rel=1e-12)
        assert occ.n_phase == 0.0

    def test_preset_occupation_target(self):
        sc = cluster_1d()
        occ = steady_state_occupation(sc.mode_alpha, sc.optics)
        assert occ.n_total == pytest.approx(0.21, rel=1e-9)

    def test_phase_noise_additive(self):
        mode = make_mode(gamma_thermal=3.6e3, gamma_recoil=3.2e3)
        optics = make_optics(n_cav=1e8)
        base = steady_state_occupation(mode, optics, 0.0).n_total
        occ = steady_state_occupation(mode, optics, 1e-10)
        expect_phase = 1e-10 * 1e8 / optics.kappa
        assert occ.n_phase == pytest.approx(expect_phase, rel=1e-14)
        assert occ.n_total == pytest.approx(base + expect_phase, rel=1e-12)

    def test_no_net_cooling(self):
        mode = make_mode()
        with pytest.raises(NoNetCoolingError):
            steady_state_occupation(mode, make_optics(detuning=0.0))
        with pytest.raises(NoNetCoolingError):
            steady_state_occupation(mode, make_optics(detuning=-TWO_PI * 1e6))

    def test_minimum_occupation_forms(self):
        kap, om = TWO_PI * 32.4e3, TWO_PI * 1e6
        assert minimum_occupation(kap, om, "paper") == pytest.approx(
            2.6244e-4, rel=1e-12)
        assert minimum_occupation(kap, om, "rate_ratio") == pytest.approx(
            6.561e-5, rel=1e-12)
        with pytest.raises(ValueError):
            minimum_occupation(kap, om, "bogus")

    def test_rate_ratio_is_resolved_sideband_limit(self):
        """A+/(A- - A+) at Delta = Omega equals kappa^2/16 Omega^2 exactly."""
        mode = make_mode()
        optics = make_optics()
        a_minus, a_plus = sideband_rates(mode, optics)
        assert a_plus / (a_minus - a_plus) == pytest.approx(
            minimum_occupation(optics.kappa, mode.omega, "rate_ratio"),
            rel=1e-12)

    def test_occupation_minimum_near_omega(self):
        """The occupation over a detuning grid bottoms out within kappa of
        the mode frequency."""
        mode = make_mode(gamma_thermal=3.6e3, gamma_recoil=3.2e3)
        dets = np.linspace(0.5e6, 1.5e6, 2001) * TWO_PI
        ns = []
        for det in dets:
            try:
                ns.append(steady_state_occupation(
                    mode, make_optics(detuning=det)).n_total)
            except NoNetCoolingError:
                ns.append(np.inf)
        best = dets[int(np.argmin(ns))]
        assert abs(best - mode.omega) < TWO_PI * 32.4e3


# ---------------------------------------------------------------------------
# effective linewidth and frequency

class TestEffectiveDynamics:
    def test_linewidth_rate_identity(self):
        """gamma_eff(Omega) - gamma_intrinsic == A- - A+ to 1e-10 relative
        over 1e4 random draws."""
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            omega = TWO_PI * 10 ** rng.uniform(5, 6.5)
            mode = make_mode(omega=omega, g=TWO_PI * 10 ** rng.uniform(2, 4.5),
                             gamma_intrinsic=10 ** rng.uniform(-1, 3))
            optics = make_optics(kappa=TWO_PI * 10 ** rng.uniform(3.5, 5.5),
                                 detuning=TWO_PI * 10 ** rng.uniform(5, 6.5))
            a_minus, a_plus = sideband_rates(mode, optics)
            lhs = effective_linewidth(mode, optics, mode.omega) - mode.gamma_intrinsic
            assert lhs == pytest.approx(a_minus - a_plus, rel=1e-10)

    def test_detuning_sign_antisymmetry(self):
        mode = make_mode(gamma_intrinsic=5.0)
        pos = effective_linewidth(mode, make_optics(), mode.omega) - 5.0
        neg = effective_linewidth(mode, make_optics(detuning=-TWO_PI * 1e6),
                                  mode.omega) - 5.0
        assert neg == pytest.approx(-pos, rel=1e-14)

    def test_spring_shift_sign(self):
        """Blue-detuned cavity at Delta > Omega softens the spring toward
        lower frequency."""
        mode = make_mode()
        om_eff = effective_frequency(mode, make_optics(detuning=TWO_PI * 1.042e6),
                                     mode.omega)
        assert om_eff < mode.omega
        shift_hz = (mode.omega - om_eff) / TWO_PI
        assert 1.0 < shift_hz < 1e4

    def test_spring_instability(self):
        mode = make_mode(omega=TWO_PI * 1e5, g=TWO_PI * 9e4)
        with pytest.raises(SpringInstabilityError):
            effective_frequency(mode, make_optics(kappa=TWO_PI * 1e3,
                                                  detuning=TWO_PI * 1.01e5),
                                mode.omega)

    def test_zero_coupling_leaves_bare_values(self):
        mode = make_mode(g=0.0, gamma_intrinsic=3.0)
        assert effective_linewidth(mode, make_optics(), mode.omega) == 3.0
        assert effective_frequency(mode, make_optics(), mode.omega) == mode.omega


# ---------------------------------------------------------------------------
# temperatures and derived scalars

class TestDerived:
    def test_bose_temperature_golden(self):
        t = physics.mode_temperature(TWO_PI * 1030e3, 0.21)
        assert t == pytest.approx(2.822651964792581e-05, rel=1e-12)

    def test_temperature_limits(self):
        assert physics.mode_temperature(TWO_PI * 1e6, 0.0) == 0.0
        ts = [physics.mode_temperature(TWO_PI * 1e6, n)
              for n in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_derived_scalars(self):
        d = derived_scalars(TWO_PI * 1030e3, 0.21, 3.3e-32)
        assert d.sigma == pytest.approx(1.872413391007002e-05, rel=1e-12)
        assert d.temperature == pytest.approx(2.822651964792581e-05, rel=1e-12)
        assert d.t_rev == pytest.approx(2.0 * math.pi * 3.3e-32 / hbar, rel=1e-14)
        assert d.j_mean == pytest.approx(
            math.sqrt(k_B * d.temperature * 3.3e-32) / hbar, rel=1e-14)

    def test_revival_time_golden(self):
        mode = make_mode()
        d = derived_scalars(mode.omega, 0.0, 5.0e-32)
        assert d.t_rev == pytest.approx(2979.022007815404, rel=1e-12)


# ---------------------------------------------------------------------------
# build_modes

def reference_zero_point_amplitudes(rotor, freqs):
    """Both modes' zero-point amplitudes, as physics computed them before
    build_modes did it per mode."""
    (_, i_al), (_, i_be) = rotor.branch_axes()
    om_a, om_b = freqs
    if om_a <= 0 or om_b <= 0:
        raise ValueError("frequencies must be > 0")
    return (math.sqrt(physics.HBAR / (2.0 * i_al * om_a)),
            math.sqrt(physics.HBAR / (2.0 * i_be * om_b)))


def reference_coupling_rates(rotor, optics, freqs):
    """(g_alpha, g_beta), as physics computed them before build_modes did
    it per mode, in the same order of operations."""
    (chi_al, _), (chi_be, _) = rotor.branch_axes()
    zpf_a, zpf_b = reference_zero_point_amplitudes(rotor, freqs)
    prod = optics.e_cav0 * optics.e_tw0.conjugate()
    pref = physics.EPSILON_0 * rotor.volume / 4.0
    k_alpha = pref * (rotor.chi_c - chi_al) * prod
    k_beta = pref * (rotor.chi_c - chi_be) * prod
    return zpf_a * k_alpha / physics.HBAR, zpf_b * k_beta / physics.HBAR


def assert_modes_match_the_reference(rotor, optics):
    """omega, g and zpf of both modes equal the reference bit for bit: the
    repr of a float or complex tells each bit pattern but NaN's apart,
    signed zeros included."""
    freqs = libration_frequencies(rotor, optics)
    want = zip(freqs, reference_coupling_rates(rotor, optics, freqs),
               reference_zero_point_amplitudes(rotor, freqs))
    got = [(m.omega, m.g, m.zpf) for m in build_modes(rotor, optics)]
    assert repr(got) == repr(list(want))


class TestBuildModes:
    def test_labels_and_consistency(self):
        rotor = make_rotor()
        optics = make_optics()
        alpha, beta = build_modes(rotor, optics)
        assert {(m.gamma_thermal, m.gamma_recoil, m.gamma_intrinsic)
                for m in (alpha, beta)} == {(0.0, 0.0, 0.0)}
        alpha = replace(alpha, gamma_thermal=3.6e3, gamma_recoil=3.2e3)
        freqs = libration_frequencies(rotor, optics)
        assert alpha.label == "alpha" and beta.label == "beta"
        assert alpha.omega == freqs[0] and beta.omega == freqs[1]
        assert alpha.gamma_heating == pytest.approx(6.8e3)
        gs = reference_coupling_rates(rotor, optics, freqs)
        assert alpha.g == gs[0] and beta.g == gs[1]

    @pytest.mark.parametrize("preset", [cluster_1d, dumbbell_2d])
    def test_presets_match_the_reference(self, preset):
        sc = preset()
        assert_modes_match_the_reference(sc.rotor, sc.optics)

    def test_frequency_not_above_zero_raises(self):
        with pytest.raises(ValueError, match="frequencies must be > 0"):
            build_modes(make_rotor(), make_optics(e_tw=0.0))


@settings(max_examples=300, deadline=None)
@given(inertias=st.tuples(*[st.floats(-34.0, -30.0)] * 3),
       chis=st.lists(st.floats(1.0, 3.0), min_size=3, max_size=3, unique=True),
       volume=st.floats(-23.0, -19.0),
       branch=st.sampled_from([GAMMA_ZERO, physics.GAMMA_HALF_PI]),
       e_tw=st.floats(6.0, 9.0),
       e_cav=st.one_of(st.just(None), st.floats(4.0, 8.0)),
       phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 2))
def test_build_modes_matches_the_reference(inertias, chis, volume, branch,
                                           e_tw, e_cav, phases):
    """omega, g and zpf of both modes, on either Euler branch with complex
    fields, are the reference helpers' bits; e_cav None is a zero cavity
    field, with the signed zeros its phase gives."""
    chi_a, chi_b, chi_c = sorted(chis)
    i_a, i_b, i_c = (10.0 ** x for x in inertias)
    rotor = RotorModel(inertia_a=i_a, inertia_b=i_b, inertia_c=i_c,
                       chi_a=chi_a, chi_b=chi_b, chi_c=chi_c,
                       volume=10.0 ** volume, gamma_euler_branch=branch)
    cav = 0.0 if e_cav is None else 10.0 ** e_cav
    optics = make_optics(e_tw=10.0 ** e_tw * np.exp(1j * phases[0]),
                         e_cav=cav * np.exp(1j * phases[1]))
    assert_modes_match_the_reference(rotor, optics)
