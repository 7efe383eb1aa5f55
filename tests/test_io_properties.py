"""Property tests of the file boundary: the bulk PSD CSV writer and parser
give the bytes and arrays of the per-row reference below, and configs and
trace sidecars give back the objects they were written from."""

import cmath
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from librotor import io
from librotor.errors import ConfigError
from librotor.noise import NoiseProfile
from librotor.physics import (GAMMA_HALF_PI, GAMMA_ZERO, OpticalSetup,
                              RotorModel, build_modes)
from librotor.presets import Scenario
from librotor.spectrum import PsdTrace

TWO_PI = 2.0 * math.pi

# Hand-picked doubles next to what the float strategy draws on its own:
# subnormals, the extremes, and values that need all 17 digits.
SPECIAL = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, 0.30000000000000004, 1.0000000000000002,
           9007199254740993.0, 123456789.12345679]

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL + [-v for v in SPECIAL]))
non_negative = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                         st.sampled_from(SPECIAL))


def reference_bytes(trace):
    """The per-row writer the bulk one replaced."""
    lines = [io.PSD_MAGIC, "freq_hz,psd"]
    lines += [f"{f:.17g},{v:.17g}" for f, v in zip(trace.freq_hz, trace.values)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def grid_pairs(draw):
    """Two strictly increasing grids of one length, and values for each."""
    n = draw(st.integers(16, 48))
    grid = st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted)
    vals = st.lists(non_negative, min_size=n, max_size=n)
    return draw(grid), draw(vals), draw(grid), draw(vals)


# Grids equal in value but not in bits: 0.0 == -0.0, yet they print as
# "0" and "-0", so a cache keyed on value writes the second file wrong.
ZERO_SIGN_PAIR = ([0.0] + [float(i) for i in range(1, 16)], [1.0] * 16,
                  [-0.0] + [float(i) for i in range(1, 16)], [1.0] * 16)


@settings(max_examples=150, deadline=None)
@given(grid_pairs())
@example(ZERO_SIGN_PAIR)
def test_psd_csv_round_trip_is_exact(pair):
    grid_a, vals_a, grid_b, vals_b = pair
    # Both traces share one array, overwritten in place between the two
    # writes: a frequency-column cache keyed on identity, or one that kept
    # a view of the array, would write the second file with the first grid.
    freq = np.array(grid_a)
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for grid, vals, name in ((grid_a, vals_a, "a.csv"),
                                 (grid_b, vals_b, "b.csv")):
            freq[:] = grid
            trace = PsdTrace(freq, np.array(vals), {"channel": "cavity_y"})
            path = os.path.join(tmp, name)
            io.write_psd_csv(path, trace)
            written.append((path, np.array(grid), np.array(vals),
                            reference_bytes(trace)))
        for path, grid, vals, expected in written:
            with open(path, "rb") as fh:
                assert fh.read() == expected
            back = io.read_psd_csv(path)
            assert back.freq_hz.tobytes() == grid.tobytes()
            assert back.values.tobytes() == vals.tobytes()


# ---------------------------------------------------------------------------
# the reader's grid cache

# A grid with a zero, so that "-0" and "0" are different text for it.
CACHE_GRID = [0.0] + [1e6 + 1e3 * i for i in range(19)]
CACHE_ROWS = [f"{f:.17g},{0.5 + i:.17g}" for i, f in enumerate(CACHE_GRID)]


def cache_variant(name):
    """The data lines of a file on (or near) the cached grid."""
    rows = list(CACHE_ROWS)
    if name == "1e+06 for 1000000":
        rows[1] = rows[1].replace("1000000,", "1e+06,")
    elif name == "-0 for 0":
        rows[0] = "-" + rows[0]
    elif name == "third column":
        rows[5] += ",7"
    elif name == "inline comment":
        rows[5] += " # note"
    elif name == "comment with a comma":
        rows[5] += " # a, b"
    elif name == "comment for a value":
        rows[5] = rows[5].split(",")[0] + ",# 7"
    elif name == "bad value":
        rows[5] = rows[5].split(",")[0] + ",x"
    elif name == "blank line":
        rows.insert(7, "")
    elif name == "trailing blank line":
        rows.append("")
    elif name == "one row fewer":
        rows.pop()
    elif name == "one row more":
        rows.append("1e9,1")
    return rows


CACHE_VARIANTS = ["1e+06 for 1000000", "-0 for 0", "third column",
                  "inline comment", "comment with a comma",
                  "comment for a value", "bad value", "blank line",
                  "trailing blank line", "one row fewer", "one row more"]


def write_rows(path, rows, header=True, newline="\n"):
    lines = [io.PSD_MAGIC] + (["freq_hz,psd"] if header else []) + rows
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)


def read_outcome(path):
    """The trace's arrays as bytes, or the ConfigError text."""
    try:
        trace = io.read_psd_csv(path)
    except ConfigError as exc:
        return str(exc)
    return trace.freq_hz.tobytes(), trace.values.tobytes()


def cold_outcome(path, monkeypatch):
    """read_outcome with the grid cache empty; the cache is left as it was."""
    with monkeypatch.context() as patch:
        patch.setattr(io, "_psd_read_grid", ((), np.empty(0)))
        return read_outcome(path)


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("name", ["same"] + CACHE_VARIANTS)
def test_read_after_a_cached_grid_is_a_cold_read(tmp_path, monkeypatch, name,
                                                 header, newline):
    """Read after the cached grid, each file gives what a read with an
    empty cache gives, bit for bit or the same error text; and so does
    the cached grid's own file read after it."""
    base, path = str(tmp_path / "base.csv"), str(tmp_path / "v.csv")
    write_rows(base, CACHE_ROWS)
    write_rows(path, cache_variant(name), header, newline)
    for p in (base, path, base):
        assert read_outcome(p) == cold_outcome(p, monkeypatch), p


def test_reads_in_sequence_are_cold_reads(tmp_path, monkeypatch):
    """Every variant read in turn, each after the one before it filled
    or kept the cache, gives what a read with an empty cache gives."""
    paths = []
    for i, name in enumerate(["same"] + CACHE_VARIANTS * 2):
        paths.append(str(tmp_path / f"v{i}.csv"))
        write_rows(paths[-1], cache_variant(name),
                   newline=("\n", "\r\n")[i % 2])
    for p in paths:
        assert read_outcome(p) == cold_outcome(p, monkeypatch), p


def test_traces_on_one_grid_share_a_read_only_array(tmp_path):
    """A second file with the grid's text shares the first trace's
    frequency array, which no trace can write to."""
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_rows(first, CACHE_ROWS)
    write_rows(second, [row.replace(",", ",1") for row in CACHE_ROWS])
    a, b = io.read_psd_csv(first), io.read_psd_csv(second)
    assert b.freq_hz is a.freq_hz
    assert b.values.tobytes() != a.values.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a.freq_hz[0] = 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20).flatmap(
    lambda n: st.lists(st.lists(finite, min_size=n, max_size=n),
                       min_size=4, max_size=4)))
def test_format_csv_rows_matches_per_row_format(columns):
    arrays = [np.array(c, dtype=float) for c in columns]
    expected = "".join(f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}\n"
                       for a, b, c, d in zip(*arrays))
    assert io.format_csv_rows(*arrays) == expected


# ---------------------------------------------------------------------------
# configs and sidecars

def assert_same(a, b):
    """Dataclasses equal field by field; floats may differ in the last bits
    that the Hz <-> rad/s and polar <-> complex conversions round."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, tuple):
            assert np.allclose(x, y, rtol=1e-14, atol=0.0), field.name
        elif isinstance(x, (float, complex)):
            assert y == pytest.approx(x, rel=1e-14, abs=1e-300), field.name
        else:
            assert x == y, field.name


def magnitude(lo, hi):
    """Positive floats spread over decades: 10**x for x in [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@st.composite
def optical_setups(draw):
    def field():
        return draw(magnitude(4.0, 9.0)) * cmath.exp(
            1j * draw(st.floats(-math.pi, math.pi)))
    return OpticalSetup(
        e_tw0=field(), e_cav0=field(), kappa=draw(magnitude(3.0, 6.0)),
        detuning=draw(st.floats(-1e7, 1e7)),
        wavelength=draw(magnitude(-7.0, -5.0)),
        n_cav=draw(st.floats(0.0, 1e12)))


@st.composite
def scenarios(draw):
    chi_a, chi_b, chi_c = sorted(draw(st.lists(st.floats(1.0, 3.0), min_size=3,
                                               max_size=3, unique=True)))
    rotor = RotorModel(
        inertia_a=draw(magnitude(-34.0, -30.0)),
        inertia_b=draw(magnitude(-34.0, -30.0)),
        inertia_c=draw(magnitude(-34.0, -30.0)),
        chi_a=chi_a, chi_b=chi_b, chi_c=chi_c,
        volume=draw(magnitude(-23.0, -19.0)),
        gamma_euler_branch=draw(st.sampled_from([GAMMA_ZERO, GAMMA_HALF_PI])))
    optics = draw(optical_setups())
    dark = draw(st.floats(0.0, 1.0))
    noise = NoiseProfile(
        shot_level=dark + draw(magnitude(-3.0, 2.0)), dark_level=dark,
        phase_noise_base=draw(magnitude(-12.0, -6.0)),
        notch_list=tuple(draw(st.lists(st.tuples(
            magnitude(5.0, 7.0), st.floats(0.0, 60.0), magnitude(3.0, 5.0)),
            max_size=3))),
        cavity_noise_center=draw(st.floats(0.0, 1e8)),
        cavity_noise_width=draw(magnitude(3.0, 6.0)))
    rates = st.tuples(st.floats(0.0, 1e5), st.floats(0.0, 1e5))
    mode_alpha, mode_beta = build_modes(rotor, optics, gamma_thermal=draw(rates),
                                        gamma_recoil=draw(rates),
                                        gamma_intrinsic=draw(rates))
    return Scenario(rotor=rotor, optics=optics, mode_alpha=mode_alpha,
                    mode_beta=mode_beta, noise=noise,
                    het_freq_hz=draw(magnitude(6.0, 7.0)),
                    area_scale_c=draw(magnitude(0.0, 6.0)))


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_config_gives_back_the_scenario(scenario):
    """config_from_scenario, written and parsed as JSON, builds the
    scenario's rotor, optical setup, noise profile and modes again."""
    raw = io.config_from_scenario(scenario, [1e6])
    cfg = io.RunConfig.from_dict(json.loads(io.format_json(raw)))
    assert cfg.rotor == scenario.rotor
    assert_same(cfg.optics, scenario.optics)
    assert_same(cfg.noise, scenario.noise)
    for built, expected in zip(cfg.modes, scenario.modes):
        assert_same(built, expected)


def sidecar_meta(optics):
    """What simulate writes into a trace sidecar: the trace's detuning_hz
    among its other metadata, then the optics fields, through JSON."""
    meta = {"detuning_hz": optics.detuning / TWO_PI, "het_freq_hz": 5e6,
            **io.optics_fields(optics)}
    return json.loads(io.format_json(meta))


@settings(max_examples=200, deadline=None)
@given(optical_setups())
def test_optical_setup_survives_the_sidecar(optics):
    """The sidecar's optics fields give back the optical setup."""
    assert_same(io.optics_from_fields(sidecar_meta(optics)), optics)


@pytest.mark.parametrize("key", [*io.optics_fields(
    OpticalSetup(1j, 1j, 1.0, 1.0, 1e-6)), "detuning_hz"])
def test_sidecar_missing_an_optics_field_is_an_input_error(key):
    meta = sidecar_meta(OpticalSetup(1e8, 1e6j, 2e5, 6e6, 1.55e-6, n_cav=1e8))
    del meta[key]
    with pytest.raises(ConfigError, match=key):
        io.optics_from_fields(meta)
