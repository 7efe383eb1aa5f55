"""File formats and run configuration.

Boundary convention: every frequency in a config, CSV, or JSON file is in
Hz; conversion to the internal rad/s happens here and is exactly 2*pi.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import tempfile
import warnings
from dataclasses import MISSING, dataclass, replace
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .errors import ConfigError
from .noise import NoiseProfile
from .physics import (TWO_PI, LibrationMode, OpticalSetup, RotorModel,
                      build_modes, libration_frequencies)
from .presets import HET_FREQ_HZ
from .spectrum import (CHANNELS, DEFAULT_CHANNEL, ORIENT_LO_BLUE, ORIENT_LO_RED,
                       PsdTrace)

PSD_MAGIC = "# librotor-psd v1"
RESULTS_SCHEMA = "librotor-results/1"
RUN_SCHEMA = "librotor-run/1"


# ---------------------------------------------------------------------------
# JSON with fixed float formatting

def format_json(obj, indent: int = 2) -> str:
    """Serialize to JSON with every float at 17 significant digits."""

    def fmt(o, level):
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (np.floating, float)):
            o = float(o)
            if math.isnan(o) or math.isinf(o):
                return "null"
            return f"{o:.17g}"
        if isinstance(o, (np.integer, int)):
            return str(int(o))
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = ",\n".join(pad_in + fmt(v, level + 1) for v in o)
            return "[\n" + inner + "\n" + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = ",\n".join(f"{pad_in}{json.dumps(str(k))}: {fmt(v, level + 1)}"
                               for k, v in o.items())
            return "{\n" + inner + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return fmt(obj, 0) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Whole-file atomic write: temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# PSD CSV + sidecar

PSD_HEADER = "freq_hz,psd"

# Every float in a CSV file is written with this format: 17 significant
# digits, so that parsing gives back the same double.
_FLOAT = "%.17g"

# One-entry cache: (copy of the last grid written, its row template
# "<freq>,%.17g\n...").  All traces of a scan and both calibration traces
# share one grid, so its frequency column is formatted once.  Keyed by
# exact bits, not identity, since callers may reuse an array, and not by
# value, since 0.0 == -0.0 but they print differently; read once and
# replaced in one assignment, so no grid is paired with another's template.
_psd_row_template = (np.empty(0), "")


def format_csv_rows(*columns) -> str:
    """Equal-length float columns as CSV rows, one newline-terminated line
    per row, every value in the shared 17-digit format."""
    row = ",".join([_FLOAT] * len(columns)) + "\n"
    return row * len(columns[0]) % tuple(np.column_stack(columns).ravel().tolist())


def _psd_rows(freq: np.ndarray, values: np.ndarray) -> str:
    global _psd_row_template
    grid, template = _psd_row_template
    if grid.tobytes() != freq.tobytes():
        template = (f"{_FLOAT},%{_FLOAT}\n" * freq.size) % tuple(freq.tolist())
        _psd_row_template = (freq.copy(), template)
    return template % tuple(values.tolist())


def write_psd_csv(path: str, trace: PsdTrace) -> tuple[str, str]:
    """CSV trace plus a <name>.meta.json sidecar carrying trace.meta;
    returns the sha256 hex digests of the CSV and of the sidecar bytes."""
    text = f"{PSD_MAGIC}\n{PSD_HEADER}\n" + _psd_rows(trace.freq_hz, trace.values)
    side = format_json(dict(trace.meta))
    atomic_write_text(path, text)
    atomic_write_text(sidecar_path(path), side)
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(side.encode()).hexdigest())


def sidecar_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".meta.json"


def _real(value, lo=-math.inf) -> bool:
    """A finite real number above lo (a bool is not a number here)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and lo < value < math.inf


def _orientation(value) -> bool:
    return value in (ORIENT_LO_BLUE, ORIENT_LO_RED)


# Sidecar fields the analysis reads, and what each may hold.
_META_CHECKS = {
    "het_freq_hz": _real,
    "detuning_hz": lambda v: v is None or _real(v),
    "averages": lambda v: v is None or v == math.inf or _real(v, 0.0),
    "channel": lambda v: isinstance(v, str),
    "kind": lambda v: v is None or isinstance(v, str),
    "sideband_orientation": _orientation,
}


# What a file `write_psd_csv` wrote starts with, and the bytes of its
# numbers.  The bytes pass and the full parse both convert each field with
# `float`, so they give the same bits; within these bytes there is no
# blank, `#`, `_` or inf/nan word that the full parse would treat apart.
_PSD_START = f"{PSD_MAGIC}\n{PSD_HEADER}\n".encode()
_NUMBER_BYTES = b"0123456789.eE+-"
_PSD_START_SKELETON = _PSD_START.translate(None, _NUMBER_BYTES)

# One-entry cache of the last grid the bytes pass parsed: its frequency
# fields and the read-only array parsed from them, replaced in one
# assignment so that they stay paired.  Traces of a scan share one grid, so
# it is parsed once; keyed by text, not by value, so a hit gives what a
# full parse would.
_psd_read_grid = ((), np.empty(0))


def _parse_psd_bytes(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and values of a file that is exactly the PSD start then
    LF-ended `<number>,<number>` lines; ValueError for any other file."""
    global _psd_read_grid
    skeleton = raw.translate(None, _NUMBER_BYTES)
    n = (len(skeleton) - len(_PSD_START_SKELETON)) // 2
    # number bytes after the last LF would be invisible to the skeleton
    if not (raw.startswith(_PSD_START) and raw.endswith(b"\n")
            and skeleton == _PSD_START_SKELETON + b",\n" * n):
        raise ValueError("not a plain PSD file")
    # fields: the magic, "freq_hz", "psd", then 2n numbers and an empty one
    fields = raw.replace(b",", b"\n").split(b"\n")
    freq_fields = fields[3:-1:2]
    vals = np.fromiter(map(float, fields[4::2]), float, count=n)
    key, grid = _psd_read_grid
    if freq_fields != key:
        grid = np.fromiter(map(float, freq_fields), float, count=n)
        grid.flags.writeable = False
        _psd_read_grid = (freq_fields, grid)
    return grid, vals


def read_file(path: str) -> bytes:
    """A file's bytes; one that cannot be read is a ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def decode_lines(path: str, raw: bytes) -> list[str]:
    """The lines of raw as UTF-8 text; other bytes are a ConfigError naming path."""
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _number(field: str):
    """float(field), or None where it is not a number: `float` refuses
    it, or it holds `_`, which `float` reads as digit grouping."""
    try:
        return None if "_" in field else float(field)
    except ValueError:
        return None


def csv_fields(line: str) -> tuple[str, list]:
    """The line rule of every CSV file librotor reads: the line's text before
    any `#`, stripped of blanks, and the _number of each comma-separated
    field of that text."""
    text = line.partition("#")[0].strip()
    return text, [_number(field) for field in text.split(",")]


def _parse_psd_text(path: str, raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The full parse of any PSD CSV, line by line: after the magic line,
    each line with text but the column names must hold two numbers."""
    lines = decode_lines(path, raw)
    if not lines or lines[0].strip() != PSD_MAGIC:
        raise ConfigError(f"{path}: missing '{PSD_MAGIC}' header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        text, fields = csv_fields(line)
        if text and text != PSD_HEADER:
            if len(fields) != 2 or None in fields:
                raise ConfigError(f"{path}: malformed CSV row at line {lineno}")
            rows += fields
    return np.array(rows[::2], dtype=float), np.array(rows[1::2], dtype=float)


def read_psd_csv(path: str) -> PsdTrace:
    """Trace from a PSD CSV; the header line after the magic line is
    optional.  Metadata comes from the sidecar when there is one.

    A file as `write_psd_csv` writes it (magic and header lines, then
    LF-ended `<number>,<number>` lines of `0-9 . e E + -` only) is parsed
    in one pass over its bytes, and shares the read-only frequency array
    of the last such file with the same frequency text.  Any other file,
    or a field `float` refuses, takes the full parse; both read each field
    with `float`, so they give the same bits and accept the same files."""
    raw = read_file(path)
    try:
        freqs, vals = _parse_psd_bytes(raw)
    except ValueError:
        freqs, vals = _parse_psd_text(path, raw)
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        try:
            with open(side, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {side}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{side}: malformed sidecar JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"{side}: sidecar must hold a JSON object")
        for key, valid in _META_CHECKS.items():
            if key in meta and not valid(meta[key]):
                raise ConfigError(f"{side}: invalid {key} {meta[key]!r}")
    try:
        return PsdTrace(freqs, vals, meta)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# optical setup as file fields

def optics_fields(optics: OpticalSetup) -> dict:
    """The cavity and tweezer fields of an optical setup, as configs and
    trace sidecars store them (kappa_hz first).  The drive detuning is not
    among them: a sidecar has its trace's detuning_hz, a config its own."""
    return {
        "kappa_hz": optics.kappa / TWO_PI,
        "e_tw0_v_per_m": abs(optics.e_tw0),
        "e_tw0_phase_rad": math.atan2(optics.e_tw0.imag, optics.e_tw0.real),
        "e_cav0_v_per_m": abs(optics.e_cav0),
        "e_cav0_phase_rad": math.atan2(optics.e_cav0.imag, optics.e_cav0.real),
        "wavelength_m": optics.wavelength,
        "n_cav": optics.n_cav,
    }


def optics_from_fields(fields: dict) -> OpticalSetup:
    """The optical setup from the optics_fields keys and detuning_hz, all
    required.  A missing or invalid field is a ConfigError."""
    num = partial(_num, fields, where="optics")
    try:
        return OpticalSetup(
            e_tw0=complex(num("e_tw0_v_per_m") * np.exp(1j * num("e_tw0_phase_rad"))),
            e_cav0=complex(num("e_cav0_v_per_m") * np.exp(1j * num("e_cav0_phase_rad"))),
            kappa=TWO_PI * num("kappa_hz"), detuning=TWO_PI * num("detuning_hz"),
            wavelength=num("wavelength_m"), n_cav=num("n_cav"))
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"optics: {exc}") from None


# ---------------------------------------------------------------------------
# run configuration

# Schema tables: config key -> (field, scale).  A number is read as
# value * scale and written as field / scale, so the scale is 2*pi for a
# frequency in Hz and 1 otherwise; a value with scale None is not a number
# and passes as it is.  A dict scale is a list of records, each read into a
# tuple in the dict's key order.  A key left out takes its field's default;
# the key of a field without one is required.
_ROTOR = {"inertia_a": ("inertia_a", 1.0), "inertia_b": ("inertia_b", 1.0),
          "inertia_c": ("inertia_c", 1.0), "chi_a": ("chi_a", 1.0),
          "chi_b": ("chi_b", 1.0), "chi_c": ("chi_c", 1.0),
          "volume_m3": ("volume", 1.0),
          "gamma_euler_branch": ("gamma_euler_branch", None)}
_NOISE = {"shot_level": ("shot_level", 1.0), "dark_level": ("dark_level", 1.0),
          "phase_noise_base": ("phase_noise_base", 1.0),
          "notches": ("notch_list", {"center_hz": TWO_PI, "depth_db": 1.0,
                                     "width_hz": TWO_PI}),
          "cavity_noise_center_hz": ("cavity_noise_center", TWO_PI),
          "cavity_noise_width_hz": ("cavity_noise_width", TWO_PI)}
# Heating fields of the (alpha, beta) modes: the field is (mode index, name).
_HEATING = {"gamma_thermal_alpha": ((0, "gamma_thermal"), 1.0),
            "gamma_thermal_beta": ((1, "gamma_thermal"), 1.0),
            "gamma_recoil_alpha": ((0, "gamma_recoil"), 1.0),
            "gamma_recoil_beta": ((1, "gamma_recoil"), 1.0),
            "gamma_intrinsic_alpha_hz": ((0, "gamma_intrinsic"), TWO_PI),
            "gamma_intrinsic_beta_hz": ((1, "gamma_intrinsic"), TWO_PI)}

# Most bins a synthesized trace may have: 8 MB per array.
MAX_N_BINS = 2 ** 20

# Synthesis settings stay in Hz: key -> (default, what the value may hold).
# The default detunings are the optics detuning.
_SYNTHESIS = {
    "n_bins": (2048, lambda v: isinstance(v, numbers.Integral)
               and _real(v, 15) and v <= MAX_N_BINS),
    "span_factor": (1.5, lambda v: _real(v, 0.0)),
    "het_freq_hz": (HET_FREQ_HZ, lambda v: _real(v, 0.0)),
    "averages": (100, lambda v: v == math.inf or _real(v) and v >= 1),
    "seed": (0, lambda v: _real(v, -1) and isinstance(v, numbers.Integral)),
    "sideband_orientation": (ORIENT_LO_BLUE, _orientation),
    "detunings_hz": (None, lambda v: isinstance(v, list) and all(map(_real, v))),
    "area_scale_c": (1.0, lambda v: _real(v, 0.0)),
    "channels": ([DEFAULT_CHANNEL],
                 lambda v: isinstance(v, list) and all(c in CHANNELS for c in v)),
    "write_calibration": (True, lambda v: isinstance(v, bool)),
}
_SECTIONS = ("rotor", "optics", "heating", "noise", "synthesis")


def _check_keys(section: dict, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {', '.join(unknown)}")


def _num(section: dict, key: str, where: str):
    """section[key], which must be there and be a finite real number."""
    if key not in section:
        raise ConfigError(f"missing required key '{where}.{key}'")
    if not _real(section[key]):
        raise ConfigError(f"{where}.{key}: invalid value {section[key]!r}")
    return section[key]


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), an invalid value a ConfigError naming where."""
    try:
        return make(*args, **kwargs)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _fields(section: dict, table: dict, where: str) -> dict:
    """Field values from one config section, read through its schema table."""
    _check_keys(section, table, where)
    fields = {}
    for key, value in section.items():
        field, scale = table[key]
        if isinstance(scale, dict):
            if not isinstance(value, list):
                raise ConfigError(f"{where}.{key}: invalid value {value!r}")
            value = [_record(rec, scale, f"{where}.{key}[{i}]")
                     for i, rec in enumerate(value)]
        elif scale is not None:
            value = _num(section, key, where) * scale
        fields[field] = value
    return fields


def _record(record: dict, scales: dict, where: str) -> tuple:
    """One record of a list, every key required, as a tuple in key order."""
    _check_keys(record, scales, where)
    return tuple(_num(record, key, where) * scale for key, scale in scales.items())


def _section(get, table: dict) -> dict:
    """A config section from field values get(field), through its schema
    table (the inverse of _fields)."""
    section = {}
    for key, (field, scale) in table.items():
        value = get(field)
        if isinstance(scale, dict):
            value = [{k: v / s for (k, s), v in zip(scale.items(), rec)}
                     for rec in value]
        elif scale is not None:
            value = value / scale
        section[key] = value
    return section


def _construct(cls, section: dict, table: dict, where: str):
    """The dataclass cls from one config section, read through its table."""
    fields = _build(where, _fields, section, table, where)
    for key, (field, _) in table.items():
        if field not in fields and cls.__dataclass_fields__[field].default is MISSING:
            raise ConfigError(f"missing required key '{where}.{key}'")
    return _build(where, cls, **fields)


def _trapped_modes(rotor: RotorModel, optics: OpticalSetup):
    """build_modes(rotor, optics); a libration left untrapped is a
    ConfigError that names the mode and its cause: the rotor's degenerate
    susceptibility (which libration_frequencies warns of) or else the
    tweezer field."""
    with warnings.catch_warnings(record=True) as degenerate:
        warnings.simplefilter("always", UserWarning)
        try:
            return build_modes(rotor, optics)
        except ValueError:  # a zero libration frequency
            freqs = libration_frequencies(rotor, optics)
    modes = ", ".join(label for label, omega in zip(("alpha", "beta"), freqs)
                      if not omega > 0)
    if degenerate:
        raise ConfigError(f"rotor: untrapped libration ({modes}): degenerate "
                          f"susceptibility, chi_c must exceed chi_b")
    raise ConfigError(f"optics: untrapped libration ({modes}): "
                      f"e_tw0_v_per_m is {abs(optics.e_tw0):g}")


@dataclass(frozen=True)
class RunConfig:
    """A run configuration, each section validated and built once."""

    data: dict  # the config as read, for the run record
    rotor: RotorModel
    optics: OpticalSetup
    noise: NoiseProfile
    modes: tuple[LibrationMode, LibrationMode]
    synthesis: dict  # every key, in Hz

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        _check_keys(raw, _SECTIONS, "<root>")
        rotor_sec, optics_sec, heating_sec, noise_sec, synth_sec = (
            raw.get(name, {}) for name in _SECTIONS)
        rotor = _construct(RotorModel, rotor_sec, _ROTOR, "rotor")
        # a config may leave out the field phases and the cavity occupation
        optics = _build("optics", lambda: optics_from_fields(
            {"e_tw0_phase_rad": 0.0, "e_cav0_phase_rad": 0.0, "n_cav": 0.0,
             **optics_sec}))
        _check_keys(optics_sec, {*optics_fields(optics), "detuning_hz"}, "optics")
        noise = _construct(NoiseProfile, noise_sec, _NOISE, "noise")
        heating = _build("heating", _fields, heating_sec, _HEATING, "heating")
        modes = _build("heating", lambda: tuple(
            replace(mode, **{name: v for (i, name), v in heating.items() if i == n})
            for n, mode in enumerate(_trapped_modes(rotor, optics))))
        _check_keys(synth_sec, _SYNTHESIS, "synthesis")
        synthesis = {**{key: default for key, (default, _) in _SYNTHESIS.items()},
                     "detunings_hz": [optics_sec["detuning_hz"]], **synth_sec}
        for key, (_, valid) in _SYNTHESIS.items():
            if not valid(synthesis[key]):
                raise ConfigError(f"synthesis.{key}: invalid value {synthesis[key]!r}")
        return RunConfig(raw, rotor, optics, noise, modes, synthesis)

    @staticmethod
    def load(path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except ValueError as exc:  # bad JSON, bad UTF-8, an over-long integer
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return RunConfig.from_dict(raw)


def config_from_scenario(scenario, detunings_hz, channels=(DEFAULT_CHANNEL,),
                         averages=100, seed=1, n_bins=2048) -> dict:
    """Build a config dict from a presets.Scenario (handy for tests/demos)."""
    return {
        "rotor": _section(partial(getattr, scenario.rotor), _ROTOR),
        "optics": {**optics_fields(scenario.optics),
                   "detuning_hz": scenario.optics.detuning / TWO_PI},
        "heating": _section(lambda f: getattr(scenario.modes[f[0]], f[1]),
                            _HEATING),
        "noise": _section(partial(getattr, scenario.noise), _NOISE),
        "synthesis": {**{key: default for key, (default, _) in _SYNTHESIS.items()},
                      "n_bins": n_bins, "het_freq_hz": scenario.het_freq_hz,
                      "averages": averages, "seed": seed,
                      "detunings_hz": list(detunings_hz),
                      "area_scale_c": scenario.area_scale_c,
                      "channels": list(channels)},
    }


# ---------------------------------------------------------------------------
# run records

def write_run_record(path: str, config: dict,
                     outputs: list[tuple[str, str]], summary: dict) -> None:
    """The run record: the config, each output as (path, sha256 hex digest
    of its bytes) and the summary."""
    record = {
        "schema": RUN_SCHEMA,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "outputs": [{"path": os.path.basename(p), "sha256": sha256}
                    for p, sha256 in outputs],
        "summary": summary,
    }
    atomic_write_text(path, format_json(record))
