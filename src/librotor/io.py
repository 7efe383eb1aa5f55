"""File formats and run configuration.

Boundary convention: every frequency in a config, CSV, or JSON file is in
Hz; conversion to the internal rad/s happens here and is exactly 2*pi.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ConfigError
from .noise import NoiseProfile
from .physics import GAMMA_HALF_PI, GAMMA_ZERO, OpticalSetup, RotorModel, build_modes
from .spectrum import CHANNELS, ORIENT_LO_BLUE, ORIENT_LO_RED, PsdTrace

TWO_PI = 2.0 * math.pi

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


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# PSD CSV + sidecar

PSD_HEADER = "freq_hz,psd"

# Every float in a CSV file is written with this format: 17 significant
# digits, so that parsing gives back the same double.
_FLOAT = "%.17g"

# One-entry cache: (copy of the last grid written, its row template
# "<freq>,%.17g\n...").  All traces of a scan and both calibration traces
# share one grid, so its frequency column is formatted once.  Keyed by
# content, not identity, since callers may reuse an array; read once and
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
    if not np.array_equal(grid, freq):
        template = (f"{_FLOAT},%{_FLOAT}\n" * freq.size) % tuple(freq.tolist())
        _psd_row_template = (freq.copy(), template)
    return template % tuple(values.tolist())


def write_psd_csv(path: str, trace: PsdTrace) -> None:
    """CSV trace plus a <name>.meta.json sidecar carrying trace.meta."""
    text = f"{PSD_MAGIC}\n{PSD_HEADER}\n" + _psd_rows(trace.freq_hz, trace.values)
    atomic_write_text(path, text)
    atomic_write_text(sidecar_path(path), format_json(dict(trace.meta)))


def sidecar_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".meta.json"


def _parse_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Bulk parse of two-column data lines; ValueError on any bad line."""
    with warnings.catch_warnings():
        # no data rows: rejected by PsdTrace's bin count, not warned about
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
    if rows.shape[1:] != (2,):
        raise ValueError("expected 2 columns")
    freqs, vals = rows.T.copy()
    return freqs, vals


def _parse_rows_by_line(path: str, lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parse of everything after the magic line: names the
    first malformed row, and accepts what the bulk parse does not
    (whitespace-only lines, a header line after a comment)."""
    freqs, vals = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#") or line == PSD_HEADER:
            continue
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise ValueError
            freqs.append(float(parts[0]))
            vals.append(float(parts[1]))
        except ValueError:
            raise ConfigError(f"{path}: malformed CSV row at line {lineno}") from None
    return np.asarray(freqs), np.asarray(vals)


def read_psd_csv(path: str) -> PsdTrace:
    """Trace from a PSD CSV; the header line after the magic line is
    optional.  Metadata comes from the sidecar when there is one."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != PSD_MAGIC:
        raise ConfigError(f"{path}: missing '{PSD_MAGIC}' header")
    body = lines[2:] if len(lines) > 1 and lines[1].strip() == PSD_HEADER else lines[1:]
    try:
        freqs, vals = _parse_rows(body)
    except ValueError:
        freqs, vals = _parse_rows_by_line(path, lines)
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        try:
            with open(side, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{side}: malformed sidecar JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"{side}: sidecar must hold a JSON object")
    try:
        return PsdTrace(freqs, vals, meta)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# run configuration

_ROTOR_KEYS = {"inertia_a", "inertia_b", "inertia_c", "chi_a", "chi_b",
               "chi_c", "volume_m3", "gamma_euler_branch"}
_OPTICS_KEYS = {"e_tw0_v_per_m", "e_tw0_phase_rad", "e_cav0_v_per_m",
                "e_cav0_phase_rad", "kappa_hz", "detuning_hz", "wavelength_m",
                "pol_angle_phi_rad", "n_cav", "finesse", "fsr_hz", "waist_x_m",
                "waist_y_m", "waist_cav_m"}
_HEATING_KEYS = {"gamma_thermal_alpha", "gamma_thermal_beta",
                 "gamma_recoil_alpha", "gamma_recoil_beta",
                 "gamma_intrinsic_alpha_hz", "gamma_intrinsic_beta_hz"}
_NOISE_KEYS = {"shot_level", "dark_level", "phase_noise_base", "notches",
               "cavity_noise_center_hz", "cavity_noise_width_hz", "seed"}
_NOTCH_KEYS = {"center_hz", "depth_db", "width_hz"}
_SYNTH_KEYS = {"n_bins", "span_factor", "het_freq_hz", "averages", "seed",
               "sideband_orientation", "detunings_hz", "area_scale_c",
               "channels", "write_calibration"}
_ANALYSIS_KEYS = {"method", "window_halfwidth_hz", "clip_sigma",
                  "max_clip_rounds", "temperature_method"}
_TOP_KEYS = {"rotor", "optics", "heating", "noise", "synthesis", "analysis"}


def _check_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {', '.join(unknown)}")


def _req(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{where}.{key}'")
    return section[key]


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (raw, normalized dict form)."""

    data: dict

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        _check_keys(raw, _TOP_KEYS, "<root>")
        for name, keys in (("rotor", _ROTOR_KEYS), ("optics", _OPTICS_KEYS),
                           ("heating", _HEATING_KEYS), ("noise", _NOISE_KEYS),
                           ("synthesis", _SYNTH_KEYS),
                           ("analysis", _ANALYSIS_KEYS)):
            if name in raw:
                _check_keys(raw[name], keys, name)
        for notch in raw.get("noise", {}).get("notches", []):
            _check_keys(notch, _NOTCH_KEYS, "noise.notches[]")
        cfg = RunConfig(data=raw)
        # fail early on invariant violations
        cfg.rotor()
        cfg.optics()
        cfg.noise()
        synth = raw.get("synthesis", {})
        orientation = synth.get("sideband_orientation", ORIENT_LO_BLUE)
        if orientation not in (ORIENT_LO_BLUE, ORIENT_LO_RED):
            raise ConfigError(
                f"synthesis.sideband_orientation: unknown value {orientation!r}")
        for ch in synth.get("channels", ["backscatter_y"]):
            if ch not in CHANNELS:
                raise ConfigError(f"synthesis.channels: unknown channel {ch!r}")
        method = raw.get("analysis", {}).get("method", "ratio")
        if method not in ("ratio", "diffcal", "difference_calibrated"):
            raise ConfigError(f"analysis.method: unknown value {method!r}")
        return cfg

    @staticmethod
    def load(path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return RunConfig.from_dict(raw)

    def dump(self) -> str:
        return format_json(self.data)

    # -- section builders ---------------------------------------------------

    def rotor(self) -> RotorModel:
        sec = self.data.get("rotor")
        if sec is None:
            raise ConfigError("missing required section 'rotor'")
        try:
            return RotorModel(
                inertia_a=_req(sec, "inertia_a", "rotor"),
                inertia_b=_req(sec, "inertia_b", "rotor"),
                inertia_c=_req(sec, "inertia_c", "rotor"),
                chi_a=_req(sec, "chi_a", "rotor"),
                chi_b=_req(sec, "chi_b", "rotor"),
                chi_c=_req(sec, "chi_c", "rotor"),
                volume=_req(sec, "volume_m3", "rotor"),
                gamma_euler_branch=sec.get("gamma_euler_branch", GAMMA_HALF_PI))
        except ValueError as exc:
            raise ConfigError(f"rotor: {exc}") from None

    def optics(self, detuning_hz: float | None = None) -> OpticalSetup:
        sec = self.data.get("optics")
        if sec is None:
            raise ConfigError("missing required section 'optics'")
        det = detuning_hz if detuning_hz is not None else _req(sec, "detuning_hz", "optics")
        try:
            e_tw = _req(sec, "e_tw0_v_per_m", "optics") * np.exp(
                1j * sec.get("e_tw0_phase_rad", 0.0))
            e_cav = _req(sec, "e_cav0_v_per_m", "optics") * np.exp(
                1j * sec.get("e_cav0_phase_rad", 0.0))
            return OpticalSetup(
                e_tw0=complex(e_tw), e_cav0=complex(e_cav),
                kappa=TWO_PI * _req(sec, "kappa_hz", "optics"),
                detuning=TWO_PI * det,
                wavelength=_req(sec, "wavelength_m", "optics"),
                pol_angle_phi=sec.get("pol_angle_phi_rad", 0.0),
                n_cav=sec.get("n_cav", 0.0),
                finesse=sec.get("finesse"), fsr_hz=sec.get("fsr_hz"),
                waist_x=sec.get("waist_x_m"), waist_y=sec.get("waist_y_m"),
                waist_cav=sec.get("waist_cav_m"))
        except ValueError as exc:
            raise ConfigError(f"optics: {exc}") from None

    def noise(self) -> NoiseProfile:
        sec = self.data.get("noise", {})
        try:
            notches = tuple(
                (TWO_PI * _req(n, "center_hz", "noise.notches[]"),
                 _req(n, "depth_db", "noise.notches[]"),
                 TWO_PI * _req(n, "width_hz", "noise.notches[]"))
                for n in sec.get("notches", []))
            return NoiseProfile(
                shot_level=sec.get("shot_level", 1.0),
                dark_level=sec.get("dark_level", 0.0),
                phase_noise_base=sec.get("phase_noise_base", 1e-9),
                notch_list=notches,
                cavity_noise_center=TWO_PI * sec.get("cavity_noise_center_hz", 0.0),
                cavity_noise_width=TWO_PI * sec.get("cavity_noise_width_hz",
                                                    1.0 / TWO_PI),
                seed=sec.get("seed", 0))
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None

    def modes(self):
        heat = self.data.get("heating", {})
        return build_modes(
            self.rotor(), self.optics(),
            gamma_thermal=(heat.get("gamma_thermal_alpha", 0.0),
                           heat.get("gamma_thermal_beta", 0.0)),
            gamma_recoil=(heat.get("gamma_recoil_alpha", 0.0),
                          heat.get("gamma_recoil_beta", 0.0)),
            gamma_intrinsic=(TWO_PI * heat.get("gamma_intrinsic_alpha_hz", 0.0),
                             TWO_PI * heat.get("gamma_intrinsic_beta_hz", 0.0)))

    def synthesis(self) -> dict:
        sec = dict(self.data.get("synthesis", {}))
        sec.setdefault("n_bins", 2048)
        sec.setdefault("span_factor", 1.5)
        sec.setdefault("het_freq_hz", 4.99814e6)
        sec.setdefault("averages", 100)
        sec.setdefault("seed", 0)
        sec.setdefault("sideband_orientation", ORIENT_LO_BLUE)
        sec.setdefault("detunings_hz", [self.data["optics"]["detuning_hz"]])
        sec.setdefault("area_scale_c", 1.0)
        sec.setdefault("channels", ["backscatter_y"])
        sec.setdefault("write_calibration", True)
        return sec

    def analysis(self) -> dict:
        sec = dict(self.data.get("analysis", {}))
        sec.setdefault("method", "ratio")
        if sec["method"] == "diffcal":
            sec["method"] = "difference_calibrated"
        sec.setdefault("window_halfwidth_hz", 50e3)
        sec.setdefault("clip_sigma", 5.0)
        sec.setdefault("max_clip_rounds", 2)
        sec.setdefault("temperature_method", "bose")
        return sec


def config_from_scenario(scenario, detunings_hz, channels=("backscatter_y",),
                         averages=100, seed=1, n_bins=2048, span_factor=1.5,
                         method="ratio", write_calibration=True) -> dict:
    """Build a config dict from a presets.Scenario (handy for tests/demos)."""
    rotor, optics, noise = scenario.rotor, scenario.optics, scenario.noise
    ma, mb = scenario.mode_alpha, scenario.mode_beta
    return {
        "rotor": {
            "inertia_a": rotor.inertia_a, "inertia_b": rotor.inertia_b,
            "inertia_c": rotor.inertia_c, "chi_a": rotor.chi_a,
            "chi_b": rotor.chi_b, "chi_c": rotor.chi_c,
            "volume_m3": rotor.volume,
            "gamma_euler_branch": rotor.gamma_euler_branch,
        },
        "optics": {
            "e_tw0_v_per_m": abs(optics.e_tw0),
            "e_tw0_phase_rad": math.atan2(optics.e_tw0.imag, optics.e_tw0.real),
            "e_cav0_v_per_m": abs(optics.e_cav0),
            "e_cav0_phase_rad": math.atan2(optics.e_cav0.imag, optics.e_cav0.real),
            "kappa_hz": optics.kappa / TWO_PI,
            "detuning_hz": optics.detuning / TWO_PI,
            "wavelength_m": optics.wavelength,
            "pol_angle_phi_rad": optics.pol_angle_phi,
            "n_cav": optics.n_cav,
        },
        "heating": {
            "gamma_thermal_alpha": ma.gamma_thermal,
            "gamma_thermal_beta": mb.gamma_thermal,
            "gamma_recoil_alpha": ma.gamma_recoil,
            "gamma_recoil_beta": mb.gamma_recoil,
            "gamma_intrinsic_alpha_hz": ma.gamma_intrinsic / TWO_PI,
            "gamma_intrinsic_beta_hz": mb.gamma_intrinsic / TWO_PI,
        },
        "noise": {
            "shot_level": noise.shot_level, "dark_level": noise.dark_level,
            "phase_noise_base": noise.phase_noise_base,
            "notches": [{"center_hz": c / TWO_PI, "depth_db": d,
                         "width_hz": w / TWO_PI}
                        for c, d, w in noise.notch_list],
            "cavity_noise_center_hz": noise.cavity_noise_center / TWO_PI,
            "cavity_noise_width_hz": noise.cavity_noise_width / TWO_PI,
            "seed": noise.seed,
        },
        "synthesis": {
            "n_bins": n_bins, "span_factor": span_factor,
            "het_freq_hz": scenario.het_freq_hz, "averages": averages,
            "seed": seed, "sideband_orientation": ORIENT_LO_BLUE,
            "detunings_hz": list(detunings_hz),
            "area_scale_c": scenario.area_scale_c,
            "channels": list(channels),
            "write_calibration": write_calibration,
        },
        "analysis": {"method": method},
    }


# ---------------------------------------------------------------------------
# run records

def write_run_record(path: str, config: dict, outputs: list[str],
                     summary: dict) -> None:
    record = {
        "schema": RUN_SCHEMA,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "outputs": [{"path": os.path.basename(p), "sha256": sha256_file(p)}
                    for p in outputs],
        "summary": summary,
    }
    atomic_write_text(path, format_json(record))
