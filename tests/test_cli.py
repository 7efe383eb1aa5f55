import errno
import hashlib
import json
import math
import multiprocessing
import multiprocessing.popen_fork
import os
import re
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest

from librotor import cli, io, thermometry
from librotor.cli import main
from librotor.errors import ConfigError
from librotor.presets import cluster_1d, dumbbell_2d
from librotor.spectrum import PsdTrace, calibration_trace, default_grid

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def scenario():
    return cluster_1d()


@pytest.fixture()
def config_path(tmp_path, scenario):
    cfg = io.config_from_scenario(
        scenario, [1000e3, 1020e3, 1042e3, 1060e3, 1080e3],
        channels=("cavity_y",), averages=200, seed=11, n_bins=4096)
    path = tmp_path / "config.json"
    io.atomic_write_text(str(path), io.format_json(cfg))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# file formats

class TestFormats:
    def test_json_float_precision(self):
        text = io.format_json({"x": 0.1, "n": 3, "flag": True, "none": None})
        assert '"x": 0.10000000000000001' in text
        assert '"n": 3' in text and '"flag": true' in text
        assert json.loads(text)["x"] == 0.1

    def test_json_non_finite_becomes_null(self):
        text = io.format_json({"inf": math.inf, "nan": math.nan})
        parsed = json.loads(text)
        assert parsed["inf"] is None and parsed["nan"] is None

    def test_psd_csv_round_trip(self, tmp_path):
        freq = np.linspace(4e6, 6e6, 64)
        vals = np.abs(np.sin(freq * 1e-6)) + 0.1
        trace = PsdTrace(freq, vals, {"het_freq_hz": 5e6, "averages": 100,
                                      "channel": "cavity_y"})
        path = str(tmp_path / "t.csv")
        io.write_psd_csv(path, trace)
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
        assert first == "# librotor-psd v1"
        back = io.read_psd_csv(path)
        assert np.array_equal(back.freq_hz, freq)
        assert np.array_equal(back.values, vals)
        assert back.meta == trace.meta

    def test_malformed_row_names_line(self, tmp_path):
        """Lines end at LF, CRLF or CR only, so line numbers are an
        editor's: a form feed at the end of the 6th row ends no line."""
        rows = [f"{1e6 + i:.1f},1.0" for i in range(20)]
        rows[5] += "\f"
        rows[9] = "1000009.0,1x"
        path = str(tmp_path / "bad.csv")
        for text, line in (
                ("# librotor-psd v1\nfreq_hz,psd\n1.0,2.0\noops,3.0\n", 4),
                ("\n".join([io.PSD_MAGIC, "freq_hz,psd", *rows]) + "\n", 12)):
            with open(path, "w") as fh:
                fh.write(text)
            with pytest.raises(ConfigError, match=f"at line {line}$"):
                io.read_psd_csv(path)

    def test_lone_cr_trace_reads_as_lf(self, tmp_path):
        """A copy of a written trace with CR line ends reads the same bits
        and metadata as the LF file."""
        freq = np.linspace(4e6, 6e6, 64)
        trace = PsdTrace(freq, np.abs(np.sin(freq * 1e-6)) + 0.1,
                         {"het_freq_hz": 5e6, "channel": "cavity_y"})
        lf, cr = str(tmp_path / "lf.csv"), str(tmp_path / "cr.csv")
        io.write_psd_csv(lf, trace)
        io.write_psd_csv(cr, trace)
        with open(cr, "wb") as fh:
            fh.write(read_bytes(lf).replace(b"\n", b"\r"))
        a, b = io.read_psd_csv(lf), io.read_psd_csv(cr)
        assert a.freq_hz.tobytes() == b.freq_hz.tobytes() == freq.tobytes()
        assert a.values.tobytes() == b.values.tobytes() == trace.values.tobytes()
        assert a.meta == b.meta == trace.meta

    def test_missing_magic(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("freq_hz,psd\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="header"):
            io.read_psd_csv(path)


class TestRunConfig:
    def test_round_trip_identity(self, config_path):
        cfg = io.RunConfig.load(config_path)
        text = io.format_json(cfg.data)
        again = io.RunConfig.from_dict(json.loads(text))
        assert io.format_json(again.data) == text

    def test_unknown_key_rejected(self, config_path):
        raw = read_json(config_path)
        raw["rotor"]["bogus_key"] = 1.0
        with pytest.raises(ConfigError, match="bogus_key"):
            io.RunConfig.from_dict(raw)
        raw2 = read_json(config_path)
        raw2["typo_section"] = {}
        with pytest.raises(ConfigError, match="typo_section"):
            io.RunConfig.from_dict(raw2)

    def test_invariants_checked_on_load(self, config_path):
        raw = read_json(config_path)
        raw["rotor"]["inertia_b"] = -1.0
        with pytest.raises(ConfigError, match="inertia_b"):
            io.RunConfig.from_dict(raw)

    def test_hz_boundary_is_exactly_two_pi(self, config_path):
        cfg = io.RunConfig.load(config_path)
        optics = cfg.optics
        assert optics.kappa == TWO_PI * cfg.data["optics"]["kappa_hz"]
        assert optics.detuning == TWO_PI * cfg.data["optics"]["detuning_hz"]

    def test_missing_required_key(self, config_path):
        raw = read_json(config_path)
        del raw["optics"]["kappa_hz"]
        with pytest.raises(ConfigError, match="optics.kappa_hz"):
            io.RunConfig.from_dict(raw)

    @pytest.mark.parametrize("section,key", [("rotor", "volume_m3"),
                                             ("noise", "notches[0].width_hz")])
    def test_missing_key_is_named(self, config_path, section, key):
        raw = read_json(config_path)
        if section == "rotor":
            del raw["rotor"]["volume_m3"]
        else:
            del raw["noise"]["notches"][0]["width_hz"]
        with pytest.raises(ConfigError, match=re.escape(f"'{section}.{key}'")):
            io.RunConfig.from_dict(raw)

    @pytest.mark.parametrize("section,key", [
        *(("optics", key) for key in ("finesse", "fsr_hz", "waist_x_m",
                                      "waist_y_m", "waist_cav_m",
                                      "pol_angle_phi_rad")),
        ("noise", "seed"),
        *(("analysis", key) for key in ("method", "window_halfwidth_hz",
                                        "clip_sigma", "max_clip_rounds",
                                        "temperature_method"))])
    def test_only_written_keys_are_accepted(self, config_path, section, key):
        """Each section takes the keys config_from_scenario writes (the
        config_path fixture loads) and none of the keys nothing reads."""
        raw = read_json(config_path)
        raw.setdefault(section, {})[key] = "ratio" if key == "method" else 1.0
        with pytest.raises(ConfigError, match="analysis" if section == "analysis"
                           else key):
            io.RunConfig.from_dict(raw)

    def test_simulate_builds_the_modes_once(self, tmp_path, config_path,
                                            monkeypatch):
        calls = []
        build_modes = io.build_modes

        def counting(*args, **kwargs):
            calls.append(args)
            return build_modes(*args, **kwargs)

        monkeypatch.setattr(io, "build_modes", counting)
        assert main(["simulate", "--config", config_path,
                     "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("n_bins", [10 ** 400, 10 ** 9, 2 ** 20 + 1],
                             ids=["1e400", "1e9", "cap+1"])
    def test_n_bins_above_the_cap_exit_2(self, tmp_path, config_path, capsys,
                                         n_bins):
        """A bin count above MAX_N_BINS is refused while the config is read,
        before any grid is allocated."""
        raw = read_json(config_path)
        raw["synthesis"]["n_bins"] = n_bins
        with pytest.raises(ConfigError, match=re.escape("synthesis.n_bins")):
            io.RunConfig.from_dict(raw)
        path = str(tmp_path / "big.json")
        io.atomic_write_text(path, io.format_json(raw))
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "x")]) == 2
        assert "synthesis.n_bins" in capsys.readouterr().err

    def test_n_bins_cap_is_inclusive(self, config_path):
        raw = read_json(config_path)
        raw["synthesis"]["n_bins"] = io.MAX_N_BINS
        assert io.RunConfig.from_dict(raw).synthesis["n_bins"] == io.MAX_N_BINS

    @pytest.mark.parametrize("value", [b"1" + b"0" * 5000, b"\xff"],
                             ids=["long-integer", "not-utf8"])
    def test_unparsable_config_exit_2(self, tmp_path, config_path, capsys,
                                      value):
        """An integer longer than Python parses from text, or a byte that
        is not UTF-8, is a config error."""
        data = read_bytes(config_path)
        data, count = re.subn(rb'"n_bins": \d+', b'"n_bins": ' + value, data)
        assert count == 1
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("center_hz", math.nan),
                                           ("width_hz", math.inf),
                                           ("center_hz", "x"),
                                           ("depth_db", True)])
    def test_notch_numbers_are_checked(self, tmp_path, config_path, capsys,
                                       key, value):
        raw = read_json(config_path)
        raw["noise"]["notches"][0][key] = value
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)  # NaN and Infinity as Python's json reads them
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "x")]) == 2
        assert f"noise.notches[0].{key}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, config_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["simulate", "--config", config_path, "--out", out1]) == 0
        assert main(["simulate", "--config", config_path, "--out", out2]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        csvs = [n for n in names if n.startswith("trace_") and n.endswith(".csv")]
        assert len(csvs) == 5
        for name in names:
            if name == "run_record.json":  # contains a wall-clock timestamp
                continue
            assert read_bytes(os.path.join(out1, name)) == \
                read_bytes(os.path.join(out2, name)), name

    def test_calibration_files_are_calibration_traces(self, tmp_path,
                                                      config_path):
        """shot.csv and dark.csv, with their sidecars, are what
        io.write_psd_csv writes for spectrum.calibration_trace."""
        raw = read_json(config_path)
        raw["synthesis"]["seed"] = 4
        io.atomic_write_text(config_path, io.format_json(raw))
        out = str(tmp_path / "r")
        assert main(["simulate", "--config", config_path, "--out", out]) == 0
        cfg = io.RunConfig.load(config_path)
        synth = cfg.synthesis
        grid = default_grid(synth["het_freq_hz"], max(m.omega for m in cfg.modes),
                            n_bins=synth["n_bins"],
                            span_factor=synth["span_factor"])
        for kind in ("shot", "dark"):
            want = str(tmp_path / f"want_{kind}.csv")
            io.write_psd_csv(want, calibration_trace(
                kind, cfg.noise, grid, synth["averages"], synth["het_freq_hz"], 4))
            for got, expected in ((f"{kind}.csv", want),
                                  (f"{kind}.meta.json", io.sidecar_path(want))):
                assert read_bytes(os.path.join(out, got)) == read_bytes(expected)

    def test_run_record(self, tmp_path, config_path):
        out = str(tmp_path / "r")
        main(["simulate", "--config", config_path, "--out", out])
        record = read_json(os.path.join(out, "run_record.json"))
        assert record["schema"] == "librotor-run/1"
        assert record["config"] == read_json(config_path)
        for entry in record["outputs"]:
            assert hashlib.sha256(read_bytes(os.path.join(out, entry["path"]))) \
                .hexdigest() == entry["sha256"]

    @pytest.mark.parametrize("settings,edit,invalid", [
        ((4096, 200, 11, ("cavity_y",), [0.0, 1020e3, 1042e3, 1060e3]), {},
         {0.0: "no net cooling"}),
        ((256, 50, 1, ("backscatter_y",), [1000e3, 1042e3]),
         {("synthesis", "span_factor"): lambda v: 0.5},
         {1000e3: "sideband outside analysis band",
          1042e3: "sideband outside analysis band"}),
        ((2048, 50, 1, ("backscatter_y",), [1000e3, 1032e3, 1040e3, 1060e3]),
         {("optics", "e_cav0_v_per_m"): lambda v: 30 * v},
         {1000e3: "sideband outside analysis band",
          1040e3: "spring instability", 1060e3: "spring instability"})],
        ids=["zero-detuning", "narrow-span", "strong-coupling"])
    def test_zero_detuning_warns_but_succeeds(self, tmp_path, scenario, capsys,
                                              settings, edit, invalid):
        """Each detuning the forward model raises for is an invalid point
        with its error, warned about, and the scan goes on: no net cooling,
        a sideband outside a span narrowed to a third, and a cavity field
        30 times too strong for the spring formula.  An edit maps a config
        key's value to its new value."""
        n_bins, averages, seed, channels, detunings = settings
        raw = io.config_from_scenario(scenario, detunings, channels=channels,
                                      averages=averages, seed=seed,
                                      n_bins=n_bins)
        for (section, key), change in edit.items():
            raw[section][key] = change(raw[section][key])
        path = str(tmp_path / "cfg0.json")
        io.atomic_write_text(path, io.format_json(raw))
        out = str(tmp_path / "r0")
        assert main(["simulate", "--config", path, "--out", out]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning") and "invalid" in line]
        assert len(warnings) == len(invalid)
        record = read_json(os.path.join(out, "run_record.json"))
        points = record["summary"]["points"]
        errors = {p["detuning_hz"]: p["error"] for p in points if not p["valid"]}
        assert errors.keys() == invalid.keys()
        assert all(errors[det].startswith(invalid[det]) for det in invalid)
        csvs = {n for n in os.listdir(out) if n.startswith("trace_")
                and n.endswith(".csv")}
        assert csvs == {f"trace_{i:03d}_{p['channel']}.csv"
                        for i, p in enumerate(points) if p["valid"]}

    @pytest.mark.parametrize("edit,cause", [
        ({"chi_a": "chi_c", "chi_b": "chi_c"},
         "rotor: untrapped libration (alpha, beta)"),
        ({"chi_b": "chi_c"}, "rotor: untrapped libration (beta)"),
        ({"e_tw0_v_per_m": 0.0}, "optics: untrapped libration (alpha, beta)"),
        ({"volume_m3": 1e300}, "rotor: libration frequency not finite (alpha, beta)"),
        ({"inertia_a": 1e300, "inertia_b": 1e300, "inertia_c": 1e300},
         "rotor: untrapped libration (alpha, beta)")],
        ids=["chi_a-is-chi_c", "chi_b-is-chi_c", "no-tweezer-field",
             "frequency-overflow", "frequency-underflow"])
    def test_untrapped_mode_names_its_cause(self, tmp_path, config_path, edit,
                                            cause):
        """A libration the config leaves untrapped is a config error on the
        section at fault, naming the mode, with no warning printed.  An edit
        sets a key to a number or to another key's value."""
        raw = read_json(config_path)
        section = raw[cause.split(":")[0]]
        for key, value in edit.items():
            section[key] = section.get(value, value)
        path = str(tmp_path / "untrapped.json")
        io.atomic_write_text(path, io.format_json(raw))
        proc = subprocess.run(
            [sys.executable, "-m", "librotor.cli", "simulate", "--config",
             path, "--out", str(tmp_path / "x")], env=src_env(),
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: {cause}:")

    @pytest.mark.parametrize("span_factor", [1e300, 10.0, 1e308])
    def test_span_reaching_0_hz_exit_2(self, tmp_path, scenario, capsys,
                                       span_factor):
        """A synthesis span whose lowest bin is at or below 0 Hz is a config
        error naming synthesis.span_factor, before any file is written: not
        an overflow in the sideband shapes (1e300), traces on negative
        frequencies (10) or an infinite span (1e308)."""
        raw = io.config_from_scenario(scenario, [1000e3, 1042e3],
                                      channels=("cavity_y",), n_bins=256)
        raw["synthesis"]["span_factor"] = span_factor
        path = str(tmp_path / "span.json")
        io.atomic_write_text(path, io.format_json(raw))
        out = tmp_path / "x"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: synthesis.span_factor {span_factor:g}:")
        assert not out.exists()

    def test_invalid_config_exit_2(self, tmp_path, config_path, capsys):
        raw = read_json(config_path)
        raw["noise"]["shot_level"] = 0.0
        path = str(tmp_path / "bad.json")
        io.atomic_write_text(path, io.format_json(raw))
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "x")]) == 2
        assert "shot_level" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze

@pytest.fixture()
def sim_dir(tmp_path, config_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", config_path, "--out", out]) == 0
    return out


def src_env():
    """The environment of a child interpreter that imports librotor from
    this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")])}


# Runs the CLI commands given as a JSON list in argv[1] while every scipy
# import fails, then prints their exit codes and the scipy modules asked for.
_WITHOUT_SCIPY = """
import json, sys

class BlockScipy:
    asked = []

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.asked.append(name)
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from librotor.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
print(json.dumps(BlockScipy.asked))
"""


def preset_scan(tmp_path, channels, seed=7):
    """simulate a dumbbell_2d scan with the benchmark's settings (8192
    bins, 10 detunings from 940 to 1030 kHz, 500 averages); returns the
    trace directory."""
    cfg = io.config_from_scenario(
        dumbbell_2d(), list(np.linspace(940e3, 1030e3, 10)),
        channels=channels, averages=500, seed=seed, n_bins=8192)
    path = str(tmp_path / "preset.json")
    io.atomic_write_text(path, io.format_json(cfg))
    run = str(tmp_path / "run")
    assert main(["simulate", "--config", path, "--out", run]) == 0
    return run


def write_small_trace(tmp_path):
    freq = np.linspace(4e6, 6e6, 64)
    trace = PsdTrace(freq, np.ones(64), {"het_freq_hz": 5e6, "averages": 100,
                                         "channel": "cavity_y"})
    path = str(tmp_path / "small.csv")
    io.write_psd_csv(path, trace)
    return path


class TestAnalyze:
    def test_round_trip_within_3_sigma(self, tmp_path, sim_dir):
        out = str(tmp_path / "results.json")
        code = main(["analyze", "--traces", os.path.join(sim_dir, "trace_*.csv"),
                     "--shot", os.path.join(sim_dir, "shot.csv"),
                     "--dark", os.path.join(sim_dir, "dark.csv"),
                     "--out", out])
        assert code == 0
        results = read_json(out)
        assert results["schema"] == "librotor-results/1"
        record = read_json(os.path.join(sim_dir, "run_record.json"))
        truth = {p["detuning_hz"]: p["truth"]["alpha"]["n"]
                 for p in record["summary"]["points"] if p["valid"]}
        assert len(results["traces"]) == 5
        for entry in results["traces"]:
            n_true = truth[entry["detuning_hz"]]
            assert abs(entry["n"] - n_true) < 3.0 * entry["n_err"], entry

    def test_plot_data_files(self, tmp_path, sim_dir):
        out = str(tmp_path / "results.json")
        main(["analyze", "--traces", os.path.join(sim_dir, "trace_*.csv"),
              "--out", out])
        plots = [n for n in os.listdir(tmp_path) if n.endswith(".plotdata.csv")]
        assert len(plots) == 5
        with open(os.path.join(tmp_path, plots[0])) as fh:
            header = fh.readline().strip()
            row = fh.readline().strip().split(",")
        assert header == "freq_hz,data,fit,residual"
        assert len(row) == 4
        assert float(row[1]) - float(row[2]) == pytest.approx(float(row[3]),
                                                              rel=1e-9)

    def test_second_run_skips_its_plot_data(self, tmp_path, sim_dir):
        """With the results next to the traces, the trace glob also matches
        the plot data the first run wrote; the second run skips it."""
        out = os.path.join(sim_dir, "analyze.json")
        argv = ["analyze", "--traces", os.path.join(sim_dir, "trace_*.csv"),
                "--out", out]
        assert main(argv) == 0
        first = read_bytes(out)
        assert any(n.endswith(".plotdata.csv") for n in os.listdir(sim_dir))
        assert main(argv) == 0
        assert read_bytes(out) == first

    def test_missing_calibration_warns(self, tmp_path, sim_dir, capsys):
        out = str(tmp_path / "results.json")
        code = main(["analyze", "--traces",
                     os.path.join(sim_dir, "trace_*.csv"), "--out", out])
        assert code == 0
        assert "flat detector response" in capsys.readouterr().err

    def test_malformed_trace_exit_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as fh:
            fh.write("# librotor-psd v1\n1.0,2.0\nnope\n")
        assert main(["analyze", "--traces", bad,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_nan_bin_exit_2(self, tmp_path, capsys):
        path = write_small_trace(tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[10] = lines[10].split(",")[0] + ",nan"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "small.csv" in err and "finite" in err

    def test_underscore_in_a_value_exit_2(self, tmp_path, capsys):
        """float() reads "1_0.5" as 10.5 (PEP 515 digit grouping); a PSD
        field with an underscore is a malformed row, not a number."""
        path = write_small_trace(tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[10] = lines[10].split(",")[0] + ",1_0.5"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert f"{path}: malformed CSV row at line 11" in capsys.readouterr().err

    def test_malformed_sidecar_exit_2(self, tmp_path, capsys):
        path = write_small_trace(tmp_path)
        with open(io.sidecar_path(path), "w") as fh:
            fh.write('{"het_freq_hz": 5e6,')
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "small.meta.json" in capsys.readouterr().err

    def test_unreadable_sidecar_exit_2(self, tmp_path, capsys):
        """A directory stands in for an unreadable sidecar (file modes do
        not stop root)."""
        path = write_small_trace(tmp_path)
        os.remove(io.sidecar_path(path))
        os.mkdir(io.sidecar_path(path))
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "small.meta.json" in capsys.readouterr().err

    def test_missing_sidecar_exit_2(self, tmp_path, capsys):
        path = write_small_trace(tmp_path)
        os.remove(io.sidecar_path(path))
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "small.csv" in err and "het_freq_hz" in err

    def test_missing_calibration_file_exit_2(self, tmp_path, capsys):
        path = write_small_trace(tmp_path)
        nope = str(tmp_path / "nope.csv")
        assert main(["analyze", "--traces", path, "--shot", nope,
                     "--dark", str(tmp_path / "nope2.csv"),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_calibration_grids_differ_exit_2(self, tmp_path, capsys):
        """Shot and dark traces that disagree, a dark trace 10 Hz off the
        shot trace's grid or shot <= dark in more than 20% of the bins, are
        an input error that names both calibration files."""
        path = write_small_trace(tmp_path)
        grid = np.linspace(4e6, 6e6, 64)
        shot, dark = str(tmp_path / "shot.csv"), str(tmp_path / "dark.csv")
        for level, offset, reason in [(2.0, 10.0, "frequency grid"),
                                      (1.0, 0.0, "shot <= dark")]:
            io.write_psd_csv(shot, PsdTrace(grid, level * np.ones(64), {}))
            io.write_psd_csv(dark, PsdTrace(grid + offset, np.ones(64), {}))
            assert main(["analyze", "--traces", path, "--shot", shot, "--dark",
                         dark, "--out", str(tmp_path / "o.json")]) == 2
            err = capsys.readouterr().err
            assert shot in err and dark in err and reason in err

    @pytest.mark.parametrize("given, missing", [("--shot", "--dark"),
                                                ("--dark", "--shot")])
    def test_calibration_flag_alone_exit_2(self, tmp_path, capsys, given,
                                           missing):
        """One of --shot and --dark is an input error, even when the file it
        names does not exist, not a silent fall back to a flat response."""
        path = write_small_trace(tmp_path)
        assert main(["analyze", "--traces", path,
                     given, str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert f"{given} needs {missing}" in err and "flat" not in err

    def test_non_utf8_trace_exit_2(self, tmp_path, capsys):
        path = write_small_trace(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\xff,1.0\n")
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "small.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["blue", 7, None])
    def test_bad_sideband_orientation_exit_2(self, tmp_path, capsys, value):
        path = write_small_trace(tmp_path)
        meta = read_json(io.sidecar_path(path))
        meta["sideband_orientation"] = value
        io.atomic_write_text(io.sidecar_path(path), io.format_json(meta))
        assert main(["analyze", "--traces", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "small.meta.json" in capsys.readouterr().err

    def test_all_failures_exit_3(self, tmp_path, capsys):
        """A trace whose 'anti-Stokes' outweighs its Stokes peak is
        unphysical; when every trace fails, analyze exits 3 but still
        writes per-trace error entries."""
        from librotor.spectrum import lorentzian
        het, f_mode = 5.0e6, 1.0e6
        grid = np.linspace(het - 1.5e6, het + 1.5e6, 4096)
        vals = (1.0 + lorentzian(grid, het - f_mode, 5e3, 3e5)
                + lorentzian(grid, het + f_mode, 5e3, 1e5))
        trace = PsdTrace(grid, vals, {"het_freq_hz": het, "averages": 200,
                                      "channel": "cavity_y",
                                      "detuning_hz": 1.042e6})
        path = str(tmp_path / "weird.csv")
        io.write_psd_csv(path, trace)
        out = str(tmp_path / "o.json")
        assert main(["analyze", "--traces", path, "--out", out]) == 3
        results = read_json(out)
        assert "unphysical asymmetry" in results["traces"][0]["error"]

    def test_carrier_off_the_grid_fails_only_its_trace(self, tmp_path,
                                                       sim_dir):
        """A carrier so far from the grid that no bin lies in the sideband
        search band is that trace's error; the other traces are analysed."""
        side = os.path.join(sim_dir, "trace_000_cavity_y.meta.json")
        meta = read_json(side)
        meta["het_freq_hz"] = 1e9
        io.atomic_write_text(side, io.format_json(meta))
        out = str(tmp_path / "results.json")
        assert main(["analyze", "--traces", os.path.join(sim_dir, "trace_*.csv"),
                     "--out", out]) == 0
        first, *rest = read_json(out)["traces"]
        assert "no sideband band" in first["error"]
        assert all("error" not in entry for entry in rest)

        # scanfit fits the channel at the hint of its first trace with a
        # band, so the other traces still give the scan its points
        scan = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", sim_dir, "--out", scan]) == 0
        (mode,) = read_json(scan)["modes"]
        first, *rest = mode["occupations"]
        assert first["n"] is None and "no sideband band" in first["error"]
        assert all(t["error"] is None for t in rest)

    def test_diffcal_method(self, tmp_path, sim_dir):
        out = str(tmp_path / "results.json")
        code = main(["analyze", "--traces",
                     os.path.join(sim_dir, "trace_*.csv"),
                     "--out", out, "--method", "diffcal"])
        assert code == 0
        results = read_json(out)
        c_vals = {entry["c_factor"] for entry in results["traces"]}
        assert len(c_vals) == 1  # one shared calibrated C
        assert results["traces"][0]["method"] == "difference_calibrated"

    @pytest.mark.parametrize("z_channel, z_scales", [
        ("cavity_z", (2e5,) * 6),
        ("cavity_z", (2e5,) * 3),  # C, but too few traces for scan fits
        ("cavity_z", (2e5,) * 2),
        ("cavity_z", (2e5,)),  # no C: each diffcal trace fails
        ("cavity_z", (2e5, 3e5) * 3),  # inconsistent C
        (None, (2e5,)),  # no channel in the sidecar: on backscatter_y
    ], ids=["two_channels", "z_three_traces", "z_two_traces", "z_one_trace",
            "z_inconsistent", "no_channel_one_trace"])
    def test_diffcal_calibrates_c_per_channel(self, tmp_path, capsys,
                                              z_channel, z_scales):
        """Noise-free sideband pairs on two channels whose area scales C
        differ: each channel gets its own C, calibrated whenever it has 2
        analyzable traces, and analyze and scanfit calibrate the same C
        bit for bit from the same traces, and warn alike of one from
        mutually inconsistent traces."""
        from librotor.spectrum import lorentzian
        het, f_mode = 5.0e6, 1.03e6
        grid = np.linspace(het - 1.5e6, het + 1.5e6, 4096)
        optics = io.optics_fields(cluster_1d().optics)
        n_true = {}
        for channel, scales in (("cavity_y", (1e5,) * 6), (z_channel, z_scales)):
            for i, (n, c) in enumerate(zip((0.3, 0.5, 0.7, 0.9, 1.2, 1.5),
                                           scales)):
                # LO on the blue side: the Stokes line lies above the carrier
                vals = (1.0 + lorentzian(grid, het + f_mode, 5e3, c * (n + 1))
                        + lorentzian(grid, het - f_mode, 5e3, c * n))
                meta = {**optics, "het_freq_hz": het, "averages": 200,
                        "detuning_hz": 1e6 + 1e4 * i}
                if channel is not None:
                    meta["channel"] = channel
                name = f"trace_{i:03d}_{channel}.csv"
                io.write_psd_csv(str(tmp_path / name), PsdTrace(grid, vals, meta))
                n_true[name] = (channel, n, c)
        out = str(tmp_path / "out" / "r.json")
        assert main(["analyze", "--traces", str(tmp_path / "trace_*.csv"),
                     "--out", out, "--method", "diffcal"]) == 0
        inconsistent = len(set(z_scales)) > 1
        assert ("mutually inconsistent" in capsys.readouterr().err) \
            == inconsistent
        analyzed = {}
        for entry in read_json(out)["traces"]:
            channel, n, c = n_true[entry["file"]]
            assert entry["channel"] == channel  # as read, also when absent
            group = channel or "backscatter_y"
            analyzed.setdefault(group, []).append(entry)
            if channel == z_channel and len(z_scales) == 1:
                assert entry["error"] == (
                    "difference-calibrated analysis needs at least 2 "
                    f"analyzable traces on channel {group} to calibrate C")
            elif not (channel == z_channel and inconsistent):
                assert entry["c_factor"] == pytest.approx(c, rel=1e-3)
                assert entry["n"] == pytest.approx(n, rel=1e-2)

        scan = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", str(tmp_path), "--out", scan]) == 0
        assert ("mutually inconsistent" in capsys.readouterr().err) \
            == inconsistent
        modes = {m["channel"]: m for m in read_json(scan)["modes"]}
        assert sorted(modes) == sorted(analyzed)
        for group, entries in analyzed.items():
            mode = modes[group]
            assert mode["c_factor"] == entries[0].get("c_factor")
            assert [t["n"] for t in mode["occupations"]] == \
                [e.get("n") for e in entries]
            assert [t["error"] for t in mode["occupations"]] == \
                [e.get("error") for e in entries]
            assert (mode["n_best"] is None) == (len(entries) < 4)

    def test_preset_scan_gives_scanfit_numbers(self, tmp_path):
        """On a noisy preset scan with shot/dark calibration, analyze
        --method diffcal reads the C and the per-trace occupations that
        scanfit reads, bit for bit."""
        run = preset_scan(tmp_path, ("cavity_y", "cavity_z"))
        out = str(tmp_path / "analyze.json")
        assert main(["analyze", "--traces", os.path.join(run, "trace_*.csv"),
                     "--shot", os.path.join(run, "shot.csv"),
                     "--dark", os.path.join(run, "dark.csv"),
                     "--out", out, "--method", "diffcal"]) == 0
        scan = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", run, "--out", scan]) == 0
        entries = read_json(out)["traces"]
        modes = read_json(scan)["modes"]
        assert [m["channel"] for m in modes] == ["cavity_y", "cavity_z"]
        for mode in modes:
            mine = sorted((e for e in entries if e["channel"] == mode["channel"]),
                          key=lambda e: e["detuning_hz"])
            assert [e.get("c_factor") for e in mine] == \
                [mode["c_factor"]] * len(mine)
            assert [(e.get("n"), e.get("n_err"), e.get("error"))
                    for e in mine] == \
                [(t["n"], t["n_err"], t["error"]) for t in mode["occupations"]]

    def test_two_mode_channel_is_analysed_at_one_line(self, tmp_path,
                                                      monkeypatch):
        """backscatter_y carries both modes; beta dominates the traces at
        the high detunings.  Every trace is still fitted at the line of the
        first trace, alpha, and scanfit measures alpha's coupling.  On one
        CPU, so that every fit is made in this process and recorded."""
        run = preset_scan(tmp_path, ("backscatter_y",))
        on_cpus(monkeypatch, 1)
        hints = []
        fit_sideband_pair = thermometry.fit_sideband_pair

        def recording(trace, resp, hint):
            hints.append(hint)
            return fit_sideband_pair(trace, resp, hint)

        monkeypatch.setattr(thermometry, "fit_sideband_pair", recording)
        assert main(["analyze", "--traces", os.path.join(run, "trace_*.csv"),
                     "--out", str(tmp_path / "analyze.json")]) == 0
        scenario = dumbbell_2d()
        alpha, beta = (m.omega / TWO_PI
                       for m in (scenario.mode_alpha, scenario.mode_beta))
        assert len(hints) == 10 and len(set(hints)) == 1
        assert abs(hints[0] - alpha) < abs(hints[0] - beta)

        scan = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", run, "--out", scan]) == 0
        (mode,) = read_json(scan)["modes"]
        # beta's |g| is 45% below alpha's; on this two-mode channel the fit
        # reads alpha's about 5% low (-4.8% to -6.7% over seeds 1-10)
        assert mode["linewidth_fit"]["g_hz"] == pytest.approx(
            abs(scenario.mode_alpha.g) / TWO_PI, rel=0.1)

    def test_diffcal_fits_each_trace_once(self, tmp_path, sim_dir,
                                          monkeypatch):
        on_cpus(monkeypatch, 1)  # every fit made in this process is counted
        calls = []
        fit_sideband_pair = thermometry.fit_sideband_pair

        def counting(trace, *args):
            calls.append(trace.meta["detuning_hz"])
            return fit_sideband_pair(trace, *args)

        monkeypatch.setattr(thermometry, "fit_sideband_pair", counting)
        assert main(["analyze", "--traces", os.path.join(sim_dir, "trace_*.csv"),
                     "--out", str(tmp_path / "r.json"),
                     "--method", "diffcal"]) == 0
        assert sorted(calls) == [1000e3, 1020e3, 1042e3, 1060e3, 1080e3]


# ---------------------------------------------------------------------------
# scanfit

class TestScanfit:
    def test_full_report(self, tmp_path, config_path):
        # a denser scan so the three curve fits are well conditioned
        raw = read_json(config_path)
        raw["synthesis"]["detunings_hz"] = list(
            np.linspace(990e3, 1080e3, 10))
        raw["synthesis"]["averages"] = 500
        raw["synthesis"]["n_bins"] = 16384
        path = str(tmp_path / "cfg.json")
        io.atomic_write_text(path, io.format_json(raw))
        run = str(tmp_path / "run")
        assert main(["simulate", "--config", path, "--out", run]) == 0
        out = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", run, "--out", out]) == 0
        report = read_json(out)
        assert report["schema"] == "librotor-results/1"
        (mode,) = report["modes"]
        assert mode["mode"] == "alpha" and mode["channel"] == "cavity_y"
        assert mode["linewidth_fit"]["g_hz"] == pytest.approx(8042.6, rel=0.05)
        assert mode["occupation_fit"]["gamma_total_heating_phonons_per_s"] == \
            pytest.approx(6.8e3, rel=0.15)
        assert mode["inertia_kg_m2"] == pytest.approx(3.3e-32, rel=0.1)
        assert mode["derived"]["sigma_rad"] == pytest.approx(17.4e-6, rel=0.15)

    def test_underdetermined_exit_3(self, tmp_path, sim_dir, capsys):
        small = str(tmp_path / "small")
        os.makedirs(small)
        for name in sorted(os.listdir(sim_dir)):
            if name.startswith(("trace_000", "trace_001")):
                src = os.path.join(sim_dir, name)
                dst = os.path.join(small, name)
                with open(src, "rb") as f_in, open(dst, "wb") as f_out:
                    f_out.write(f_in.read())
        assert main(["scanfit", "--traces", small,
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "underdetermined" in capsys.readouterr().err

    def test_one_underdetermined_mode_keeps_the_other(self, tmp_path,
                                                      config_path):
        """The beta line (n ~ 300, 4 Hz wide) is not resolved by 190 Hz
        bins, so its traces cannot be analysed and the channel is
        underdetermined.  The alpha channel is still fitted and reported."""
        raw = read_json(config_path)
        raw["synthesis"].update({
            "detunings_hz": list(np.linspace(990e3, 1080e3, 12)),
            "channels": ["cavity_y", "cavity_z"], "n_bins": 16384,
            "averages": 500, "seed": 1})
        path = str(tmp_path / "cfg.json")
        io.atomic_write_text(path, io.format_json(raw))
        run = str(tmp_path / "run")
        assert main(["simulate", "--config", path, "--out", run]) == 0
        out = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", run, "--out", out]) == 0
        alpha, beta = read_json(out)["modes"]
        assert alpha["channel"] == "cavity_y" and alpha["error"] is None
        assert alpha["linewidth_fit"]["g_hz"] == pytest.approx(8042.6, rel=0.05)
        assert beta["channel"] == "cavity_z"
        assert "underdetermined" in beta["error"]
        assert beta["linewidth_fit"] is None and beta["n_best"] is None
        assert len(beta["occupations"]) == 12

    def test_unresolved_mode_is_reported_not_measured(self, tmp_path,
                                                      config_path):
        """At this seed the free Stokes fits of the 4 Hz beta line come out
        a few Hz wide, narrower than a quarter of a 190 Hz bin: each beta
        trace is rejected as unresolved instead of giving an occupation."""
        raw = read_json(config_path)
        raw["synthesis"].update({
            "detunings_hz": list(np.linspace(990e3, 1080e3, 12)),
            "channels": ["cavity_y", "cavity_z"], "n_bins": 16384,
            "averages": 500, "seed": 11})
        path = str(tmp_path / "cfg.json")
        io.atomic_write_text(path, io.format_json(raw))
        run = str(tmp_path / "run")
        assert main(["simulate", "--config", path, "--out", run]) == 0
        out = str(tmp_path / "analyze.json")
        assert main(["analyze", "--traces", os.path.join(run, "trace_*.csv"),
                     "--out", out]) == 0
        entries = read_json(out)["traces"]
        beta = [e for e in entries if e["channel"] == "cavity_z"]
        assert len(beta) == 12
        for entry in beta:
            assert entry["error"].startswith("unresolved sideband"), entry
        assert all("error" not in e for e in entries if e["channel"] == "cavity_y")

        out = str(tmp_path / "scan.json")
        assert main(["scanfit", "--traces", run, "--out", out]) == 0
        alpha, beta = read_json(out)["modes"]
        assert alpha["error"] is None
        assert alpha["linewidth_fit"]["g_hz"] == pytest.approx(8042.6, rel=0.05)
        assert "underdetermined" in beta["error"]
        assert beta["linewidth_fit"] is None and beta["n_best"] is None
        for trace in beta["occupations"]:
            assert trace["n"] is None
            assert trace["error"].startswith("unresolved sideband")

    @pytest.mark.parametrize("key", ["wavelength_m", "kappa_hz", "e_tw0_v_per_m",
                                     "e_tw0_phase_rad", "e_cav0_v_per_m",
                                     "e_cav0_phase_rad", "n_cav", "detuning_hz"])
    def test_sidecar_without_optics_field_exit_2(self, tmp_path, sim_dir,
                                                 key, capsys):
        """scanfit reads the optical setup from the first trace's sidecar;
        a missing field is an input error, not a default."""
        side = os.path.join(sim_dir, "trace_000_cavity_y.meta.json")
        meta = read_json(side)
        del meta[key]
        io.atomic_write_text(side, io.format_json(meta))
        assert main(["scanfit", "--traces", sim_dir,
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "trace_000_cavity_y.meta.json" in err and key in err

    def test_nan_kappa_in_sidecar_exit_2(self, tmp_path, sim_dir, capsys):
        """json.load accepts NaN; the optical setup rejects it as an input
        error naming the sidecar, not a failed fit."""
        side = os.path.join(sim_dir, "trace_000_cavity_y.meta.json")
        with open(side) as fh:
            meta = json.load(fh)
        meta["kappa_hz"] = math.nan
        with open(side, "w") as fh:
            json.dump(meta, fh)
        assert main(["scanfit", "--traces", sim_dir,
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "trace_000_cavity_y.meta.json" in err and "kappa" in err

    def test_directory_name_is_not_a_pattern(self, tmp_path, sim_dir, capsys):
        """A directory whose name holds glob characters is read as named,
        and an empty one is named as given."""
        run = str(tmp_path / "run[1]")
        os.rename(sim_dir, run)
        assert main(["scanfit", "--traces", run,
                     "--out", str(tmp_path / "o.json")]) == 0
        assert read_json(str(tmp_path / "o.json"))["modes"][0]["n_best"] is not None
        empty = str(tmp_path / "empty[1]")
        os.makedirs(empty)
        assert main(["scanfit", "--traces", empty,
                     "--out", str(tmp_path / "e.json")]) == 2
        pattern = os.path.join(empty, "*.csv")
        assert f"no trace files match {pattern!r}" in capsys.readouterr().err

    def test_empty_dir_exit_2(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["scanfit", "--traces", empty,
                     "--out", str(tmp_path / "o.json")]) == 2


# ---------------------------------------------------------------------------
# PSD files shared with forked children

def on_cpus(monkeypatch, n):
    """Make the affinity mask that _forked_map reads hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def fail_at(bad):
    def fn(i):
        if i in bad:
            raise ConfigError(f"item {i} is bad")
        return i
    return fn


@pytest.fixture()
def deadline():
    """Fail a test whose forked map hangs, in join or recv, after 60 s, and
    kill the children it left, instead of hanging the suite."""
    def expired(signum, frame):  # not TimeoutError: join swallows OSError
        raise RuntimeError("the forked map hung")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def tree_bytes(root):
    """Relative path -> bytes of every file under root."""
    return {os.path.relpath(os.path.join(d, name), root):
            read_bytes(os.path.join(d, name))
            for d, _, names in os.walk(root) for name in names}


class TestForkedMap:
    def test_seven_items_on_three_cpus_in_order(self, monkeypatch):
        on_cpus(monkeypatch, 3)
        out = cli._forked_map(lambda i: (i * i, os.getpid()), range(7))
        assert [v for v, _ in out] == [i * i for i in range(7)]
        pids = [pid for _, pid in out]
        assert pids[0::3] == [os.getpid()] * 3
        assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
        assert len(set(pids)) == 3
        assert multiprocessing.active_children() == []

    # item i falls to process i % 3: 0 is this one, 1 and 2 are children
    @pytest.mark.parametrize("bad,first", [({2, 4}, 2), ({1, 3}, 1),
                                           ({3, 5}, 3)])
    def test_first_error_in_item_order(self, monkeypatch, bad, first):
        on_cpus(monkeypatch, 3)
        with pytest.raises(ConfigError, match=f"^item {first} is bad$"):
            cli._forked_map(fail_at(bad), range(7))
        assert multiprocessing.active_children() == []

    def test_share_of_a_dead_child_is_redone(self, monkeypatch):
        on_cpus(monkeypatch, 2)
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                os._exit(1)
            return i

        assert cli._forked_map(fn, range(5)) == list(range(5))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("started", [0, 1])
    def test_share_of_a_child_that_cannot_start_is_done_here(self, monkeypatch,
                                                             started):
        """A fork that fails (EAGAIN here) after `started` children have
        started: the shares of the others are done here, in both rounds, and
        the results are the serial ones."""
        on_cpus(monkeypatch, 3)
        launch = multiprocessing.popen_fork.Popen._launch
        launched = []

        def launch_or_fail(popen, process_obj):
            if len(launched) == started:
                raise BlockingIOError(errno.EAGAIN, "fork failed")
            launched.append(1)
            return launch(popen, process_obj)

        monkeypatch.setattr(multiprocessing.popen_fork.Popen, "_launch",
                            launch_or_fail)
        out = cli._forked_map(lambda i: (i, os.getpid()), range(7),
                              len, lambda i, n: (i * n, os.getpid()))
        assert [v for v, _ in out] == [7 * i for i in range(7)]
        here = [j for j in range(3) if out[j][1] == os.getpid()]
        assert here == [0] + [1, 2][started:]
        assert multiprocessing.active_children() == []

    def test_share_of_a_child_dead_mid_message_is_redone(self, monkeypatch):
        on_cpus(monkeypatch, 2)

        def send_part(fn, items, conn):
            # a length header for 1000 bytes, then 10 of them
            os.write(conn.fileno(), struct.pack("!i", 1000) + b"x" * 10)
            os._exit(1)

        monkeypatch.setattr(cli, "_send_attempts", send_part)
        assert cli._forked_map(lambda i: i, range(5)) == list(range(5))
        assert multiprocessing.active_children() == []

    def test_child_exception_keeps_its_traceback(self, monkeypatch):
        """An exception raised in a child is raised from a _ChildTraceback
        of the child's traceback, which names the line that failed; one
        raised in this process's own share has no such cause."""
        on_cpus(monkeypatch, 2)
        fn = lambda i: 1 / (i - 1)  # noqa: E731; item 1 falls to the child
        with pytest.raises(ZeroDivisionError) as exc:
            cli._forked_map(fn, range(3))
        cause = exc.value.__cause__
        assert isinstance(cause, cli._ChildTraceback)
        assert f"line {fn.__code__.co_firstlineno}, in <lambda>" in str(cause)
        with pytest.raises(ConfigError, match="item 0") as own:
            cli._forked_map(fail_at({0}), range(3))
        assert own.value.__cause__ is None
        assert multiprocessing.active_children() == []

    def test_no_items(self, monkeypatch):
        on_cpus(monkeypatch, 2)
        assert cli._forked_map(abs, []) == []

    def test_one_cpu_is_serial(self, monkeypatch):
        on_cpus(monkeypatch, 1)
        assert cli._forked_map(lambda i: os.getpid(), range(5)) == \
            [os.getpid()] * 5
        with pytest.raises(ConfigError, match="item 1"):
            cli._forked_map(fail_at({1, 3}), range(5))

    def test_second_round_runs_where_the_first_did(self, monkeypatch,
                                                   deadline):
        on_cpus(monkeypatch, 3)
        planned = []
        out = cli._forked_map(
            lambda i: os.getpid(), range(7),
            lambda pids: planned.append(pids) or len(pids),
            lambda i, n: (i, n, os.getpid()))
        (pids,) = planned
        assert out == [(i, 7, pid) for i, pid in enumerate(pids)]
        assert len(set(pids)) == 3 and pids[0::3] == [os.getpid()] * 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad,first", [({2, 4}, 2), ({1, 3}, 1),
                                           ({3, 5}, 3)])
    def test_first_error_in_item_order_in_the_second_round(
            self, monkeypatch, deadline, bad, first):
        on_cpus(monkeypatch, 3)
        with pytest.raises(ConfigError, match=f"^item {first} is bad$"):
            cli._forked_map(abs, range(7), len, lambda i, n: fail_at(bad)(i))
        assert multiprocessing.active_children() == []

    def test_plan_error_stops_the_children(self, monkeypatch, deadline):
        """The children wait for a plan; when making it raises, they read
        EOF on their pipes and are joined, and the error is raised."""
        on_cpus(monkeypatch, 3)

        def plan(results):
            raise ConfigError("no plan")

        with pytest.raises(ConfigError, match="^no plan$"):
            cli._forked_map(abs, range(7), plan, lambda i, p: i)
        assert multiprocessing.active_children() == []
        with pytest.raises(ConfigError, match="^item 4 is bad$"):
            cli._forked_map(fail_at({4}), range(7), len, lambda i, p: i)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("dies_in", ["first", "second"])
    def test_both_rounds_of_a_dead_child_are_redone(self, monkeypatch,
                                                    deadline, dies_in):
        """Child 1 (items 1 and 4) dies in the first or the second round;
        both rounds of its share are then done here, and the first round
        of the share of child 2 (items 2 and 5) is not."""
        on_cpus(monkeypatch, 3)
        parent, here = os.getpid(), []

        def die_in(round_name, i):
            if round_name == dies_in and i % 3 == 1 and os.getpid() != parent:
                os._exit(1)

        def fn(i):
            die_in("first", i)
            if os.getpid() == parent:
                here.append(i)
            return i

        def then(i, n):
            die_in("second", i)
            return i * n, os.getpid()

        out = cli._forked_map(fn, range(6), len, then)
        assert [v for v, _ in out] == [6 * i for i in range(6)]
        assert [pid == parent for _, pid in out] == [i % 3 != 2 for i in range(6)]
        assert sorted(here) == [0, 1, 3, 4]
        assert multiprocessing.active_children() == []

    def test_calibration_error_on_three_cpus(self, tmp_path, monkeypatch,
                                             capsys, deadline):
        """A shot/dark error raised between the two rounds of analyze exits
        2 with the message it gives on one CPU, and leaves no child."""
        path = write_small_trace(tmp_path)
        grid = np.linspace(4e6, 6e6, 64)
        shot, dark = str(tmp_path / "shot.csv"), str(tmp_path / "dark.csv")
        io.write_psd_csv(shot, PsdTrace(grid, 2.0 * np.ones(64), {}))
        io.write_psd_csv(dark, PsdTrace(grid + 10.0, np.ones(64), {}))
        errors = []
        for n in (1, 3):
            on_cpus(monkeypatch, n)
            assert main(["analyze", "--traces", path, "--shot", shot, "--dark",
                         dark, "--out", str(tmp_path / "o.json")]) == 2
            errors.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1] and "frequency grid" in errors[0]

    @pytest.mark.parametrize("channels", [("cavity_y", "cavity_z"),
                                          ("backscatter_y",)])
    def test_analyze_and_scanfit_bytes_on_three_cpus_and_one(
            self, tmp_path, monkeypatch, channels):
        """The detector response and each channel's hint reach every child:
        analyze (diffcal, with the calibration traces found by the glob) and
        scanfit write the same bytes on 3 CPUs as on 1."""
        run = preset_scan(tmp_path, channels)
        trees = []
        for n in (1, 3):
            on_cpus(monkeypatch, n)
            out = str(tmp_path / f"cpus{n}")
            assert main(["analyze", "--traces", os.path.join(run, "*.csv"),
                         "--out", os.path.join(out, "analyze.json"),
                         "--method", "diffcal"]) == 0
            assert main(["scanfit", "--traces", run,
                         "--out", os.path.join(out, "scanfit.json")]) == 0
            assert multiprocessing.active_children() == []
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        assert len(trees[0]) == 2 + 10 * len(channels)

    def test_commands_write_the_same_bytes_on_one_and_two_cpus(
            self, tmp_path, monkeypatch, config_path):
        trees = []
        for n in (1, 2):
            on_cpus(monkeypatch, n)
            out = str(tmp_path / f"cpus{n}")
            traces = os.path.join(out, "traces")
            for argv in (
                    ["simulate", "--config", config_path, "--out", traces],
                    ["analyze", "--traces", os.path.join(traces, "trace_*.csv"),
                     "--shot", os.path.join(traces, "shot.csv"),
                     "--dark", os.path.join(traces, "dark.csv"),
                     "--out", os.path.join(out, "analyze.json")],
                    ["scanfit", "--traces", traces,
                     "--out", os.path.join(out, "scanfit.json")]):
                assert main(argv) == 0, argv
            trees.append(tree_bytes(out))
        records = [json.loads(tree.pop(os.path.join("traces", "run_record.json")))
                   for tree in trees]
        for record in records:
            del record["created_utc"]
        assert records[0] == records[1]
        assert trees[0] == trees[1]
        assert len(trees[0]) == 2 * 7 + 5 + 2  # traces, plot data, results


# ---------------------------------------------------------------------------
# classify

class TestClassify:
    def test_rows_and_partial_failure(self, tmp_path):
        path = str(tmp_path / "geo.csv")
        with open(path, "w") as fh:
            fh.write("gamma_x,sigma_x,gamma_y,sigma_y\n"
                     "100,1,100.5,1\n"
                     "100,1,126.6,1.2\n"
                     "100,1,137.8,1.5\n"
                     "0,0,100,0\n")
        out = str(tmp_path / "geo.json")
        assert main(["classify", "--input", path, "--out", out]) == 0
        rows = read_json(out)["rows"]
        assert [r.get("label") for r in rows[:3]] == ["sphere", "dumbbell",
                                                      "trimer"]
        assert "error" in rows[3] and "label" not in rows[3]

    def test_nan_row_is_a_row_error(self, tmp_path):
        path = str(tmp_path / "geo.csv")
        with open(path, "w") as fh:
            fh.write("nan,0.1,100,0.1\n100,1,126.6,1.2\n")
        out = str(tmp_path / "geo.json")
        assert main(["classify", "--input", path, "--out", out]) == 0
        with open(out) as fh:
            rows = json.load(fh)["rows"]
        assert "finite" in rows[0]["error"] and "label" not in rows[0]
        assert rows[1]["label"] == "dumbbell"

    def test_empty_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "empty.csv")
        with open(path, "w") as fh:
            fh.write("# no rows here\n")
        assert main(["classify", "--input", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("100,1,130,1\nabc,def,ghi,jkl\n")
        assert main(["classify", "--input", path,
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "line 2" in capsys.readouterr().err

    def classify_bytes(self, tmp_path, raw):
        """Exit code, rows (None unless the exit code is 0) and input path
        of classify on a file of these bytes."""
        path, out = str(tmp_path / "geo.csv"), str(tmp_path / "geo.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        code = main(["classify", "--input", path, "--out", out])
        rows = read_json(out)["rows"] if code == 0 else None
        return code, rows, path

    def test_trailing_comment_on_the_first_row(self, tmp_path):
        """A trailing comment is cut from the first data row, which is
        read, not taken for the column names."""
        code, rows, _ = self.classify_bytes(
            tmp_path, b"gamma_x,sigma_x,gamma_y,sigma_y\n"
                      b"100,1,126.6,1.2 # dumbbell\n100,1,100.5,1\n")
        assert code == 0
        assert [(r["line"], r.get("label")) for r in rows] == [
            (2, "dumbbell"), (3, "sphere")]

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        code, _, path = self.classify_bytes(
            tmp_path, b"gamma_x,sigma_x,gamma_y,sigma_y\n"
                      b"100,1,126.6,1.2 # caf\xe9\n")
        assert code == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err

    @pytest.mark.parametrize("first", [
        b"1_00,1,100.5,1", b"100,1,126.6,x", b"100,1,126.6,sigma_y",
        b"gamma_x,1,126.6,1.2"])
    def test_malformed_first_row_exit_2(self, tmp_path, capsys, first):
        """Only a first line none of whose fields is a number is the
        column names; a first line with a number is a row, and a
        malformed one.  float() reads "1_00" as 100 (PEP 515 digit
        grouping), but a field with an underscore is not a number."""
        code, _, path = self.classify_bytes(
            tmp_path, b"# damping rates\n" + first + b"\n100,1,100.5,1\n")
        assert code == 2
        assert f"{path}: malformed CSV row at line 2" in capsys.readouterr().err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "librotor" in capsys.readouterr().out

    def test_run_as_module_without_runtime_warning(self):
        """`import librotor` leaves librotor.cli unimported, so runpy does
        not find it in sys.modules before running it as __main__."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "librotor.cli", "--version"], env=src_env(),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "librotor" in proc.stdout

    def test_cli_import_leaves_out_scipy_stats(self):
        """Importing scipy makes up most of the start-up time; the runtime
        is numpy and the stdlib only, so no scipy module is loaded at all
        (scipy.stats included)."""
        code = ("import sys, librotor, librotor.cli; "
                "print('scipy.stats' in sys.modules); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                             check=True, capture_output=True,
                             text=True).stdout.split("\n")
        assert out[0] == "False"
        assert out[1] == "[]"

    def test_cli_import_leaves_out_multiprocessing(self):
        """Only a command that shares its files with forked children
        imports multiprocessing, so the start-up time does not include it."""
        code = "import sys, librotor.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path,
                                                   config_path):
        """A meta-path finder that refuses every scipy module stands in for
        an install without scipy; it also catches an import deferred into
        a command."""
        run = str(tmp_path / "run")
        geo = str(tmp_path / "geo.csv")
        with open(geo, "w") as fh:
            fh.write("100,1,100.5,1\n100,1,126.6,1.2\n100,1,137.8,1.5\n")
        traces = os.path.join(run, "trace_*.csv")
        commands = [
            ["simulate", "--config", config_path, "--out", run],
            ["analyze", "--traces", traces, "--method", "ratio",
             "--out", str(tmp_path / "ratio.json")],
            ["analyze", "--traces", traces, "--method", "diffcal",
             "--shot", os.path.join(run, "shot.csv"),
             "--dark", os.path.join(run, "dark.csv"),
             "--out", str(tmp_path / "diffcal.json")],
            ["scanfit", "--traces", run, "--out", str(tmp_path / "scan.json")],
            ["classify", "--input", geo, "--out", str(tmp_path / "geo.json")],
        ]
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY,
                               json.dumps(commands)], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, blocked = proc.stdout.strip().split("\n")[-2:]
        assert json.loads(codes) == [0] * len(commands), proc.stderr
        assert json.loads(blocked) == []

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
