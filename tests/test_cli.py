import json
import math
import os

import numpy as np
import pytest

from librotor import io
from librotor.cli import main
from librotor.errors import ConfigError
from librotor.presets import cluster_1d
from librotor.spectrum import PsdTrace

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
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("# librotor-psd v1\nfreq_hz,psd\n1.0,2.0\noops,3.0\n")
        with pytest.raises(ConfigError, match="line 4"):
            io.read_psd_csv(path)

    def test_missing_magic(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("freq_hz,psd\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="header"):
            io.read_psd_csv(path)


class TestRunConfig:
    def test_round_trip_identity(self, config_path):
        cfg = io.RunConfig.load(config_path)
        text = cfg.dump()
        again = io.RunConfig.from_dict(json.loads(text))
        assert again.dump() == text

    def test_unknown_key_rejected(self, config_path):
        raw = json.load(open(config_path))
        raw["rotor"]["bogus_key"] = 1.0
        with pytest.raises(ConfigError, match="bogus_key"):
            io.RunConfig.from_dict(raw)
        raw2 = json.load(open(config_path))
        raw2["typo_section"] = {}
        with pytest.raises(ConfigError, match="typo_section"):
            io.RunConfig.from_dict(raw2)

    def test_invariants_checked_on_load(self, config_path):
        raw = json.load(open(config_path))
        raw["rotor"]["inertia_b"] = -1.0
        with pytest.raises(ConfigError, match="inertia_b"):
            io.RunConfig.from_dict(raw)

    def test_hz_boundary_is_exactly_two_pi(self, config_path):
        cfg = io.RunConfig.load(config_path)
        optics = cfg.optics()
        assert optics.kappa == TWO_PI * cfg.data["optics"]["kappa_hz"]
        assert optics.detuning == TWO_PI * cfg.data["optics"]["detuning_hz"]

    def test_missing_required_key(self, config_path):
        raw = json.load(open(config_path))
        del raw["optics"]["kappa_hz"]
        with pytest.raises(ConfigError, match="optics.kappa_hz"):
            io.RunConfig.from_dict(raw)


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

    def test_seed_override_changes_traces(self, tmp_path, config_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", config_path, "--out", out1])
        main(["simulate", "--config", config_path, "--out", out2,
              "--seed", "99"])
        t1 = io.read_psd_csv(os.path.join(out1, "trace_000_cavity_y.csv"))
        t2 = io.read_psd_csv(os.path.join(out2, "trace_000_cavity_y.csv"))
        assert not np.array_equal(t1.values, t2.values)

    def test_run_record(self, tmp_path, config_path):
        out = str(tmp_path / "r")
        main(["simulate", "--config", config_path, "--out", out])
        record = json.load(open(os.path.join(out, "run_record.json")))
        assert record["schema"] == "librotor-run/1"
        assert record["config"] == json.load(open(config_path))
        for entry in record["outputs"]:
            assert io.sha256_file(os.path.join(out, entry["path"])) == \
                entry["sha256"]

    def test_zero_detuning_warns_but_succeeds(self, tmp_path, config_path,
                                              capsys):
        raw = json.load(open(config_path))
        raw["synthesis"]["detunings_hz"] = [0.0, 1020e3, 1042e3, 1060e3]
        path = str(tmp_path / "cfg0.json")
        io.atomic_write_text(path, io.format_json(raw))
        out = str(tmp_path / "r0")
        assert main(["simulate", "--config", path, "--out", out]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "invalid" in err
        csvs = [n for n in os.listdir(out) if n.startswith("trace_")
                and n.endswith(".csv")]
        assert len(csvs) == 3
        record = json.load(open(os.path.join(out, "run_record.json")))
        invalid = [p for p in record["summary"]["points"] if not p["valid"]]
        assert len(invalid) == 1 and invalid[0]["detuning_hz"] == 0.0

    def test_invalid_config_exit_2(self, tmp_path, config_path, capsys):
        raw = json.load(open(config_path))
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
        results = json.load(open(out))
        assert results["schema"] == "librotor-results/1"
        record = json.load(open(os.path.join(sim_dir, "run_record.json")))
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

    def test_malformed_sidecar_exit_2(self, tmp_path, capsys):
        path = write_small_trace(tmp_path)
        with open(io.sidecar_path(path), "w") as fh:
            fh.write('{"het_freq_hz": 5e6,')
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
        results = json.load(open(out))
        assert "unphysical asymmetry" in results["traces"][0]["error"]

    def test_diffcal_method(self, tmp_path, sim_dir):
        out = str(tmp_path / "results.json")
        code = main(["analyze", "--traces",
                     os.path.join(sim_dir, "trace_*.csv"),
                     "--out", out, "--method", "diffcal"])
        assert code == 0
        results = json.load(open(out))
        c_vals = {entry["c_factor"] for entry in results["traces"]}
        assert len(c_vals) == 1  # one shared calibrated C
        assert results["traces"][0]["method"] == "difference_calibrated"


# ---------------------------------------------------------------------------
# scanfit

class TestScanfit:
    def test_full_report(self, tmp_path, config_path):
        # a denser scan so the three curve fits are well conditioned
        raw = json.load(open(config_path))
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
        report = json.load(open(out))
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

    def test_empty_dir_exit_2(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["scanfit", "--traces", empty,
                     "--out", str(tmp_path / "o.json")]) == 2


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
        rows = json.load(open(out))["rows"]
        assert [r.get("label") for r in rows[:3]] == ["sphere", "dumbbell",
                                                      "trimer"]
        assert "error" in rows[3] and "label" not in rows[3]

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


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "librotor" in capsys.readouterr().out

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
