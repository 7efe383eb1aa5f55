"""Fuzzed inputs through `cli.main`: whatever a trace CSV, its sidecar, a
config or a classify table holds, a command ends in exit code 0 (success),
2 (input error) or 3 (analysis failure), never in a traceback.  `simulate`
analyses nothing, so it ends in 0 or 2: an invalid detuning is a point of
its run record."""

import copy
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from librotor import io
from librotor.cli import main
from librotor.presets import cluster_1d
from librotor.spectrum import lorentzian

EXIT_CODES = {0, 2, 3}

# Replacement values for a fuzzed field.  No large integers: an n_bins or
# a seed of 10**12 would ask for that much memory, not test the boundary.
odd_values = st.sampled_from([
    None, True, False, "", "x", [], {}, [1.0], {"a": 1}, -1, 0, 1, 2, 0.5,
    -0.5, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]).map(copy.deepcopy)


def run(argv, codes=EXIT_CODES):
    code = main(argv)
    assert code in codes, (argv, code)
    return code


def mutate(data, edits):
    """Apply (path choice, delete?, value) edits to a JSON-like tree."""
    for choice, delete, value in edits:
        node = data
        while isinstance(node, (dict, list)) and node:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = list(keys)[choice % len(keys)]
            choice //= len(keys)
            child = node[key]
            if not isinstance(child, (dict, list)) or not child or choice % 3 == 0:
                if delete and isinstance(node, dict):
                    del node[key]
                else:
                    node[key] = value
                break
            node = child
    return data


edits = st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), odd_values),
                 min_size=1, max_size=4)
fuzz = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# trace CSVs and sidecars

HET = 5e6
GRID = np.linspace(HET - 1.5e6, HET + 1.5e6, 512)


row_text = st.one_of(
    st.sampled_from(["", "#", "freq_hz,psd", "1,2,3", "nan,1", "1,nan",
                     "1,-1", "inf,inf", "x,y", ",", "1e309,1"]),
    st.text(max_size=12))

# Per trace: None (left as written), or (row edits, sidecar edits).
trace_edits = st.none() | st.tuples(
    st.lists(st.tuples(st.integers(0, 10 ** 6), row_text), max_size=3), edits)


def write_scan(tmp, detunings, per_trace, sidecar):
    """A small scan that analyze and scanfit can fit, one sideband pair per
    trace with a sidecar as simulate writes it, then fuzzed."""
    optics = io.optics_fields(cluster_1d().optics)
    for i, (det, fuzzed) in enumerate(zip(detunings, per_trace)):
        vals = (1.0 + lorentzian(GRID, HET - 1.03e6, 8e3, 2e5)
                + lorentzian(GRID, HET + 1.03e6, 8e3, 0.5e5 + 1e4 * i))
        lines = [io.PSD_MAGIC, "freq_hz,psd",
                 *(f"{f:.17g},{v:.17g}" for f, v in zip(GRID, vals))]
        meta = {"detuning_hz": det, "het_freq_hz": HET, "averages": 200,
                "seed": i, "channel": "cavity_y",
                "sideband_orientation": "lo_blue", **optics}
        if fuzzed is not None:
            row_edits, meta_edits = fuzzed
            for index, text in row_edits:
                lines[index % len(lines)] = text
            mutate(meta, meta_edits)
        path = os.path.join(tmp, f"trace_{i:03d}_cavity_y.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if i == 0 and sidecar == "missing":
            continue
        with open(io.sidecar_path(path), "w", encoding="utf-8") as fh:
            fh.write("{nope" if i == 0 and sidecar == "garbage"
                     else json.dumps(meta))


@fuzz
@given(st.lists(st.sampled_from([990e3, 1010e3, 1030e3, 1050e3, 1070e3]),
                min_size=1, max_size=5, unique=True),
       st.lists(trace_edits, min_size=5, max_size=5),
       st.sampled_from(["json", "json", "missing", "garbage"]),
       st.sampled_from(["ratio", "diffcal"]))
def test_fuzzed_traces_end_in_a_documented_exit_code(detunings, per_trace,
                                                      sidecar, method):
    with tempfile.TemporaryDirectory() as tmp:
        write_scan(tmp, detunings, per_trace, sidecar)
        run(["analyze", "--traces", os.path.join(tmp, "trace_*.csv"),
             "--out", os.path.join(tmp, "out", "analyze.json"),
             "--method", method])
        run(["scanfit", "--traces", tmp,
             "--out", os.path.join(tmp, "out", "scanfit.json")])


# ---------------------------------------------------------------------------
# configs

BASE_CONFIG = io.config_from_scenario(
    cluster_1d(), [1000e3, 1042e3], channels=("cavity_y",), averages=50,
    seed=3, n_bins=256)


@fuzz
@given(edits)
def test_fuzzed_configs_end_in_a_documented_exit_code(config_edits):
    raw = mutate(json.loads(json.dumps(BASE_CONFIG)), config_edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        run(["simulate", "--config", path, "--out", os.path.join(tmp, "run")],
            codes={0, 2})


# ---------------------------------------------------------------------------
# classify tables

cell = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                 st.sampled_from(["", "x", "nan", "-0", "1e999", " 2 "]))


@fuzz
@given(st.lists(st.lists(cell, min_size=0, max_size=6).map(",".join),
                max_size=8))
def test_fuzzed_classify_tables_end_in_a_documented_exit_code(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        run(["classify", "--input", path,
             "--out", os.path.join(tmp, "classify.json")])
