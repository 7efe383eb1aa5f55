"""Golden SHA-256 of `simulate` outputs for one fixed config.

Criterion 11 compares two runs with each other, so a rewrite of the CSV
writer or of the synthesis could change every output byte without notice.
These hashes pin the bytes.  The traces come from numpy's Generator.gamma
stream, so the hashes hold only under the numpy version they were recorded
with; under any other version the test is skipped.
"""

import hashlib
import os

import numpy as np
import pytest

from librotor import io
from librotor.cli import main
from librotor.presets import cluster_1d

GOLDEN_NUMPY = "2.4.6"

# The criterion-11 config: cluster_1d, cavity_y, 3 detunings, 4096 bins, seed 5.
GOLDEN_SHA256 = {
    "dark.csv": "4af337cd76c42df9efad86b6bf214370c762140c5536c1938acce0cea6a9df66",
    "dark.meta.json": "53bac00d2e8f03b417fb744c8930dea17579431ba00e9542c72e2dc843fb76ef",
    "shot.csv": "70f3a101482cec038f746980ca76411865685ad220954f0282263addefd3123a",
    "shot.meta.json": "5719be9d9971a55848150b671f7f8281b4b78aa73259469c94128df9d41348ac",
    "trace_000_cavity_y.csv": "53f04c9f7f7d0670656214d48beb0c391e0e364e23df6b7061d8a112c51aec2a",
    "trace_000_cavity_y.meta.json": "c1bac1fb07e1e15d5d09467500345f8128891ba92209b03f79d1940495f28544",
    "trace_001_cavity_y.csv": "4d00bee08a01a41e11bdfcfe38879e00a528d5a67b4a46b848ee89231333b504",
    "trace_001_cavity_y.meta.json": "0465fd71fe9d44c21f5934d73c37d9966f1a56aa8144dbd5cce95b2f22ed3265",
    "trace_002_cavity_y.csv": "cce7772060843acf9a8c3af0fc94718c4e4f0b423e78818960c60c62a2f2e124",
    "trace_002_cavity_y.meta.json": "53b9ccf41d40e55c364f53de70ea9367113b3f64b0f2b0f86524f8e1c6156f8c",
}


def test_simulate_matches_golden_hashes(tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"golden hashes were recorded under numpy {GOLDEN_NUMPY}, "
                    f"not {np.__version__}")
    cfg = io.config_from_scenario(cluster_1d(), [1000e3, 1042e3, 1080e3],
                                  channels=("cavity_y",), averages=200,
                                  seed=5, n_bins=4096)
    cfg_path = str(tmp_path / "config.json")
    io.atomic_write_text(cfg_path, io.format_json(cfg))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == sorted([*GOLDEN_SHA256, "run_record.json"])
    for name, expected in GOLDEN_SHA256.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == expected, name
