"""Regenerate perfbench/golden.json: SHA-256 of every `simulate` output
(except run_record.json, which carries a timestamp) for the first round trip
of each scan workload at run.py's default seed.

The bytes depend on numpy's Generator.gamma stream, so the hashes are stored
with the numpy version that made them and are only checked under it.  Run
this only when that version changes, never to make a changed output pass:

    python3 perfbench/make_golden.py
"""

import json
import os
import shutil
import sys

import run

sys.path[:0] = [run.SRC, run.BENCH_DIR]

import numpy  # noqa: E402
from librotor import cli  # noqa: E402

import workloads  # noqa: E402


def main():
    golden = {"numpy": numpy.__version__, "seed": run.DEFAULT_SEED,
              "workloads": {}}
    for name in workloads.NAMES:
        wl = workloads.make(name)
        if not hasattr(wl, "output_hashes"):
            continue
        work_dir = os.path.join(run.OUT_DIR, "work", f"golden-{name}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        try:
            wl.build()
            wl.start(work_dir, run.DEFAULT_SEED)
            job = wl.prepare(0)
            if cli.main(job["argv"][0]) != 0:
                raise SystemExit(f"{name}: simulate failed")
            golden["workloads"][name] = wl.output_hashes(job)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(run.BENCH_DIR, "golden.json"), "w",
              encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
