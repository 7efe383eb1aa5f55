"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_RECORDS_DIR NEW_RECORDS_DIR

Each directory holds run records as run.py writes them to
.perfbench/records/ (copy that directory away after running the parent
commit).  For every end-to-end metric the median and quartiles of each side
are printed, with the change in the worse direction as a share of the base
median, against the bound in BENCHMARK.json.  A change whose base spread
exceeds its bound is reported as unresolved.

Runs made under different numpy versions are refused: numpy's
Generator.gamma stream sets the synthetic traces, so they are different
inputs.  Other differences in the environment are printed as warnings.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            records.append(record)
    return records


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no untraced run records found", file=sys.stderr)
        return 2
    numpy_versions = {r["env"]["numpy"] for r in base + new}
    if len(numpy_versions) > 1:
        print(f"error: refusing to compare runs made under different numpy "
              f"versions ({', '.join(sorted(numpy_versions))})", file=sys.stderr)
        return 2
    for key in ("python", "scipy", "blas", "cpu", "nproc", "fs_type"):
        values = {str(r["env"][key]) for r in base + new}
        if len(values) > 1:
            print(f"warning: runs differ in {key}: {sorted(values)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            bq1, bmed, bq3 = summary([r["metrics"][name]["value"] for r in b])
            nq1, nmed, nq3 = summary([r["metrics"][name]["value"] for r in n])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (nmed - bmed) / bmed
            spread = (bq3 - bq1) / bmed
            if spread > bound:
                verdict = "unresolved (base spread exceeds bound)"
            elif worse > bound:
                verdict = "WORSE beyond bound"
            else:
                verdict = "within bound"
            print(f"  {name:18s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}]  "
                  f"worse by {100 * worse:+.2f}% (bound {100 * bound:g}%)  "
                  f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
