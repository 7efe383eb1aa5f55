"""librotor benchmark: scan round trips on both presets and the criterion-08
thermometry Monte Carlo, timed from outside the library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cluster_scan --seed 1 --seconds 20 --trace 0

One process, one thread.  The run repeats the workload's round trip until
--seconds have been measured (and at least the workload's minimum number of
round trips), checks every output, and prints a readable report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
round trips alternate untraced and traced on the same inputs, the metrics
are its per_layer list, and the spans are written to .perfbench/spans/.
Times are corrected for the host's CPU speed (see speed.py); raw wall times
are in the report.  Each run also leaves a record in .perfbench/records/
for compare.py.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; child processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 1
SETUP_LAUNCHES = 7
SETUP_CODE = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
              "import librotor.cli, workloads; workloads.make({name!r}).build()")


def environment():
    """Versions and machine facts a result only holds for."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "fs_type": filesystem_type(OUT_DIR),
    }


def filesystem_type(path):
    """Type of the mount holding path, from /proc/mounts (longest prefix)."""
    path = os.path.realpath(path)
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def measure_setup(name, probe):
    """Seconds for a fresh interpreter to import librotor.cli and build the
    workload's scenario, once per launch: (corrected, raw) lists."""
    code = SETUP_CODE.format(src=SRC, bench=BENCH_DIR, name=name)
    samples = []
    for _ in range(SETUP_LAUNCHES):
        proc, seconds, before = probe.timed(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120))
        if proc.returncode != 0:
            raise RuntimeError("set-up launch failed: "
                               + proc.stderr.decode(errors="replace")[-2000:])
        samples.append((seconds, before))
    probe.finish()
    return ([probe.corrected(s, b) for s, b in samples],
            [s for s, _ in samples])


def percentile_tail(values):
    """Highest of p99/p90 with at least ten samples beyond it, or None."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def run(args):
    import spans
    import workloads
    from speed import REFERENCE_S, SpeedProbe

    wl = workloads.make(args.workload)
    env = environment()
    work_dir = os.path.join(OUT_DIR, "work", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    build_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        wl.build()
        build_times.append(time.perf_counter() - t0)
    probe = SpeedProbe()
    setup_times, setup_raw = measure_setup(args.workload, probe)

    tracer = spans.Tracer() if args.trace else None
    wl.start(work_dir, args.seed)
    ops = []
    attempted = failed = 0
    failures, mismatches = [], []
    golden_note = None
    last_digest = None
    stage_spans = []  # (first span, end span, reference block before)
    measured = 0.0
    k = 0
    try:
        while measured < args.seconds or len(ops) < wl.min_ops * (1 + args.trace):
            traced = bool(args.trace) and k % 2 == 1
            index = k // 2 if args.trace else k
            job = wl.prepare(index)
            if traced:
                tracer.op_id = len(ops)
                tracer.install()
            samples = []
            try:
                for step in wl.steps(job):
                    first = len(tracer.spans) if traced else 0
                    samples.append(probe.timed(step)[1:])
                    if traced:
                        stage_spans.append((first, len(tracer.spans),
                                            samples[-1][1]))
            finally:
                if traced:
                    tracer.uninstall()
            measured += sum(seconds for seconds, _ in samples)
            ops.append({"traced": traced, "samples": samples})
            a, f = wl.verify(job, count_stats=not traced)
            attempted += a
            failed += f
            failures.extend(job.get("failures", []))
            digest = wl.result_digest(job)
            if traced and digest != last_digest:
                mismatches.append(f"round trip {index}: traced outputs differ "
                                  "from untraced outputs on the same inputs")
            last_digest = digest
            if args.seed == DEFAULT_SEED and index == 0 and not traced \
                    and hasattr(wl, "output_hashes"):
                golden_note = check_golden(args.workload, wl.output_hashes(job),
                                           env["numpy"], mismatches)
            wl.cleanup(job)
            k += 1
        probe.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for first, end, before in stage_spans:
        tracer.scale(first, end, probe.corrected(1.0, before))
    for op in ops:
        op["raw"] = sum(seconds for seconds, _ in op["samples"])
        op["stages"] = [probe.corrected(s, b) for s, b in op["samples"]]
        op["total"] = sum(op["stages"])

    gate_errors = wl.gate() + mismatches
    correct = not gate_errors
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [op for op in ops if not op["traced"]]
    totals = [op["total"] for op in plain]
    raw = [op["raw"] for op in plain]
    forward = [op["stages"][0] for op in plain]
    inverse = [sum(op["stages"][1:]) for op in plain]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "roundtrip_ms_p50": (1e3 * statistics.median(totals), "ms"),
        "roundtrips_per_s": (len(totals) / sum(totals), "1/s"),
        "forward_ms_p50": (1e3 * statistics.median(forward), "ms"),
        "inverse_ms_p50": (1e3 * statistics.median(inverse), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"measured {measured:.2f} s over {len(ops)} round trips",
             "environment " + json.dumps(env),
             f"reference kernel {1e6 * statistics.median(probe.blocks):.1f} us "
             f"per call (median of {len(probe.blocks)} blocks), "
             f"{100 * probe.share_slowed():.0f}% of blocks slowed by 20% or "
             f"more; times below are corrected to {1e6 * REFERENCE_S:g} us "
             "per call unless marked raw",
             f"setup_s over {len(setup_times)} launches: median "
             f"{statistics.median(setup_times):.4f} s, raw "
             f"{statistics.median(setup_raw):.4f} s"]
    tail = percentile_tail(totals)
    lines.append(f"round trip over {len(totals)} untraced samples: p50 "
                 f"{1e3 * statistics.median(totals):.4f} ms"
                 + (f", p{tail[0]} {1e3 * tail[1]:.4f} ms" if tail else
                    ", no tail percentile has 10 samples beyond it")
                 + f"; raw p50 {1e3 * statistics.median(raw):.4f} ms")
    for i, stage in enumerate(wl.stages):
        lines.append(f"stage {stage}: p50 "
                     f"{1e3 * statistics.median(op['stages'][i] for op in plain):.4f}"
                     f" ms over {len(plain)} samples")
    accuracy = wl.accuracy()
    lines.append("accuracy " + json.dumps(accuracy))
    lines.append("containment per group "
                 + json.dumps({str(g): round(v, 4) for g, v in
                               wl.pulls.containment().items()}))
    below = [g for g, v in wl.pulls.containment().items()
             if v < workloads.CONTAINMENT_MIN]
    if below:
        lines.append(f"note: 3-sigma containment below "
                     f"{100 * workloads.CONTAINMENT_MIN:g}% in group(s) {below} "
                     "(reported, not gated)")
    if hasattr(wl, "rejected"):
        lines.append(f"estimator rejections (UnphysicalAsymmetryError): "
                     f"{wl.rejected} of {wl.trials} trials")
    if golden_note:
        lines.append(golden_note)
    lines.append(f"operations attempted {attempted}, failed {failed}")
    lines.extend(f"failure: {msg}" for msg in failures[:20])
    lines.extend(f"gate: {msg}" for msg in gate_errors)
    lines.append(f"correctness gate {'passed' if correct else 'FAILED'}")

    if args.trace:
        preset_build_s = (statistics.median(build_times)
                          if hasattr(wl, "preset") else 0.0)
        layer_metrics, layer_lines = per_layer(tracer, ops, wl,
                                               preset_build_s)
        metrics.update(layer_metrics)
        lines.extend(layer_lines)
        spans_path = os.path.join(OUT_DIR, "spans",
                                  f"{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to "
                     f"{os.path.relpath(spans_path, ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines, "env": env,
            "samples": {"setup_s": setup_times, "setup_raw_s": setup_raw,
                        "roundtrip_s": totals, "roundtrip_raw_s": raw,
                        "reference_blocks_s": probe.blocks}}


def check_golden(workload, hashes, numpy_version, mismatches):
    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["numpy"] != numpy_version:
        return (f"golden hashes not checked: they hold for numpy "
                f"{golden['numpy']}, this is numpy {numpy_version}")
    expected = golden["workloads"][workload]
    if hashes != expected:
        bad = sorted(n for n in set(hashes) | set(expected)
                     if hashes.get(n) != expected.get(n))
        mismatches.append(f"simulate output differs from the golden hashes: "
                          f"{', '.join(bad[:5])}")
        return f"golden hashes: {len(bad)} of {len(expected)} files differ"
    return f"golden hashes: all {len(expected)} simulate outputs match"


def per_layer(tracer, ops, wl, preset_build_s):
    """Per-layer metrics from the traced round trips, per round trip."""
    traced = [op["total"] for op in ops if op["traced"]]
    plain = [op["total"] for op in ops if not op["traced"]]
    n = max(len(traced), 1)
    summ = tracer.summary()
    extra = tracer.extra

    def calls(name):
        return summ[name]["calls"] / n if name in summ else 0.0

    def secs(*names):
        return sum(summ[name]["time_s"] for name in names if name in summ) / n

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for io_name in ("write_psd_csv", "read_psd_csv"):
        key = f"io.{io_name}"
        t, b = secs(key), extra[f"{key}.bytes"] / n
        m[f"{key}.calls"] = (calls(key), "count/op")
        m[f"{key}.time_s"] = (t, "s/op")
        m[f"{key}.bytes"] = (b, "B/op")
        m[f"{key}.mb_per_s"] = (ratio(b / 1e6, t), "MB/s")
    m["io.write_run_record.time_s"] = (secs("io.write_run_record"), "s/op")
    m["io.format_json.time_s"] = (secs("io.format_json"), "s/op")

    fits = summ["fitting.fit_lorentzian"]["calls"] if "fitting.fit_lorentzian" in summ else 0
    m["fitting.fit_lorentzian.calls"] = (calls("fitting.fit_lorentzian"), "count/op")
    m["fitting.fit_lorentzian.time_s"] = (secs("fitting.fit_lorentzian"), "s/op")
    m["fitting.fit_lorentzian.converged_share"] = (
        ratio(extra["fit.converged"], fits), "share")
    runs = extra["lm.runs"]
    m["fitting.lm.runs"] = (runs / n, "count/op")
    m["fitting.lm.time_s"] = (secs("fitting.lm"), "s/op")
    m["fitting.lm.iterations"] = (ratio(extra["lm.iterations"], runs), "count/run")
    m["fitting.lm.cost_evals"] = (ratio(extra["lm.cost_evals"], runs), "count/run")
    m["fitting.lm.accept_ratio"] = (
        ratio(extra["lm.accepted"], extra["lm.attempted"]), "share")
    m["fitting.scan_fits.time_s"] = (
        secs("fitting.fit_scan_frequency", "fitting.fit_scan_linewidth",
             "fitting.fit_occupation_curve"), "s/op")

    occ_calls = summ["thermometry.extract_occupation"]["calls"] \
        if "thermometry.extract_occupation" in summ else 0
    m["thermometry.extract_occupation.calls"] = (occ_calls / n, "count/op")
    m["thermometry.extract_occupation.time_s"] = (
        secs("thermometry.extract_occupation"), "s/op")
    m["thermometry.extract_occupation.per_trace"] = (
        ratio(occ_calls / n, wl.traces_per_op()), "count/trace")
    m["thermometry.analyze_scan.time_s"] = (secs("thermometry.analyze_scan"), "s/op")
    m["thermometry.calibrate_response.time_s"] = (
        secs("thermometry.calibrate_response"), "s/op")
    m["thermometry.pinned_anti_share"] = (ratio(extra["occ.pinned"], occ_calls),
                                          "share")
    for key, value in wl.accuracy().items():
        m[f"thermometry.{key}"] = (value, "share")

    for name in ("synthesize_psd", "scan_series"):
        m[f"spectrum.{name}.calls"] = (calls(f"spectrum.{name}"), "count/op")
        m[f"spectrum.{name}.time_s"] = (secs(f"spectrum.{name}"), "s/op")
    m["noise.detector_gain.calls"] = (calls("noise.detector_gain"), "count/op")
    m["noise.detector_gain.time_s"] = (secs("noise.detector_gain"), "s/op")
    physics = {k: v for k, v in tracer.counts.items() if k.startswith("physics.")}
    m["physics.calls"] = (sum(physics.values()) / n, "count/op")
    for name in ("sideband_rates", "steady_state_occupation",
                 "effective_linewidth", "effective_frequency"):
        m[f"physics.{name}.calls"] = (physics.get(f"physics.{name}", 0) / n,
                                      "count/op")

    for stage in ("simulate", "analyze", "scanfit"):
        key = f"cli.{stage}"
        m[f"{key}.time_s"] = (secs(key), "s/op")
        m[f"{key}.self_s"] = (summ[key]["self_s"] / n if key in summ else 0.0,
                              "s/op")
    for layer in ("cli", "io", "spectrum", "noise", "fitting", "thermometry"):
        m[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in summ.items()
                                    if k.startswith(layer + ".")) / n, "s/op")
    m["presets.build_s"] = (preset_build_s, "s")

    overhead = statistics.median(traced) - statistics.median(plain)
    m["trace.overhead_ms"] = (1e3 * overhead, "ms/op")
    m["trace.overhead_share"] = (overhead / statistics.median(plain), "share")
    m["trace.spans"] = (len(tracer.spans) / n, "count/op")

    lines = [f"tracing overhead: {1e3 * overhead:.4f} ms per round trip "
             f"({100 * overhead / statistics.median(plain):.2f}%), traced median "
             f"over {len(traced)} vs untraced over {len(plain)} round trips",
             "I/O bytes are computed from file sizes (CSV plus sidecar)"]
    for io_name in ("write_psd_csv", "read_psd_csv"):
        key = f"io.{io_name}"
        lines.append(f"{key}: {m[key + '.bytes'][0] / 1e6:.3f} MB per round trip "
                     f"in {m[key + '.time_s'][0]:.4f} s = "
                     f"{m[key + '.mb_per_s'][0]:.2f} MB/s")
    lines.append("self time per span, s per round trip: " + json.dumps(
        {k: round(v["self_s"] / n, 6) for k, v in sorted(summ.items())}))
    return m, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "librotor", "__init__.py")):
        print(f"error: no librotor sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    result = run(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit = result["metrics"][entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"metric {entry['name']}: unit {unit} but "
                               f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    for line in result["lines"]:
        print(line)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": result["env"], "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metrics, "samples": result["samples"]}
    records = os.path.join(OUT_DIR, "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
