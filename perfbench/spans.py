"""Spans and counters recorded around librotor's layer boundaries.

The library is timed from outside: `Tracer.install` replaces each traced
function with a wrapper wherever a librotor module holds it (its defining
module and every module that imported it by name, such as
`cli.extract_occupation` or `thermometry.fit_lorentzian`), and
`Tracer.uninstall` puts the originals back.  No file under `src/` is edited.

Spans live in memory as tuples and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Functions that get a span: span name -> (defining module, attribute).
SPANNED = {
    "cli.simulate": ("librotor.cli", "cmd_simulate"),
    "cli.analyze": ("librotor.cli", "cmd_analyze"),
    "cli.scanfit": ("librotor.cli", "cmd_scanfit"),
    "io.write_psd_csv": ("librotor.io", "write_psd_csv"),
    "io.read_psd_csv": ("librotor.io", "read_psd_csv"),
    "io.write_run_record": ("librotor.io", "write_run_record"),
    "io.format_json": ("librotor.io", "format_json"),
    "spectrum.scan_series": ("librotor.spectrum", "scan_series"),
    "spectrum.synthesize_psd": ("librotor.spectrum", "synthesize_psd"),
    "noise.detector_gain": ("librotor.noise", "detector_gain"),
    "thermometry.analyze_scan": ("librotor.thermometry", "analyze_scan"),
    "thermometry.calibrate_response": ("librotor.thermometry", "calibrate_response"),
    "thermometry.calibrate_c": ("librotor.thermometry", "calibrate_c"),
    "thermometry.extract_occupation": ("librotor.thermometry", "extract_occupation"),
    "fitting.fit_lorentzian": ("librotor.fitting", "fit_lorentzian"),
    "fitting.fit_scan_frequency": ("librotor.fitting", "fit_scan_frequency"),
    "fitting.fit_scan_linewidth": ("librotor.fitting", "fit_scan_linewidth"),
    "fitting.fit_occupation_curve": ("librotor.fitting", "fit_occupation_curve"),
    "fitting.lm": ("librotor.fitting", "levenberg_marquardt"),
}

# Functions that are only counted: they are cheap and called often, so a
# span each would cost more than the call.
COUNTED = {
    f"physics.{name}": ("librotor.physics", name)
    for name in ("sideband_rates", "steady_state_occupation",
                 "effective_linewidth", "effective_frequency",
                 "libration_frequencies", "zero_point_amplitudes",
                 "coupling_rates", "build_modes",
                 "moment_of_inertia_from_coupling", "derived_scalars",
                 "mode_temperature", "minimum_occupation")
}


class Tracer:
    """Records spans (id, parent id, op id, name, start, end, ok) and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.extra: defaultdict = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._sites: list | None = None
        self._scales: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.op_id, name, t0, t1, ok)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lm(self, fn):
        """Wrap levenberg_marquardt and the model/Jacobian it receives.

        Jacobian calls give the iterations (one per iteration plus one for
        the covariance at the end).  Model calls after the first are trial
        steps; a step is accepted when its weighted cost is finite and no
        larger than the cost of the last accepted point, the acceptance
        rule of damped least squares.
        """
        sig = inspect.signature(fn)
        extra = self.extra

        def lm(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            model, jacobian = bound.arguments["model"], bound.arguments["jacobian"]
            y = np.asarray(bound.arguments["y"], dtype=float)
            weights = bound.arguments.get("weights")
            w = np.ones_like(y) if weights is None else np.asarray(weights, float)
            state = {"jac": 0, "model": 0, "cost": None}

            def counted_model(x, p):
                out = model(x, p)
                r = y - out
                cost = float(np.sum(w * r * r))
                state["model"] += 1
                if state["cost"] is None:
                    state["cost"] = cost
                else:
                    extra["lm.attempted"] += 1
                    if np.isfinite(cost) and cost <= state["cost"]:
                        extra["lm.accepted"] += 1
                        state["cost"] = cost
                return out

            def counted_jac(x, p):
                state["jac"] += 1
                return jacobian(x, p)

            bound.arguments["model"] = counted_model
            bound.arguments["jacobian"] = counted_jac
            finished = False
            try:
                result = fn(*bound.args, **bound.kwargs)
                finished = True
                return result
            finally:
                extra["lm.runs"] += 1
                extra["lm.iterations"] += state["jac"] - (1 if finished else 0)
                extra["lm.cost_evals"] += state["model"]

        return lm

    # -- after-call hooks ---------------------------------------------------

    def _file_bytes(self, key):
        def after(args, kwargs, result):
            path = kwargs.get("path", args[0] if args else None)
            base, _ = os.path.splitext(path)
            size = os.path.getsize(path)
            if os.path.exists(base + ".meta.json"):
                size += os.path.getsize(base + ".meta.json")
            self.extra[key] += size
        return after

    def _fit_done(self, args, kwargs, fit):
        self.extra["fit.converged"] += bool(fit.converged)

    def _occupation_done(self, args, kwargs, occ):
        anti = occ.anti_fit
        pinned = getattr(anti, "pinned", None)
        if pinned is None:  # without the field, a zero center variance marks it
            pinned = anti is not None and anti.covariance[0, 0] == 0
        self.extra["occ.pinned"] += bool(pinned)

    # -- install / uninstall ------------------------------------------------

    def _find_sites(self):
        """(module, name, original, wrapper) for every place a librotor
        module holds a traced function."""
        hooks = {
            "io.write_psd_csv": self._file_bytes("io.write_psd_csv.bytes"),
            "io.read_psd_csv": self._file_bytes("io.read_psd_csv.bytes"),
            "fitting.fit_lorentzian": self._fit_done,
            "thermometry.extract_occupation": self._occupation_done,
        }
        modules = [m for n, m in sys.modules.items()
                   if (n == "librotor" or n.startswith("librotor.")) and m]
        sites = []
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for name, (mod_name, attr) in table.items():
                original = getattr(sys.modules.get(mod_name), attr, None)
                if original is None:  # removed by a later version
                    continue
                if name == "fitting.lm" and {"model", "jacobian", "y"} <= set(
                        inspect.signature(original).parameters):
                    wrapped = self._span(name, self._lm(original))
                elif spanned:
                    wrapped = self._span(name, original, hooks.get(name))
                else:
                    wrapped = self._counted(name, original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            sites.append((module, key, original, wrapped))
        return sites

    def install(self):
        if self._sites is None:
            self._sites = self._find_sites()
        for module, key, _, wrapped in self._sites:
            setattr(module, key, wrapped)

    def uninstall(self):
        for module, key, original, _ in self._sites or ():
            setattr(module, key, original)

    # -- summaries ----------------------------------------------------------

    def scale(self, first, end, factor):
        """Scale the durations of spans[first:end] in summaries (the
        host-speed correction of the stage they ran in)."""
        self._scales.append((first, end, factor))

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        factor = np.ones(len(self.spans))
        for first, end, f in self._scales:
            factor[first:end] = f
        child_time = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += (t1 - t0) * factor[sid]
        out = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        for sid, parent, _, name, t0, t1, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["time_s"] += (t1 - t0) * factor[sid]
            entry["self_s"] += (t1 - t0) * factor[sid] - child_time[sid]
        return out

    def write(self, path):
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, parent, op, index[name], t0, t1, ok]
                for sid, parent, op, name, t0, t1, ok in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_s",
                                  "end_s", "ok"],
                       "names": names, "spans": rows}, fh)
