"""In-memory span tracer that wraps gaplab's public functions from outside.

The library has no span mechanism of its own yet, so the benchmark installs
wrappers around the functions it measures, at every place a caller looks the
name up: the defining module, every other gaplab module (or the package)
that bound the same object with ``from .x import name``, and the class for
methods.  ``Tracer.installed()`` puts the wrappers in and takes them out
again, so traced and untraced passes can alternate in one process.

Each wrapped call records one span: name, start, end, parent span, pass
number and any counts its hook derives from the call.  Self time is the
span's duration minus the durations of the wrapped calls nested directly
inside it.  Spans stay in memory until ``write_jsonl`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time


def _sample_points(args, kwargs, result):
    return {"points": int(args[0] if args else kwargs["count"])}


def _norm_method(args, kwargs, result):
    counts = {"method": result.method, "dim": int(result.dim)}
    if result.method == "power-iteration":
        counts["iterations"] = int(result.iterations)
    return counts


def _stamp_elements(args, kwargs, result):
    return {"elements": int(args[0].dim)}


def _certificate_steps(args, kwargs, result):
    return {"steps": len(result.steps)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, counts hook); the span name is "<module>.<attribute>",
# followed by ".<method>" when the counts hook returns a "method" key.
TARGETS = (
    ("induction", "cocycle", None),
    ("induction", "sample_domain", _sample_points),
    ("induction", "cocycle_growth_check", None),
    ("induction", "pushforward_mn0", None),
    ("induction", "cusp_decay_fit", None),
    ("induction", "write_sample_log", None),
    ("finite_models", "operator_norm", _norm_method),
    ("finite_models", "StampOperator.apply", _stamp_elements),
    ("finite_models", "StampOperator.adjoint_apply", _stamp_elements),
    ("finite_models", "stamp_s_chi", None),
    ("residue", "char_eval", None),
    ("spheres", "tdelta_gap_report", None),
    ("spheres", "stheta_norm_gap", None),
    ("spheres", "spin_matrix", None),
    ("cartan", "kak_real", None),
    ("cartan", "solve_sphere_distortion", None),
    ("cartan", "distorted_length", None),
    ("zigzag", "zigzag_certificate", _certificate_steps),
    ("zigzag", "revalidate_certificate", None),
    ("twostep", "spectral_gap_profile", None),
    ("twostep", "verify_star_instance", None),
    ("twostep", "convolution_powers", None),
    ("twostep", "sandwich_twostep", None),
    ("twostep", "cyclic_model", None),
    ("twostep", "sl3_f2_model", None),
    ("cli", "run", None),
    ("cli", "write_report_csv", _csv_bytes),
)


class Tracer:
    """Collects spans for the wrapped gaplab functions of one process."""

    def __init__(self):
        # (id, parent, name, pass, start, end, self_s, counts) per call
        self.spans = []
        self._stack = []     # open spans: [id, child_seconds]
        self.pass_index = 0

    def _wrap(self, func, name, counts_hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            spans.append(None)       # reserve the id; filled in on return
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counts = None
                span_name = name
                if done and counts_hook:
                    counts = counts_hook(args, kwargs, result)
                    if "method" in counts:
                        span_name = f"{name}.{counts.pop('method')}"
                spans[span_id] = (span_id, parent, span_name,
                                  self.pass_index, start, end,
                                  end - start - frame[1], counts)

        return traced

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every place a target
        function is looked up."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gaplab" or n.startswith("gaplab."))]
        out = []
        for module_name, attr, counts_hook in TARGETS:
            module = sys.modules[f"gaplab.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                out.append((cls, method, original,
                            self._wrap(original, name, counts_hook)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counts_hook)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    out.append((mod, attr, original, wrapper))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Trace the target functions inside the ``with`` block."""
        bindings = self._bindings()
        for owner, attr, _, wrapper in bindings:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in bindings:
                setattr(owner, attr, original)

    def pass_totals(self, pass_index):
        """{span name: {"calls", "self_s", count keys...}} for one pass."""
        totals = {}
        for _, _, name, idx, _, _, self_s, counts in self.spans:
            if idx != pass_index:
                continue
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write_jsonl(self, path, header):
        """One header line, then one line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, idx, start, end, self_s, counts in self.spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "pass": idx, "start": start, "end": end,
                          "self_s": self_s}
                if counts:
                    record.update(counts)
                fh.write(json.dumps(record) + "\n")


def median_totals(tracer, traced_passes):
    """{span name: {quantity: median over the traced passes}}.

    A span that is missing from a pass counts as zero calls in it.
    """
    per_pass = [tracer.pass_totals(k) for k in traced_passes]
    names = sorted({name for totals in per_pass for name in totals})
    out = {}
    for name in names:
        keys = sorted({key for totals in per_pass for key in totals.get(name, {})})
        out[name] = {key: statistics.median(totals.get(name, {}).get(key, 0)
                                            for totals in per_pass)
                     for key in keys}
        out[name]["us_per_call"] = statistics.median(
            1e6 * totals[name]["self_s"] / totals[name]["calls"]
            for totals in per_pass if name in totals)
    return out
