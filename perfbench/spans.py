"""Outside-in tracing: wrap the package's functions, record spans, restore.

Each wrap replaces a function in every tensorcalc module that binds it by
name (``curvilinear`` imports ``derivative_table`` and ``_hessian`` from
``fields``), or a method on its class. Spans hold (name, start, end,
parent, job) in flat typed arrays and are written out at the end. Field
and chart callables built by the program are wrapped on the way out of
the factory that builds them. A listed name the package no longer has
stops the traced run with an error that names it: the per-layer metrics
it feeds would otherwise read 0, and a count of 0 reads as a gain.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# module -> functions wrapped where they are looked up
FUNCTIONS = {
    "cli": ["main"],
    "curvilinear": ["jacobians", "jacobian_direct", "jacobian_inverse",
                    "jacobian_derivative", "_fd_jacobian", "metric_in_chart",
                    "christoffel", "christoffel_alt", "moving_frame",
                    "_compile_component", "_compile_map"],
    "fields": ["derivative_table", "_hessian"],
    "tensors": ["invert_matrix", "compose_transitions"],
    "metric": ["raise_index", "lower_index", "volume_tensor", "gram_from_basis"],
    "frames": ["transform_vector", "transform_covector", "transform_operator",
               "transform_bilinear", "transition_between"],
    "notation": ["parse", "validate", "evaluate", "explicit_form"],
}
# (module, class) -> methods
METHODS = {
    ("curvilinear", "Chart"): ["contains", "sample_points"],
    ("fields", "TensorField"): ["evaluate_array", "evaluate"],
    ("tensors", "DenseTensor"): ["__init__", "transform", "contract"],
    ("tensors", "TransitionPair"): ["__init__"],
    ("metric", "Metric"): ["__init__"],
    ("frames", "Basis"): ["__init__"],
}
# factories whose returned field evaluates per point under the factory's name
FIELD_FACTORIES = {
    "curvilinear": ["covariant_derivative", "gradient_vector_in_chart",
                    "divergence_in_chart", "laplacian_in_chart", "rotor_in_chart"],
}
CHART_FACTORIES = {"curvilinear": ["builtin_chart", "load_chart"]}
CHART_CALLABLES = ("forward", "inverse", "jac_forward", "jac_inverse",
                   "jac_forward_partials")


class TraceError(Exception):
    """A function, method or attribute the tracer wraps is missing."""


class Tracer:
    def __init__(self, tc):
        self.tc = tc
        self.names, self._ids = [], {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.stack = [-1]
        self.job_id = -1
        self.active = False
        self.sampled = 0          # points returned by Chart.sample_points
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, on_result=None):
        nid = self._id(name)
        start, end, names, parents, jobs = (self.start, self.end, self.name,
                                            self.parent, self.job)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def run_job(self, job_id, fn, *args):
        self.job_id = job_id
        self.active = True
        try:
            return self.span("bench.job", fn)(*args)
        finally:
            self.active = False

    # -- installing wraps -----------------------------------------------------

    def _module(self, short):
        module = sys.modules.get(f"{self.tc.__name__}.{short}")
        if module is None:
            raise TraceError(f"no module {self.tc.__name__}.{short}")
        return module

    def _lookup(self, owner, attr, where):
        fn = vars(owner).get(attr)
        if not callable(fn):
            raise TraceError(f"{where}.{attr} is missing or not callable")
        return fn

    def _replace_everywhere(self, original, replacement):
        prefix = self.tc.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _retrace_field(self, name, field):
        """The same field with its per-point function wrapped.

        Relies on TensorField's private ``_func`` and ``_partials``;
        install() tries it once on a probe field so that a rename fails
        there, not inside a job.
        """
        fields = self._module("fields")
        return fields.TensorField(field.valency, self.span(name, field._func),
                                  field.dim, partials=field._partials,
                                  has_parameter=field.has_parameter)

    def _retrace_chart(self, chart):
        curvilinear = self._module("curvilinear")
        wrapped = {attr: getattr(chart, attr) for attr in CHART_CALLABLES}
        wrapped = {attr: None if fn is None else self.span("curvilinear.chart_map", fn)
                   for attr, fn in wrapped.items()}
        return curvilinear.Chart(chart.name, domain=chart.domain,
                                 sample_bounds=chart.sample_bounds,
                                 dim=chart.dim, **wrapped)

    def install(self):
        """Wrap everything listed; raise TraceError, wrapping nothing, if a name is gone."""
        fields, curvilinear = self._module("fields"), self._module("curvilinear")
        try:
            self._retrace_field("fields.input_field", fields.TensorField.scalar(lambda y: 0.0))
            self._retrace_chart(curvilinear.builtin_chart("spherical"))
        except (AttributeError, TypeError) as exc:
            raise TraceError(f"cannot rebuild a field or chart with wrapped callables: {exc}")
        targets = [(self._module(short), attr, f"{short}.{attr}")
                   for short, attrs in FUNCTIONS.items() for attr in attrs]
        targets += [(self._module(short), attr, f"{short}.{attr}")
                    for group in (FIELD_FACTORIES, CHART_FACTORIES, {"cli": ["load_field"]})
                    for short, attrs in group.items() for attr in attrs]
        for (short, cls_name), attrs in METHODS.items():
            cls = self._lookup(self._module(short), cls_name, short)
            targets += [(cls, attr, f"{short}.{cls_name}") for attr in attrs]
        for owner, attr, where in targets:
            self._lookup(owner, attr, where)
        for short, attrs in FUNCTIONS.items():
            module = self._module(short)
            for attr in attrs:
                fn = getattr(module, attr)
                self._replace_everywhere(fn, self.span(f"{short}.{attr}", fn))
        for (short, cls_name), attrs in METHODS.items():
            cls = getattr(self._module(short), cls_name)
            for attr in attrs:
                fn = vars(cls)[attr]
                hook = None
                if attr == "sample_points":
                    def hook(points):
                        self.sampled += len(points)
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self.span(f"{short}.{cls_name}.{attr}", fn, hook))
        for short, attrs in FIELD_FACTORIES.items():
            for attr in attrs:
                self._wrap_factory(short, attr,
                                   functools.partial(self._retrace_field, f"{short}.{attr}"))
        for short, attrs in CHART_FACTORIES.items():
            for attr in attrs:
                self._wrap_factory(short, attr, self._retrace_chart)
        self._wrap_factory("cli", "load_field",
                           functools.partial(self._retrace_field, "fields.input_field"))

    def _wrap_factory(self, short, attr, retrace):
        fn = getattr(self._module(short), attr)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            made = fn(*args, **kwargs)
            return retrace(made) if self.active else made

        self._replace_everywhere(fn, factory)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def arrays(self):
        return {"start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "names": np.array(self.names)}

    def save(self, path):
        np.savez(path, **self.arrays())

    def totals(self):
        """name -> (calls, self seconds); self = span minus its children."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=n)
        own = dur - covered
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_s = np.bincount(a["name"], weights=own, minlength=len(self.names))
        # Chart.sample_points draws are the contains calls made inside it
        sampling = self._ids.get("curvilinear.Chart.sample_points", -2)
        contains = self._ids.get("curvilinear.Chart.contains", -2)
        parents = a["parent"][a["name"] == contains]
        drawn = int(np.count_nonzero(a["name"][parents[parents >= 0]] == sampling))
        out = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}
        return out, drawn


def report_kinds(tracer, traced, stream):
    """Input-field calls and domain checks per item, for each job kind."""
    a = tracer.arrays()
    kinds = np.frombuffer(traced.job_kind, dtype=np.int32)
    items = np.bincount(kinds, weights=np.frombuffer(traced.job_items, dtype=np.int32),
                        minlength=len(traced.kinds))
    per_kind = {}
    for name in ("fields.input_field", "curvilinear.Chart.contains"):
        nid = tracer._ids.get(name, -1)
        jobs = a["job"][(a["name"] == nid) & (a["job"] >= 0)]
        per_kind[name] = np.bincount(kinds[jobs], minlength=len(traced.kinds))
    stream.write(f"counts: {'job kind':<40} {'items':>8} {'field calls/item':>17} "
                 f"{'contains/item':>14}\n")
    for k in sorted(range(len(traced.kinds)), key=traced.kinds.__getitem__):
        if items[k]:
            stream.write(f"counts: {traced.kinds[k]:<40} {int(items[k]):>8} "
                         f"{per_kind['fields.input_field'][k] / items[k]:>17.4f} "
                         f"{per_kind['curvilinear.Chart.contains'][k] / items[k]:>14.4f}\n")


# -- per-layer metrics --------------------------------------------------------

LAYERS = ("cli", "curvilinear", "fields", "tensors", "metric", "frames", "notation")


def layer_metrics(totals, drawn, sampled, items, jobs, out_bytes, skipped):
    """Every per-layer metric by name: (value, unit)."""
    items, jobs = max(items, 1), max(jobs, 1)   # a run where every job failed
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def layer_self(layer):
        return sum(s for name, (_, s) in totals.items() if name.startswith(layer + "."))

    def per_call_us(name):
        return self_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    m = {
        "cli.self_ms_per_job": (layer_self("cli") / jobs * 1e3, "ms"),
        "cli.output_bytes_per_item": (out_bytes / items, "bytes"),
        "cli.skipped_per_job": (skipped / jobs, "count"),
    }
    for fn in ("jacobians", "jacobian_derivative", "christoffel", "metric_in_chart"):
        m[f"curvilinear.{fn}.calls_per_item"] = (calls(f"curvilinear.{fn}") / items, "count")
        m[f"curvilinear.{fn}.self_us_per_call"] = (per_call_us(f"curvilinear.{fn}"), "us")
    m["curvilinear.chart_map_calls_per_item"] = (calls("curvilinear.chart_map") / items, "count")
    m["curvilinear.contains_per_item"] = (calls("curvilinear.Chart.contains") / items, "count")
    m["curvilinear.sample_accept_ratio"] = (sampled / drawn if drawn else 0.0, "ratio")
    for op in ("laplacian_in_chart", "divergence_in_chart", "rotor_in_chart",
               "gradient_vector_in_chart", "covariant_derivative"):
        m[f"curvilinear.{op}.self_us_per_item"] = (self_s(f"curvilinear.{op}") / items * 1e6, "us")
    m["fields.field_evals_per_item"] = (calls("fields.input_field") / items, "count")
    m["fields.derivative_table.calls_per_item"] = (calls("fields.derivative_table") / items, "count")
    m["tensors.dense_tensor_new_per_item"] = (calls("tensors.DenseTensor.__init__") / items, "count")
    m["tensors.transition_pair_new_per_item"] = (calls("tensors.TransitionPair.__init__") / items, "count")
    m["tensors.transform.self_us_per_call"] = (per_call_us("tensors.DenseTensor.transform"), "us")
    m["metric.metric_new_per_item"] = (calls("metric.Metric.__init__") / items, "count")
    for fn in ("parse", "validate", "evaluate"):
        m[f"notation.{fn}.self_us_per_call"] = (per_call_us(f"notation.{fn}"), "us")
    m["notation.validate.calls_per_item"] = (calls("notation.validate") / items, "count")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_us_per_item"] = (layer_self(layer) / items * 1e6, "us")
    return m
