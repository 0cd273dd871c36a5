"""Spans around the public functions of each plumesense module.

Wrappers are installed from the benchmark's side: every binding of a wrapped
function in a plumesense module namespace is replaced, because ``runners``
and ``oracles`` bind names with ``from .x import y`` and a wrapper placed only
in the defining module would miss their calls.  Spans stay in memory; a
layer's self time is its span minus the spans of its children, so the self
times of one operation add up to that operation's traced time.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

import numpy as np

# metric name -> unit; every traced run reports all of them (0 when a layer
# does no work in that workload)
SELF_TIME_METRICS = (
    "bench.harness_s",
    "cli.dispatch_s",
    "scenario.parse_s",
    "runners.run_s",
    "runners.table_build_s",
    "runners.serialise_s",
    "runners.write_s",
    "channel.eval_s",
    "channel.diffusion_scale_s",
    "receiver.exposure_s",
    "oracles.transient_march_s",
    "oracles.steady_march_s",
    "oracles.step_convolution_s",
    "oracles.mc_exposure_s",
    "oracles.spectrum_s",
    "oracles.report_s",
    "oracles.empirical_pmd_s",
)
OTHER_METRICS = {
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.plumesense_s": "s",
    "scenario.parse.calls": "count",
    "runners.rows": "count",
    "runners.bytes_out": "bytes",
    "channel.eval.calls": "count",
    "channel.eval.points": "count",
    "channel.diffusion_scale.points": "count",
    "receiver.exposure.calls": "count",
    "receiver.exposure.nodes": "count",
    "receiver.exposure.field_s": "s",
    "oracles.transient_march.steps": "count",
    "oracles.transient_march.cells": "count",
    "oracles.transient_march.bytes_computed": "bytes",
    "oracles.steady_march.steps": "count",
    "oracles.steady_march.cells": "count",
    "oracles.step_convolution.integrand_calls": "count",
    "oracles.mc_exposure.samples": "count",
    "oracles.empirical_pmd.trials": "count",
    "trace.pass_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def metric_units():
    units = {name: "s" for name in SELF_TIME_METRICS}
    units.update(OTHER_METRICS)
    return units


# the field callable's own glue is channel code (steady_field's closure), so
# its self time is booked to the channel layer
_SELF_BUCKET = {"receiver.exposure.field": "channel.eval"}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []   # [key, start, end, parent index, counts]
        self._stack = []
        self._clock = time.perf_counter

    def open(self, key):
        index = len(self.spans)
        self.spans.append([key, self._clock(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = self._clock()
        self._stack.pop()

    def count(self, index, **counts):
        self.spans[index][4] = counts

    def span_cost(self, calls=20000):
        """Seconds one wrapped call adds, measured on an empty function with
        a tracer of its own."""
        def empty():
            return None
        probe = Tracer()
        wrapped = probe.wrap("probe", empty, counter=lambda *a: None)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            empty()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        return max(clock() - start - bare, 0.0) / calls

    def parent_key(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, key, fn, counter=None, field_arg=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if field_arg is not None:
                args, kwargs = _wrap_field(tracer, args, kwargs, field_arg)
            parent = tracer.parent_key()
            index = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counts = counter(args, kwargs, result, parent)
                if counts:
                    tracer.count(index, **counts)
            return result

        return traced

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, first, last):
        """Per-layer metrics over spans[first:last] (whole operations), with
        each operation's traced time under "op.<metric>_s" and the largest
        gap between an operation's time and the sum of its self times under
        "trace.residual_s"."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if parent >= 0:
                child[parent] += span[2] - span[1]
        totals = dict.fromkeys(metric_units(), 0.0)
        totals["trace.residual_s"] = 0.0
        residual = 0.0
        op_self = {}
        op_count = {}
        for i, (key, start, end, parent, counts) in enumerate(spans):
            duration = end - start
            self_time = duration - child[i]
            if key.startswith("op."):
                totals[key + "_s"] = totals.get(key + "_s", 0.0) + duration
                op_count[key + "_s"] = op_count.get(key + "_s", 0) + 1
                totals["trace.pass_s"] += duration
                totals["bench.harness_s"] += self_time
                op_self[i] = [duration, self_time]
            else:
                totals[_SELF_BUCKET.get(key, key) + "_s"] += self_time
                root = i
                while spans[root][3] - first >= 0:
                    root = spans[root][3] - first
                op_self[root][1] += self_time
            if key == "receiver.exposure.field":
                totals["receiver.exposure.field_s"] += duration
            for name, value in (counts or {}).items():
                totals[name] += value
        for name, count in op_count.items():
            totals[name] /= count   # op.* metrics are per operation, not per pass
        for duration, summed in op_self.values():
            residual = max(residual, abs(duration - summed))
        totals["trace.residual_s"] = residual
        totals["trace.spans"] = float(len(spans))
        return totals


def _wrap_field(tracer, args, kwargs, position):
    if "field" in kwargs:
        kwargs = dict(kwargs, field=_traced_field(tracer, kwargs["field"]))
    elif len(args) > position:
        args = args[:position] + (_traced_field(tracer, args[position]),) + args[position + 1:]
    return args, kwargs


def _traced_field(tracer, field):
    def traced_field(*args, **kwargs):
        index = tracer.open("receiver.exposure.field")
        try:
            return field(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced_field


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def _points(point):
    if isinstance(point, (tuple, list)):
        return int(np.broadcast(*[np.asarray(c) for c in point]).size)
    return 1


def _channel_counter(position):
    def counter(args, kwargs, result, parent):
        if parent == "channel.eval":
            return None
        counts = {"channel.eval.calls": 1.0}
        point = kwargs.get("point", args[position] if len(args) > position else None)
        counts["channel.eval.points"] = float(_points(point))
        if parent == "oracles.step_convolution":
            counts["oracles.step_convolution.integrand_calls"] = 1.0
        return counts
    return counter


def _frequency_counter(args, kwargs, result, parent):
    if parent == "channel.eval":
        return None
    point = args[0] if args else kwargs["point"]
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    coords = [np.asarray(c) for c in point] + [np.asarray(omega)]
    return {"channel.eval.calls": 1.0, "channel.eval.points": float(np.broadcast(*coords).size)}


def _scale_counter(args, kwargs, result, parent):
    x = args[0] if args else kwargs["x"]
    return {"channel.diffusion_scale.points": float(np.size(x))}


def _exposure_counter(args, kwargs, result, parent):
    orders = kwargs.get("orders", args[3] if len(args) > 3 else None)
    if orders is None:
        import plumesense.receiver as receiver
        orders = receiver.DEFAULT_QUADRATURE_ORDERS
    return {"receiver.exposure.calls": 1.0, "receiver.exposure.nodes": float(math.prod(orders))}


def _table_counter(args, kwargs, result, parent):
    # args[0] is the table being constructed
    return {"runners.rows": float(len(args[0].rows))}


def _bytes_counter(args, kwargs, result, parent):
    return {"runners.bytes_out": float(len(result))}


def _parse_counter(args, kwargs, result, parent):
    return {"scenario.parse.calls": 1.0}


def _transient_counter(args, kwargs, result, parent):
    steps = len(result.times) - 1
    cells = result.x.size * result.y.size * result.z.size
    # computed from array sizes, not measured: one float64 field per step
    return {"oracles.transient_march.steps": float(steps),
            "oracles.transient_march.cells": float(cells),
            "oracles.transient_march.bytes_computed": float(steps * cells * 8)}


def _steady_counter(args, kwargs, result, parent):
    return {"oracles.steady_march.steps": float(len(result.scales) - 1),
            "oracles.steady_march.cells": float(result.field.size)}


def _mc_counter(args, kwargs, result, parent):
    return {"oracles.mc_exposure.samples": float(result.samples)}


def _pmd_counter(args, kwargs, result, parent):
    return {"oracles.empirical_pmd.trials": float(result.trials)}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def install(tracer):
    """Wrap the public functions of every plumesense module in place."""
    import plumesense.channel as channel
    import plumesense.cli as cli
    import plumesense.oracles as oracles
    import plumesense.receiver as receiver
    import plumesense.runners as runners
    import plumesense.scenario as scenario

    targets = [
        (cli.dispatch, "cli.dispatch", None, None),
        (scenario.parse_scenario, "scenario.parse", _parse_counter, None),
        (runners.write_results, "runners.write", None, None),
        (channel.diffusion_scale, "channel.diffusion_scale", _scale_counter, None),
        (channel.frequency_response, "channel.eval", _frequency_counter, None),
        (receiver.receiver_exposure, "receiver.exposure", _exposure_counter, 1),
        (oracles.march_transient_jet, "oracles.transient_march", _transient_counter, None),
        (oracles.march_steady_plume, "oracles.steady_march", _steady_counter, None),
        (oracles.step_convolution, "oracles.step_convolution", None, None),
        (oracles.mc_receiver_exposure, "oracles.mc_exposure", _mc_counter, None),
        (oracles.sampled_transfer_function, "oracles.spectrum", None, None),
        (oracles.steady_oracle_report, "oracles.report", None, None),
        (oracles.transient_oracle_report, "oracles.report", None, None),
        (oracles.spectrum_oracle_report, "oracles.report", None, None),
        (oracles.empirical_pmd, "oracles.empirical_pmd", _pmd_counter, None),
    ]
    # closed forms: (function, position of the point argument)
    for fn, position in ((channel.steady_state_concentration, 1),
                         (channel.breath_response, 2),
                         (channel.impulse_response, 0),
                         (channel.jet_concentration, 2),
                         (channel.person_response, 1),
                         (channel.multi_user_response, 1),
                         (channel.stochastic_expected_response, 1)):
        targets.append((fn, "channel.eval", _channel_counter(position), None))
    targets += [(fn, "runners.run", None, None) for fn in set(runners.RUNNERS.values())]

    replacements = {id(fn): tracer.wrap(key, fn, counter, field_arg)
                    for fn, key, counter, field_arg in targets}
    modules = [m for name, m in list(sys.modules.items())
               if name == "plumesense" or name.startswith("plumesense.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, name, replacements[id(value)])
    for kind, fn in list(runners.RUNNERS.items()):
        runners.RUNNERS[kind] = replacements[id(fn)]

    table = runners.ResultTable
    table.__init__ = tracer.wrap("runners.table_build", table.__init__, _table_counter)
    table.to_csv_text = tracer.wrap("runners.serialise", table.to_csv_text, _bytes_counter)
    table.to_json_text = tracer.wrap("runners.serialise", table.to_json_text, _bytes_counter)


def median_over_passes(per_pass):
    """Median of each metric over the per-pass totals."""
    names = per_pass[0].keys()
    return {name: statistics.median(p[name] for p in per_pass) for name in names}
