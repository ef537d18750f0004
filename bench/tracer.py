"""Outside-in tracing of deeptest's public functions.

``install`` replaces each traced function with a wrapper in every
deeptest module that binds it, because ``harness`` and ``scenarios``
import most of their callees by name: patching only the defining module
would miss those call sites.  Spans stay in memory as
``[name, start, end, parent]`` and are written out when the sample ends.

Spans inside spawned pool workers are not recorded.  A wrapper that is
pickled into a worker (a function handed to ``harness.pmap``, or the
``functools.partial`` null simulator) unpickles as the original,
untraced function, so only the enclosing ``harness.pmap`` span covers
pool work.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
from collections import Counter
from time import perf_counter


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _head(spec) -> str:
    from deeptest.nnet import HEAD_CLASSIFIER

    return "stat" if spec.head == HEAD_CLASSIFIER else "crit"


def _train_name(fn, args, kwargs) -> str:
    return f"nnet.train.{_head(_bound(fn, args, kwargs)['spec'])}"


def _count_train(counts, fn, args, kwargs, result) -> None:
    bound = _bound(fn, args, kwargs)
    data, config = bound["data"], bound["config"]
    rows = len(data.labels if hasattr(data, "labels") else data[1])
    head = _head(bound["spec"])
    counts[f"nnet.adam_steps.{head}"] += config.epochs * math.ceil(rows / config.batch_size)
    counts[f"nnet.train_rows.{head}"] += rows


def _count_pmap(counts, fn, args, kwargs, result) -> None:
    counts["harness.pmap_calls"] += 1
    workers = _bound(fn, args, kwargs)["workers"]
    counts["harness.pool_starts"] += int(workers > 1 and len(result) > 1)


def _count_cp(counts, fn, args, kwargs, result) -> None:
    counts["ssr.cp_calls"] += 1
    counts["ssr.cp_points"] += int(getattr(result, "size", 1))


def _adder(key, size):
    def count(counts, fn, args, kwargs, result):
        counts[key] += size(result)

    return count


# (defining module, attribute, span name, counter); a span name of None
# records counts only, for functions called tens of thousands of times.
FUNCTIONS = (
    ("deeptest.harness", "fit_test", "harness.fit", None),
    ("deeptest.harness", "validate", "harness.validate", None),
    ("deeptest.harness", "heatmap_export", "harness.heatmap", None),
    ("deeptest.harness", "pmap", "harness.pmap", _count_pmap),
    ("deeptest.pipeline", "fit_statistic_net", "pipeline.fit_statistic_net", None),
    ("deeptest.pipeline", "select_structure", "pipeline.select_structure", None),
    ("deeptest.pipeline", "fit_critical_surface", "pipeline.fit_critical_surface", None),
    ("deeptest.pipeline", "critical_labels", "pipeline.critical_labels",
     _adder("pipeline.label_rows", lambda r: r.size)),
    ("deeptest.pipeline", "fit_critical_net", "pipeline.fit_critical_net", None),
    ("deeptest.pipeline", "decide_batch", "pipeline.decide_batch",
     _adder("pipeline.decide_rows", lambda r: r.size)),
    ("deeptest.nnet", "train", _train_name, _count_train),
    ("deeptest.ssr", "n2_lookup_table", "ssr.n2_lookup_table", None),
    ("deeptest.ssr", "conditional_power", None, _count_cp),
    ("deeptest.ssr", "simulate_trials", "ssr.simulate_trials", _adder("ssr.trials", len)),
    ("deeptest.ssr", "incta_decisions", "ssr.comparators", None),
    ("deeptest.ssr", "bm_decisions", "ssr.comparators", None),
    ("deeptest.scenarios", "generate_training_data", "scenarios.generate_training_data",
     _adder("scenarios.train_rows", len)),
    ("deeptest.scenarios", "gen_null_features", "scenarios.gen_null_features",
     _adder("scenarios.null_rows", lambda r: r.shape[0])),
    ("deeptest.classical", "z_decisions", "classical.decisions", None),
    ("deeptest.classical", "t_decisions", "classical.decisions", None),
    ("deeptest.classical", "welch_decisions", "classical.decisions", None),
    ("deeptest.stats", "empirical_upper_quantile", "stats.empirical_upper_quantile", None),
)

# (defining module, class, method, span name, counter)
METHODS = (
    ("deeptest.nnet", "Network", "linear_predictor", "nnet.predict",
     _adder("nnet.predict_rows", lambda r: getattr(r, "size", 1))),
    ("deeptest.streams", "RandomStream", "generator", None,
     _adder("streams.generators", lambda r: 1)),
)


class Tracer:
    """In-memory span and count recorder for one traced sample."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.calls = 0
        self._stack = []

    def call(self, name, counter, fn, args, kwargs):
        self.calls += 1
        if name is None:
            result = fn(*args, **kwargs)
        else:
            if callable(name):
                name = name(fn, args, kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
        if counter is not None:
            counter(self.counts, fn, args, kwargs, result)
        return result

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "calls": self.calls,
        }


def _resolve(module: str, attribute: str):
    return getattr(importlib.import_module(module), attribute)


class _Traced:
    """Wrapper bound as a module attribute; pickles as the original."""

    def __init__(self, tracer, fn, module, attribute, name, counter):
        self.tracer, self.fn = tracer, fn
        self.module, self.attribute = module, attribute
        self.name, self.counter = name, counter

    def __call__(self, *args, **kwargs):
        return self.tracer.call(self.name, self.counter, self.fn, args, kwargs)

    def __reduce__(self):
        return _resolve, (self.module, self.attribute)


def _noop():
    return None


def call_cost(repeats: int = 20_000) -> float:
    """Seconds that tracing adds to one call, measured on a no-op."""
    wrapped = _Traced(Tracer("probe"), _noop, __name__, "_noop", "probe.noop", None)
    start = perf_counter()
    for _ in range(repeats):
        wrapped()
    traced = perf_counter() - start
    start = perf_counter()
    for _ in range(repeats):
        _noop()
    return max(traced - (perf_counter() - start), 0.0) / repeats


def install(tracer: Tracer):
    """Patch every traced function and method; return a function that
    undoes the patches."""
    undo = []
    loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "deeptest"]
    for module_name, attribute, name, counter in FUNCTIONS:
        original = _resolve(module_name, attribute)
        wrapper = _Traced(tracer, original, module_name, attribute, name, counter)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    for module_name, class_name, method, name, counter in METHODS:
        cls = _resolve(module_name, class_name)
        original = vars(cls)[method]

        def wrapper(*args, _fn=original, _name=name, _counter=counter, **kwargs):
            return tracer.call(_name, _counter, _fn, args, kwargs)

        setattr(cls, method, wrapper)
        undo.append((cls, method, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


# ------------------------------------------------------------------ analysis


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its
    interval that its direct children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _total(spans, name, parent=None) -> float:
    return sum(
        end - start
        for span_name, start, end, up in spans
        if span_name == name and (parent is None or (up >= 0 and spans[up][0] == parent))
    )


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


LAYERS = ("harness", "pipeline", "nnet", "ssr", "scenarios", "classical", "stats")


def layer_metrics(trace: dict) -> dict:
    """Per-layer values from one traced sample's spans and counts."""
    spans = trace["spans"]
    decide_ms = sorted(
        (end - start) * 1e3 for name, start, end, _ in spans if name == "pipeline.decide_batch"
    )
    values = {
        "ssr.n2_table_s": _total(spans, "ssr.n2_lookup_table"),
        "ssr.simulate_s": _total(spans, "ssr.simulate_trials"),
        "ssr.comparators_s": _total(spans, "ssr.comparators"),
        "nnet.train_s.stat": _total(spans, "nnet.train.stat"),
        "nnet.train_s.crit": _total(spans, "nnet.train.crit"),
        "nnet.predict_s": _total(spans, "nnet.predict"),
        "pipeline.decide_s": _total(spans, "pipeline.decide_batch"),
        "pipeline.decide_calls": len(decide_ms),
        "pipeline.decide_call_p50_ms": _percentile(decide_ms, 50),
        "pipeline.decide_call_p90_ms": _percentile(decide_ms, 90),
        "pipeline.stat_select_s": _total(
            spans, "pipeline.select_structure", parent="pipeline.fit_statistic_net"
        ),
        "pipeline.stat_refit_s": _total(spans, "nnet.train.stat", parent="pipeline.fit_statistic_net"),
        "pipeline.labels_s": _total(spans, "pipeline.critical_labels"),
        "pipeline.surface_s": _total(spans, "pipeline.fit_critical_net"),
        "classical.decide_s": _total(spans, "classical.decisions"),
        "harness.fit_s": _total(spans, "harness.fit"),
        "harness.validate_s": _total(spans, "harness.validate"),
        "harness.heatmap_s": _total(spans, "harness.heatmap"),
        "harness.pmap_s": _total(spans, "harness.pmap"),
        "scenarios.generate_s": _total(spans, "scenarios.generate_training_data"),
        "scenarios.null_sim_s": _total(spans, "scenarios.gen_null_features"),
        "stats.quantile_s": _total(spans, "stats.empirical_upper_quantile"),
        "trace.spans": len(spans),
    }
    own = self_times(spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t for span, t in zip(spans, own) if span[0].split(".")[0] == layer
        )
    return values
