"""Per-layer tracing of dinet from outside the package.

The tracer swaps the public functions of each dinet module for timing
wrappers, at every module attribute the package calls them through, and
puts the originals back when its ``installed()`` block ends.  Nothing under ``src/`` changes.
A span's self time is its duration minus the durations of the traced
calls made directly inside it.

``solve_ib`` calls are mapped to tree layers by their order inside the
enclosing ``train_network`` call, using the topology's layer sizes; when
``train_network`` returns, the per-layer iteration sums are checked
against the trained model's node diagnostics.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
from collections import Counter
from time import perf_counter

from dinet import analysis, cli, ib, network

TREE_LAYERS = 5  # 24 features give layers of 24/12/6/3/1 nodes

# (module, attribute, span name): every binding the package calls through
_TRACED = (
    (cli, "run_single", "cli.run"),
    (cli, "split", "dataio.split"),
    (cli, "fit_quantizers", "quantizer.fit"),
    (cli, "quantize_with", "quantizer.apply"),
    (network, "quantize_features", "quantizer.apply"),
    (network, "estimate_empirical", "ib.estimate"),
    (network, "solve_ib", "ib.solve"),
    (cli, "train_network", "network.train"),
    (network, "sample_channel", "network.sample"),
    (analysis, "sample_channel", "network.sample"),
    (network, "mux_combine", "network.mux"),
    (analysis, "mux_combine", "network.mux"),
    (network, "predict_quantized", "network.predict"),
    (analysis, "mi_flow", "analysis.mi_flow"),
    (analysis, "check_bounds", "analysis.check_bounds"),
)


class Tracer:
    """Accumulates span times and layer counters while installed."""

    def __init__(self):
        self.time = Counter()        # span name -> summed duration (s)
        self.self_time = Counter()   # span name -> duration minus traced children
        self.counts = Counter()      # span calls and work counters
        self.cross_check_failures = []
        self._children = []          # child-time accumulator per open span
        self._paused = False
        self._solve_layer_ends = None  # cumulative layer sizes of the open train_network
        self._solve_index = 0
        self._layer_iterations = None

    # -- installation ---------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _TRACED]
        try:
            for (module, attr, original), (_, _, name) in zip(saved, _TRACED):
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without counting their calls."""
        paused, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = paused

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if before:
                before(args, kwargs)
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.time[name] += elapsed
                self.self_time[name] += elapsed - children
                self.counts[name + ".calls"] += 1
            if after:
                after(elapsed, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-layer counters ---------------------------------------------

    def _before_network_train(self, args, kwargs):
        topology = kwargs["topology"] if "topology" in kwargs else args[1]
        if len(topology.layers) != TREE_LAYERS:
            raise RuntimeError(f"tree has {len(topology.layers)} layers, "
                               f"the benchmark names {TREE_LAYERS}")
        self._solve_layer_ends = list(itertools.accumulate(topology.layer_sizes))
        self._solve_index = 0
        self._layer_iterations = [0] * TREE_LAYERS

    def _after_network_train(self, elapsed, model, args, kwargs):
        expected = [0] * TREE_LAYERS
        for (layer, _), node in model.nodes.items():
            expected[layer] += node.diagnostics.iterations
        if expected != self._layer_iterations:
            self.cross_check_failures.append(
                f"traced iterations per layer {self._layer_iterations} != "
                f"model diagnostics {expected}")
        self._solve_layer_ends = None

    def _after_ib_solve(self, elapsed, solution, args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else ib.DEFAULT_MAX_ITER)
        diag = solution.diagnostics
        c = self.counts
        c["ib.iterations"] += diag.iterations
        c["ib.nonconverged"] += not diag.converged
        c["ib.channel_cells"] += diag.iterations * problem.n_in * problem.n_out
        if diag.iterations >= max_iter:
            c["ib.capped_iterations"] += diag.iterations
        if self._solve_layer_ends is None:
            return
        layer = bisect.bisect_right(self._solve_layer_ends, self._solve_index)
        self._solve_index += 1
        self._layer_iterations[layer] += diag.iterations
        self.time[f"ib.solve.L{layer}"] += elapsed
        c[f"ib.iterations.L{layer}"] += diag.iterations
        c[f"ib.nonconverged.L{layer}"] += not diag.converged

    def _after_network_sample(self, elapsed, result, args, kwargs):
        self.counts["network.sample_symbols"] += result.size

    def _after_quantizer_apply(self, elapsed, result, args, kwargs):
        self.counts["quantizer.cells"] += result.n_rows * result.n_features

    def _after_analysis_check_bounds(self, elapsed, violations, args, kwargs):
        self.counts["analysis.bound_violations"] += len(violations)

    def snapshot(self) -> dict:
        """Flat copy of every sum, so traced stretches can be added and averaged."""
        flat = {"time:" + k: v for k, v in self.time.items()}
        flat.update({"self:" + k: v for k, v in self.self_time.items()})
        flat.update(self.counts)
        return flat


def _time_layers(prefix):
    return [(f"{prefix}.L{k}", "s") for k in range(TREE_LAYERS)]


def _count_layers(prefix):
    return [(f"{prefix}.L{k}", "count") for k in range(TREE_LAYERS)]


# per-layer metric names and units, in the order they are printed
PER_LAYER = (
    [("cli.run_s", "s"), ("cli.run_self_s", "s"), ("cli.runs", "count"),
     ("dataio.split_s", "s"), ("dataio.split_calls", "count"),
     ("quantizer.fit_s", "s"), ("quantizer.apply_s", "s"), ("quantizer.cells", "count"),
     ("ib.estimate_s", "s"), ("ib.solve_s", "s"), ("ib.solves", "count"),
     ("ib.iterations", "count"), ("ib.nonconverged", "count"),
     ("ib.converged_ratio", "ratio"), ("ib.capped_iter_share", "ratio"),
     ("ib.channel_cells", "count"), ("ib.ns_per_cell", "ns")]
    + _time_layers("ib.solve_s") + _count_layers("ib.iterations")
    + _count_layers("ib.nonconverged")
    + [("network.train_s", "s"), ("network.train_self_s", "s"),
       ("network.sample_s", "s"), ("network.sample_symbols", "count"),
       ("network.mux_s", "s"), ("network.mux_calls", "count"),
       ("network.predict_s", "s"), ("network.predict_self_s", "s"),
       ("analysis.mi_flow_s", "s"), ("analysis.check_bounds_s", "s"),
       ("analysis.bound_violations", "count"),
       ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
)


def per_layer_metrics(flat: dict) -> dict:
    """Per-layer metric values from a snapshot (trace overhead excluded)."""
    def t(name):
        return flat.get("time:" + name, 0.0)

    def n(name):
        return flat.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = n("ib.solve.calls")
    out = {
        "cli.run_s": t("cli.run"), "cli.run_self_s": flat.get("self:cli.run", 0.0),
        "cli.runs": n("cli.run.calls"),
        "dataio.split_s": t("dataio.split"), "dataio.split_calls": n("dataio.split.calls"),
        "quantizer.fit_s": t("quantizer.fit"), "quantizer.apply_s": t("quantizer.apply"),
        "quantizer.cells": n("quantizer.cells"),
        "ib.estimate_s": t("ib.estimate"), "ib.solve_s": t("ib.solve"), "ib.solves": solves,
        "ib.iterations": n("ib.iterations"), "ib.nonconverged": n("ib.nonconverged"),
        "ib.converged_ratio": ratio(solves - n("ib.nonconverged"), solves),
        "ib.capped_iter_share": ratio(n("ib.capped_iterations"), n("ib.iterations")),
        "ib.channel_cells": n("ib.channel_cells"),
        "ib.ns_per_cell": 1e9 * ratio(t("ib.solve"), n("ib.channel_cells")),
        "network.train_s": t("network.train"),
        "network.train_self_s": flat.get("self:network.train", 0.0),
        "network.sample_s": t("network.sample"),
        "network.sample_symbols": n("network.sample_symbols"),
        "network.mux_s": t("network.mux"), "network.mux_calls": n("network.mux.calls"),
        "network.predict_s": t("network.predict"),
        "network.predict_self_s": flat.get("self:network.predict", 0.0),
        "analysis.mi_flow_s": t("analysis.mi_flow"),
        "analysis.check_bounds_s": t("analysis.check_bounds"),
        "analysis.bound_violations": n("analysis.bound_violations"),
    }
    for k in range(TREE_LAYERS):
        out[f"ib.solve_s.L{k}"] = t(f"ib.solve.L{k}")
        out[f"ib.iterations.L{k}"] = n(f"ib.iterations.L{k}")
        out[f"ib.nonconverged.L{k}"] = n(f"ib.nonconverged.L{k}")
    return out
