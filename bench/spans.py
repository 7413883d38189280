"""Per-layer spans recorded from outside the program.

The tracer rebinds the names that ``spatial_outliers.cli`` and
``spatial_outliers.detect`` import or define, so every call through those
names becomes a span.  A span's self time is its duration minus the time of
the spans it caused.  Names a later refactor removes are skipped: their layer
then records no span and is reported absent.  ``Tracer.installed`` restores
every original binding on exit, so untraced calls never run through a
wrapper.
"""

import contextlib
import os
import time
from collections import defaultdict

# Layer -> names rebound in the cli and detect modules, where present.
LAYERS = {
    "fileio.parse": ("load_sites", "load_edges", "load_polygons"),
    "fileio.render": ("render_report",),
    "dataset.validate": ("validate_dataset",),
    "neighborhood.discover": (
        "buffer_neighbors", "graph_neighbors", "polygon_adjacent_neighbors",
    ),
    "neighborhood.factors": ("collect_factors",),
    "weights.weigh": (
        "distance_weights", "connection_weights", "combined_weights", "polygon_weights",
    ),
    "detect.self": ("detect_outliers", "neighborhood_weights"),
    "detect.expect": ("expected_classical", "expected_weighted"),
    "detect.standardize": ("difference_scores", "significance_scores"),
    "detect.compare": ("compare_models",),
}
ROOT_LAYER = "cli.self"


def _observe_parse(counts, args, result):
    counts["bytes_in"] += os.path.getsize(args[0])


def _observe_render(counts, args, result):
    counts["bytes_out"] += len(result.encode("utf-8"))


def _observe_discover(counts, args, result):
    counts["neighbors"] += len(result)


def _observe_factors(counts, args, result):
    counts["factor_pairs"] += len(result)
    counts["cost_usable"] += sum(1 for f in result if f.min_cost is not None)
    counts["connected"] += sum(1 for f in result if f.connection_count > 0)


def _observe_weigh(counts, args, result):
    offered = args[1] if len(args) > 1 and isinstance(args[1], list) else args[0]
    counts["weighed"] += len(offered)
    counts["dropped"] += len(offered) - len(result.entries)


def _observe_detect(counts, args, result):
    if hasattr(result, "skipped"):
        counts["scored"] += len(result.scores)
        counts["skipped"] += len(result.skipped)


OBSERVERS = {
    "fileio.parse": _observe_parse,
    "fileio.render": _observe_render,
    "neighborhood.discover": _observe_discover,
    "neighborhood.factors": _observe_factors,
    "weights.weigh": _observe_weigh,
    "detect.self": _observe_detect,
}


class Tracer:
    """Self time, call count and counters per layer, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.unobserved = set()  # layers whose counters no longer fit the code
        self._child_s = []  # one accumulator per open span

    def call(self, layer, fn, *args, **kwargs):
        """Run fn as a span of layer; bookkeeping is charged to no layer."""
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.self_s[layer] += end - start - self._child_s.pop()
            self.calls[layer] += 1
            if self._child_s:
                self._child_s[-1] += end - start
        observe = OBSERVERS.get(layer)
        if observe is not None:
            try:
                observe(self.counts, args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                self.unobserved.add(layer)
        if self._child_s:
            self._child_s[-1] += time.perf_counter() - end
        return result

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Rebind every traced name found in modules; restore them on exit."""
        originals = []
        try:
            for module in modules:
                for layer, names in LAYERS.items():
                    for name in names:
                        if hasattr(module, name):
                            fn = getattr(module, name)
                            originals.append((module, name, fn))
                            setattr(module, name, self._wrap(layer, fn))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)

    def absent(self):
        """Layers that recorded no span."""
        return sorted(layer for layer in LAYERS if not self.calls[layer])

    def metrics(self, wall_s, sites):
        """Per-layer metrics of one traced CLI call over a dataset of sites."""
        s, n, c = self.self_s, self.calls, self.counts

        def share(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        named = sum(s[layer] for layer in LAYERS)
        return {
            "neighborhood.factors_s": (s["neighborhood.factors"], "s"),
            "neighborhood.factor_pairs": (c["factor_pairs"], "count"),
            "neighborhood.cost_usable_frac": (share("cost_usable", "factor_pairs"), "ratio"),
            "neighborhood.connected_frac": (share("connected", "factor_pairs"), "ratio"),
            "neighborhood.discover_s": (s["neighborhood.discover"], "s"),
            "neighborhood.discover_calls": (n["neighborhood.discover"], "count"),
            "neighborhood.discover_per_site": (n["neighborhood.discover"] / sites, "ratio"),
            "neighborhood.neighbors_mean": (
                c["neighbors"] / n["neighborhood.discover"]
                if n["neighborhood.discover"] else 0.0,
                "count",
            ),
            "dataset.validate_s": (s["dataset.validate"], "s"),
            "fileio.parse_s": (s["fileio.parse"], "s"),
            "fileio.render_s": (s["fileio.render"], "s"),
            "fileio.bytes_in": (c["bytes_in"], "bytes"),
            "fileio.bytes_out": (c["bytes_out"], "bytes"),
            "weights.weigh_s": (s["weights.weigh"], "s"),
            "weights.weigh_calls": (n["weights.weigh"], "count"),
            "weights.dropped_frac": (share("dropped", "weighed"), "ratio"),
            "detect.self_s": (s["detect.self"], "s"),
            "detect.expect_s": (s["detect.expect"], "s"),
            "detect.standardize_s": (s["detect.standardize"], "s"),
            "detect.compare_s": (s["detect.compare"], "s"),
            "detect.skipped_frac": (
                c["skipped"] / (c["scored"] + c["skipped"])
                if c["scored"] + c["skipped"] else 0.0,
                "ratio",
            ),
            "cli.self_s": (s[ROOT_LAYER], "s"),
            "trace.coverage": (named / wall_s, "ratio"),
        }
