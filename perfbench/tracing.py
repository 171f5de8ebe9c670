"""Per-layer tracing of twoslit from outside the program.

``Tracer.install`` wraps every module-level function of each layer
module and rebinds every name in the package that refers to it, so calls
through ``from .x import f`` imports are timed too.  Nothing inside
``src/`` changes.  Each wrapped call records its inclusive time, its
self time (inclusive minus the time in calls into other layers, however
deeply nested) and its own time (minus every traced child).  Calls a
layer makes into itself stay in its self time, so the layers' self
times add up to the traced time.

A function or hook argument a later change removes or renames makes the
metrics that need it absent; nothing crashes and nothing reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path

PACKAGE = "twoslit"
LAYERS = ("config", "apparatus", "propagator", "kernels", "scenario", "analysis", "paths", "cli")
# The per-value CSV formatter runs once per cell; a wrapper there would
# add ~1 us per cell.  Its time stays in the serializer that calls it.
UNWRAPPED = {"cli._fmt"}

SERIALIZERS = ("cli._csv_text", "cli._json_text", "cli._svg_text", "cli._bundle_rows")


def _hook_propagate(tracer, args, self_s, result):
    key = f"{args['field_in'].values.size}x{args['target'].n}"
    entry = tracer.shapes.setdefault(key, [0, 0.0])
    entry[0] += 1
    entry[1] += self_s


def _hook_propagate_sum(tracer, args, self_s, result):
    tracer.counters["quadrature_points"] += args["x_out"].size * args["x_in"].size


def _hook_crossing_count(tracer, args, self_s, result):
    segments = [sum(len(p.events) - 1 for p in args[k].paths) for k in ("a", "b")]
    tracer.counters["segment_pairs_all"] += segments[0] * segments[1]
    tracer.counters["crossings"] += result[0]


def _hook_write(tracer, args, self_s, result):
    tracer.counters["bytes_written"] += Path(args["path"]).stat().st_size


# qualname -> (counters the hook feeds, hook); a hook that raises marks
# its counters absent.
HOOKS = {
    "propagator.propagate": (("propagate_shapes",), _hook_propagate),
    "kernels.propagate_sum": (("quadrature_points",), _hook_propagate_sum),
    "paths.crossing_count": (("segment_pairs_all", "crossings"), _hook_crossing_count),
    "cli._write_atomic": (("bytes_written",), _hook_write),
}


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "own")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.own = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.layer_s = {layer: 0.0 for layer in LAYERS}
        self.counters = {"quadrature_points": 0, "segment_pairs_all": 0, "crossings": 0, "bytes_written": 0}
        self.shapes: dict[str, list] = {}
        self.missing: dict[str, str] = {}  # function or counter -> why it is absent
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._found: dict[str, object] = {}

    def _discover(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and qual not in UNWRAPPED:
                    self._found[qual] = obj
                    self.stats[qual] = _Stat()

    def install(self) -> None:
        """Rebind every package name that refers to a layer function."""
        if not self._found:
            self._discover()
        wrappers = {id(fn): self._wrap(qual, fn) for qual, fn in self._found.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, qual: str, fn):
        layer = qual.split(".", 1)[0]
        stat = self.stats[qual]
        stack = self._stack
        clock = time.perf_counter
        counters, hook = HOOKS.get(qual, ((), None))
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: layer, time in other layers below, time in traced children
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s = dt - frame[1]
                stat.calls += 1
                stat.incl += dt
                stat.self_s += self_s
                stat.own += dt - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dt
                    if parent[0] == layer:
                        parent[1] += frame[1]
                    else:
                        parent[1] += dt
                if parent is None or parent[0] != layer:
                    self.layer_s[layer] += self_s
            if hook is not None and counters[0] not in self.missing:
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, self_s, result)
                except Exception as exc:  # a refactor changed what the hook reads
                    for name in counters:
                        self.missing[name] = f"hook on {qual} failed: {exc!r}"
            return result

        return wrapper

    def metrics(self, n_ops: int, n_geometries: int, traced_op_s: list, untraced_op_s: list) -> tuple[dict, dict]:
        """Per-op (or per-geometry) values of every per-layer metric that
        can be computed, and the reasons the others are absent."""
        absent = {}
        values = {}
        for name, unit, _better, needs, value in PER_LAYER:
            missing = [n for n in needs if (n not in self.stats and n not in self.counters) or n in self.missing]
            if missing:
                absent[name] = "; ".join(
                    self.missing.get(n, f"{n} is not in the program") for n in missing
                )
                continue
            values[name] = {"value": value(self, n_ops, n_geometries, traced_op_s, untraced_op_s), "unit": unit}
        return values, absent

    def shape_table(self, n_ops: int) -> dict:
        """propagator.propagate per (n_in, n_out): calls and self time per op."""
        if "propagate_shapes" in self.missing:
            return {"absent": self.missing["propagate_shapes"]}
        return {
            key: {"calls": calls / n_ops, "s": s / n_ops} for key, (calls, s) in sorted(self.shapes.items())
        }


def _incl(q):
    return lambda t, n, g, *_: t.stats[q].incl / n


def _self(q):
    return lambda t, n, g, *_: t.stats[q].self_s / n


def _per_geometry(q):
    return lambda t, n, g, *_: t.stats[q].calls / g


def _counter(c):
    return lambda t, n, g, *_: t.counters[c] / n


def _hit_ratio(t, n, g, *_):
    pairs = t.counters["segment_pairs_all"]
    return t.counters["crossings"] / pairs if pairs else 0.0


def _overhead(t, n, g, traced, untraced):
    return statistics.median(traced) - statistics.median(untraced)


def _layer(layer):
    return lambda t, n, g, *_: t.layer_s[layer] / n


# name, unit, better, functions or counters it needs, value.  Times and
# counts are per op unless the name says per geometry.
PER_LAYER = [
    ("propagator.propagate.calls", "count", "lower", ["propagator.propagate"],
     lambda t, n, g, *_: t.stats["propagator.propagate"].calls / n),
    ("propagator.propagate.s", "s", "lower", ["propagator.propagate"], _self("propagator.propagate")),
    ("propagator.point_source_field.s", "s", "lower", ["propagator.point_source_field"],
     _incl("propagator.point_source_field")),
    ("propagator.quadrature_points", "count", "lower", ["kernels.propagate_sum", "quadrature_points"],
     _counter("quadrature_points")),
    ("kernels.propagate_sum.s", "s", "lower", ["kernels.propagate_sum"], _incl("kernels.propagate_sum")),
    ("kernels.segment_crossings.s", "s", "lower", ["kernels.segment_crossings"],
     _incl("kernels.segment_crossings")),
    ("kernels.bridge_offsets.s", "s", "lower", ["kernels.bridge_offsets"], _incl("kernels.bridge_offsets")),
    ("kernels.mc_phase_array.s", "s", "lower", ["kernels.mc_phase_array"], _incl("kernels.mc_phase_array")),
    ("scenario.propagations_per_geometry", "count", "lower", ["propagator.propagate"],
     _per_geometry("propagator.propagate")),
    ("scenario.stub_source.calls_per_geometry", "count", "lower", ["scenario.stub_source"],
     _per_geometry("scenario.stub_source")),
    ("scenario.detection_probability.calls_per_geometry", "count", "lower",
     ["scenario.detection_probability"], _per_geometry("scenario.detection_probability")),
    ("scenario.barrier_field.calls_per_geometry", "count", "lower", ["scenario.barrier_field"],
     _per_geometry("scenario.barrier_field")),
    ("scenario.channels.s", "s", "lower", [], _layer("scenario")),
    ("analysis.visibility.s", "s", "lower", ["analysis.visibility"], _incl("analysis.visibility")),
    ("analysis.local_visibility_profile.s", "s", "lower", ["analysis.local_visibility_profile"],
     _incl("analysis.local_visibility_profile")),
    ("analysis.onset_metrics.s", "s", "lower", ["analysis.onset_metrics"], _incl("analysis.onset_metrics")),
    ("analysis.fringe_spacing.s", "s", "lower", ["analysis.fringe_spacing"], _incl("analysis.fringe_spacing")),
    ("analysis.intensity.s", "s", "lower", ["analysis.intensity"], _incl("analysis.intensity")),
    ("paths.sample_bundle.s", "s", "lower", ["paths.sample_bundle"], _self("paths.sample_bundle")),
    ("paths.truncate_bundle.s", "s", "lower", ["paths.truncate_bundle"], _incl("paths.truncate_bundle")),
    ("paths.crossing_count.s", "s", "lower", ["paths.crossing_count"], _self("paths.crossing_count")),
    ("paths.mc_kernel_estimate.s", "s", "lower", ["paths.mc_kernel_estimate"],
     _incl("paths.mc_kernel_estimate")),
    ("paths.crossings", "count", "lower", ["paths.crossing_count", "crossings"], _counter("crossings")),
    ("paths.segment_pairs_all", "count", "lower", ["paths.crossing_count", "segment_pairs_all"],
     _counter("segment_pairs_all")),
    ("paths.crossing_hit_ratio", "ratio", "higher",
     ["paths.crossing_count", "crossings", "segment_pairs_all"], _hit_ratio),
    ("cli.serialize.s", "s", "lower", list(SERIALIZERS),
     lambda t, n, g, *_: sum(t.stats[q].incl for q in SERIALIZERS) / n),
    ("cli.write.s", "s", "lower", ["cli._write_atomic"], _incl("cli._write_atomic")),
    ("cli.bytes_written", "bytes", "lower", ["cli._write_atomic", "bytes_written"], _counter("bytes_written")),
    ("config.load_config.s", "s", "lower", ["config.load_config"], _incl("config.load_config")),
    ("apparatus.validate.s", "s", "lower", ["apparatus.validate"], _incl("apparatus.validate")),
    ("cli.main.other_s", "s", "lower", ["cli.main"], lambda t, n, g, *_: t.stats["cli.main"].own / n),
    ("trace.op_s_p50", "s", "lower", [], lambda t, n, g, traced, _u: statistics.median(traced)),
    ("trace.overhead_s", "s", "lower", [], _overhead),
] + [
    (f"{layer}.layer_s", "s", "lower", [], _layer(layer))
    for layer in LAYERS
    if layer != "scenario"
]
