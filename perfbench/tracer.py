"""In-memory span tracer that wraps tsgrid's public functions from outside.

Nothing under ``src/`` changes.  Each traced function is replaced, for the
length of one traced pass, in every tsgrid namespace that holds it -- that
is, in the namespace of each module that calls it -- and the original
objects are put back afterwards.  Methods (``RngStream.generator``,
``ForecasterHandle.predict``) are replaced on their class.

A span records its name, start, end, parent span and pass id.  A span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

# The tsgrid modules searched for names to patch, plus the package itself.
MODULES = ("cli", "rng", "generate", "io", "imagespace", "forecasters", "evaluation", "series", "bounds")

# Span names are "<defining module>.<attribute path>".
SPANS = (
    "cli.main",
    "rng.RngStream.generator",
    "generate.sample_series",
    "generate.augment",
    "generate.gen_rwb",
    "io.write_series_csv",
    "io.read_series_csv",
    "io.write_manifest_csv",
    "io.write_image",
    "io.read_image",
    "io.write_report_csv",
    "imagespace.normalize",
    "imagespace.denormalize",
    "imagespace.value_to_row",
    "imagespace.encode",
    "imagespace.decode",
    "imagespace.soft_decode",
    "imagespace.preprocess",
    "imagespace.emd",
    "imagespace.kld",
    "imagespace.loss",
    "forecasters.forecast",
    "forecasters.detect_period",
    "forecasters.ForecasterHandle.predict",
    "evaluation.evaluate_series",
    "evaluation.remetrics",
    "evaluation.tsi_rescale",
    "evaluation.perturb",
    "series.carry_forward",
    "series.linear_resample",
    "bounds.solve_ms_table",
)

# Counted but not timed, so the caller's self time keeps the work.
COUNTED = ("bounds.optimal_ms",)

BEHAVIORS = ("ifftb", "pwb", "rwb", "lgb", "twdb")
IO_FUNCTIONS = tuple(name for name in SPANS if name.startswith("io."))


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _image_bytes(meta_path: Path, channels: int) -> int:
    stem = meta_path.with_suffix("")
    return _size(meta_path) + sum(_size(stem.parent / f"{stem.name}_ch{i}.pgm") for i in range(channels))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Per-call counters taken from a span's arguments and result.  They run
# after the span has ended; their cost is charged to no span.
_HOOKS = {
    "io.write_series_csv": lambda a, k, r: {"io.write_series_csv.bytes": _size(_arg(a, k, 0, "path"))},
    "io.read_series_csv": lambda a, k, r: {"io.read_series_csv.bytes": _size(_arg(a, k, 0, "path"))},
    "io.write_manifest_csv": lambda a, k, r: {"io.write_manifest_csv.bytes": _size(_arg(a, k, 0, "path"))},
    "io.write_report_csv": lambda a, k, r: {"io.write_report_csv.bytes": _size(_arg(a, k, 0, "path"))},
    "io.write_image": lambda a, k, r: {"io.write_image.bytes": _image_bytes(Path(r), _arg(a, k, 1, "image").channels)},
    "io.read_image": lambda a, k, r: {"io.read_image.bytes": _image_bytes(Path(_arg(a, k, 0, "meta_path")), r[0].channels)},
    "imagespace.encode": lambda a, k, r: {"imagespace.encode.grid_bytes": r.grid.nbytes},
    "imagespace.preprocess": lambda a, k, r: {"imagespace.preprocess.grid_bytes": r.grid.nbytes},
    "forecasters.forecast": lambda a, k, r: {
        "forecasters.forecast.grid_bytes": r.grid.nbytes,
        "forecast.predicted_cols": r.length - _arg(a, k, 2, "mask").lookback,
        "forecast.output_cols": r.length,
    },
    "evaluation.evaluate_series": lambda a, k, r: {
        "evaluation.windows": sum(row.windows for row in r.rows if row.beta is not None),
        "evaluation.cells_attempted": sum(1 for row in r.rows if row.beta is not None),
        "evaluation.cells_scored": sum(1 for row in r.rows if row.beta is not None and row.windows > 0),
    },
}


def metric_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for name in SPANS:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    spec += [(f"generate.behavior.{b}.count", "count", "higher") for b in BEHAVIORS]
    spec += [(f"{name}.bytes", "B", "lower") for name in IO_FUNCTIONS]
    spec += [
        ("io.write_series_csv.p50_ms", "ms", "lower"),
        ("io.write_series_csv.p90_ms", "ms", "lower"),
        ("imagespace.encode.grid_bytes", "B", "lower"),
        ("imagespace.preprocess.grid_bytes", "B", "lower"),
        ("forecasters.forecast.grid_bytes", "B", "lower"),
        ("forecasters.forecast.useful_col_ratio", "ratio", "higher"),
        ("evaluation.windows", "count", "higher"),
        ("evaluation.cells_scored_ratio", "ratio", "higher"),
    ]
    spec += [(f"{module}.self_share", "ratio", "lower") for module in MODULES]
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    return spec


def _resolve(name: str):
    """(owner, attribute, original) for a span name; owner is the defining module or class."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"tsgrid.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], owner.__dict__[path[-1]]


def patch_sites() -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, original) the tracer replaces."""
    namespaces = [importlib.import_module("tsgrid")] + [importlib.import_module(f"tsgrid.{m}") for m in MODULES]
    sites = []
    for name in SPANS + COUNTED:
        owner, attr, original = _resolve(name)
        if isinstance(owner, type):
            sites.append((owner, attr, original))
            continue
        for ns in namespaces:
            if ns.__dict__.get(attr) is original:
                sites.append((ns, attr, original))
    return sites


class Tracer:
    """Collects spans over traced passes and folds them into per-layer totals."""

    def __init__(self) -> None:
        self.passes = 0
        self.pass_walls: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.write_csv_ms: list[float] = []
        self.first_pass_spans: list[tuple] = []
        self._spans: list[tuple | None] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self._pass_id = -1

    def _span(self, name: str, fn):
        spans, child, stack, clock = self._spans, self._child, self._stack, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            child.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._pass_id)
                if parent >= 0:
                    child[parent] += end - start
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counters[key] += value
                if parent >= 0:
                    child[parent] += clock() - end
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self, pass_id: int):
        """Patch every site for one pass; restore the originals on exit, even on error."""
        sites = patch_sites()
        wrappers = {}
        for name in SPANS + COUNTED:
            original = _resolve(name)[2]
            wrappers[id(original)] = self._span(name, original) if name in SPANS else self._count(name, original)
        self._pass_id = pass_id
        completed = False
        start = time.perf_counter()
        try:
            for ns, attr, original in sites:
                setattr(ns, attr, wrappers[id(original)])
            yield
            completed = True
        finally:
            wall = time.perf_counter() - start
            for ns, attr, original in reversed(sites):
                setattr(ns, attr, original)
            self._stack.clear()
            if completed:
                self.pass_walls.append(wall)
                self._fold()
            else:  # a failed pass contributes no spans
                self._spans.clear()
                self._child.clear()

    def _fold(self) -> None:
        spans, child = self._spans, self._child
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[index]
            if name == "io.write_series_csv":
                self.write_csv_ms.append((end - start) * 1e3)
        if self.passes == 0:
            self.first_pass_spans = [s for s in spans if s is not None]
        self.passes += 1
        self._spans.clear()
        self._child.clear()

    def add_counters(self, counters: dict[str, float]) -> None:
        for key, value in counters.items():
            self.counters[key] += value

    def metrics(self, untraced_walls: list[float]) -> dict[str, float]:
        """Per-pass averages of counts and self times, plus ratios and shares."""
        n = max(self.passes, 1)
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name] / n
            out[f"{name}.self_s"] = self.self_s[name] / n
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls[name] / n
        for b in BEHAVIORS:
            out[f"generate.behavior.{b}.count"] = self.counters[f"generate.behavior.{b}.count"] / n
        for name in IO_FUNCTIONS:
            out[f"{name}.bytes"] = self.counters[f"{name}.bytes"] / n
        out["io.write_series_csv.p50_ms"] = _quantile(self.write_csv_ms, 0.5)
        out["io.write_series_csv.p90_ms"] = _quantile(self.write_csv_ms, 0.9)
        for key in ("imagespace.encode.grid_bytes", "imagespace.preprocess.grid_bytes", "forecasters.forecast.grid_bytes"):
            out[key] = self.counters[key] / n
        out["forecasters.forecast.useful_col_ratio"] = _ratio(
            self.counters["forecast.predicted_cols"], self.counters["forecast.output_cols"]
        )
        out["evaluation.windows"] = self.counters["evaluation.windows"] / n
        out["evaluation.cells_scored_ratio"] = _ratio(
            self.counters["evaluation.cells_scored"], self.counters["evaluation.cells_attempted"]
        )
        traced_total = sum(self.pass_walls)
        for module in MODULES:
            module_self = sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == module)
            out[f"{module}.self_share"] = _ratio(module_self, traced_total)
        if self.pass_walls and untraced_walls:
            out["trace.overhead_ratio"] = statistics.median(self.pass_walls) / statistics.median(untraced_walls) - 1.0
        else:
            out["trace.overhead_ratio"] = 0.0
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
