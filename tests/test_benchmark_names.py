"""The names the benchmark's tracer patches must exist in tsgrid, and its
counter hooks must read the results those functions return.

``perfbench/tracer.py`` wraps tsgrid functions by name; a renamed or deleted
one, or a changed result type, would otherwise surface only when the
benchmark's self-test runs.
"""

import importlib
from pathlib import Path

import numpy as np

import tsgrid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    patched = {id(original) for _, _, original in tracer.patch_sites()}
    for name in tracer.SPANS + tracer.COUNTED:
        assert id(tracer._resolve(name)[2]) in patched, f"{name} has no patch site"


def test_tracer_hooks_read_real_results(monkeypatch):
    # no benchmark workload calls forecast, so its hook runs only here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    with trace.active(0):
        image = tsgrid.imagespace.encode(tsgrid.from_1d(np.sin(np.arange(48) / 4.0)), tsgrid.SpaceParams(h=32))
        tsgrid.imagespace.preprocess(image)
        tsgrid.forecasters.forecast(tsgrid.get_model("persistence-image"), image, tsgrid.TemporalMask(48, 40))
    for name in ("imagespace.encode", "imagespace.preprocess", "forecasters.forecast"):
        assert trace.calls[name] == 1, name
    for key in ("imagespace.encode.grid_bytes", "imagespace.preprocess.grid_bytes", "forecasters.forecast.grid_bytes"):
        assert trace.counters[key] > 0, key
    assert (trace.counters["forecast.predicted_cols"], trace.counters["forecast.output_cols"]) == (8, 48)
    assert trace.metrics([])["forecasters.forecast.useful_col_ratio"] == 8 / 48
