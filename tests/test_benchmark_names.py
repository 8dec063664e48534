"""The names the benchmark's tracer patches must exist in tsgrid.

``perfbench/tracer.py`` wraps tsgrid functions by name; a renamed or deleted
one would otherwise surface only when the benchmark's self-test runs.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    patched = {id(original) for _, _, original in tracer.patch_sites()}
    for name in tracer.SPANS + tracer.COUNTED:
        assert id(tracer._resolve(name)[2]) in patched, f"{name} has no patch site"
