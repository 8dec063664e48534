#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  1. every workload emits every metric BENCHMARK.json names, with its unit,
     in the untraced and the traced mode, and passes its output checks;
  2. a deliberately corrupted output counts as a failed pass, not a crash;
  3. the traced run puts the original function objects back, also after
     a pass that raises;
  4. without the tsgrid sources the benchmark exits non-zero and prints
     no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--toy", *extra]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=180)


def last_json(done: subprocess.CompletedProcess) -> dict:
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(workload, trace)
            expect(done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
            result = last_json(done)
            expect(set(result) == RESULT_KEYS, f"{workload} trace={trace}: result keys {sorted(result)}")
            expect(result.get("correct") is True and result.get("failed") == 0,
                   f"{workload} trace={trace}: output checks failed: {done.stderr[-2000:]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: entry["unit"] for name, entry in result.get("metrics", {}).items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics differ: "
                   f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, {result.get('attempted')} passes")


def check_corruption(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        done = bench(workload, 0, "--corrupt")
        result = last_json(done)
        expect(done.returncode == 0, f"{workload} corrupt: crashed with exit {done.returncode}")
        expect(result.get("correct") is False and result.get("failed") == result.get("attempted", 0) > 0,
               f"{workload} corrupt: expected every pass to fail, got {result.get('failed')}/{result.get('attempted')}")
        print(f"ok   {workload} corrupt: {result.get('failed')}/{result.get('attempted')} passes failed")


def check_restore(spec: dict) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    import workloads

    sites = tracer.patch_sites()
    expect(len(sites) >= len(tracer.SPANS + tracer.COUNTED), f"only {len(sites)} patch sites found")
    trace = tracer.Tracer()
    for index, name in enumerate(w["name"] for w in spec["workloads"]):
        workload = workloads.WORKLOADS[name](3, True, SCRATCH / name)
        workload.setup()
        with trace.active(index), open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            patched = [(ns, attr) for ns, attr, original in sites if ns.__dict__[attr] is original]
            workload.run_pass(SCRATCH / name / "out")
        expect(not patched, f"{name}: sites left unpatched during a traced pass: {patched[:3]}")
        workload.check(SCRATCH / name / "out", 0)
    try:
        with trace.active(len(spec["workloads"])):
            raise RuntimeError("pass failed")
    except RuntimeError:
        pass
    changed = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns, attr, original in sites if ns.__dict__[attr] is not original]
    expect(not changed, f"originals not restored: {changed[:5]}")
    expect(trace.passes == len(spec["workloads"]), f"{trace.passes} traced passes folded")
    print(f"ok   traced passes restore all {len(sites)} patched names")


def check_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = bench("corpus", 0, cwd=bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"without sources: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    print(f"ok   without sources: exit {done.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_metrics(spec)
        check_corruption(spec)
        check_restore(spec)
        check_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
