#!/usr/bin/env python3
"""tsgrid benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 20240710 --seconds 25 --trace 0

One process, one closed-loop client: passes run back to back.  Each pass
is checked; a pass that exits non-zero, raises or fails a check counts as
failed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the
line before it carries the details (quartiles, sample counts, an output
digest, versions).  Both also go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 20240710
HELDOUT_SEED = 7311  # for confirming a claim on a seed not used while writing the change
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLEARED = ("TSGRID_THREADS", "TSGRID_OUTPUT_DIR")
SETUP_REPEATS = 3
MIN_TIMED_PASSES = 3
# Seconds each speed probe takes at the reference machine speed: one
# 2.1 GHz core of the 2-core machine the benchmark was defined on, uncontended.
REFERENCE_PROBE_S = {"mixed": 0.012, "arrays": 0.010}
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tsgrid.cli, tsgrid.forecasters\n"
    "print(time.perf_counter() - start)\n"
)
END_TO_END = (("setup_s", "s"), ("items_per_s", "items/s"), ("cpu_ms_per_item", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy input sizes, for the self-test")
    p.add_argument("--corrupt", action="store_true", help="damage each pass's output before its check (self-test)")
    return p.parse_args(argv)


def mixed_probe(scratch: Path) -> float:
    """Wall time of a fixed task that formats floats, runs bytecode, calls
    numpy on small and mid-size arrays, and writes, renames and deletes
    small files: the mix of the corpus and eval workloads.

    The machines this runs on change speed by up to 2x over minutes (shared
    cores), so a probe runs between measured intervals and times are
    reported at the reference speed (see ``SpeedScale``).  Probes do not
    use tsgrid, so program changes show in full.
    """
    import numpy as np

    small = np.arange(512, dtype=np.float64)
    block = np.ones((64, 1024))
    payload = b"0123456789abcdef" * 256
    start = time.perf_counter()
    text = ",".join(f"{i * 1.0001:.9g}" for i in range(6000))
    total = 0
    for i in range(10000):
        total += i * i
    for _ in range(100):
        np.correlate(small, small, mode="full")
        np.sort(small[::-1])
    for _ in range(10):
        np.cumsum(block, axis=1).sum()
    for i in range(10):
        tmp, final = scratch / f"probe{i}.tmp", scratch / f"probe{i}.dat"
        tmp.write_bytes(payload + text[:64].encode())
        os.replace(tmp, final)
        final.unlink()
    return time.perf_counter() - start


def arrays_probe(scratch: Path) -> float:
    """Wall time of a fixed task on 1 MB float arrays (blur, cumulative sum,
    log): the mix of the codec workload, which a machine slowdown hits less
    than bytecode."""
    import numpy as np
    from scipy.ndimage import convolve1d

    block = np.sin(np.arange(128 * 1024, dtype=np.float64)).reshape(128, 1024)
    kernel = np.exp(-0.5 * (np.arange(-15, 16) / 5.0) ** 2)
    start = time.perf_counter()
    for _ in range(3):
        convolve1d(block, kernel, axis=1, mode="constant")
        np.cumsum(block, axis=0).sum()
        np.log(np.abs(block) + 1.0).sum()
    return time.perf_counter() - start


PROBES = {"mixed": mixed_probe, "arrays": arrays_probe}


class SpeedScale:
    """Speed probes between consecutive measured intervals.

    Each probe serves the interval before and after it; an interval's
    factor reference / mean(probe before, probe after) converts
    its measured seconds to seconds at the reference speed.
    """

    def __init__(self, kind: str, scratch: Path) -> None:
        self.probe = PROBES[kind]
        self.reference = REFERENCE_PROBE_S[kind]
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        self.probes = [self.probe(scratch)]

    def next(self) -> float:
        """Factor for the interval that just ended."""
        self.probes.append(self.probe(self.scratch))
        return self.reference / (0.5 * (self.probes[-2] + self.probes[-1]))


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def quartiles(values):
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under ``path``."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(src: Path, speed: SpeedScale) -> list[tuple[float, float]]:
    """(measured, reference-speed) import times of tsgrid in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-s", "-c", IMPORT_PROBE, str(src)], capture_output=True,
                              text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append((seconds, seconds * speed.next()))
    return times


class Runner:
    """Runs the passes of one workload and keeps their measurements."""

    def __init__(self, workload, work: Path, speed: SpeedScale, corrupt: bool, tracer=None) -> None:
        self.workload = workload
        self.out = work / "out"
        self.corrupt = corrupt
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced_walls: list[float] = []
        self.speed = speed
        self.rates: list[float] = []
        self.cpu_per_item: list[float] = []
        self.wall_rates: list[float] = []
        self.samples: list[tuple] = []
        self.digest = ""

    def one_pass(self, timed: bool, traced: bool) -> None:
        index = self.attempted
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            tracing = self.tracer.active(index) if traced else contextlib.nullcontext()
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                cpu0, wall0 = cpu_seconds(), time.perf_counter()
                with tracing:
                    self.workload.run_pass(self.out)
                wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            scale = self.speed.next()
            if self.corrupt:
                self.workload.corrupt(self.out)
            items = self.workload.check(self.out, index)
            if items <= 0:
                raise ValueError(f"pass completed {items} items")
            if traced:
                self.tracer.add_counters(self.workload.layer_counters(self.out))
            if not self.digest:
                self.digest = tree_digest(self.out)
        except (Exception, SystemExit) as exc:  # a failed pass is counted, never fatal
            self.failures.append(f"pass {index}: {type(exc).__name__}: {exc}")
            if len(self.failures) <= 3:
                traceback.print_exc(file=sys.stderr)
            return
        if timed and not traced:
            self.untraced_walls.append(wall)
            self.rates.append(items / (wall * scale))
            self.cpu_per_item.append(cpu * scale * 1e3 / items)
            self.wall_rates.append(items / wall)
            self.samples.append((len(self.speed.probes) - 2, wall, cpu, items))

    def run(self, seconds: float, traced_run: bool) -> None:
        self.one_pass(timed=False, traced=False)  # warm-up: caches and lazy set-up, checked and digested
        deadline = time.perf_counter() + seconds
        timed = 0
        while timed < MIN_TIMED_PASSES or time.perf_counter() < deadline:
            self.one_pass(timed=True, traced=False)
            if traced_run:
                self.one_pass(timed=True, traced=True)
            timed += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    for name in CLEARED:
        os.environ.pop(name, None)
    os.chdir(ROOT)
    src = ROOT / "src"
    if not (src / "tsgrid" / "__init__.py").is_file():
        print(f"error: no tsgrid package under {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import tracer
    import workloads

    import tsgrid

    if Path(tsgrid.__file__).resolve().parent != src / "tsgrid":
        print(f"error: imported tsgrid from {tsgrid.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, work)
    speed = SpeedScale(workload.probe, WORK / "probe")
    import_times = import_seconds(src, speed)
    gen_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start
        gen_times.append((seconds, seconds * speed.next()))
    setup_s = sum(statistics.median(t[1] for t in times) for times in (import_times, gen_times))
    wall_setup_s = sum(statistics.median(t[0] for t in times) for times in (import_times, gen_times))

    runner = Runner(workload, work, speed, args.corrupt, tracer.Tracer() if args.trace else None)
    runner.run(args.seconds, traced_run=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(work, ignore_errors=True)

    rate, cpu = quartiles(runner.rates), quartiles(runner.cpu_per_item)
    end_to_end = {"setup_s": setup_s, "items_per_s": rate["median"], "cpu_ms_per_item": cpu["median"],
                  "peak_rss_mb": peak_rss_mb}
    if args.trace:
        spec = tracer.metric_spec()
        values = runner.tracer.metrics(runner.untraced_walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    failed = len(runner.failures)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seeds": {"default": DEFAULT_SEED, "held_out": HELDOUT_SEED},
        "trace": args.trace,
        "toy": args.toy,
        "why": workload.why,
        "passes": {"attempted": runner.attempted, "failed": failed, "failed_ratio": failed / runner.attempted},
        "end_to_end": {
            "setup_s": {"value": setup_s, "wall": wall_setup_s, "import_s": import_times, "inputs_s": gen_times},
            "items_per_s": rate,
            "cpu_ms_per_item": cpu,
            "wall_items_per_s": quartiles(runner.wall_rates),
            "probe_ms": quartiles([1e3 * p for p in speed.probes]),
            "peak_rss_mb": {"value": peak_rss_mb},
        },
        "output_sha256": runner.digest,
        "failures": runner.failures[:10],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "commit": git_commit(),
            "machine": platform.machine(),
        },
    }
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"info": info, "result": result, "probes": speed.probes, "samples": runner.samples}, indent=1) + "\n")
    if args.trace:
        with stem.with_suffix(".spans.jsonl").open("w") as handle:
            for name, start, end, parent, pass_id in runner.tracer.first_pass_spans:
                handle.write(json.dumps([name, start, end, parent, pass_id]) + "\n")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
