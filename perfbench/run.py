"""The wavescan benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload seg-256 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, measured with tracing off.  With
``--trace 1`` it holds the per-layer metrics of a traced run.  Every op's
output is checked (see workloads.py); failures count in ``failed``.
The lines before it, starting with ``#``, repeat the figures for a reader
and stamp the environment.

OpenBLAS is pinned to one thread here, before numpy loads, so that BLAS
calls do not compete for a second core; the program itself is left as is.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path[:0] = [str(SRC), str(HERE)]
try:
    import wavescan
except ImportError as exc:
    raise SystemExit(f"cannot import the wavescan package from {SRC}: {exc}")
if Path(wavescan.__file__).resolve().parent != SRC / "wavescan":
    raise SystemExit(f"wavescan was imported from {wavescan.__file__}, not from {SRC}")

import numpy  # noqa: E402  (after the thread pin above)

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wavescan import scanorder  # noqa: E402

SETUP_REPS = 3
MIN_OPS = 5
# Self times of a traced op must add up to its wall time within this share.
SELF_TIME_SHARE = 0.05

# (name, unit, better, bound); BENCHMARK.json states the same, selftest.py checks it.
# Timing bounds are the largest BENCHMARK.json allows, 0.25: on the shared 2-core test
# machine the same op's 10-second medians drifted between 423 and 595 ms
# within four minutes, with CPU time following wall time, and the medians
# of 30-second windows still spread by 5 to 12%.  Peak memory repeats.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("peak_mb", "MB", "lower", 0.05),
)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))
        return not problems


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.tracer = None

    def attempt(self, i: int, ranges: list | None = None):
        """Run and check op ``i``; returns (wall ns, passed) or None if it raised."""
        spans = self.tracer.spans if ranges is not None else None
        lo = len(spans) if spans is not None else 0
        start = time.perf_counter_ns()
        try:
            out = self.wl.op(i)
        except Exception as exc:  # a failing op is counted, and the run goes on
            self.tally.record([f"op {i} raised {type(exc).__name__}: {exc}"])
            return None
        wall = time.perf_counter_ns() - start
        problems = self.wl.verify(i, out)
        if ranges is not None:
            ranges.append((lo, len(spans), wall))
            problems += layers.span_problems(spans, lo, len(spans), wall, self.wl.macs,
                                             SELF_TIME_SHARE)
        return wall, self.tally.record(problems)

    def setup(self, ranges: list | None = None) -> float:
        """Set up from cold and run the first op; returns seconds to ready."""
        for obj in vars(scanorder).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        lo = len(self.tracer.spans) if ranges is not None else 0
        start = time.perf_counter()
        self.wl.setup(self.seed, self.workdir)
        out = self.wl.op(0)
        elapsed = time.perf_counter() - start
        if ranges is not None:
            ranges.append((lo, len(self.tracer.spans), 0))
        self.tally.record(self.wl.verify(0, out))
        return elapsed

    def peak_mb(self) -> float:
        """tracemalloc peak over one warm op, in an untimed pass."""
        tracemalloc.start()
        try:
            out = self.wl.op(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.tally.record(self.wl.verify(1, out))
        return peak / 1e6

    def loop(self, seconds: float, ranges: list | None = None):
        """Closed loop for ``seconds`` and at least MIN_OPS ops, starting on
        input 2 (set-up ran 0, the peak pass 1); returns (wall ns of each op
        that returned, ops that passed their checks)."""
        walls, passed, i = [], 0, 2
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or i < 2 + MIN_OPS:
            result = self.attempt(i, ranges)
            i += 1
            if result is not None:
                walls.append(result[0])
                passed += result[1]
        return walls, passed


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], int]:
    """End-to-end metrics with tracing off, and the number of timed ops."""
    setups = [runner.setup() for _ in range(SETUP_REPS)]
    peak = runner.peak_mb()
    walls, passed = runner.loop(seconds)
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": passed / (sum(walls) / 1e9) if walls else 0.0,
        "latency_ms_p50": statistics.median(walls) / 1e6 if walls else 0.0,
        "peak_mb": peak,
    }, len(walls)


def traced_profile(runner: Runner, seconds: float):
    """Median per-op layer profile of a traced loop, and its op wall times."""
    wl, tracer = runner.wl, runner.tracer
    ranges: list = []
    tracer.install()
    try:
        walls, _ = runner.loop(seconds, ranges)
    finally:
        tracer.uninstall()
    profiles = [layers.op_profile(tracer.spans, lo, hi, wl.stage_of_channels)
                for lo, hi, _ in ranges]
    return layers.median_profile(profiles), walls


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    """Every per-layer metric, from traced set-ups and a traced half of the run."""
    runner.tracer = tracing.Tracer()
    setup_ranges: list = []
    runner.tracer.install()
    try:
        for _ in range(SETUP_REPS):
            runner.setup(setup_ranges)
    finally:
        runner.tracer.uninstall()
    setup_profile = layers.median_profile(
        [layers.op_profile(runner.tracer.spans, lo, hi, {}) for lo, hi, _ in setup_ranges])
    plain, _ = runner.loop(seconds / 2)
    metrics, traced = traced_profile(runner, seconds / 2)
    info = scanorder.build_scan_order.cache_info()
    lookups = info.hits + info.misses
    metrics["scanorder.build_scan_order.hit_ratio"] = info.hits / lookups if lookups else 0.0
    for name in layers.SETUP_METRICS:
        metrics[name] = setup_profile.get(name, 0.0)
    metrics.update(layers.gmac_rates(metrics, runner.wl.macs))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    # The paper's ordering: the orientation-matched scan of a 256x256 forward
    # against the four-direction baseline on carriers of the same shapes.
    seg = metrics if runner.wl.name == "seg-256" else companion(runner, "seg-256")
    cross = metrics if runner.wl.name == "cross-scan" else companion(runner, "cross-scan")
    for n in layers.STAGES:
        base = metrics[f"fablock.cross_scan.s{n}.ms"] = cross.get(f"fablock.cross_scan.s{n}.ms", 0.0)
        metrics[f"fablock.fa_over_cross.s{n}"] = (
            seg.get(f"pipeline.s{n}.scan.ms", 0.0) / base if base else 0.0)
    return {name: metrics.get(name, 0.0) for name, _, _ in layers.PER_LAYER}


def load_workload(name: str, seed: int):
    """The named workload, holding its reference outputs on the default seed."""
    wl = workloads.make(name)
    if seed == workloads.DEFAULT_SEED:
        wl.reference = json.loads(workloads.REFERENCE.read_text())[name]
    return wl


def companion(runner: Runner, name: str) -> dict[str, float]:
    """Traced profile of MIN_OPS ops of another workload with the same seed."""
    other = Runner(load_workload(name, runner.seed), runner.seed, runner.workdir)
    other.tally = runner.tally
    other.tracer = tracing.Tracer()
    other.setup()
    profile, _ = traced_profile(other, 0)
    return profile


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "wavescan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.ALL:
        parser.error(f"unknown workload {args.workload!r}, choose from {workloads.ALL}")

    wl = load_workload(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        runner = Runner(wl, args.seed, workdir)
        if args.trace:
            values = per_layer(runner, args.seconds)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            samples = ""
        else:
            values, count = end_to_end(runner, args.seconds)
            units = {name: unit for name, unit, _, _ in END_TO_END}
            samples = f" (median of {count} ops)"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = runner.tally
    print(f"# wavescan benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for name, value in values.items():
        note = samples if name == "latency_ms_p50" else ""
        print(f"# {name:<40} {value:14.6g} {units[name]}{note}")
    print(f"# {'failed_ratio':<40} {tally.failed / max(tally.attempted, 1):14.6g} "
          f"({tally.failed} of {tally.attempted} checked ops)")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
