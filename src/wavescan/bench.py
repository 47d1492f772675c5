"""Wall-clock benchmark harness for the core kernels and the forward pass.

Reports median (not mean) over >= 10 iterations with warmup discarded,
so scheduler noise cannot skew comparisons.  Ops: dwt_haar, idwt_haar,
hilbert_build, serialize_roundtrip, ssm_scan_parallel, fa_scan,
cross_scan and forward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import flops
from .errors import DimensionError
from .fablock import cross_scan, fa_scan
from .grid import FeatureGrid
from .pipeline import PipelineConfig, _check_input, default_weights, forward
from .scanorder import ScanKind, build_scan_order, deserialize, serialize
from .ssm import SsmParams, ssm_scan_parallel
from .wavelet import dwt_haar, idwt_haar


@dataclass(frozen=True)
class BenchReport:
    op: str
    shape: str
    iterations: int
    min_s: float
    median_s: float
    throughput: float
    flops: int


# The fewest timed iterations a median is reported over.
_MIN_RUNS = 10

_OPS = ("dwt_haar", "idwt_haar", "hilbert_build", "serialize_roundtrip",
       "ssm_scan_parallel", "fa_scan", "cross_scan", "forward")


def _time(fn, iterations: int, warmup: int = 3) -> tuple[float, float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples), float(np.median(samples))


def _report(op: str, shape: tuple, fn, iterations: int, elems: int, macs: int = 0) -> BenchReport:
    lo, med = _time(fn, iterations)
    return BenchReport(
        op=op,
        shape="x".join(str(s) for s in shape),
        iterations=iterations,
        min_s=lo,
        median_s=med,
        throughput=elems / med if med > 0 else float("inf"),
        flops=macs,
    )


def _wanted(ops: list[str] | None, name: str) -> bool:
    return ops is None or any(name.startswith(o) for o in ops)


def _check_size(size: int, ops: list[str] | None, flag: str = "size") -> None:
    """Raise a ValueError naming ``flag`` when an op of ``ops`` cannot run at ``size``."""
    if size < 4:  # the kernel ops' half-size grids split once more
        raise ValueError(f"{flag} must be at least 4, got {size}")
    if _wanted(ops, "forward"):
        try:
            _check_input(PipelineConfig(), size, size)  # the config the forward op runs
        except DimensionError as exc:
            raise ValueError(f"{flag} for the forward op: {exc}") from None


def run_benchmarks(size: int = 256, forward_runs: int = 100, kernel_runs: int = 25,
                   ops: list[str] | None = None, seed: int = 0) -> list[BenchReport]:
    """Benchmark the hot operations at the given input size.

    ``ops`` holds op-name prefixes; a prefix that names no op in ``_OPS``
    raises ``ValueError`` before anything runs, as do fewer than 10
    forward or kernel runs and a ``size`` that ``_check_size`` rejects.
    """
    for name, runs in (("forward_runs", forward_runs), ("kernel_runs", kernel_runs)):
        if runs < _MIN_RUNS:
            raise ValueError(f"{name} must be at least {_MIN_RUNS}, got {runs}")
    if ops is not None:
        unmatched = [o for o in ops if not any(name.startswith(o) for name in _OPS)]
        if unmatched:
            raise ValueError(f"no benchmark op starts with {', '.join(map(repr, unmatched))}"
                             f" (ops: {', '.join(_OPS)})")
    _check_size(size, ops)
    rng = np.random.default_rng(seed)
    reports: list[BenchReport] = []
    half = size // 2

    grid = FeatureGrid(rng.normal(size=(16, size, size)))
    if _wanted(ops, "dwt_haar"):
        reports.append(_report("dwt_haar", grid.shape, lambda: dwt_haar(grid),
                               kernel_runs, grid.data.size))
    bands = dwt_haar(grid)
    if _wanted(ops, "idwt_haar"):
        reports.append(_report("idwt_haar", grid.shape, lambda: idwt_haar(bands),
                               kernel_runs, grid.data.size))

    if _wanted(ops, "hilbert_build"):
        uncached = build_scan_order.__wrapped__
        reports.append(_report("hilbert_build", (half, half),
                               lambda: uncached(ScanKind.HILBERT, half, half),
                               kernel_runs, half * half))
    if _wanted(ops, "serialize_roundtrip"):
        order = build_scan_order(ScanKind.HILBERT, half, half)
        sub = FeatureGrid(rng.normal(size=(16, half, half)))
        reports.append(_report("serialize_roundtrip", sub.shape,
                               lambda: deserialize(serialize(sub, order), order),
                               kernel_runs, sub.data.size))

    length, channels, states = (half // 2) ** 2, 16, 8
    psi = SsmParams.random(channels, states, seed=seed)
    tokens = rng.normal(size=(length, channels))
    if _wanted(ops, "ssm_scan_parallel"):
        reports.append(_report("ssm_scan_parallel", (length, channels),
                               lambda: ssm_scan_parallel(psi, tokens),
                               kernel_runs, tokens.size,
                               flops.scan_macs(length, channels, states, True)))

    carrier = FeatureGrid(rng.normal(size=(16, half, half)))
    if _wanted(ops, "fa_scan"):
        reports.append(_report("fa_scan", carrier.shape,
                               lambda: fa_scan(carrier, psi),
                               kernel_runs, carrier.data.size,
                               flops.fa_scan_macs(16, half, half, states)))
    if _wanted(ops, "cross_scan"):
        reports.append(_report("cross_scan", carrier.shape,
                               lambda: cross_scan(carrier, psi),
                               kernel_runs, carrier.data.size,
                               flops.cross_scan_macs(16, half, half, states)))

    if _wanted(ops, "forward"):
        cfg = PipelineConfig(seed=seed)
        weights = default_weights(cfg)
        image = FeatureGrid(rng.uniform(size=(1, size, size)))
        reports.append(_report("forward", image.shape,
                               lambda: forward(image, cfg, weights),
                               forward_runs, size * size,
                               flops.flop_estimate(cfg, (size, size))["total"]))
    return reports
