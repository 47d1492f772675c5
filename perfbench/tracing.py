"""In-memory span recorder that wraps the package's public functions from outside.

``Tracer.install`` rebinds every public function of the layer modules, in
every loaded ``wavescan`` module that holds a reference to it (``conv2d`` is
bound in ``nn``, ``pipeline``, ``fablock`` and ``asgp``), to a wrapper that
records one span per call.  ``Tracer.uninstall`` puts the original objects
back, so an untraced run executes exactly the code a user runs.

A span is ``[name, start_ns, end_ns, parent_index, attrs]``.  Spans are
appended when the call starts, so the spans of one benchmark op form a
contiguous slice of ``Tracer.spans`` and every parent precedes its children.
A span's self time is its duration minus the durations of its direct
children; with one thread the children never overlap, so that equals the
duration minus the part of the interval they cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

LAYERS = ("pipeline", "nn", "ssm", "fablock", "wavelet", "scanorder", "grid",
          "asgp", "metrics", "fileio", "synth", "cli")


def _stage_arg(args, kwargs):
    return {"stage": args[3] if len(args) > 3 else kwargs.get("stage", 1)}


def _conv2d_attrs(args, kwargs):
    x, w = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    c_in, h, width = x.shape
    kh, kw = w.shape[2], w.shape[3]
    out_h, out_w = -(-h // stride), -(-width // stride)
    return {"im2col_bytes": c_in * kh * kw * out_h * out_w * 8}


def _scan_attrs(args, kwargs):
    u = args[1]
    return {"tokens": int(getattr(u, "size", 0))}


def _pgm_attrs(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _cross_scan_attrs(args, kwargs):
    return {"channels": args[0].channels}


# Arguments the per-layer metrics need, read at the call boundary.
ANNOTATE = {
    "pipeline.encoder_block": _stage_arg,
    "pipeline.downsample": _stage_arg,
    "nn.conv2d": _conv2d_attrs,
    "ssm.ssm_scan_parallel": _scan_attrs,
    "fileio.load_pgm": _pgm_attrs,
    "fablock.cross_scan": _cross_scan_attrs,
}


def _public_functions(module):
    """(name, object) for every public function defined in ``module``."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            attrs = annotate(args, kwargs) if annotate else None
            span = [name, clock(), 0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _rebind(self, holder, attr, new):
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"wavescan.{layer}") for layer in LAYERS}
        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wavescan" or n.startswith("wavescan."))]
        for layer, module in modules.items():
            for attr, fn in list(_public_functions(module)):
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, name, wrapper)
        # Grid construction and its finiteness check run in __post_init__,
        # which the dataclass __init__ looks up on the class at every call.
        grid_cls = modules["grid"].FeatureGrid
        self._rebind(grid_cls, "__post_init__",
                     self._wrap("grid.FeatureGrid", grid_cls.__post_init__))
        params_cls = modules["ssm"].SsmParams
        from_store = vars(params_cls)["from_store"].__func__
        self._rebind(params_cls, "from_store",
                     classmethod(self._wrap("ssm.SsmParams.from_store", from_store)))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


def self_times(spans, lo: int, hi: int) -> list[int]:
    """Self time in ns of spans[lo:hi], a slice that holds whole call trees."""
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[3] >= lo:
            own[s[3] - lo] -= s[2] - s[1]
    return own
