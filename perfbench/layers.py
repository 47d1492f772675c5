"""Per-layer metrics computed from traced spans.

Every metric is a per-op value: the spans of each traced op are reduced on
their own and the benchmark reports the median over ops (over set-ups for
the set-up layers).  ``pipeline.<key>`` metrics use the key names of
``wavescan.flops.flop_estimate``; their MAC rates divide those model counts
by measured time, so the MACs are computed, not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times

STAGES = (1, 2, 3, 4)
STAGE_PARTS = ("align", "scan", "lgb", "asgp", "merge")
PIPELINE_KEYS = (["stem"]
                 + [f"s{n}.{part}" for n in STAGES for part in STAGE_PARTS]
                 + ["down1", "down2", "down3", "gfa", "brm", "head"])

# Direct children of an encoder_block span, by the flop_estimate part they
# belong to.  Anything else directly under a block is unattributed.
BLOCK_CHILDREN = {
    "pipeline.align": "align",
    "ssm.SsmParams.from_store": "scan",
    "fablock.fa_scan": "scan",
    "fablock.lgb": "lgb",
    "asgp.coarse_potential": "asgp",
    "asgp.evolve_probes": "asgp",
    "asgp.refine_mask": "asgp",
    "asgp.asgp_gate": "asgp",
    "wavelet.dwt_haar": "merge",
    "wavelet.idwt_haar": "merge",
}
FORWARD_CHILDREN = {
    "pipeline.stem": "stem",
    "pipeline.gfa": "gfa",
    "pipeline.brm": "brm",
    "grid.resize_bilinear": "upsample",
    "nn.conv1x1": "head",
    "nn.sigmoid": "head",
    "grid.FeatureGrid": "head",
}

# Layers whose work happens while a workload sets up, not during an op.
SETUP_METRICS = ("synth.generate_sample.self_ms", "pipeline.default_weights.ms")

SELF_MS = [
    "nn.conv2d", "nn.conv1x1", "nn.depthwise_conv2d", "ssm.ssm_scan_parallel",
    "wavelet.dwt_haar", "wavelet.idwt_haar", "scanorder.serialize",
    "scanorder.deserialize", "grid.FeatureGrid", "grid.resize_bilinear",
    "grid.sample_px", "asgp.coarse_potential", "asgp.evolve_probes",
    "asgp.refine_mask", "asgp.asgp_gate", "metrics.cldice", "metrics.skeletonize",
    "metrics.ods", "metrics.region_metrics", "fileio.load_pgm", "cli.main",
    "cli.cmd_eval",
]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [m for key in PIPELINE_KEYS
     for m in ((f"pipeline.{key}.ms", "ms", "lower"),
               (f"pipeline.{key}.gmac_s", "GMAC/s", "higher"))]
    + [(f"{name}.self_ms", "ms", "lower") for name in SELF_MS]
    + [
        ("nn.conv2d.calls", "count", "lower"),
        ("nn.conv2d.im2col_mb", "MB", "lower"),
        ("ssm.ssm_scan_parallel.calls", "count", "lower"),
        ("ssm.tokens", "count", "lower"),
        ("scanorder.build_scan_order.hit_ratio", "ratio", "higher"),
        ("grid.FeatureGrid.count", "count", "lower"),
        ("metrics.skeletonize.calls", "count", "lower"),
        ("fileio.load_pgm.mb", "MB", "lower"),
        ("synth.generate_sample.self_ms", "ms", "lower"),
        ("pipeline.default_weights.ms", "ms", "lower"),
    ]
    + [(f"fablock.cross_scan.s{n}.ms", "ms", "lower") for n in STAGES]
    + [(f"fablock.fa_over_cross.s{n}", "ratio", "lower") for n in STAGES]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def pipeline_keys(spans, lo: int, hi: int) -> list[str | None]:
    """flop_estimate key of each span in spans[lo:hi], or None.

    Stage work is attributed through the enclosing encoder_block span's
    stage argument; a direct child of a block or of forward that has no
    key is named ``unattributed:<span>`` so coverage checks can see it.
    """
    keys: list[str | None] = []
    for name, _, _, parent, attrs in spans[lo:hi]:
        key = None
        pname = spans[parent][0] if parent >= 0 else None
        if pname == "pipeline.forward":
            if name == "pipeline.downsample":
                key = f"down{attrs['stage']}"
            elif name not in ("pipeline.encoder_block", "pipeline.default_weights"):
                key = FORWARD_CHILDREN.get(name, f"unattributed:{name}")
        elif pname == "pipeline.encoder_block":
            part = BLOCK_CHILDREN.get(name)
            stage = spans[parent][4]["stage"]
            key = f"s{stage}.{part}" if part else f"unattributed:{name}"
        keys.append(key)
    return keys


def op_profile(spans, lo: int, hi: int, stage_of_channels: dict[int, int]) -> dict[str, float]:
    """Flat per-op values (ms, counts, MB) of the spans in spans[lo:hi]."""
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans, lo, hi)
    keys = pipeline_keys(spans, lo, hi)
    for (name, start, end, _, attrs), self_ns, key in zip(spans[lo:hi], own, keys):
        dur_ms = (end - start) / 1e6
        out[f"{name}.self_ms"] += self_ns / 1e6
        out[f"{name}.calls"] += 1
        if key is not None:
            out[f"pipeline.{key}.ms"] += dur_ms
        if name == "pipeline.default_weights":
            out["pipeline.default_weights.ms"] += dur_ms
        elif name == "nn.conv2d":
            out["nn.conv2d.im2col_mb"] += attrs["im2col_bytes"] / 1e6
        elif name == "ssm.ssm_scan_parallel":
            out["ssm.tokens"] += attrs["tokens"]
        elif name == "fileio.load_pgm":
            out["fileio.load_pgm.mb"] += attrs["bytes"] / 1e6
        elif name == "fablock.cross_scan":
            stage = stage_of_channels.get(attrs["channels"], 0)
            out[f"fablock.cross_scan.s{stage}.ms"] += dur_ms
    out["grid.FeatureGrid.count"] = out.get("grid.FeatureGrid.calls", 0.0)
    return dict(out)


def median_profile(profiles: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over ops; an op without a name counts as 0."""
    names = set().union(*profiles) if profiles else set()
    return {n: statistics.median(p.get(n, 0.0) for p in profiles) for n in names}


def gmac_rates(profile: dict[str, float], macs: dict[str, int] | None) -> dict[str, float]:
    """pipeline.<key>.gmac_s from the model MAC counts and the measured ms."""
    rates = {}
    for key in PIPELINE_KEYS:
        ms = profile.get(f"pipeline.{key}.ms", 0.0)
        rates[f"pipeline.{key}.gmac_s"] = (macs[key] / (ms / 1e3) / 1e9
                                           if macs and ms > 0 else 0.0)
    return rates


def span_problems(spans, lo: int, hi: int, wall_ns: int, macs: dict[str, int] | None,
                  share: float) -> list[str]:
    """Checks on one traced op: its self times add up to its wall time within
    ``share``, and a forward op's spans cover exactly the flop_estimate keys."""
    problems = []
    covered = sum(self_times(spans, lo, hi))
    if abs(covered - wall_ns) > share * wall_ns:
        problems.append(f"trace: self times sum to {covered / wall_ns:.4f} of the op wall time")
    if macs is not None:
        # Keys with no work (sN.asgp under gate=unit) have no spans either.
        want = {k for k, v in macs.items() if k != "total" and v > 0}
        got = {k for k in pipeline_keys(spans, lo, hi) if k is not None}
        if got != want:
            problems.append(f"trace: spans and flop_estimate differ in {sorted(got ^ want)}")
    return problems
