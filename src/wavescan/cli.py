"""Unified command line: diagnostics, generation, evaluation, benchmarks.

Outputs are diffable text artifacts only: CSV with a header row, binary
P5 PGM images, FGT1 tensors and .fgw weight bundles.  Every subcommand
is deterministic given its seed flags (bench timings excepted), and the
exit status is 0 exactly when all requested checks pass.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .asgp import (
    AsgpConfig,
    asgp_gate,
    asgp_weight_spec,
    coarse_potential,
    evolve_probes,
    init_probes,
    refine_mask,
)
from .bench import run_benchmarks
from .errors import ConfigError
from .fablock import ScanAssignment, fa_scan
from .grid import FeatureGrid
from .metrics import _OdsCounts, cldice, region_metrics
from .pipeline import PipelineConfig, default_weights, forward
from .scanorder import ScanKind, build_scan_order, locality_cost, serialize
from .ssm import SsmParams
from .synth import SynthConfig, generate_sample
from .wavelet import dwt_haar, idwt_haar
from .weights import WeightStore, seeded_init


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------- subcommands


def cmd_dwt_roundtrip(args) -> int:
    rng = np.random.default_rng(args.seed)
    grid = FeatureGrid(rng.normal(size=(args.channels, args.size, args.size)))
    bands = dwt_haar(grid)
    recon = idwt_haar(bands, args.size, args.size)
    err = float(np.abs(recon.data - grid.data).max())
    # The transform is orthonormal on the edge-padded grid it splits, so an
    # odd size is compared with the energy of that grid, not of the input.
    pad = args.size % 2
    padded = np.pad(grid.data, ((0, 0), (0, pad), (0, pad)), mode="edge")
    energy_in = float((padded ** 2).sum())
    energy_out = float(sum((b.data ** 2).sum() for b in (bands.ll, bands.lh, bands.hl, bands.hh)))
    rel = abs(energy_in - energy_out) / energy_in
    passed = err < 1e-5 and rel < 1e-5
    print(f"max reconstruction error: {err:.3e}")
    print(f"relative energy mismatch: {rel:.3e}")
    _write_csv(args.out,
               ["size", "channels", "seed", "max_recon_error", "energy_rel_error", "pass"],
               [[args.size, args.channels, args.seed, _fmt(err), _fmt(rel), int(passed)]])
    return 0 if passed else 1


def cmd_scan_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValueError(f"--sizes wants comma-separated integers, got {args.sizes!r}") from None
    rows = []
    for size in sizes:
        grid = FeatureGrid(np.random.default_rng(0).normal(size=(4, size, size)))
        for kind in ScanKind:
            start = time.perf_counter_ns()
            order = build_scan_order.__wrapped__(kind, size, size)
            build_ns = time.perf_counter_ns() - start
            reps = max(3, 2_000_000 // (size * size))
            start = time.perf_counter()
            for _ in range(reps):
                serialize(grid, order)
            elapsed = time.perf_counter() - start
            throughput = reps * grid.data.size / elapsed
            rows.append([kind.value, size, size, _fmt(locality_cost(order)),
                         build_ns, _fmt(throughput)])
    _write_csv(args.out, ["kind", "H", "W", "locality_cost", "build_time_ns",
                          "serialize_throughput_elems_per_s"], rows)
    print(f"wrote {args.out}")
    return 0


def cmd_probe_demo(args) -> int:
    sample = generate_sample(SynthConfig(
        height=args.size, width=args.size, curves=2, orientation="bezier",
        contrast=0.8, texture=0.3, seed=args.seed,
    ))
    carrier = sample.image
    cfg = AsgpConfig(steps=args.steps, probes=args.probes)
    embed_dim = 8
    store = seeded_init(asgp_weight_spec(carrier.channels, embed_dim, cfg.probes), args.seed)
    probes = init_probes(cfg.probes, store["asgp.probe_embed"], args.seed)
    m0 = coarse_potential(probes, carrier, store)
    trajectory: list[np.ndarray] = []
    refined = evolve_probes(m0, carrier, probes, cfg, store, trajectory=trajectory)
    m1 = refine_mask(refined, (carrier.height, carrier.width), cfg)
    unit = FeatureGrid(np.ones((1, carrier.height, carrier.width)))
    gate = asgp_gate(m0, m1, [unit], cfg)[0].data[0]
    rows = [
        [t, i, _fmt(float(coords[i, 0])), _fmt(float(coords[i, 1]))]
        for t, coords in enumerate(trajectory)
        for i in range(coords.shape[0])
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "probes.csv", ["t", "i", "x", "y"], rows)
    fileio.save_pgm(out_dir / "m0.pgm", m0.data[0])
    fileio.save_pgm(out_dir / "m1.pgm", m1.data[0])
    fileio.save_pgm(out_dir / "m.pgm", gate)
    print(f"wrote probes.csv, m0.pgm, m1.pgm, m.pgm under {out_dir}")
    return 0


_CONFIG_KEYS = ("channels", "stem_kernel", "stem_stride", "state_dim", "seed", "policy",
               "gate", "max_offset", "assign", "probes", "steps")


def _config_number(key: str, text: str, kind, sep: str | None = None):
    """``kind(text)``, or a tuple of it over ``sep``-separated items; ConfigError names the key."""
    try:
        if sep is None:
            return kind(text)
        return tuple(kind(item) for item in text.split(sep))
    except ValueError:
        want = "an integer" if kind is int else "a number"
        if sep is not None:
            want = f"{want} per {sep!r}-separated item"
        raise ConfigError(f"config key {key!r} wants {want}, got {text!r}") from None


def parse_config_text(lines, seed_override: int | None = None) -> PipelineConfig:
    """Parse plain key=value lines into a pipeline configuration.

    An unknown key raises ConfigError naming it.
    """
    fields: dict[str, str] = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {line!r}, want key=value")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}, "
                              f"want one of {', '.join(_CONFIG_KEYS)}")
        fields[key] = value.strip()
    kwargs: dict = {}
    if "channels" in fields:
        kwargs["channels"] = _config_number("channels", fields["channels"], int, ",")
    for key in ("stem_kernel", "stem_stride", "state_dim", "seed"):
        if key in fields:
            kwargs[key] = _config_number(key, fields[key], int)
    if "policy" in fields:
        kwargs["policy"] = fields["policy"]
    if "gate" in fields:
        kwargs["gate_mode"] = fields["gate"]
    if "max_offset" in fields:
        kwargs["max_offset"] = _config_number("max_offset", fields["max_offset"], float)
    if "assign" in fields:
        kwargs["assign"] = ScanAssignment.parse(fields["assign"])
    asgp_kwargs: dict = {}
    for key, attr in (("probes", "probes"), ("steps", "steps")):
        if key in fields:
            asgp_kwargs[attr] = _config_number(key, fields[key], int)
    if asgp_kwargs:
        kwargs["asgp"] = AsgpConfig(**asgp_kwargs)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return PipelineConfig(**kwargs)


def cmd_forward(args) -> int:
    try:
        image = fileio.load_pgm(args.image)
    except OSError as exc:
        print(f"error: cannot read image {args.image}: {exc}", file=sys.stderr)
        return 1
    lines = []
    if args.config:
        try:
            lines = Path(args.config).read_text().splitlines()
        except OSError as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1
    if args.assign:
        lines.append(f"assign = {args.assign}")
    cfg = parse_config_text(lines, seed_override=args.seed)
    if args.weights:
        try:
            weights = WeightStore.load(args.weights)
        except OSError as exc:
            print(f"error: cannot read weights {args.weights}: {exc}", file=sys.stderr)
            return 1
    else:
        weights = default_weights(cfg)
    grid = FeatureGrid(image[None, :, :])
    mask = forward(grid, cfg, weights)
    fileio.save_pgm(args.out, mask.data[0])
    print(f"wrote {args.out} (mask mean {mask.data.mean():.4f})")
    return 0


def cmd_eval(args) -> int:
    """Score each pred/gt PGM pair of the same name, then the dataset's ODS and mean clDice.

    Pairs are scored on their 8-bit codes.  ``load_pgm`` reads code v as
    v / 255, so a float image holds only those 256 values: the hit mask is
    a 256-entry table of v / 255 >= threshold, the ground truth is v >= 128
    (v / 255 >= 128 / 255, as division by 255 keeps the order), and the ODS
    counts bin the 256 values once.  Each count, and so the CSV, equals the
    float path's exactly, and no float image is built.
    """
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    names = sorted(p.name for p in pred_dir.glob("*.pgm"))
    pairs = [(n, pred_dir / n, gt_dir / n) for n in names if (gt_dir / n).exists()]
    if not pairs:
        print(f"error: no matching .pgm pairs under {pred_dir} and {gt_dir}",
              file=sys.stderr)
        return 1
    # One pass: each pair is read, scored and added to the ODS counts, then dropped.
    hit_of_code = np.arange(256) / 255.0 >= args.threshold
    tally, rows = _OdsCounts(), []
    for name, ppath, gpath in pairs:
        codes = fileio.load_pgm_codes(ppath)
        gt = fileio.load_pgm_codes(gpath) >= 128
        hit = hit_of_code[codes]
        m = region_metrics(hit, gt, args.threshold)
        cd = cldice(hit, gt)
        tally.add_codes(codes, gt)
        rows.append([name, _fmt(args.threshold), _fmt(m.miou), _fmt(m.f1),
                     _fmt(m.precision), _fmt(m.recall), _fmt(cd)])
    best = tally.best()
    mean_cldice = float(np.mean([float(r[6]) for r in rows]))
    rows.append(["ODS", _fmt(best.threshold), "", _fmt(best.f1), "", "", ""])
    rows.append(["MEAN_CLDICE", "", "", "", "", "", _fmt(mean_cldice)])
    _write_csv(args.out, ["image_id", "threshold", "miou", "f1", "precision",
                          "recall", "cldice"], rows)
    print(f"wrote {args.out}: ODS={best.f1:.4f} @ {best.threshold:.2f}, "
          f"mean clDice={mean_cldice:.4f}")
    return 0


def cmd_synth_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx in range(args.count):
        cfg = SynthConfig(
            height=args.size, width=args.size, curves=args.curves,
            width_min=args.width_min, width_max=args.width_max,
            orientation=args.orientation, contrast=args.contrast,
            texture=args.texture, seed=args.seed + idx,
        )
        sample = generate_sample(cfg)
        suffix = "" if args.count == 1 else f"_{idx:03d}"
        names = [f"image{suffix}.pgm", f"gt{suffix}.pgm", f"skeleton{suffix}.pgm"]
        fileio.save_pgm(out_dir / names[0], sample.image.data[0])
        fileio.save_pgm(out_dir / names[1], sample.gt.astype(np.float64))
        fileio.save_pgm(out_dir / names[2], sample.skeleton.astype(np.float64))
        rows.append([idx, cfg.seed, cfg.orientation, cfg.curves, cfg.width_min,
                     cfg.width_max, _fmt(cfg.contrast), _fmt(cfg.texture),
                     _fmt(float(sample.gt.mean())), *names])
    _write_csv(out_dir / "manifest.csv",
               ["sample", "seed", "orientation", "curves", "width_min", "width_max",
                "contrast", "texture", "fg_fraction", "image", "gt", "skeleton"], rows)
    print(f"wrote {args.count} sample(s) and manifest.csv under {out_dir}")
    return 0


def cmd_mismatch_demo(args) -> int:
    sample = generate_sample(SynthConfig(
        height=args.size, width=args.size, curves=1, orientation=args.orientation,
        contrast=1.0, texture=0.0, seed=args.seed,
    ))
    carrier = FeatureGrid(sample.gt[None, :, :].astype(np.float64))
    psi = SsmParams.static(1, transition=0.5)
    aligned = fa_scan(carrier, psi, ScanAssignment())
    swapped = fa_scan(carrier, psi, ScanAssignment.swapped())
    rows_idx, cols_idx = np.nonzero(sample.skeleton)
    along = np.argsort(cols_idx if args.orientation == "horizontal" else rows_idx)
    rows = []
    for pos, k in enumerate(along):
        r, c = int(rows_idx[k]), int(cols_idx[k])
        rows.append([pos, r, c,
                     _fmt(abs(float(aligned.data[0, r, c]))),
                     _fmt(abs(float(swapped.data[0, r, c])))])
    _write_csv(args.out, ["position", "row", "col", "aligned_response",
                          "swapped_response"], rows)
    mean_aligned = float(np.mean([float(r[3]) for r in rows]))
    mean_swapped = float(np.mean([float(r[4]) for r in rows]))
    print(f"on-structure mean response: aligned={mean_aligned:.4f} "
          f"swapped={mean_swapped:.4f}")
    return 0 if mean_aligned > mean_swapped else 1


def cmd_bench(args) -> int:
    ops = args.ops.split(",") if args.ops else None
    reports = run_benchmarks(size=args.size, forward_runs=args.runs, ops=ops,
                             seed=args.seed)
    rows = [[r.op, r.shape, r.iterations, _fmt(r.min_s), _fmt(r.median_s),
             _fmt(r.throughput), r.flops] for r in reports]
    _write_csv(args.out, ["op", "shape", "iterations", "min_s", "median_s",
                          "throughput_elems_per_s", "flops_macs"], rows)
    for row in rows:
        print(" ".join(str(v) for v in row))
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavescan",
        description="Frequency-geometric scan toolkit: diagnostics, generation, "
                    "evaluation and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dwt-roundtrip", help="verify split/merge invertibility")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="dwt_roundtrip.csv")
    p.set_defaults(fn=cmd_dwt_roundtrip)

    p = sub.add_parser("scan-bench", help="locality and throughput of scan orders")
    p.add_argument("--sizes", default="8,16,32,64")
    p.add_argument("--out", default="scan_bench.csv")
    p.set_defaults(fn=cmd_scan_bench)

    p = sub.add_parser("probe-demo", help="probe evolution trajectories and masks")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--out-dir", default="probe_demo")
    p.set_defaults(fn=cmd_probe_demo)

    p = sub.add_parser("forward", help="run the forward pipeline on a PGM image")
    p.add_argument("--image", required=True)
    p.add_argument("--weights", default=None, help=".fgw bundle (default: seeded)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--assign", default=None,
                   help="band traversals, e.g. ll=hilbert,lh=h,hl=v,hh=hilbert")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("eval", help="region/ODS/clDice metrics over mask directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out", default="eval.csv")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth-gen", help="generate synthetic thin-structure samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="synth")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--curves", type=int, default=1)
    p.add_argument("--width-min", type=int, default=1)
    p.add_argument("--width-max", type=int, default=3)
    p.add_argument("--orientation", default="bezier",
                   choices=["horizontal", "vertical", "axis-aligned", "diagonal", "bezier"])
    p.add_argument("--contrast", type=float, default=0.8)
    p.add_argument("--texture", type=float, default=0.3)
    p.set_defaults(fn=cmd_synth_gen)

    p = sub.add_parser("mismatch-demo",
                       help="on-structure response: aligned vs swapped traversal")
    p.add_argument("--orientation", default="horizontal",
                   choices=["horizontal", "vertical"])
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="mismatch.csv")
    p.set_defaults(fn=cmd_mismatch_demo)

    p = sub.add_parser("bench", help="median-timing benchmark of core kernels")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--runs", type=int, default=100, help="forward-pass iterations")
    p.add_argument("--ops", default=None, help="comma-separated op-name prefixes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(fn=cmd_bench)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; callers get a fresh one from build_parser()."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    # Look the command up by name at call time rather than through args.fn,
    # which holds the function bound when the cached parser was built, so a
    # module attribute rebound since (as a tracer does) is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
