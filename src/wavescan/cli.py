"""Unified command line: diagnostics, generation and evaluation.

Outputs are diffable text artifacts only: CSV with a header row, binary
P5 PGM images, FGT1 tensors and .fgw weight bundles.  Every subcommand
is deterministic given its seed flags, and the exit status is 0 exactly
when all requested checks pass.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .asgp import (
    asgp_gate,
    asgp_weight_spec,
    coarse_potential,
    evolve_probes,
    init_probes,
    refine_mask,
)
from .errors import ConfigError, DimensionError
from .fablock import ScanAssignment, fa_scan
from .grid import FeatureGrid
from .metrics import _OdsCounts, cldice, region_metrics
from .pipeline import PipelineConfig, _check_input, default_weights, forward
from .ssm import SsmParams
from .synth import _MIN_BEZIER_WIDTH, _MIN_SIDE, SynthConfig, generate_sample
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


def _check_at_least(flag: str, value: float, least: float) -> None:
    """Raise a ValueError naming ``flag`` and its value when it is below ``least``."""
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


# ---------------------------------------------------------------- subcommands


def cmd_probe_demo(args) -> int:
    _check_at_least("--seed", args.seed, 0)
    _check_at_least("--size", args.size, _MIN_BEZIER_WIDTH)  # a bezier canvas
    _check_at_least("--steps", args.steps, 0)
    _check_at_least("--probes", args.probes, 1)
    sample = generate_sample(SynthConfig(
        height=args.size, width=args.size, curves=2, orientation="bezier",
        contrast=0.8, texture=0.3, seed=args.seed,
    ))
    carrier = sample.image
    embed_dim = 8
    store = seeded_init(asgp_weight_spec(carrier.channels, embed_dim, args.probes), args.seed)
    probes = init_probes(args.probes, store["asgp.probe_embed"], args.seed)
    m0 = coarse_potential(probes, carrier, store)
    trajectory: list[np.ndarray] = []
    refined = evolve_probes(m0, carrier, probes, args.steps, store, trajectory=trajectory)
    m1 = refine_mask(refined, (carrier.height, carrier.width))
    unit = FeatureGrid(np.ones((1, carrier.height, carrier.width)))
    gate = asgp_gate(m0, m1, [unit])[0].data[0]
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


_CONFIG_KEYS = ("channels", "stem_stride", "state_dim", "seed", "policy", "gate", "assign",
               "probes", "steps")


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
    for key in ("stem_stride", "state_dim", "seed", "probes", "steps"):
        if key in fields:
            kwargs[key] = _config_number(key, fields[key], int)
    if "policy" in fields:
        kwargs["policy"] = fields["policy"]
    if "gate" in fields:
        kwargs["gate_mode"] = fields["gate"]
    if "assign" in fields:
        kwargs["assign"] = ScanAssignment.parse(fields["assign"])
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return PipelineConfig(**kwargs)


def cmd_forward(args) -> int:
    if args.seed is not None:
        _check_at_least("--seed", args.seed, 0)
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
    try:
        _check_input(cfg, *image.shape)
    except DimensionError as exc:
        raise ValueError(f"--image {args.image}: {exc}") from None
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
    float path's exactly, and no float image is built.  A pair's codes go
    into the ODS counts first and are dropped once the hit mask is built,
    so scoring holds one copy of each mask.
    """
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"--threshold must lie in (0, 1), got {args.threshold}")
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    names = sorted(p.name for p in pred_dir.glob("*.pgm"))
    pairs = [(n, pred_dir / n, gt_dir / n) for n in names if (gt_dir / n).exists()]
    if not pairs:
        print(f"error: no matching .pgm pairs under {pred_dir} and {gt_dir}",
              file=sys.stderr)
        return 1
    # One pass: each pair is read, added to the ODS counts, scored, then dropped.
    hit_of_code = np.arange(256) / 255.0 >= args.threshold
    tally, rows = _OdsCounts(), []
    for name, ppath, gpath in pairs:
        codes = fileio.load_pgm_codes(ppath)
        gt = fileio.load_pgm_codes(gpath) >= 128
        tally.add_codes(codes, gt)
        hit = hit_of_code[codes]
        del codes
        m = region_metrics(hit, gt, args.threshold)
        cd = cldice(hit, gt)
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
    _check_at_least("--seed", args.seed, 0)
    _check_at_least("--count", args.count, 1)
    _check_at_least("--size", args.size,
                    _MIN_BEZIER_WIDTH if args.orientation == "bezier" else _MIN_SIDE)
    _check_at_least("--curves", args.curves, 1)
    _check_at_least("--width-min", args.width_min, 1)
    _check_at_least("--width-max", args.width_max, args.width_min)
    for flag, value in (("--contrast", args.contrast), ("--texture", args.texture)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not 0.0 < args.contrast <= 1.0:
        raise ValueError(f"--contrast must lie in (0, 1], got {args.contrast}")
    _check_at_least("--texture", args.texture, 0)
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
    _check_at_least("--seed", args.seed, 0)
    _check_at_least("--size", args.size, _MIN_SIDE)
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


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavescan",
        description="Frequency-geometric scan toolkit: diagnostics, generation "
                    "and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe-demo", help="probe evolution trajectories and masks")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--out-dir", default="probe_demo")

    p = sub.add_parser("forward", help="run the forward pipeline on a PGM image")
    p.add_argument("--image", required=True)
    p.add_argument("--weights", default=None, help=".fgw bundle (default: seeded)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--assign", default=None,
                   help="band traversals, e.g. ll=hilbert,lh=h,hl=v,hh=hilbert")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval", help="region/ODS/clDice metrics over mask directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out", default="eval.csv")
    p.add_argument("--threshold", type=float, default=0.5)

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

    p = sub.add_parser("mismatch-demo",
                       help="on-structure response: aligned vs swapped traversal")
    p.add_argument("--orientation", default="horizontal",
                   choices=["horizontal", "vertical"])
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="mismatch.csv")

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; callers get a fresh one from build_parser()."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    # Look the command up at call time, so a rebound module attribute is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
