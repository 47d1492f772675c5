"""The benchmark's workloads: inputs made from a seed, the timed op, output checks.

An op is the unit a workload times.  The program receives only the inputs
made here.  Calls go through module attributes (``pipeline.forward``, not a
local name) so that a traced run, which rebinds those attributes, reaches
the same code.

Every output is checked on every seed for shape, finiteness, value range
and bit-identical repetition on the same input.  For the default seed it is
also compared with the reference outputs in ``reference.json``, recorded by
``record_reference.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

from wavescan import cli, fablock, flops, pipeline, ssm, synth
from wavescan.grid import FeatureGrid

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Tolerances against the reference outputs.  Masks lie in [0, 1], so the
# forward tolerance is absolute; cross_scan values are scaled by the
# reference RMS when it exceeds 1.  Eval CSV cells are printed with six
# significant digits, so they must read the same.
FORWARD_ATOL = 1e-6
CROSS_TOL = 1e-6
EVAL_ATOL = 1e-6
SAMPLES = 128

STAGES = (1, 2, 3, 4)


def synth_config(size: int, seed: int):
    return synth.SynthConfig(height=size, width=size, curves=3, width_min=1, width_max=3,
                             orientation="bezier", contrast=0.8, texture=0.3, seed=seed)


def item_seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def sample_index(size: int) -> np.ndarray:
    """Fixed, numpy-version-independent positions spread over a flat array."""
    if size <= SAMPLES:
        return np.arange(size)
    return (np.arange(SAMPLES, dtype=np.int64) * 2654435761) % size


def array_fingerprint(arrays) -> list[dict]:
    out = []
    for arr in arrays:
        flat = np.asarray(arr, dtype=np.float64).ravel()
        out.append({
            "shape": list(np.shape(arr)),
            "mean": float(flat.mean()),
            "rms": float(np.sqrt(np.mean(flat * flat))),
            "values": flat[sample_index(flat.size)].tolist(),
        })
    return out


def compare_arrays(got: list[dict], ref: list[dict], tol: float, relative: bool) -> list[str]:
    if len(got) != len(ref):
        return [f"{len(got)} outputs, reference has {len(ref)}"]
    problems = []
    for n, (g, r) in enumerate(zip(got, ref)):
        if g["shape"] != r["shape"]:
            problems.append(f"output {n}: shape {g['shape']}, reference {r['shape']}")
            continue
        bound = tol * (max(1.0, r["rms"]) if relative else 1.0)
        diff = max([abs(g["mean"] - r["mean"]), abs(g["rms"] - r["rms"])]
                   + [abs(a - b) for a, b in zip(g["values"], r["values"])])
        if not diff <= bound:
            problems.append(f"output {n}: differs from reference by {diff:.3g} > {bound:.3g}")
    return problems


class Workload:
    """One named workload.  ``setup`` must run before ``op``."""

    name = ""
    pool = 1
    macs: dict[str, int] | None = None  # flop_estimate of one op, forward workloads only
    stage_of_channels: dict[int, int] = {}

    def __init__(self):
        self.digests: dict[int, str] = {}
        self.reference: list | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def invariants(self, k: int, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError

    def compare(self, got, ref) -> list[str]:
        raise NotImplementedError

    def verify(self, i: int, out) -> list[str]:
        """Problems with the output of op ``i``; empty when it is correct."""
        k = i % self.pool
        problems = self.invariants(k, out)
        if problems:
            return [f"input {k}: {p}" for p in problems]
        digest = self.digest(out)
        first = self.digests.get(k)
        if first is not None:
            # Repeats must be bit-identical, so only a first output needs
            # the reference comparison.
            if digest != first:
                return [f"input {k}: output differs from an earlier op on the same input"]
            return []
        self.digests[k] = digest
        if self.reference is not None:
            problems = self.compare(self.fingerprint(out), self.reference[k])
        return [f"input {k}: {p}" for p in problems]


class ForwardWorkload(Workload):
    """pipeline.forward with the default config on a pool of synth images."""

    def __init__(self, name: str, size: int, pool: int, stream: int):
        super().__init__()
        self.name, self.size, self.pool, self.stream = name, size, pool, stream
        self.cfg = pipeline.PipelineConfig()
        self.macs = flops.flop_estimate(self.cfg, (size, size))

    def setup(self, seed: int, workdir: Path) -> None:
        self.weights = pipeline.default_weights(self.cfg)
        self.images = [synth.generate_sample(synth_config(self.size, s)).image
                       for s in item_seeds(seed, self.stream, self.pool)]

    def op(self, i: int):
        return pipeline.forward(self.images[i % self.pool], self.cfg, self.weights)

    def invariants(self, k: int, out) -> list[str]:
        data = out.data
        if data.shape != (1, self.size, self.size):
            return [f"mask shape {data.shape}"]
        if not np.all(np.isfinite(data)):
            return ["mask has non-finite values"]
        # The seeded weights give logits beyond +-745 on some pixels, where a
        # float64 sigmoid reads exactly 0 or 1, so the range is closed.
        if not (data.min() >= 0.0 and data.max() <= 1.0):
            return [f"mask values span [{data.min()}, {data.max()}], not inside [0, 1]"]
        return []

    def digest(self, out) -> str:
        return hashlib.sha1(out.data.tobytes()).hexdigest()

    def fingerprint(self, out):
        return array_fingerprint([out.data])

    def compare(self, got, ref) -> list[str]:
        return compare_arrays(got, ref, FORWARD_ATOL, relative=False)


class CrossScanWorkload(Workload):
    """fablock.cross_scan over the four stage carriers of a 256x256 forward."""

    name = "cross-scan"

    def __init__(self):
        super().__init__()
        self.cfg = pipeline.PipelineConfig()
        self.stage_of_channels = {c: n for n, c in zip(STAGES, self.cfg.channels)}

    def setup(self, seed: int, workdir: Path) -> None:
        weights = pipeline.default_weights(self.cfg)
        self.params = [ssm.SsmParams.from_store(weights, f"s{n}.") for n in STAGES]
        rng = np.random.default_rng([seed, 3])
        self.carriers = [FeatureGrid(rng.normal(size=(c, 128 >> (n - 1), 128 >> (n - 1))))
                         for n, c in zip(STAGES, self.cfg.channels)]

    def op(self, i: int):
        return [fablock.cross_scan(x, psi) for x, psi in zip(self.carriers, self.params)]

    def invariants(self, k: int, out) -> list[str]:
        for n, (got, x) in enumerate(zip(out, self.carriers), start=1):
            if got.shape != x.shape:
                return [f"stage {n}: shape {got.shape}, carrier {x.shape}"]
            if not np.all(np.isfinite(got.data)):
                return [f"stage {n}: non-finite values"]
        return [] if len(out) == len(self.carriers) else [f"{len(out)} stage outputs"]

    def digest(self, out) -> str:
        h = hashlib.sha1()
        for grid in out:
            h.update(grid.data.tobytes())
        return h.hexdigest()

    def fingerprint(self, out):
        return array_fingerprint([grid.data for grid in out])

    def compare(self, got, ref) -> list[str]:
        return compare_arrays(got, ref, CROSS_TOL, relative=True)


def _dilate(mask: np.ndarray) -> np.ndarray:
    padded = np.pad(mask, 1)
    h, w = mask.shape
    return np.any([padded[r:r + h, c:c + w] for r in range(3) for c in range(3)], axis=0)


def _write_pgm(path: Path, values: np.ndarray) -> None:
    pixels = np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


EVAL_HEADER = ["image_id", "threshold", "miou", "f1", "precision", "recall", "cldice"]


class EvalWorkload(Workload):
    """One in-process ``wavescan eval`` pass over 8 seeded 256x256 pairs.

    Each pair is an exact synth mask and a prediction derived from it,
    thickened by one pixel and noised.  The last pair's prediction equals
    its mask, and that row must score F1 = clDice = mIoU = 1.  Zhang-Suen
    thinning takes from 3 to about 30 passes depending on the curves, so
    ops cycle over a pool of 8 such sets to average that cost in every run.
    """

    name = "eval-256"
    pool = 8
    pairs = 8
    size = 256

    def setup(self, seed: int, workdir: Path) -> None:
        root = workdir / "eval"
        shutil.rmtree(root, ignore_errors=True)
        rng = np.random.default_rng([seed, 4])
        seeds = item_seeds(seed, 5, self.pool * self.pairs)
        self.sets = []
        for k in range(self.pool):
            pred_dir, gt_dir = root / f"set{k}" / "pred", root / f"set{k}" / "gt"
            pred_dir.mkdir(parents=True)
            gt_dir.mkdir()
            for n, s in enumerate(seeds[k * self.pairs:(k + 1) * self.pairs]):
                gt = synth.generate_sample(synth_config(self.size, s)).gt
                if n == self.pairs - 1:
                    pred = gt.astype(np.float64)
                else:
                    pred = 0.7 * _dilate(gt) + 0.15 + rng.normal(0.0, 0.2, gt.shape)
                _write_pgm(pred_dir / f"pair{n}.pgm", np.clip(pred, 0.0, 1.0))
                _write_pgm(gt_dir / f"pair{n}.pgm", gt.astype(np.float64))
            csv_path = root / f"set{k}" / "eval.csv"
            self.sets.append((csv_path, ["eval", "--pred-dir", str(pred_dir), "--gt-dir",
                                         str(gt_dir), "--out", str(csv_path)]))

    def op(self, i: int):
        csv_path, argv = self.sets[i % self.pool]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        return status, csv_path.read_text()

    @staticmethod
    def _rows(text: str):
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0] if rows else [], [
            [row[0]] + [float(cell) if cell else None for cell in row[1:]] for row in rows[1:]
        ]

    def invariants(self, k: int, out) -> list[str]:
        status, text = out
        if status != 0:
            return [f"eval exited with status {status}"]
        header, rows = self._rows(text)
        names = [f"pair{n}.pgm" for n in range(self.pairs)] + ["ODS", "MEAN_CLDICE"]
        if header != EVAL_HEADER or [r[0] for r in rows] != names:
            return [f"unexpected CSV layout: {header} / {[r[0] for r in rows]}"]
        values = [v for r in rows for v in r[1:] if v is not None]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            return ["a metric lies outside [0, 1]"]
        oracle = rows[self.pairs - 1]
        if (oracle[2], oracle[3], oracle[6]) != (1.0, 1.0, 1.0):
            return [f"pred == gt pair scores mIoU/F1/clDice {oracle[2]}/{oracle[3]}/{oracle[6]}"]
        mean_cldice = sum(r[6] for r in rows[:self.pairs]) / self.pairs
        if abs(rows[-1][6] - mean_cldice) > 1e-5:
            return [f"MEAN_CLDICE {rows[-1][6]} is not the mean {mean_cldice}"]
        return []

    def digest(self, out) -> str:
        return hashlib.sha1(out[1].encode()).hexdigest()

    def fingerprint(self, out):
        return self._rows(out[1])[1]

    def compare(self, got, ref) -> list[str]:
        for g, r in zip(got, ref):
            for a, b in zip(g[1:], r[1:]):
                if (a is None) != (b is None) or (a is not None and abs(a - b) > EVAL_ATOL):
                    return [f"row {g[0]} reads {g[1:]}, reference {r[1:]}"]
        return [] if len(got) == len(ref) else [f"{len(got)} rows, reference {len(ref)}"]


def make(name: str) -> Workload:
    if name == "seg-256":
        return ForwardWorkload("seg-256", 256, pool=4, stream=1)
    if name == "tiles-64":
        return ForwardWorkload("tiles-64", 64, pool=16, stream=2)
    if name == "eval-256":
        return EvalWorkload()
    if name == "cross-scan":
        return CrossScanWorkload()
    raise ValueError(f"unknown workload {name!r}")


# The benchmark's workloads, as BENCHMARK.json lists them.
NAMES = ("seg-256", "tiles-64", "eval-256")
# cross-scan also runs in every traced run, for the fablock metrics, and can be
# run by hand.  It is not an end-to-end workload: its strip recurrence is bound
# by memory latency, and on the shared test machine the medians of ten runs
# spread by 0.256, more than the largest bound the benchmark format allows.
ALL = NAMES + ("cross-scan",)
