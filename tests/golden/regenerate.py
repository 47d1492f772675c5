"""Record the golden forward masks that tests/test_golden.py compares against.

Each case runs one seeded forward pass at 64x64 on a fixed synthetic
image and writes its mask as a float32 FGT1 file next to this script.
Run it only at a commit whose forward outputs are known to be right,
because every later change is judged against these files:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from pathlib import Path

from wavescan import fileio
from wavescan.fablock import ScanAssignment
from wavescan.pipeline import PipelineConfig, forward
from wavescan.scanorder import ScanKind
from wavescan.synth import SynthConfig, generate_sample

GOLDEN_DIR = Path(__file__).resolve().parent
SIZE = 64

CASES = {
    "default": PipelineConfig(),
    "gate_unit": PipelineConfig(gate_mode="unit"),
    "stem_stride2": PipelineConfig(stem_stride=2),
    "hh_raster": PipelineConfig(assign=ScanAssignment(hh=ScanKind.RASTER)),
    "swapped": PipelineConfig(assign=ScanAssignment.swapped()),
}


def golden_input():
    """The fixed 64x64 input image: textured Bezier curves, seed 3."""
    return generate_sample(SynthConfig(
        height=SIZE, width=SIZE, curves=2, width_min=1, width_max=3,
        orientation="bezier", contrast=0.8, texture=0.3, seed=3,
    )).image


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.fgt"


def main() -> None:
    image = golden_input()
    for name, cfg in CASES.items():
        mask = forward(image, cfg)
        with open(golden_path(name), "wb") as fh:
            fileio.write_tensor(fh, mask.data)
        print(f"wrote {golden_path(name)} mean={mask.data.mean():.6f}")


if __name__ == "__main__":
    main()
