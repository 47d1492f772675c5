"""flop_estimate pinned to literal per-key MAC counts.

The counts were recorded from the hand-written model that preceded the
one driven by pipeline_weight_spec.  A changed block shape, a missed
term or a wrong resolution in the walk over stages shows as one
changed key.
"""

import pytest

from wavescan.fablock import ScanAssignment
from wavescan.flops import flop_estimate
from wavescan.pipeline import PipelineConfig
from wavescan.scanorder import ScanKind

_DEFAULT_64 = {
    "stem": 589824, "s1.align": 3751936, "s1.scan": 1196032, "s1.lgb": 184368,
    "s1.asgp": 1806080, "s1.merge": 524288, "down1": 4718592, "s2.align": 3645440,
    "s2.scan": 729088, "s2.lgb": 157792, "s2.asgp": 1178368, "s2.merge": 262144,
    "down2": 4718592, "s3.align": 3592192, "s3.scan": 495616, "s3.lgb": 146432,
    "s3.asgp": 1471232, "s3.merge": 131072, "down3": 4718592, "s4.align": 3565568,
    "s4.scan": 378880, "s4.lgb": 145920, "s4.asgp": 3755776, "s4.merge": 65536,
    "gfa": 12452352, "brm": 1310720, "head": 4096, "total": 55696528,
}
_GATE_UNIT_64 = {
    "stem": 589824, "s1.align": 3751936, "s1.scan": 1196032, "s1.lgb": 184368, "s1.asgp": 0,
    "s1.merge": 524288, "down1": 4718592, "s2.align": 3645440, "s2.scan": 729088,
    "s2.lgb": 157792, "s2.asgp": 0, "s2.merge": 262144, "down2": 4718592,
    "s3.align": 3592192, "s3.scan": 495616, "s3.lgb": 146432, "s3.asgp": 0,
    "s3.merge": 131072, "down3": 4718592, "s4.align": 3565568, "s4.scan": 378880,
    "s4.lgb": 145920, "s4.asgp": 0, "s4.merge": 65536, "gfa": 12452352, "brm": 1310720,
    "head": 4096, "total": 47485072,
}
_STEM_STRIDE2_64 = {
    "stem": 147456, "s1.align": 937984, "s1.scan": 299008, "s1.lgb": 46128,
    "s1.asgp": 540416, "s1.merge": 131072, "down1": 1179648, "s2.align": 911360,
    "s2.scan": 182272, "s2.lgb": 39520, "s2.asgp": 508672, "s2.merge": 65536,
    "down2": 1179648, "s3.align": 898048, "s3.scan": 123904, "s3.lgb": 38144,
    "s3.asgp": 1053440, "s3.merge": 32768, "down3": 1179648, "s4.align": 891392,
    "s4.scan": 94720, "s4.lgb": 42624, "s4.asgp": 3452416, "s4.merge": 16384,
    "gfa": 3113472, "brm": 327680, "head": 1024, "upsample": 16384, "total": 17450768,
}
_DEFAULT_256 = {
    "stem": 9437184, "s1.align": 60030976, "s1.scan": 19136512, "s1.lgb": 2949168,
    "s1.asgp": 27119360, "s1.merge": 8388608, "down1": 75497472, "s2.align": 58327040,
    "s2.scan": 11665408, "s2.lgb": 2523232, "s2.asgp": 14572288, "s2.merge": 4194304,
    "down2": 75497472, "s3.align": 57475072, "s3.scan": 7929856, "s3.lgb": 2312192,
    "s3.asgp": 9827072, "s3.merge": 2097152, "down3": 75497472, "s4.align": 57049088,
    "s4.scan": 6062080, "s4.lgb": 2211840, "s4.asgp": 9822976, "s4.merge": 1048576,
    "gfa": 199229952, "brm": 20971520, "head": 65536, "total": 820939408,
}
_DEFAULT_512 = {
    "stem": 37748736, "s1.align": 240123904, "s1.scan": 76546048, "s1.lgb": 11796528,
    "s1.asgp": 108121856, "s1.merge": 33554432, "down1": 301989888, "s2.align": 233308160,
    "s2.scan": 46661632, "s2.lgb": 10092640, "s2.asgp": 57432832, "s2.merge": 16777216,
    "down2": 301989888, "s3.align": 229900288, "s3.scan": 31719424, "s3.lgb": 9242624,
    "s3.asgp": 36565760, "s3.merge": 8388608, "down3": 301989888, "s4.align": 228196352,
    "s4.scan": 24248320, "s4.lgb": 8822784, "s4.asgp": 29238016, "s4.merge": 4194304,
    "gfa": 796918272, "brm": 83886080, "head": 262144, "total": 3269716624,
}
_NARROW_96x128 = {
    "stem": 884736, "s1.align": 2973696, "s1.scan": 1007616, "s1.lgb": 178208,
    "s1.asgp": 915200, "s1.merge": 786432, "down1": 3538944, "s2.align": 2813952,
    "s2.scan": 602112, "s2.lgb": 138368, "s2.asgp": 505216, "s2.merge": 393216,
    "down2": 3538944, "s3.align": 2734080, "s3.scan": 399360, "s3.lgb": 118368,
    "s3.asgp": 370304, "s3.merge": 196608, "down3": 3538944, "s4.align": 2694144,
    "s4.scan": 297984, "s4.lgb": 108480, "s4.asgp": 405376, "s4.merge": 98304,
    "gfa": 10125440, "brm": 1966080, "head": 12288, "total": 41342400,
}

# The scan assignment picks traversals, not widths, so hh_raster and
# swapped count the same MACs as the default config.
CASES = {
    "default-64": (PipelineConfig(), (64, 64), _DEFAULT_64),
    "gate_unit-64": (PipelineConfig(gate_mode="unit"), (64, 64), _GATE_UNIT_64),
    "stem_stride2-64": (PipelineConfig(stem_stride=2), (64, 64), _STEM_STRIDE2_64),
    "hh_raster-64": (PipelineConfig(assign=ScanAssignment(hh=ScanKind.RASTER)), (64, 64),
                     _DEFAULT_64),
    "swapped-64": (PipelineConfig(assign=ScanAssignment.swapped()), (64, 64), _DEFAULT_64),
    "default-256": (PipelineConfig(), (256, 256), _DEFAULT_256),
    "default-512": (PipelineConfig(), (512, 512), _DEFAULT_512),
    "narrow-96x128": (
        PipelineConfig(channels=(8, 16, 32, 64), policy="GGEE", state_dim=4, probes=16,
                       steps=2),
        (96, 128), _NARROW_96x128,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_flop_estimate_matches_recorded_counts(name):
    cfg, shape, expected = CASES[name]
    assert flop_estimate(cfg, shape) == expected
