"""Frequency-geometric scan toolkit.

Haar split/merge, geometry-aligned 2D serialization, a minimal selective
state-space scan, gradient-guided probe evolution with gated detail
injection, a forward-only segmentation pipeline, and topology-aware
evaluation metrics -- all deterministic and seeded.
"""

from .errors import (
    ConfigError,
    DimensionError,
    InputError,
    InsufficientStructureError,
    MissingBlockError,
)
from .grid import (
    FeatureGrid,
    Mask,
    NormCoord,
    bilinear_gradient,
    bilinear_sample,
    resize_bilinear,
)
from .scanorder import (
    GapStats,
    ScanKind,
    ScanOrder,
    along_structure_gaps,
    build_scan_order,
    deserialize,
    locality_cost,
    serialize,
)
from .ssm import SsmParams, ssm_scan_parallel, ssm_scan_sequential
from .asgp import (
    ProbeSet,
    asgp_gate,
    coarse_potential,
    evolve_probes,
    refine_mask,
)
from .fablock import ScanAssignment, cross_scan, fa_scan, lgb
from .flops import cross_scan_macs, fa_scan_macs, flop_estimate
from .metrics import (
    OdsResult,
    RegionMetrics,
    cldice,
    connected_components,
    dice,
    ods,
    region_metrics,
    skeletonize,
)
from .pipeline import (
    PipelineConfig,
    align,
    brm,
    default_weights,
    encoder_block,
    forward,
    gfa,
)
from .synth import SynthConfig, SynthSample, generate_sample
from .wavelet import SubbandSet, dwt_haar, idwt_haar
from .weights import WeightStore, seeded_init

__version__ = "0.1.0"
