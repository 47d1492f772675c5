"""Self-test of the benchmark's tracing and of BENCHMARK.json.

    python3 perfbench/selftest.py

Checks, and exits non-zero when one fails:
  1. the spans of a traced forward pass cover exactly the flop_estimate
     keys of its config: the forward workloads' config at 256 and 64, and
     stem_stride=2 and gate=unit at 64, so drift between flops.py and
     pipeline.py shows;
  2. the self times of a traced op add up to its wall time;
  3. with tracing off again every rebound name holds its original object
     and the forward masks are bit-identical to an untraced pass;
  4. BENCHMARK.json lists the workloads and metrics this code reports.
"""

from __future__ import annotations

import json
import sys
import time

import layers
import run
import tracing
import workloads
from wavescan import flops, pipeline, synth
from wavescan.grid import FeatureGrid
from wavescan.ssm import SsmParams

CASES = [
    ("default config, 256x256", pipeline.PipelineConfig(), 256),
    ("default config, 64x64", pipeline.PipelineConfig(), 64),
    ("stem_stride=2, 64x64", pipeline.PipelineConfig(stem_stride=2), 64),
    ("gate=unit, 64x64", pipeline.PipelineConfig(gate_mode="unit"), 64),
]


def bindings() -> dict:
    """Every name the tracer may rebind, with the object it holds now."""
    snap = {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "wavescan" or name.startswith("wavescan."))
            for attr, value in vars(module).items()}
    snap["FeatureGrid.__post_init__"] = vars(FeatureGrid)["__post_init__"]
    snap["SsmParams.from_store"] = vars(SsmParams)["from_store"]
    return snap


def check_forward(cfg, size: int) -> list[str]:
    image = synth.generate_sample(workloads.synth_config(size, 7)).image
    weights = pipeline.default_weights(cfg)
    plain = pipeline.forward(image, cfg, weights).data.tobytes()
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        traced = pipeline.forward(image, cfg, weights).data.tobytes()
        wall = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    after = bindings()
    problems = layers.span_problems(tracer.spans, 0, len(tracer.spans), wall,
                                    flops.flop_estimate(cfg, (size, size)),
                                    run.SELF_TIME_SHARE)
    if before.keys() != after.keys() or any(before[k] is not after[k] for k in before):
        problems.append("uninstall left a traced name bound")
    if pipeline.forward(image, cfg, weights).data.tobytes() != plain:
        problems.append("mask after tracing differs from the untraced mask")
    if traced != plain:
        problems.append("traced mask differs from the untraced mask")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("workloads differ from workloads.NAMES")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append("end_to_end differs from run.END_TO_END")
    per = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per != list(layers.PER_LAYER):
        problems.append("per_layer differs from layers.PER_LAYER")
    return problems


def main() -> int:
    failures = 0
    for label, cfg, size in CASES:
        problems = check_forward(cfg, size)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} traced forward, {label}: "
              f"{'; '.join(problems) or 'spans match flop_estimate'}")
    problems = check_benchmark_json()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} BENCHMARK.json: {'; '.join(problems) or 'matches'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
