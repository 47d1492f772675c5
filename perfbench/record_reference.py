"""Record every workload's reference outputs for the default seed.

    python3 perfbench/record_reference.py

Writes ``reference.json``: for each pooled input, a fingerprint of the op's
output (shape, mean, RMS and values at fixed positions; parsed rows for the
eval CSV).  Run it only at a commit whose outputs are known to be right;
the benchmark then compares every op on the default seed with them, within
the tolerances stated in workloads.py.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run  # noqa: F401  pins BLAS threads and imports the package from src
import workloads


def main() -> int:
    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.HERE))
    try:
        for name in workloads.ALL:
            wl = workloads.make(name)
            wl.setup(workloads.DEFAULT_SEED, workdir)
            outputs = []
            for k in range(wl.pool):
                out = wl.op(k)
                problems = wl.invariants(k, out)
                if problems:
                    raise SystemExit(f"{name} input {k}: {problems}")
                outputs.append(wl.fingerprint(out))
            reference[name] = outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
