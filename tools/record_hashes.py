#!/usr/bin/env python3
"""Record hashes of the benchmark workloads' runs.

Runs `run_protocol` for every workload of `bench/run.py`, seeds 0-2, for the
full system and each arm of `config.ABLATION_TOGGLES` (45 runs), and prints
one line per run: workload, seed, arm, `RunRecord.content_hash()` and
`RunRecord.outputs_hash()`.  A change meant to keep predictions bitwise keeps
every content hash; one that only edits the config keeps the output hashes.
Compare two checkouts with

    python3 tools/record_hashes.py > a.txt   # in each checkout
    diff a.txt b.txt

The configs and inputs are built by `bench/run.py`'s `workload_config` and
`build_inputs`.  About a minute on a 2-core x86 VM.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import WORKLOADS, build_inputs, workload_config  # noqa: E402

from fscil import protocol  # noqa: E402
from fscil.config import ABLATION_TOGGLES, ablated  # noqa: E402


def main() -> int:
    for name in WORKLOADS:
        config = workload_config(name)
        for seed in range(3):
            dataset, specs = build_inputs(config, seed)
            for arm in ["full", *ABLATION_TOGGLES]:
                arm_config = config if arm == "full" else ablated(config, arm)
                record, _ = protocol.run_protocol(dataset, specs, arm_config, seed)
                print(name, seed, arm, record.content_hash(), record.outputs_hash(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
