#!/usr/bin/env python3
"""Smoke check of the benchmark itself, in seconds:

    python3 bench/selfcheck.py

For every workload it runs `run.py --tiny` untraced and traced and asserts
that the last output line is the result object with every metric that
`BENCHMARK.json` names, that all checks passed, and that in the written span
file self times are non-negative and add up to the root span.  It also runs
the benchmark from a directory holding only `BENCHMARK.json` and `bench/`,
where it must fail without printing a result.  Exit code 0 means all passed.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 120


def invoke(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False
    )


def check_spans(path: Path):
    """Self times are >= 0 and sum to the root span's duration."""
    spans = []
    with gzip.open(path, "rt") as fh:
        for line in fh:
            spans.append(json.loads(line))
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    roots = [i for i, s in enumerate(spans) if s["parent"] < 0]
    assert len(roots) == 1, f"{path.name}: {len(roots)} root spans"
    root = spans[roots[0]]
    assert min(own) >= -1e-9, f"{path.name}: negative self time {min(own)}"
    total = math.fsum(own)
    duration = root["end"] - root["start"]
    assert abs(total - duration) <= 1e-9 * max(1.0, duration), f"{path.name}: self times sum to {total}, root lasted {duration}"
    layers = defaultdict(float)
    for s, t in zip(spans, own):
        layers[s["name"].split(".", 1)[0]] += t
    return len(spans), dict(layers)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = invoke(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, f"{workload} trace {trace}: metric names or units differ: {set(got) ^ set(wanted)}"
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            line = f"{workload} trace {trace}: {len(got)} metrics"
            if trace:
                n_spans, layers = check_spans(BENCH_DIR / "out" / f"tiny_spans_{workload}_seed0.jsonl.gz")
                line += f", {n_spans} spans, self times add up ({', '.join(sorted(layers))})"
            print("ok  " + line)

    bare = BENCH_DIR / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = invoke(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}"
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
