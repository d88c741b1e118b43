#!/usr/bin/env python3
"""FSCIL protocol benchmark.

Runs `fscil.protocol.run_protocol` end to end on one synthetic workload,
checks its outputs and prints every metric by name, then one JSON line:

    python3 bench/run.py --workload base_heavy --seed 0 --seconds 36 --trace 0

`--trace 0` repeats the protocol until `--seconds` have passed (at least
three times; the first is a warm-up) and reports the end-to-end metrics:
medians over the timed repeats for times, in CPU seconds at a fixed
reference speed (see `reference_kernel`), and the record of the first repeat
for quality (every repeat must give the same record hash).  `--trace 1` runs
once with spans around the calls into each module (see `tracing.py`) between
two untraced runs, then times the layer kernels, and reports the per-layer
metrics.  Inputs come from `--seed` only.  Results, the environment and the
spans go to `bench/out/`.

Workloads, why each exists and the layer shares measured on them are in
`bench/NOTES.md`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_REPEATS = 3  # the first is a warm-up: checked, but not timed
MAX_REPEATS = 50
SETUP_REPEATS = 5

# Times are CPU seconds of this process, which runs the program on one thread
# (one BLAS thread), so time spent waiting for a shared core does not count.
# The shared host's speed still drifts, so a reference kernel, fixed work of
# the kind the program does (matrix products and a softmax on a 512 x 64
# batch), runs every REF_INTERVAL_S of a protocol run and after each set-up,
# and every time is reported at a fixed reference speed: measured CPU seconds
# x REF_NOMINAL_S / (median reference CPU seconds in the same run).
REF_STEPS = 40
REF_INTERVAL_S = 0.3
REF_SAMPLES_SETUP = 10
REF_NOMINAL_S = 0.020  # about its CPU seconds on the VM of NOTES.md

# Changes to `toy_fscil_config()`; `premise` is the phase span that should
# take the largest share of a traced run.
WORKLOADS = {
    "base_heavy": {
        "dataset": {"separation": 1.5, "train_per_class": 16, "test_per_class": 40},
        "split": {},
        "training": {"ssl_epochs": 4, "sup_epochs": 20, "prednet_epochs": 60},
        "premise": "base_trainer.train_base",
    },
    "many_sessions": {
        "dataset": {"classes": 74, "train_per_class": 20, "test_per_class": 4},
        "split": {"base_classes": 10, "ways": 4, "shots": 10},
        "training": {"ssl_epochs": 2, "sup_epochs": 3, "inc_epochs": 6, "prednet_epochs": 40},
        "premise": "delta_params.train_session",
    },
    "one_shot_pool": {
        "dataset": {"classes": 50, "train_per_class": 20, "test_per_class": 20},
        "split": {"base_classes": 10, "ways": 5, "shots": 1},
        "training": {"ssl_epochs": 2, "sup_epochs": 3, "inc_epochs": 8},
        "premise": "prototype_rectification.train",
    },
}

# Smallest settings that still run every phase; used by `selfcheck.py`.
TINY_TRAINING = {"ssl_epochs": 1, "sup_epochs": 1, "inc_epochs": 1, "inc_epochs_base": 1, "prednet_epochs": 2}


def workload_config(name: str, tiny: bool = False):
    from fscil.config import toy_fscil_config

    spec = WORKLOADS[name]
    config = toy_fscil_config()
    dataset = replace(config.dataset, **spec["dataset"])
    split = replace(config.split, **spec["split"])
    training = replace(config.training, **spec["training"])
    if tiny:
        dataset = replace(dataset, classes=split.base_classes + 2 * split.ways, train_per_class=max(10, split.shots), test_per_class=4)
        training = replace(training, **TINY_TRAINING)
    return replace(config, dataset=dataset, split=split, training=training)


# -- one protocol run ----------------------------------------------------------


_REF_INPUTS: list = []


def reference_kernel() -> float:
    """CPU seconds taken by a fixed amount of reference work."""
    import numpy as np

    if not _REF_INPUTS:
        rng = np.random.default_rng(20240509)
        _REF_INPUTS.extend([rng.standard_normal((512, 64)), rng.standard_normal((64, 64))])
    a, w = _REF_INPUTS
    start = time.process_time()
    for _ in range(REF_STEPS):
        h = a @ w
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        float((a.T @ e).sum())
    return time.process_time() - start


def speed_scale(ref_s: list) -> float:
    """Factor that turns measured CPU seconds into seconds at the reference speed."""
    return REF_NOMINAL_S / statistics.median(ref_s)


class Calibrator:
    """The program's clock (`now`, CPU seconds of this process); runs the
    reference kernel every `REF_INTERVAL_S` of it and keeps its own time off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.ref_s: list[float] = []
        self.excluded = 0.0
        self.last: float | None = None

    def now(self) -> float:
        return time.process_time() - self.excluded

    def tick(self):
        if not self.enabled or (self.last is not None and self.now() - self.last < REF_INTERVAL_S):
            return
        start = time.process_time()
        self.ref_s.append(reference_kernel())
        self.excluded += time.process_time() - start
        self.last = self.now()


@dataclass
class Repeat:
    record: object
    artifacts: dict
    log_records: list
    run_s: float  # measured, without the reference kernel's own time
    session_s: list  # session k: from vault.open(k) to the next open, or to return
    ref_s: list  # CPU seconds of each reference kernel run during this repeat


def build_inputs(config, seed: int):
    from fscil import harness, protocol

    dataset = protocol.build_dataset(config, seed)
    split = config.split
    specs = harness.build_fscil_splits(dataset.train_y, dataset.test_y, split.base_classes, split.ways, split.shots, seed)
    return dataset, specs


def run_once(config, dataset, specs, seed: int, calibrate: bool = False) -> Repeat:
    """One `run_protocol` call, with a time stamp at every session opening.

    With `calibrate`, the reference kernel runs at session openings and
    epoch events, off the program's clock.
    """
    from fscil import protocol
    from fscil.events import EventLog

    calibrator = Calibrator(calibrate)
    stamps: list[float] = []

    def stamp():
        calibrator.tick()
        stamps.append(calibrator.now())

    class CalibratingLog(EventLog):
        def emit(self, *args, **kwargs):
            super().emit(*args, **kwargs)
            calibrator.tick()

    original = protocol.SessionDataVault

    class TimedVault(original):
        def open(self, session):
            stamp()
            return super().open(session)

    log = CalibratingLog(None)
    protocol.SessionDataVault = TimedVault
    try:
        stamp()
        record, artifacts = protocol.run_protocol(dataset, specs, config, seed, log=log)
        stamp()
    finally:
        protocol.SessionDataVault = original
    session_s = [b - a for a, b in zip(stamps[1:], stamps[2:])]
    return Repeat(record, artifacts, log.records, stamps[-1] - stamps[0], session_s, calibrator.ref_s)


def check_outputs(rep: Repeat, dataset, specs, reference_hash: str | None) -> list[str]:
    """Problems with one run's outputs; empty when all checks pass."""
    problems = []
    record = rep.record
    if reference_hash is not None and record.content_hash() != reference_hash:
        problems.append(f"record hash {record.content_hash()[:12]} differs from the first repeat's {reference_hash[:12]}")
    if len(record.session_results) != len(specs) or len(rep.session_s) != len(specs):
        problems.append(f"{len(record.session_results)} session results for {len(specs)} sessions")
    seen: set = set()
    for spec, result in zip(specs, record.session_results):
        seen.update(int(c) for c in spec.label_set)
        n_test = len(spec.test_indices)
        if not result["n_test"] == len(result["predictions"]) == len(result["labels"]) == n_test:
            problems.append(f"session {spec.session}: {len(result['predictions'])} predictions for {n_test} test samples")
        if result["labels"] != [int(c) for c in dataset.test_y[spec.test_indices]]:
            problems.append(f"session {spec.session}: labels do not match the test pool")
        unknown = set(result["predictions"]) - seen
        if unknown:
            problems.append(f"session {spec.session}: predicted unknown classes {sorted(unknown)[:5]}")
    m = record.metrics
    values = [m["average_accuracy"], m["average_forgetting"], m["macro_f1"], *m["per_session_accuracy"]]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite metric in {values}")
    if not all(0.0 <= a <= 100.0 for a in m["per_session_accuracy"]):
        problems.append(f"accuracy outside [0, 100]: {m['per_session_accuracy']}")
    if not all(t > 0 for t in [rep.run_s, *rep.session_s]):
        problems.append("non-positive timing")
    return problems


def routing_accuracy(rep: Repeat, config, dataset, specs) -> float:
    """Share (%) of the final test pool routed to the session owning its label."""
    import numpy as np
    from fscil.base_trainer import embed_all
    from fscil.task_inference import select_class_batch

    pool = specs[-1].test_indices
    owner = {int(c): spec.session for spec in specs for c in spec.label_set}
    gaussians = [g for k in sorted(rep.artifacts["gaussians"]) for g in rep.artifacts["gaussians"][k]]
    embeddings = embed_all(rep.artifacts["encoder"], dataset.test_x[pool])
    _, routed = select_class_batch(embeddings, gaussians, rep.artifacts["covariance"], config.resolved_metric())
    truth = np.array([owner[int(c)] for c in dataset.test_y[pool]])
    return 100.0 * float(np.mean(routed == truth))


def quality_metrics(rep: Repeat, config, dataset, specs) -> dict:
    m = rep.record.metrics
    final = m["per_session_accuracy"][-1]
    return {
        "average_accuracy": m["average_accuracy"],
        "final_accuracy": final,
        "average_retention": 100.0 - m["average_forgetting"],
        "macro_f1": m["macro_f1"],
        "routing_accuracy": routing_accuracy(rep, config, dataset, specs),
        "bayes_ratio": final / (100.0 * dataset.bayes_accuracy),
    }


# -- environment ----------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD commit read from `.git` without running git; "unknown" outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- reporting --------------------------------------------------------------------


def tail(values: list) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} over n={n}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return text + f", p{p} {statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.4f}"
    return text + " (too few samples for a tail percentile)"


# -- the two modes ----------------------------------------------------------------


def setup_once(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """CPU seconds from importing the program through dataset generation and
    splits, and the `speed_scale` measured right after."""
    start = time.process_time()
    import fscil.protocol  # noqa: F401  (numpy and scipy come with it)

    build_inputs(workload_config(name, tiny), seed)
    seconds = time.process_time() - start
    reference_kernel()  # warm-up
    return seconds, speed_scale([reference_kernel() for _ in range(REF_SAMPLES_SETUP)])


def measure_setup(name: str, seed: int, tiny: bool) -> list:
    """`setup_once` in fresh interpreters, so that every sample pays the imports."""
    args = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(args, capture_output=True, text=True, timeout=120, check=True)
        seconds, scale = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(scale)))
    return samples


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Untraced mode: set-up several times, then repeat the protocol for `seconds`.

    Times are at the reference speed (see `reference_kernel`); the measured
    CPU times are kept in the details.  The first repeat is a warm-up.
    """
    setup_samples = measure_setup(name, seed, tiny)
    config = workload_config(name, tiny)
    dataset, specs = build_inputs(config, seed)
    reference_kernel()  # allocate its inputs before anything is timed

    repeats, problems, attempted, failed = [], [], 0, 0
    durations = []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        attempted += 1
        try:
            rep = run_once(config, dataset, specs, seed, calibrate=True)
            found = check_outputs(rep, dataset, specs, repeats[0].record.content_hash() if repeats else None)
        except Exception:
            found = ["raised: " + traceback.format_exc()]
        if found:
            failed += 1
            problems.extend(found)
        else:
            repeats.append(rep)
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - loop_start
        if attempted >= MAX_REPEATS or (attempted >= MIN_REPEATS and elapsed + statistics.median(durations) > seconds):
            break

    result = {"attempted": attempted, "failed": failed, "problems": problems, "metrics": {}}
    timed = repeats[1:]
    if not timed:
        return result
    # one factor for the whole run: fast noise is left to the medians over
    # repeats, and the many reference runs pin down the host's speed
    scale = speed_scale([t for r in timed for t in r.ref_s])
    measured = {
        "run_s": [r.run_s for r in timed],
        "base_session_s": [r.session_s[0] for r in timed],
        "inc_session_s": [s for r in timed for s in r.session_s[1:]],
    }
    metrics = {
        "setup_s": statistics.median(s * setup_scale for s, setup_scale in setup_samples),
        **{key: scale * statistics.median(values) for key, values in measured.items()},
        "ok_frac": 1.0 - failed / attempted,
    }
    try:
        metrics.update(quality_metrics(repeats[0], config, dataset, specs))
    except Exception:
        result["failed"] += 1
        problems.append("quality metrics raised: " + traceback.format_exc())
        return result
    metrics["peak_rss_mb"] = peak_rss_mb()
    result["metrics"] = metrics
    result["details"] = {
        "timed_repeats": len(timed),
        "incremental_sessions": len(specs) - 1,
        "speed_scale": scale,
        "reference_runs": sum(len(r.ref_s) for r in timed),
        **{f"measured_{key}": tail(values) for key, values in measured.items() if values},
        "measured_run_s_each": [round(t, 4) for t in measured["run_s"]],
        "reference_median_s_each": [round(statistics.median(r.ref_s), 5) for r in timed],
        "measured_setup_s_each": [round(s, 4) for s, _ in setup_samples],
        "setup_speed_scale_each": [round(setup_scale, 4) for _, setup_scale in setup_samples],
        "failed_frac": failed / attempted,
        "average_forgetting": repeats[0].record.metrics["average_forgetting"],
        "bayes_gap_pp": 100.0 * dataset.bayes_accuracy - metrics["final_accuracy"],
        "bayes_accuracy": dataset.bayes_accuracy,
        "record_hash": repeats[0].record.content_hash(),
    }
    return result


def measure_traced(name: str, seed: int, tiny: bool = False) -> dict:
    """Traced mode: untraced, traced and untraced runs, then the layer kernels."""
    import tracing

    config = workload_config(name, tiny)
    dataset, specs = build_inputs(config, seed)
    problems, attempted, failed = [], 0, 0
    result = {"attempted": 0, "failed": 0, "problems": problems, "metrics": {}}

    tracer = tracing.Tracer()
    tracer.run_id = f"{name}-seed{seed}-traced"
    problems: list[str] = []
    result = {"attempted": 0, "failed": 0, "problems": problems, "metrics": {}, "tracer": tracer}
    try:
        result["attempted"] += 1
        plain = run_once(config, dataset, specs, seed)
        found = check_outputs(plain, dataset, specs, None)
        if not found:
            result["attempted"] += 1
            tracer.install()
            try:
                with tracer.span("bench.traced_run"):
                    traced_dataset, traced_specs = build_inputs(config, seed)
                    traced = run_once(config, traced_dataset, traced_specs, seed)
            finally:
                tracer.uninstall()
            # tracing must not change what the program computes
            found = check_outputs(traced, dataset, specs, plain.record.content_hash())
        if not found:
            # a second untraced run after the traced one halves the drift in the overhead baseline
            result["attempted"] += 1
            plain_after = run_once(config, dataset, specs, seed)
            found = check_outputs(plain_after, dataset, specs, plain.record.content_hash())
    except Exception:
        found = ["raised: " + traceback.format_exc()]
    if found:
        result["failed"] = 1
        problems.extend(found)
        return result

    metrics = tracing.layer_metrics(
        tracer, tracer.run_id, config.model.flop_estimate(), traced.log_records, traced.artifacts["covariance"], (plain.run_s + plain_after.run_s) / 2
    )
    metrics.update(tracing.kernel_timings(config.model, reps=5 if tiny else 20, seed=seed))
    shares = tracing.phase_shares(tracer, tracer.run_id)
    largest = max(shares, key=shares.get)
    result["metrics"] = metrics
    result["details"] = {
        "untraced_run_s": [plain.run_s, plain_after.run_s],
        "traced_run_s": traced.run_s,
        "phase_shares": shares,
        "layer_self_s": tracer.layer_self(tracer.run_id),
        "premise": WORKLOADS[name]["premise"],
        "premise_holds": largest == WORKLOADS[name]["premise"],
        "largest_phase": largest,
        "spans": len(tracer.spans),
        "gflops_note": "numerics.gflops uses BackboneConfig.flop_estimate(), a computed multiply count, not a measured one",
    }
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0, help="how long the untraced repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest settings, for selfcheck.py; figures are not comparable")
    parser.add_argument("--setup-only", action="store_true", help="print the seconds of one set-up and exit (used by the set-up timing)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread unless the caller chose: the matrices are tiny, and on a
    # shared 2-core machine a second thread made repeats slower and less steady.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.setup_only:
            print(*setup_once(args.workload, args.seed, args.tiny))
            return 0
        import fscil.protocol  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import fscil from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        result = measure_traced(args.workload, args.seed, args.tiny)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.tiny)
    tracer = result.pop("tracer", None)
    env = environment(args.seed)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = metric_units(args.trace)
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) - set(result["metrics"]))
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in units:
        print(f"  {key:<42} {result['metrics'][key]:>14.6g} {units[key]}")
    for key, value in result.get("details", {}).items():
        print(f"  # {key}: {value}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    prefix = "tiny_" if args.tiny else ""
    with open(OUT_DIR / f"{prefix}{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, **result}, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{prefix}spans_{args.workload}_seed{args.seed}.jsonl.gz")

    correct = result["failed"] == 0
    metrics = {key: {"value": result["metrics"][key], "unit": unit} for key, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a mode must report, as `BENCHMARK.json` lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
