"""Command-line interface.

Subcommands:
  run        execute the protocol for one config and seed
  ablate     paired full-vs-ablated comparison
  metrics    print the stored metrics of a finished run directory
  gen-blobs  write a synthetic blob dataset as IDX files

Exit codes follow the error taxonomy: 2 bad arguments/usage, 3 file format,
4 contract violation, 5 numeric failure, 1 anything else, 0 success.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ABLATION_TOGGLES, RunConfig
from .errors import ArgumentError, FscilError
from .harness import generate_blobs, write_idx_images, write_idx_labels
from .protocol import format_ablation_report, run_ablation, run_from_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fscil", description="Few-shot class-incremental learning harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the protocol for one seed")
    run_p.add_argument("--config", required=True, help="JSON run configuration")
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--out", required=True, help="output run directory")

    abl_p = sub.add_parser("ablate", help="compare the full system against one disabled component")
    abl_p.add_argument("--config", required=True)
    abl_p.add_argument("--without", choices=ABLATION_TOGGLES, default=None)
    abl_p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")
    abl_p.add_argument("--out", default=None, help="optional report JSON path")

    met_p = sub.add_parser("metrics", help="print metrics of a stored run")
    met_p.add_argument("--run", required=True, help="run directory")

    gen_p = sub.add_parser("gen-blobs", help="generate a blob dataset as IDX files")
    gen_p.add_argument("--classes", type=int, required=True)
    gen_p.add_argument("--dim", type=int, required=True)
    gen_p.add_argument("--shots", type=int, required=True, help="training samples per class")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.add_argument("--test-per-class", type=int, default=20)
    gen_p.add_argument("--separation", type=float, default=8.0)
    gen_p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    config = RunConfig.load(args.config)
    record, _ = run_from_config(config, args.seed, out_dir=args.out)
    print(json.dumps(record.metrics, indent=2, sort_keys=True))
    print(f"run hash: {record.content_hash()}")
    return 0


def _cmd_ablate(args) -> int:
    config = RunConfig.load(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ArgumentError(f"--seeds {args.seeds!r} is not a comma-separated list of integers") from exc
    if not seeds:
        raise ArgumentError("at least one seed is required")
    report = run_ablation(config, args.without, seeds)
    print(format_ablation_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return 0


def _cmd_metrics(args) -> int:
    path = Path(args.run) / "metrics.json"
    if not path.exists():
        raise ArgumentError(f"no metrics.json under {args.run}")
    print(path.read_text().strip())
    return 0


def _quantize(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    scaled = (x - lo) / (hi - lo) if hi > lo else np.zeros_like(x)
    return np.clip(np.round(scaled * 255.0), 0, 255).astype(np.uint8)


def _cmd_gen_blobs(args) -> int:
    dataset = generate_blobs(
        args.classes, args.dim, args.shots, args.separation, args.seed, test_per_class=args.test_per_class
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lo = float(min(dataset.train_x.min(), dataset.test_x.min() if dataset.test_x.size else dataset.train_x.min()))
    hi = float(max(dataset.train_x.max(), dataset.test_x.max() if dataset.test_x.size else dataset.train_x.max()))
    write_idx_images(out / "train-images.idx", _quantize(dataset.train_x, lo, hi))
    write_idx_labels(out / "train-labels.idx", dataset.train_y)
    write_idx_images(out / "test-images.idx", _quantize(dataset.test_x, lo, hi))
    write_idx_labels(out / "test-labels.idx", dataset.test_y)
    meta = {
        "classes": args.classes,
        "dim": args.dim,
        "train_per_class": args.shots,
        "test_per_class": args.test_per_class,
        "separation": args.separation,
        "seed": args.seed,
        "bayes_accuracy": dataset.bayes_accuracy,
        "quantization": {"low": lo, "high": hi},
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote blob dataset to {out} (Bayes accuracy ~ {dataset.bayes_accuracy:.4f})")
    return 0


_COMMANDS = {"run": _cmd_run, "ablate": _cmd_ablate, "metrics": _cmd_metrics, "gen-blobs": _cmd_gen_blobs}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FscilError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error (missing file): {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error (malformed JSON): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
