#!/usr/bin/env python3
"""Base-task training on synthetic blobs.

Phase 1 distills a student into itself through a momentum teacher over
multi-crop views (centered and sharpened targets keep the representation
from collapsing); phase 2 trains the stochastic head with cross-entropy.
"""

import numpy as np

from fscil.backbone import BackboneConfig
from fscil.base_trainer import train_base
from fscil.config import desk_profile
from fscil.events import EventLog
from fscil.harness import generate_blobs
from fscil.numerics import SeededRng

dataset = generate_blobs(classes=6, dim=16, samples_per_class=30, separation=8.0, seed=3, test_per_class=0)
print(f"blob dataset: {dataset.train_x.shape[0]} images, Bayes accuracy ~ {dataset.bayes_accuracy:.3f}")

model = BackboneConfig(image_size=4, patch_size=2, embed_dim=32, layers=2, heads=2, ffn_hidden=64)
training = desk_profile(ssl_epochs=15, ssl_early_stop=15, sup_epochs=20, sup_early_stop=20)

log = EventLog()
encoder, head, _, history = train_base(dataset.train_x, dataset.train_y, model, training, SeededRng(1), log=log)

print("\ndistillation loss curve:", [round(v, 2) for v in history["ssl_loss"]])
print("teacher entropy per epoch:", [round(v, 2) for v in history["teacher_entropy"]])
print(f"entropy floor for {training.proj_dim} projection dims: {0.1 * np.log(training.proj_dim):.3f} (no collapse above it)")
print("supervised loss curve:", [round(v, 3) for v in history["sup_loss"]])

# the event log mirrors what a run directory's events.jsonl would contain
phases = [r["phase"] for r in log.records]
print("\nphase order in the event stream: distillation finishes before supervision starts ->",
      max(i for i, p in enumerate(phases) if p == "ssl") < min(i for i, p in enumerate(phases) if p == "supervised"))
