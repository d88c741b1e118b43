"""Shared Monte-Carlo trial used by both the module tests and acceptance."""

import numpy as np

from fscil.config import desk_profile
from fscil.numerics import SeededRng
from fscil.prototype_rectification import (
    PredictionNet,
    merge_pairs,
    rectify_prototype,
    select_outlier_pairs,
    train_prediction_net,
)


def planted_bias_trial(seed: int) -> bool:
    """Does rectification move a one-sided few-shot prototype toward truth?

    Six well-separated Gaussian classes with ample data train the prediction
    network on (outlier, prototype) pairs; the probe class then gets a 5-shot
    subset drawn entirely from one side of its distribution.  Success means
    the rectified prototype is at least as close to the true mean as the
    biased one.  The prediction-net learning rate sits at the top of the
    published sensitivity range so desk-scale training converges.
    """
    rng = SeededRng(seed)
    n_classes, dim, n_full, shots = 6, 8, 60, 5
    means = rng.child("means").normal(size=(n_classes, dim), scale=4.0)
    full = {c: means[c] + rng.child(f"full{c}").normal(size=(n_full, dim)) for c in range(n_classes)}

    parts = [select_outlier_pairs(full[c], full[c].mean(axis=0), 20) for c in range(n_classes)]
    net = PredictionNet(dim, rng.child("net"), depth=2)
    cfg = desk_profile(prednet_epochs=300, prednet_batch_size=256, prednet_lr=1e-2)
    train_prediction_net(net, merge_pairs(parts), cfg, rng.child("train"))

    offsets = rng.child("fewshot").normal(size=(shots, dim))
    offsets[:, 0] = np.abs(offsets[:, 0])  # every shot falls on one side
    mu_few = (means[0] + offsets).mean(axis=0)
    rectified = rectify_prototype(net, mu_few)
    return bool(np.linalg.norm(rectified - means[0]) <= np.linalg.norm(mu_few - means[0]))
