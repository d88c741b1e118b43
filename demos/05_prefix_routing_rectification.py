#!/usr/bin/env python3
"""Session machinery in isolation: Gaussian routing and prototype rectification.

Works directly in a synthetic embedding space so each mechanism is visible
without a backbone in the way.
"""

import numpy as np

from fscil.config import desk_profile
from fscil.numerics import SeededRng
from fscil.prototype_rectification import (
    PredictionNet,
    estimate_intra_class_bias,
    merge_pairs,
    rectify_prototype,
    select_outlier_pairs,
    train_prediction_net,
)
from fscil.task_inference import SharedCovariance, fit_class_stats, select_class_batch

rng = SeededRng(11)
dim = 8

# two "sessions" of classes in one shared embedding space
means = rng.child("means").normal(size=(6, dim), scale=4.0)
emb0 = np.concatenate([means[c] + rng.child(f"s0c{c}").normal(size=(40, dim)) for c in range(4)])
lab0 = np.repeat(np.arange(4), 40)
emb1 = np.concatenate([means[c] + rng.child(f"s1c{c}").normal(size=(5, dim)) for c in (4, 5)])
lab1 = np.repeat([4, 5], 5)

g0, a0 = fit_class_stats(emb0, lab0, session=0)
g1, a1 = fit_class_stats(emb1, lab1, session=1)
shared = SharedCovariance(a0 + a1)  # the scatters of both sessions, summed
gaussians = g0 + g1

# routing: every query lands on its true class and thus its owning session
queries = np.concatenate([means[c] + rng.child(f"q{c}").normal(size=(20, dim)) for c in range(6)])
truth = np.repeat(np.arange(6), 20)
cls, sess = select_class_batch(queries, gaussians, shared, "mahalanobis")
print(f"routing accuracy over {len(queries)} queries: {(cls == truth).mean():.3f}")
print("session assignment for the last 40 queries (new classes):", np.bincount(sess[-40:]).tolist())

# few-shot prototypes are biased; the prediction network pulls them back
full_class = means[0] + rng.child("full").normal(size=(200, dim))
one_sided = means[0] + np.abs(rng.child("bias").normal(size=(5, dim)))  # all shots on one side
print("\nintra-class bias of the one-sided subset:", np.round(np.linalg.norm(estimate_intra_class_bias(full_class, one_sided)), 3))

pairs = merge_pairs([select_outlier_pairs(emb0[lab0 == c], emb0[lab0 == c].mean(axis=0), 15) for c in range(4)])
net = PredictionNet(dim, rng=rng.child("net"), depth=2)
train_prediction_net(net, pairs, desk_profile(prednet_epochs=300, prednet_batch_size=64, prednet_lr=1e-2), rng.child("fit"))

mu_few = one_sided.mean(axis=0)
mu_rect = rectify_prototype(net, mu_few)
print("distance to true mean, raw prototype:      ", round(float(np.linalg.norm(mu_few - means[0])), 3))
print("distance to true mean, rectified prototype:", round(float(np.linalg.norm(mu_rect - means[0])), 3))
