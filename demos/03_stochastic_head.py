#!/usr/bin/env python3
"""The stochastic cosine classifier.

Class weights are distributions: sampling phi = mu + eps * softplus(sigma - c)
yields a different cosine classifier each draw, while inference can fall back
to the deterministic mean.
"""

import numpy as np

from fscil.numerics import SeededRng, Tensor
from fscil.stochastic_classifier import StochasticHead, init_means_from_prototypes

rng = SeededRng(5)
head = StochasticHead(dim=8, temperature=16.0)

# means start at the class prototypes (here: three synthetic class centers)
prototypes = {c: rng.child(f"proto{c}").normal(size=8, scale=3.0) for c in range(3)}
init_means_from_prototypes(head, prototypes)
print("classes:", head.num_classes)

# with sigma at its initialization the per-coordinate noise scale is ln 2;
# one draw gives eps for every class, and class 0's sample is row 0
draws = np.stack([head.weights(head.draw(rng.child(f"d{i}"))).data[0] for i in range(20000)])
print("sample mean vs mu (first 3 coords):", np.round(draws.mean(axis=0)[:3], 3), "vs", np.round(head.mu.data[0][:3], 3))
print("sample std per coord ~ ln 2:", np.round(draws.std(axis=0).mean(), 3))

# probabilities are softmaxed, temperature-scaled cosine similarities
z = prototypes[1] * 5.0  # scale does not matter to a cosine score
probs = head.class_probs(Tensor(z)).data
print("probs for a scaled class-1 prototype:", np.round(probs, 4))
print("prediction:", head.predict_label(Tensor(z)))

# sampling weights at prediction time adds controlled diversity
noisy_votes = [head.predict_label(Tensor(z), head.draw(rng.child(f"vote{i}"))) for i in range(10)]
print("ten noisy votes:", noisy_votes)

# extending the head never touches existing rows
before = head.mu.data[0].copy()
init_means_from_prototypes(head, {3: rng.child("proto3").normal(size=8)})
print("old row unchanged after extension:", np.array_equal(before, head.mu.data[0]))
