#!/usr/bin/env python3
"""End-to-end incremental protocol on synthetic blobs, plus one ablation.

Ten base classes, then four 2-way 5-shot sessions.  After each session the
model is scored on every class seen so far; past training data is
structurally unreachable.  Takes roughly half a minute.
"""

from fscil.config import toy_fscil_config
from fscil.protocol import format_ablation_report, run_ablation, run_from_config

config = toy_fscil_config()
record, artifacts = run_from_config(config, seed=0)

print("per-session accuracy on the cumulative pool:")
for result in record.session_results:
    print(f"  session {result['session']}: {result['accuracy']:6.2f}%  ({result['n_test']} test samples)")

m = record.metrics
print(f"\naverage accuracy:   {m['average_accuracy']:.2f}%")
print(f"average forgetting: {m['average_forgetting']:.2f}%")
print(f"macro F1 (final):   {m['macro_f1']:.3f}")
print(f"Bayes reference:    {100 * record.bayes_accuracy:.1f}%")
print("trainable fraction per session:", [round(f, 4) for f in record.trainable_fractions])
print("run hash:", record.content_hash()[:16], "(identical config+seed always reproduces this)")

# what the routing state looks like after the last session
print("\nsessions with stored prefixes:", sorted(artifacts["prefixes"]))
print("classes with Gaussian statistics:", sum(len(g) for g in artifacts["gaussians"].values()))

# removing the delta parameters forces backbone fine-tuning and brings
# catastrophic forgetting back (single seed here to keep the demo short)
report = run_ablation(config, "delta_params", seeds=[0])
print("\nablation: full system vs without delta parameters")
print(format_ablation_report(report))
