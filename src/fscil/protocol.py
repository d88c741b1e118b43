"""Protocol runner: base training, incremental sessions, routing, records.

Session order: (session 0 only) train the base backbone and head; embed the
session's samples with the frozen prefix-free backbone; fit and accumulate
Gaussian statistics, always enriched by the test-pool embeddings that are
pseudo-labeled as this session's classes - these raw statistics are what
routing uses; (later sessions) add one head row per new class at its enriched
mean, first rectified by the session's prediction network (trained on outlier
pairs and those pseudo-labeled embeddings) unless `prediction_net` is off;
then train the session's prefixes together with its head rows.
Evaluation routes every test sample through the shared-covariance ranking to
pick a session's prefixes before the stochastic head predicts the label.
While the backbone is frozen, a test sample's embedding under a given prefix
set (or none) cannot change, so each is computed once per prefix set and
kept by its dataset test index; the `delta_params: false` arm, whose
backbone trains in every session, drops them after each session's training.
Ablations are `TrainingConfig` values (see `config.ABLATION_TOGGLES`).
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backbone import save_state
from .base_trainer import embed_all, train_base
from .config import RunConfig, ablated
from .delta_params import PrefixSet, train_session, trainable_fraction
from .events import EventLog
from .harness import (
    ArrayDataset,
    SessionDataVault,
    build_fscil_splits,
    check_disjoint,
    compute_metrics,
    generate_blobs,
    load_idx_dataset,
)
from .numerics import SeededRng, Tensor
from .optim import backprop_step, make_optimizer, run_epochs
from .prototype_rectification import (
    OutlierPairs,
    PredictionNet,
    merge_pairs,
    pseudo_label,
    refine_gaussian_stats,
    select_outlier_pairs,
    train_prediction_net,
)
from .stochastic_classifier import init_means_from_prototypes
from .task_inference import SharedCovariance, fit_class_stats, select_class_batch


def _sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@dataclass
class RunRecord:
    """Everything one run produced, minus raw samples."""

    config: dict
    seed: int
    session_results: list
    metrics: dict
    trainable_fractions: list = field(default_factory=list)
    bayes_accuracy: float | None = None
    started_at: str = ""
    finished_at: str = ""

    def _hashed(self) -> dict:
        """Every field except the time stamps."""
        names = ("config", "seed", "session_results", "metrics", "trainable_fractions", "bayes_accuracy")
        return {name: getattr(self, name) for name in names}

    def content_hash(self) -> str:
        return _sha256_json(self._hashed())

    def outputs_hash(self) -> str:
        """Hash of what the run produced: every hashed field but the config."""
        return _sha256_json({k: v for k, v in self._hashed().items() if k != "config"})

    def to_dict(self) -> dict:
        return {**self._hashed(), "started_at": self.started_at, "finished_at": self.finished_at, "content_hash": self.content_hash()}


def build_dataset(config: RunConfig, seed: int) -> ArrayDataset:
    ds = config.dataset
    if ds.kind == "blobs":
        blob_seed = ds.seed if ds.seed is not None else seed
        return generate_blobs(ds.classes, ds.dim, ds.train_per_class, ds.separation, blob_seed, test_per_class=ds.test_per_class)
    return load_idx_dataset(ds.train_images, ds.train_labels, ds.test_images, ds.test_labels)


class _ProtocolState:
    """Mutable per-run state: stats, prefixes, prediction nets, head rows."""

    def __init__(self):
        self.gaussians_by_session: dict[int, list] = {}
        self.scatter_by_session: dict[int, np.ndarray] = {}
        self.prefixes: dict[int, PrefixSet] = {}
        self.prednets: dict[int, PredictionNet] = {}
        self.covariance: SharedCovariance | None = None

    def all_gaussians(self) -> list:
        out = []
        for k in sorted(self.gaussians_by_session):
            out.extend(self.gaussians_by_session[k])
        return out

    def rebuild_covariance(self):
        self.covariance = SharedCovariance(sum(self.scatter_by_session[k] for k in sorted(self.scatter_by_session)))

    def set_session_stats(self, session: int, gaussians: list, scatter: np.ndarray):
        self.gaussians_by_session[session] = gaussians
        self.scatter_by_session[session] = scatter
        self.rebuild_covariance()


class _PoolEmbeddings:
    """Test-pool embeddings by dataset test index, one table per prefix set.

    `None` keys the prefix-free table.  A row is embedded the first time it
    is asked for under a prefix set and served from the table afterwards,
    which holds only while the encoder and that prefix set are frozen;
    `clear()` forgets every row after the encoder trained.
    """

    def __init__(self, test_x: np.ndarray):
        self.test_x = test_x
        self._tables = {}

    def embed(self, encoder, indices: np.ndarray, prefixes: PrefixSet | None = None) -> np.ndarray:
        if prefixes not in self._tables:
            self._tables[prefixes] = (np.empty((len(self.test_x), encoder.cfg.embed_dim)), np.zeros(len(self.test_x), dtype=bool))
        rows, done = self._tables[prefixes]
        missing = indices[~done[indices]]
        if len(missing):
            rows[missing] = embed_all(encoder, self.test_x[missing], prefixes=prefixes)
            done[missing] = True
        return rows[indices]

    def clear(self):
        self._tables.clear()


def _fit_session_stats(state, encoder, view_images, remapped_labels, session, pool_emb, metric):
    """Fit and pseudo-enrich one session's statistics.

    `pool_emb` holds the prefix-free embeddings of the test pool; the rows
    pseudo-labeled as one of this session's classes join its statistics.
    Returns the embeddings of the session's own samples and the
    pseudo-labeled pool rows with their labels.
    """
    embeddings = embed_all(encoder, view_images)
    gaussians, scatter = fit_class_stats(embeddings, remapped_labels, session)
    state.set_session_stats(session, gaussians, scatter)

    assigned = pseudo_label(pool_emb, state.all_gaussians(), state.covariance, metric)
    keep = np.isin(assigned, [g.class_id for g in gaussians])  # only this session's classes; past embeddings are gone
    pseudo_x, pseudo_y = pool_emb[keep], assigned[keep]
    if len(pseudo_x):
        gaussians, scatter = fit_class_stats(np.concatenate([embeddings, pseudo_x]), np.concatenate([remapped_labels, pseudo_y]), session)
        state.set_session_stats(session, gaussians, scatter)
    return embeddings, pseudo_x, pseudo_y


def _rectified_prototypes(state, embeddings, remapped_labels, pseudo_x, pseudo_y, session, tc, rng, log) -> list:
    """Train the session's prediction net and rectify its class means.

    The net learns to map each class's `outliers_inc` farthest members and
    the pseudo-labeled pool rows onto the session's (enriched) class means.
    Returns the Gaussians with each mean mu replaced by R(mu); routing keeps its own.
    """
    gaussians = state.gaussians_by_session[session]
    by_class = {g.class_id: g for g in gaussians}
    parts = []
    for g in gaussians:
        rows = embeddings[remapped_labels == g.class_id]
        parts.append(select_outlier_pairs(rows, g.mean, min(tc.outliers_inc, len(rows))))
    if len(pseudo_x):
        parts.append(OutlierPairs(inputs=pseudo_x, targets=np.stack([by_class[int(c)].mean for c in pseudo_y])))
    net = PredictionNet(embeddings.shape[1], rng.child("prednet"))
    train_prediction_net(net, merge_pairs(parts), tc, rng.child("prednet_train"), log=log, session=session)
    state.prednets[session] = net
    return refine_gaussian_stats(net, gaussians)


def _finetune_backbone_session(view, remapped, encoder, head, new_rows, tc, rng, log, session):
    """Delta-parameter ablation path: no prefixes, the backbone itself trains.

    The optimizer steps the whole `mu` matrix and, with head noise, the
    whole `sigma` matrix; every step then writes the rows of earlier
    sessions back from a snapshot, which keeps them bitwise frozen under any
    optimizer and weight decay.
    """
    from .base_trainer import cross_entropy_loss

    encoder.set_requires_grad(True)
    old_rows = np.setdiff1d(np.arange(head.num_classes), new_rows)
    frozen = [(t, t.data[old_rows]) for t in (head.mu, head.sigma)]
    opt = make_optimizer(tc.optimizer, [{"params": [*encoder.params().values(), *head.trained_params(tc.head_noise_train)], "lr": tc.inc_lr, "weight_decay": tc.inc_weight_decay}])
    encoder.eval()  # keep running stats frozen; gradients still flow

    def batch_loss(idx, epoch, start):
        z = encoder.forward(Tensor(view.images[idx]))
        return cross_entropy_loss(head, z, remapped[idx], rng.child("eps", f"e{epoch}", f"b{start}"), noise=tc.head_noise_train)

    train_step = backprop_step(opt, batch_loss)

    def step(idx, epoch, start):
        loss = train_step(idx, epoch, start)
        for t, rows in frozen:
            t.data[old_rows] = rows
        return loss

    run_epochs(opt, len(view.images), tc.inc_batch_size, tc.inc_epochs, rng, step, log, "incremental", session)
    encoder.set_requires_grad(False)


def _evaluate(encoder, head, state, pool, pool_idx, pool_emb, metric):
    """Route every pool sample (dataset test indices `pool_idx`) by its
    prefix-free embedding `pool_emb` to a session, gather each sample's
    embedding under that session's prefixes, and predict all of them with
    one call of the noise-free head."""
    _, routed_sessions = select_class_batch(pool_emb, state.all_gaussians(), state.covariance, metric)
    z = np.empty_like(pool_emb)
    for sess in np.unique(routed_sessions):
        idx = np.flatnonzero(routed_sessions == sess)
        z[idx] = pool.embed(encoder, pool_idx[idx], state.prefixes.get(sess))
    return head.predict_label(Tensor(z))


def run_protocol(
    dataset: ArrayDataset,
    specs: list,
    config: RunConfig,
    seed: int,
    log: EventLog | None = None,
):
    """Execute the full incremental protocol; returns (RunRecord, artifacts)."""
    check_disjoint(specs)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    tc = config.training
    metric = config.resolved_metric()

    rng = SeededRng(seed)
    vault = SessionDataVault(dataset, specs)
    state = _ProtocolState()
    pool = _PoolEmbeddings(dataset.test_x)

    # global label order: base classes first, then each session's, all sorted
    order = [c for spec in specs for c in spec.label_set]
    remap = {c: i for i, c in enumerate(order)}
    original = {i: c for c, i in remap.items()}
    class_to_task = {c: spec.session for spec in specs for c in spec.label_set}

    session_results = []
    trainable_fractions = []
    encoder = head = None

    for spec in specs:
        k = spec.session
        view = vault.open(k)
        remapped = np.array([remap[int(c)] for c in view.labels])
        _, pool_y = vault.test_pool(k)

        if k == 0:
            encoder, head, _, _ = train_base(view.images, remapped, config.model, tc, rng.child("base"), log=log)
            encoder.set_requires_grad(False)
            encoder.eval()
        pool_emb = pool.embed(encoder, spec.test_indices)
        embeddings, pseudo_x, pseudo_y = _fit_session_stats(state, encoder, view.images, remapped, k, pool_emb, metric)
        if k == 0:
            new_rows = list(range(head.num_classes))
        else:
            gaussians = state.gaussians_by_session[k]
            if tc.prediction_net:
                gaussians = _rectified_prototypes(state, embeddings, remapped, pseudo_x, pseudo_y, k, tc, rng.child(f"stats{k}"), log)
            new_rows = list(range(head.num_classes, head.num_classes + len(gaussians)))
            init_means_from_prototypes(head, {g.class_id: g.mean for g in gaussians})
        if tc.delta_params:
            prefixes = PrefixSet(config.model.layers, tc.prefix_len, config.model.embed_dim, rng.child(f"prefix{k}"))
            state.prefixes[k] = prefixes
            train_session(view.images, remapped, encoder, head, prefixes, new_rows, tc, rng.child(f"session{k}"), log=log, session=k)
            trainable_fractions.append(trainable_fraction(prefixes, [t.data[new_rows] for t in head.trained_params(tc.head_noise_train)], encoder))
        elif k:
            _finetune_backbone_session(view, remapped, encoder, head, new_rows, tc, rng.child(f"session{k}"), log, k)
            pool.clear()  # the backbone moved since the statistics were fitted
            pool_emb = pool.embed(encoder, spec.test_indices)

        view.close()

        predictions = _evaluate(encoder, head, state, pool, spec.test_indices, pool_emb, metric)
        pred_original = [int(original[int(p)]) for p in predictions]
        true_original = [int(c) for c in pool_y]
        accuracy = 100.0 * sum(1 for p, t in zip(pred_original, true_original) if p == t) / len(true_original)
        session_results.append(
            {
                "session": k,
                "n_test": len(true_original),
                "accuracy": accuracy,
                "predictions": pred_original,
                "labels": true_original,
            }
        )
        if log is not None:
            log.emit(phase="evaluate", session=k, epoch=0, key="accuracy", value=accuracy)

    metrics = compute_metrics(
        [r["predictions"] for r in session_results],
        [r["labels"] for r in session_results],
        class_to_task,
    )
    record = RunRecord(
        config=config.to_dict(),
        seed=seed,
        session_results=session_results,
        metrics=metrics.to_dict(),
        trainable_fractions=trainable_fractions,
        bayes_accuracy=dataset.bayes_accuracy,
        started_at=started,
        finished_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    artifacts = {
        "encoder": encoder,
        "head": head,
        "prefixes": state.prefixes,
        "gaussians": state.gaussians_by_session,
        "covariance": state.covariance,
        "prednets": state.prednets,
    }
    return record, artifacts


def save_run(out_dir, config: RunConfig, record: RunRecord, artifacts: dict):
    """One directory per run: config, metrics, record and `state.npz`.

    `state.npz` holds every array the run keeps, under canonical names:
    `encoder.*`, `head.*`, `session{k}.prefixes.*`,
    `session{k}.prediction_net.*` (incremental sessions only),
    `session{k}.class_ids`/`counts`/`means` (the routing Gaussians) and
    `covariance`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config.save(out / "config.json")
    with open(out / "metrics.json", "w") as fh:
        json.dump(record.metrics, fh, indent=2, sort_keys=True)
    with open(out / "record.json", "w") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)

    models = {"encoder": artifacts["encoder"], "head": artifacts["head"]}
    arrays = {}
    for k, gaussians in artifacts["gaussians"].items():
        if k in artifacts["prefixes"]:
            models[f"session{k}.prefixes"] = artifacts["prefixes"][k]
        if k in artifacts["prednets"]:
            models[f"session{k}.prediction_net"] = artifacts["prednets"][k]
        arrays[f"session{k}.class_ids"] = np.array([g.class_id for g in gaussians])
        arrays[f"session{k}.counts"] = np.array([g.count for g in gaussians])
        arrays[f"session{k}.means"] = np.stack([g.mean for g in gaussians])
    if artifacts["covariance"] is not None:
        arrays["covariance"] = artifacts["covariance"].matrix
    save_state(out / "state.npz", models, **arrays)


def run_from_config(config: RunConfig, seed: int, out_dir=None):
    """Build the dataset and splits from `config`, run, optionally persist."""
    dataset = build_dataset(config, seed)
    specs = build_fscil_splits(
        dataset.train_y, dataset.test_y, config.split.base_classes, config.split.ways, config.split.shots, seed
    )
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        log = EventLog(Path(out_dir) / "events.jsonl")
    else:
        log = EventLog(None)
    try:
        record, artifacts = run_protocol(dataset, specs, config, seed, log=log)
    finally:
        log.close()
    if out_dir:
        save_run(out_dir, config, record, artifacts)
    return record, artifacts


def run_many(config: RunConfig, seeds):
    """Run several seeds; aggregate mean and std of the headline metrics."""
    records = [run_from_config(config, s)[0] for s in seeds]
    acc = [r.metrics["average_accuracy"] for r in records]
    forget = [r.metrics["average_forgetting"] for r in records]
    f1 = [r.metrics["macro_f1"] for r in records]
    summary = {
        "seeds": list(seeds),
        "average_accuracy_mean": float(np.mean(acc)),
        "average_accuracy_std": float(np.std(acc)),
        "average_forgetting_mean": float(np.mean(forget)),
        "average_forgetting_std": float(np.std(forget)),
        "macro_f1_mean": float(np.mean(f1)),
        "macro_f1_std": float(np.std(f1)),
    }
    return records, summary


def run_ablation(config: RunConfig, without: str | None, seeds) -> dict:
    """Paired full-vs-ablated runs; returns a side-by-side metric report."""
    arms = {"baseline": config}
    if without is not None:
        arms["ablated"] = ablated(config, without)
    report = {"toggle": without}
    for arm, arm_config in arms.items():
        records, report[arm] = run_many(arm_config, seeds)
        report[f"{arm}_per_seed"] = [
            {"seed": r.seed, "average_accuracy": r.metrics["average_accuracy"], "average_forgetting": r.metrics["average_forgetting"]}
            for r in records
        ]
    if without is not None:
        report["delta"] = {
            key: report["ablated"][f"{key}_mean"] - report["baseline"][f"{key}_mean"] for key in ("average_accuracy", "average_forgetting")
        }
    return report


def format_ablation_report(report: dict) -> str:
    lines = [f"{'arm':<22}{'avg acc':>10}{'forgetting':>12}{'macro F1':>10}"]
    base = report["baseline"]
    lines.append(f"{'full system':<22}{base['average_accuracy_mean']:>10.2f}{base['average_forgetting_mean']:>12.2f}{base['macro_f1_mean']:>10.3f}")
    if "ablated" in report:
        ab = report["ablated"]
        lines.append(
            f"{'without ' + report['toggle']:<22}{ab['average_accuracy_mean']:>10.2f}{ab['average_forgetting_mean']:>12.2f}{ab['macro_f1_mean']:>10.3f}"
        )
        lines.append(
            f"{'delta':<22}{report['delta']['average_accuracy']:>10.2f}{report['delta']['average_forgetting']:>12.2f}"
        )
    return "\n".join(lines)
