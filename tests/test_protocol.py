"""Protocol runner tests: bookkeeping, determinism, persistence, ablation wiring."""

import json
from collections import Counter

import numpy as np
import pytest

from fscil import protocol
from fscil.backbone import Encoder, hash_state, load_state, state_arrays
from fscil.base_trainer import embed_all
from fscil.config import ABLATION_TOGGLES, BackboneConfig, DatasetConfig, RunConfig, SplitConfig, ablated, desk_profile
from fscil.delta_params import PrefixSet
from fscil.errors import ArgumentError
from fscil.harness import build_fscil_splits
from fscil.numerics import SeededRng, Tensor
from fscil.protocol import build_dataset, run_ablation, run_from_config
from fscil.prototype_rectification import PredictionNet, rectify_prototype
from fscil.stochastic_classifier import StochasticHead, init_means_from_prototypes
from fscil.task_inference import select_class_batch


def small_config(**dataset_kw) -> RunConfig:
    ds = dict(kind="blobs", classes=8, dim=16, train_per_class=12, test_per_class=6, separation=8.0)
    ds.update(dataset_kw)
    return RunConfig(
        model=BackboneConfig(image_size=4, conv_channels=(16,), conv_kernel=3, conv_padding=1, pool_size=2, embed_dim=16, heads=2, layers=1, ffn_hidden=32),
        training=desk_profile(
            ssl_epochs=3,
            ssl_early_stop=3,
            sup_epochs=6,
            sup_early_stop=6,
            ssl_batch_size=32,
            sup_batch_size=32,
            prednet_epochs=30,
            inc_epochs=6,
            inc_epochs_base=2,
            prefix_len=4,
        ),
        dataset=DatasetConfig(**ds),
        split=SplitConfig(base_classes=4, ways=2, shots=3),
    )


@pytest.fixture(scope="module")
def small_run():
    cfg = small_config()
    record, artifacts = run_from_config(cfg, seed=11)
    return cfg, record, artifacts


def test_session_bookkeeping(small_run):
    cfg, record, artifacts = small_run
    assert len(record.session_results) == 3  # base + 2 sessions -> 3 accuracy points
    assert [r["session"] for r in record.session_results] == [0, 1, 2]
    for r in record.session_results:
        assert 0.0 <= r["accuracy"] <= 100.0
        assert len(r["predictions"]) == r["n_test"] == len(r["labels"])
    assert record.metrics["per_session_accuracy"] == [r["accuracy"] for r in record.session_results]


def test_artifacts_cover_every_session(small_run):
    cfg, record, artifacts = small_run
    assert sorted(artifacts["prefixes"]) == [0, 1, 2]
    assert sorted(artifacts["gaussians"]) == [0, 1, 2]
    assert sorted(artifacts["prednets"]) == [1, 2]  # the base session trains no prediction net
    # per-class Gaussian count matches the split
    assert len(artifacts["gaussians"][0]) == 4
    assert len(artifacts["gaussians"][1]) == 2
    head = artifacts["head"]
    assert head.num_classes == 8


def test_trainable_fraction_small(small_run):
    cfg, record, artifacts = small_run
    assert record.trainable_fractions and all(0 < f < 0.5 for f in record.trainable_fractions)


def test_determinism_same_seed_same_hash():
    cfg = small_config()
    rec1, _ = run_from_config(cfg, seed=3)
    rec2, _ = run_from_config(cfg, seed=3)
    assert rec1.content_hash() == rec2.content_hash()
    rec3, _ = run_from_config(cfg, seed=4)
    assert rec3.content_hash() != rec1.content_hash()


@pytest.fixture(scope="module")
def counted_runs():
    """Full and `delta_params`-ablated runs of `small_config()`, seed 11, with
    every `protocol.embed_all` call of a test-pool sample recorded as
    (prefix set or None, dataset test index), and every evaluation as
    (sessions routed to, `StochasticHead.logits` calls)."""
    runs = {}
    for arm in ("full", "delta_params"):
        cfg = small_config() if arm == "full" else ablated(small_config(), arm)
        dataset = build_dataset(cfg, 11)
        specs = build_fscil_splits(dataset.train_y, dataset.test_y, cfg.split.base_classes, cfg.split.ways, cfg.split.shots, 11)
        test_index = {row.tobytes(): i for i, row in enumerate(dataset.test_x)}
        calls, evaluations, logits_calls = [], [], []

        def counting(encoder, data_x, prefixes=None, **kw):
            calls.extend((prefixes, test_index[row.tobytes()]) for row in data_x if row.tobytes() in test_index)
            return embed_all(encoder, data_x, prefixes=prefixes, **kw)

        real_logits, real_evaluate = StochasticHead.logits, protocol._evaluate

        def counting_logits(head, *args, **kw):
            logits_calls.append(head)
            return real_logits(head, *args, **kw)

        def counting_evaluate(encoder, head, state, pool, pool_idx, pool_emb, metric):
            before = len(logits_calls)
            predictions = real_evaluate(encoder, head, state, pool, pool_idx, pool_emb, metric)
            _, routed = select_class_batch(pool_emb, state.all_gaussians(), state.covariance, metric)
            evaluations.append((len(set(routed.tolist())), len(logits_calls) - before))
            return predictions

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "embed_all", counting)
            mp.setattr(StochasticHead, "logits", counting_logits)
            mp.setattr(protocol, "_evaluate", counting_evaluate)
            record, artifacts = protocol.run_protocol(dataset, specs, cfg, 11)
        runs[arm] = (cfg, dataset, specs, record, artifacts, calls, evaluations)
    return runs


def test_each_pool_sample_is_embedded_once_per_prefix_set(counted_runs):
    _, _, specs, _, artifacts, calls, _ = counted_runs["full"]
    counts = Counter(calls)
    assert max(counts.values()) == 1
    assert {i for prefixes, i in counts if prefixes is None} == set(specs[-1].test_indices.tolist())
    assert {prefixes for prefixes, _ in counts} - {None} <= set(artifacts["prefixes"].values())


def test_backbone_finetune_arm_reembeds_the_pool_after_each_session(counted_runs):
    _, _, specs, _, _, calls, _ = counted_runs["delta_params"]
    assert {prefixes for prefixes, _ in calls} == {None}
    first_session = {}
    for spec in reversed(specs):
        first_session.update((i, spec.session) for i in spec.test_indices.tolist())
    # embedded when it joins the pool, then again after every session's backbone training
    n = len(specs)
    expected = {i: n - s + (s > 0) for i, s in first_session.items()}
    assert dict(Counter(i for _, i in calls)) == expected


def test_pool_embeddings_serve_each_prefix_sets_own_rows():
    cfg = small_config()
    encoder = Encoder(cfg.model, SeededRng(0))
    encoder.set_requires_grad(False)
    test_x = np.random.default_rng(0).normal(size=(12, cfg.model.in_channels, cfg.model.image_size, cfg.model.image_size))
    prefix_sets = [None] + [PrefixSet(k, cfg.model.layers, cfg.training.prefix_len, cfg.model.embed_dim, SeededRng(k)) for k in (1, 2)]
    pool = protocol._PoolEmbeddings(test_x)
    for idx in (np.array([3, 1, 7]), np.arange(12), np.array([11, 3]), np.array([], dtype=int)):
        for prefixes in prefix_sets:
            expected = embed_all(encoder, test_x[idx], prefixes=prefixes)
            np.testing.assert_allclose(pool.embed(encoder, idx, prefixes), expected, rtol=0, atol=1e-12)


def test_last_session_predictions_match_a_cache_free_recomputation(counted_runs):
    cfg, dataset, specs, record, artifacts, _, _ = counted_runs["full"]
    order = [c for spec in specs for c in spec.label_set]
    pool_x = dataset.test_x[specs[-1].test_indices]
    encoder, head = artifacts["encoder"], artifacts["head"]
    gaussians = [g for k in sorted(artifacts["gaussians"]) for g in artifacts["gaussians"][k]]
    _, routed = select_class_batch(embed_all(encoder, pool_x), gaussians, artifacts["covariance"], cfg.resolved_metric())
    expected = np.full(len(pool_x), -1)
    for sess in set(routed.tolist()):
        idx = np.flatnonzero(routed == sess)
        labels = head.predict_label(Tensor(embed_all(encoder, pool_x[idx], prefixes=artifacts["prefixes"][sess])))
        expected[idx] = [order[int(c)] for c in np.atleast_1d(labels)]
    assert record.session_results[-1]["predictions"] == expected.tolist()


def test_each_evaluation_calls_the_head_once_however_many_sessions_it_routes_to(counted_runs):
    evaluations = counted_runs["full"][-1]
    assert len(evaluations) == 3
    assert [head_calls for _, head_calls in evaluations] == [1, 1, 1]
    assert evaluations[-1][0] == 3  # the last pool is routed to all three sessions


def test_unknown_toggle_rejected():
    cfg = small_config()
    with pytest.raises(ArgumentError):
        ablated(cfg, "bogus")


@pytest.fixture(scope="module")
def ablated_run_dirs(tmp_path_factory):
    """One saved run per ablation arm: (loaded config, record, run directory)."""
    runs = {}
    for name in ABLATION_TOGGLES:
        out = tmp_path_factory.mktemp(name)
        record, _ = run_from_config(ablated(small_config(), name), seed=2, out_dir=out)
        runs[name] = (RunConfig.load(out / "config.json"), record, out)
    return runs


@pytest.mark.parametrize("name", sorted(ABLATION_TOGGLES))
def test_ablated_run_records_its_arm(ablated_run_dirs, name):
    loaded, record, out = ablated_run_dirs[name]
    assert loaded.to_dict() == ablated(small_config(), name).to_dict()
    stored = json.loads((out / "record.json").read_text())
    assert stored["config"] == json.loads((out / "config.json").read_text())
    rerun, _ = run_from_config(loaded, seed=2)
    assert rerun.content_hash() == record.content_hash() == stored["content_hash"]


def test_ssl_arm_emits_no_ssl_event(ablated_run_dirs):
    with open(ablated_run_dirs["ssl"][2] / "events.jsonl") as fh:
        phases = {json.loads(line)["phase"] for line in fh}
    assert "ssl" not in phases and "supervised" in phases


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    cfg = small_config(classes=6)
    cfg.split = SplitConfig(base_classes=4, ways=2, shots=3)
    out = tmp_path_factory.mktemp("run")
    record, artifacts = run_from_config(cfg, seed=5, out_dir=out)
    return cfg, record, artifacts, out


def test_run_persistence_layout(saved_run):
    _, record, _, out = saved_run
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "events.jsonl", "metrics.json", "record.json", "state.npz"]

    with open(out / "record.json") as fh:
        stored = json.load(fh)
    assert stored["content_hash"] == record.content_hash()
    with open(out / "metrics.json") as fh:
        assert json.load(fh)["average_accuracy"] == record.metrics["average_accuracy"]

    # events are one JSON object per line with the fixed schema
    with open(out / "events.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines, "no events logged"
    for rec in lines:
        assert set(rec) == {"phase", "session", "epoch", "key", "value"}
    phases = [r["phase"] for r in lines]
    assert phases.index("supervised") > max(i for i, p in enumerate(phases) if p == "ssl")


def test_saved_state_reloads_into_fresh_models(saved_run):
    cfg, _, artifacts, out = saved_run
    dim, sessions = cfg.model.embed_dim, sorted(artifacts["gaussians"])
    assert sessions == [0, 1]
    encoder, head = Encoder(cfg.model, SeededRng(99)), StochasticHead(dim)
    for _ in range(artifacts["head"].num_classes):
        head.add_class(np.ones(dim))
    models = {"encoder": encoder, "head": head}
    for k in sessions:
        models[f"session{k}.prefixes"] = PrefixSet(k, cfg.model.layers, cfg.training.prefix_len, dim)
    for k in sessions[1:]:
        models[f"session{k}.prediction_net"] = PredictionNet(dim, k, SeededRng(99))
    assert hash_state(encoder) != hash_state(artifacts["encoder"])

    arrays = load_state(out / "state.npz", models)
    assert hash_state(encoder) == hash_state(artifacts["encoder"])
    assert hash_state(head) == hash_state(artifacts["head"])
    session_arrays = set()
    for k in sessions:
        assert hash_state(models[f"session{k}.prefixes"]) == hash_state(artifacts["prefixes"][k])
        if k:
            assert hash_state(models[f"session{k}.prediction_net"]) == hash_state(artifacts["prednets"][k])
        gaussians = artifacts["gaussians"][k]
        np.testing.assert_array_equal(arrays[f"session{k}.means"], np.stack([g.mean for g in gaussians]))
        assert arrays[f"session{k}.class_ids"].tolist() == [g.class_id for g in gaussians]
        assert arrays[f"session{k}.counts"].tolist() == [g.count for g in gaussians]
        session_arrays |= {f"session{k}.means", f"session{k}.class_ids", f"session{k}.counts"}
    np.testing.assert_array_equal(arrays["covariance"], artifacts["covariance"].matrix)
    model_arrays = {f"{scope}.{name}" for scope, model in models.items() for name in state_arrays(model)}
    assert set(arrays) == model_arrays | session_arrays | {"covariance"}
    assert not [name for name in arrays if name.startswith("session0.prediction_net.")]


def test_round_trip_config(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = RunConfig.load(path)
    assert loaded.to_dict() == cfg.to_dict()


def test_ablation_no_toggle_identical_to_protocol_metrics():
    cfg = small_config()
    report = run_ablation(cfg, None, seeds=[7])
    record, _ = run_from_config(cfg, seed=7)
    assert report["baseline_per_seed"][0]["average_accuracy"] == record.metrics["average_accuracy"]
    assert report["baseline_per_seed"][0]["average_forgetting"] == record.metrics["average_forgetting"]
    assert "ablated" not in report


def test_ablation_unknown_toggle_rejected():
    with pytest.raises(ArgumentError):
        run_ablation(small_config(), "everything", seeds=[0])


def test_stochastic_head_toggle_disables_noise():
    cfg = small_config()
    record, artifacts = run_from_config(ablated(cfg, "stochastic_head"), seed=9)
    # sigma rows stay at the initialization: no gradient ever reaches them
    head = artifacts["head"]
    for sig in head.sigma:
        assert np.allclose(sig.data, head.offset)


@pytest.fixture(scope="module")
def rectification_arms():
    """Artifacts of full and `prediction_net`-ablated `small_config()` runs at
    seed 11, and the prototypes each incremental session of the full arm
    handed to `init_means_from_prototypes`."""
    prototypes = []

    def recording(head, protos):
        prototypes.append(dict(protos))
        return init_means_from_prototypes(head, protos)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "init_means_from_prototypes", recording)
        _, full = run_from_config(small_config(), seed=11)
    _, plain = run_from_config(ablated(small_config(), "prediction_net"), seed=11)
    return full, plain, prototypes


def test_rectification_leaves_routing_statistics_alone(rectification_arms):
    full, plain, _ = rectification_arms
    assert sorted(full["prednets"]) == [1, 2] and plain["prednets"] == {}
    assert sorted(full["gaussians"]) == sorted(plain["gaussians"]) == [0, 1, 2]
    for k in full["gaussians"]:
        for a, b in zip(full["gaussians"][k], plain["gaussians"][k], strict=True):
            assert (a.class_id, a.session, a.count) == (b.class_id, b.session, b.count)
            assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(full["covariance"].matrix, plain["covariance"].matrix)


def test_new_head_rows_start_at_rectified_routing_means(rectification_arms):
    full, _, prototypes = rectification_arms
    assert len(prototypes) == 2  # one call per incremental session
    for k, protos in zip((1, 2), prototypes):
        routing = {g.class_id: g.mean for g in full["gaussians"][k]}
        assert sorted(protos) == sorted(routing)
        for cls, proto in protos.items():
            np.testing.assert_allclose(proto, rectify_prototype(full["prednets"][k], routing[cls]), rtol=0, atol=1e-12)


def test_prediction_net_toggle_skips_rectification():
    cfg = small_config()
    record, artifacts = run_from_config(ablated(cfg, "prediction_net"), seed=10)
    assert artifacts["prednets"] == {}


def test_probe_flag_records_accuracy():
    cfg = small_config(classes=6)
    cfg.split = SplitConfig(base_classes=4, ways=2, shots=3)
    cfg.training.run_probe = True
    cfg.training.probe_epochs = 15
    record, _ = run_from_config(cfg, seed=13)
    assert record.probe_accuracy is not None and 0.0 <= record.probe_accuracy <= 1.0


def test_auto_metric_resolution():
    cfg = small_config()
    assert cfg.resolved_metric() == "mahalanobis"
    cfg.split = SplitConfig(base_classes=4, ways=2, shots=1)
    assert cfg.resolved_metric() == "euclidean"  # 1-shot falls back to euclidean
