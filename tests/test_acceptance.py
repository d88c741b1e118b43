"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
The two expensive fixtures (five full toy runs, five ablated runs) are shared
across criteria.
"""

import time

import numpy as np
import pytest

from fscil.backbone import BackboneConfig, Encoder
from fscil.base_trainer import DinoHead, dino_step, ema_update_teacher, make_teacher, train_base
from fscil.config import ablated, desk_profile, toy_fscil_config
from fscil.delta_params import PrefixSet
from fscil.errors import ContractViolation
from fscil.harness import SessionDataVault, build_fscil_splits, compute_metrics, generate_blobs
from fscil.numerics import SeededRng, Tensor, grad_check, log_softmax
from fscil.prototype_rectification import PredictionNet, rectify_prototype
from fscil.protocol import run_from_config
from fscil.stochastic_classifier import StochasticHead, cross_entropy_loss
from fscil.task_inference import SharedCovariance, fit_class_stats, select_class_batch

from mc_helpers import planted_bias_trial
from test_harness import CUB_CUMULATIVE, _labels, reference_metrics

SEEDS = [0, 1, 2, 3, 4]


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def toy_runs():
    start = time.time()
    records = [run_from_config(toy_fscil_config(), seed=s)[0] for s in SEEDS]
    return records, time.time() - start


@pytest.fixture(scope="module")
def ablated_runs():
    records = [run_from_config(ablated(toy_fscil_config(), "delta_params"), seed=s)[0] for s in SEEDS]
    return records


# -- criterion 1: gradient integrity ------------------------------------------------


def test_criterion_1_gradient_integrity():
    start = time.time()
    worst = 0.0
    rng = SeededRng(100)
    cfg = BackboneConfig(
        image_size=4, patch_size=1, embed_dim=8, heads=2, layers=1, ffn_hidden=12
    )
    enc = Encoder(cfg, rng.child("enc")).train()
    block = enc.blocks[0]
    tokens = rng.child("tokens").normal(size=(8, 3, 8))

    def check(f, x):
        nonlocal worst
        report = grad_check(f, x, tol=1e-4)
        worst = max(worst, report.max_rel_error)
        assert report.passed, report

    # multi-head self-attention (parameters and input)
    for getter, setter in [
        (lambda: block.q, lambda t: setattr(block, "q", t)),
        (lambda: block.k, lambda t: setattr(block, "k", t)),
        (lambda: block.v, lambda t: setattr(block, "v", t)),
        (lambda: block.out_proj, lambda t: setattr(block, "out_proj", t)),
    ]:

        def f(t, getter=getter, setter=setter):
            old = getter()
            setter(t)
            try:
                return (block.attention(Tensor(tokens))[0] ** 2).sum()
            finally:
                setter(old)

        check(f, Tensor(getter().data.copy()))
    check(lambda t: (block.attention(t)[0] ** 2).sum(), Tensor(tokens.copy()))

    # FFN, train-mode BN with batch >= 8
    flat = rng.child("flat").normal(size=(8, 8))

    def f_theta(t):
        old = block.theta1
        block.theta1 = t
        try:
            return (block.ffn(Tensor(flat), "train") ** 2).sum()
        finally:
            block.theta1 = old

    check(f_theta, Tensor(block.theta1.data.copy()))
    check(lambda t: (block.ffn(t, "train") ** 2).sum(), Tensor(flat.copy()))

    # sequence pooling (parameters and input)
    grid = rng.child("grid").normal(size=(2, cfg.token_count(), 8))

    def f_pool(t):
        old = enc.pool_proj
        enc.pool_proj = t
        try:
            return (enc.sequence_pool(Tensor(grid)) ** 2).sum()
        finally:
            enc.pool_proj = old

    check(f_pool, Tensor(enc.pool_proj.data.copy()))
    check(lambda t: (enc.sequence_pool(t) ** 2).sum(), Tensor(grid.copy()))

    # stochastic head with a fixed epsilon
    means = rng.child("means").normal(size=(3, 6))
    eps = rng.child("eps").normal(size=(3, 6))
    z = rng.child("z").normal(size=(2, 6))
    labels = np.array([0, 2])

    def head_loss(head):
        logits = head.logits(Tensor(z), eps)
        logp = log_softmax(logits, axis=-1)
        onehot = np.zeros((2, 3))
        onehot[np.arange(2), labels] = 1.0
        return -(Tensor(onehot) * logp).sum() * 0.5

    for attr in ("mu", "sigma"):

        def f_head(t, attr=attr):
            head = StochasticHead(6)
            for m in means:
                head.add_class(m)
            setattr(head, attr, t)
            return head_loss(head)

        start_val = means if attr == "mu" else np.full((3, 6), 4.0)
        check(f_head, Tensor(start_val.copy()))

    # the head's training loss, one fused node, under a fixed draw
    for attr in ("z", "mu", "sigma"):

        def f_ce(t, attr=attr):
            head = StochasticHead(6)
            for m in means:
                head.add_class(m)
            if attr != "z":
                setattr(head, attr, t)
            return cross_entropy_loss(head, t if attr == "z" else Tensor(z), labels, SeededRng(101), noise=True)

        start_val = {"z": z, "mu": means, "sigma": np.full((3, 6), 4.0)}[attr]
        check(f_ce, Tensor(start_val.copy()))

    # prefix attention
    base_prefix = PrefixSet(1, 4, 8, rng.child("prefix"))
    for attr in ("p_k", "p_v"):

        def f_prefix(t, attr=attr):
            prefixes = PrefixSet(1, 4, 8, rng.child("prefix"))
            setattr(prefixes, attr, t)
            return (block.attention(Tensor(tokens), prefix_kv=prefixes.layer_kv(0))[0] ** 2).sum()

        check(f_prefix, Tensor(getattr(base_prefix, attr).data.copy()))

    # prediction network
    pn_in = rng.child("pnx").normal(size=(4, 5))
    pn_t = rng.child("pnt").normal(size=(4, 5))

    def f_net(t):
        net = PredictionNet(5, SeededRng(200), depth=2)
        net.layers[0].weight = t
        diff = net(Tensor(pn_in)) - Tensor(pn_t)
        return (diff * diff).mean()

    check(f_net, Tensor(PredictionNet(5, SeededRng(200), depth=2).layers[0].weight.data.copy()))

    elapsed = time.time() - start
    _report("criterion 1 (gradient integrity)", worst <= 1e-4 and elapsed < 120.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: prefix equivalence -------------------------------------------------


def test_criterion_2_prefix_equivalence():
    cfg = BackboneConfig(image_size=4, embed_dim=8, heads=2, layers=1, ffn_hidden=12)
    block = Encoder(cfg, SeededRng(300)).blocks[0]
    empty_kv = PrefixSet(1, 0, 8, SeededRng(302)).layer_kv(0)
    zero_rows = [t.shape for t in empty_kv] == [(0, 8), (0, 8)]  # the attention node gets rows, not None
    rng = np.random.default_rng(301)
    identical = 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        x = Tensor(rng.normal(size=(2, n, 8)))
        plain, _ = block.attention(x)
        prefixed, _ = block.attention(x, prefix_kv=empty_kv)
        identical += int(np.array_equal(plain.data, prefixed.data))
    _report("criterion 2 (prefix equivalence)", zero_rows and identical == 1000, f"(0, d) rows: {zero_rows}; {identical}/1000 bitwise identical")


# -- criterion 3: routing oracle ------------------------------------------------------


def test_criterion_3_routing_oracle():
    rng = np.random.default_rng(400)
    maha_agree = 0
    for _ in range(1000):
        n_classes = int(rng.integers(2, 11))
        dim = int(rng.integers(2, 9))
        gaussians, _ = fit_class_stats(rng.normal(size=(n_classes, dim)) * 3, np.arange(n_classes), session=0)
        for i, g in enumerate(gaussians):
            g.session = i % 4
        b = rng.normal(size=(dim, dim))
        shared = SharedCovariance(matrix=b @ b.T + 0.5 * np.eye(dim))
        q = rng.normal(size=dim) * 2

        eps = 1e-6 * np.trace(shared.matrix) / dim
        inv = np.linalg.inv(shared.matrix + eps * np.eye(dim))
        dists = [(g.mean - q) @ inv @ (g.mean - q) for g in gaussians]
        want = gaussians[int(np.argmin(dists))]
        got_cls, got_sess = select_class_batch(q[None], gaussians, shared, metric="mahalanobis")
        maha_agree += int(got_cls[0] == want.class_id and got_sess[0] == want.session)

    euclid_agree = 0
    for _ in range(1000):
        n_classes = int(rng.integers(2, 11))
        dim = int(rng.integers(2, 9))
        gaussians, _ = fit_class_stats(rng.normal(size=(n_classes, dim)) * 3, np.arange(n_classes), session=0)
        identity = SharedCovariance(matrix=np.eye(dim))
        q = rng.normal(size=dim) * 2
        e_cls, _ = select_class_batch(q[None], gaussians, None, metric="euclidean")
        m_cls, _ = select_class_batch(q[None], gaussians, identity, metric="mahalanobis")
        euclid_agree += int(e_cls[0] == m_cls[0])

    ok = maha_agree == 1000 and euclid_agree == 1000
    _report("criterion 3 (routing oracle)", ok, f"brute force {maha_agree}/1000, euclidean==identity {euclid_agree}/1000")


# -- criterion 4: rectification algebra -------------------------------------------------


def test_criterion_4_rectification_algebra():
    rng = np.random.default_rng(500)
    net = PredictionNet(6, SeededRng(501), depth=2)
    midpoint_ok = True
    for _ in range(100):
        mu = rng.normal(size=6)
        if np.max(np.abs(rectify_prototype(net, mu) - 0.5 * (net.apply(mu) + mu))) > 1e-12:
            midpoint_ok = False

    ident = PredictionNet.identity(6)
    mu = rng.normal(size=6)
    fixed_ok = np.array_equal(rectify_prototype(ident, mu), mu)

    wins = sum(planted_bias_trial(seed) for seed in range(500))
    ok = midpoint_ok and fixed_ok and wins >= 400
    _report("criterion 4 (rectification algebra)", ok, f"midpoint<=1e-12 {midpoint_ok}, identity exact {fixed_ok}, de-bias {wins}/500")


# -- criterion 5: distillation mechanics --------------------------------------------------


def test_criterion_5_dino_mechanics():
    from test_base_trainer import _calibrate_teacher_bn

    cfg = BackboneConfig(image_size=4, patch_size=2, embed_dim=16, heads=2, layers=1, ffn_hidden=32)
    encoder = Encoder(cfg, SeededRng(600)).train()
    proj = DinoHead(SeededRng(601), 16, 16, 8)
    tc = desk_profile(proj_dim=8)
    teacher = make_teacher(encoder, proj, tc)
    teacher.current_temp = tc.student_temp
    batch = np.random.default_rng(602).normal(size=(2, 1, 4, 4))
    slots = [batch.copy() for _ in range(4)]
    _calibrate_teacher_bn(encoder, teacher.encoder, batch)
    loss, info = dino_step(encoder, proj, teacher, slots, student_temp=tc.student_temp)
    probs = teacher.probs(teacher.logits(batch))
    entropy = float(-(probs * np.log(probs)).sum(axis=-1).mean())
    entropy_ok = isinstance(loss, float) and abs(loss - info["n_pairs"] * entropy) < 1e-9
    pairs_ok = info["n_pairs"] == 2 * (len(slots) - 1)

    # EMA contraction factor
    enc2 = Encoder(cfg, SeededRng(603)).train()
    proj2 = DinoHead(SeededRng(604), 16, 16, 8)
    teacher2 = make_teacher(enc2, proj2, tc)
    for p in enc2.params().values():
        p.data = p.data + np.random.default_rng(605).normal(size=p.data.shape)

    def dist():
        s = enc2.params()
        return np.sqrt(sum(((p.data - s[n].data) ** 2).sum() for n, p in teacher2.encoder.params().items()))

    d0 = dist()
    ema_update_teacher(teacher2, enc2, proj2, momentum=0.996)
    ema_ok = abs(dist() - 0.996 * d0) < 1e-9 * max(1.0, d0)

    # 50-epoch collapse sentinel on blobs
    ds = generate_blobs(classes=6, dim=16, samples_per_class=20, separation=8.0, seed=606, test_per_class=0)
    tc50 = desk_profile(ssl_epochs=50, ssl_early_stop=50, ssl_batch_size=60, sup_epochs=0, n_local_crops=2, proj_dim=32)
    _, _, _, history = train_base(ds.train_x, ds.train_y, cfg, tc50, SeededRng(607))
    floor = 0.1 * np.log(tc50.proj_dim)
    min_entropy = min(history["teacher_entropy"])
    sentinel_ok = len(history["teacher_entropy"]) == 50 and min_entropy > floor

    ok = entropy_ok and pairs_ok and ema_ok and sentinel_ok
    _report(
        "criterion 5 (distillation mechanics)",
        ok,
        f"entropy identity {entropy_ok}, pairs {info['n_pairs']}, ema {ema_ok}, min teacher entropy {min_entropy:.3f} > {floor:.3f}",
    )


# -- criterion 6: end-to-end toy protocol ---------------------------------------------------


def test_criterion_6_toy_fscil(toy_runs):
    records, elapsed = toy_runs
    accs = [r.metrics["average_accuracy"] for r in records]
    forgets = [r.metrics["average_forgetting"] for r in records]
    mean_acc = float(np.mean(accs))
    mean_forget = float(np.mean(forgets))
    ok = mean_acc >= 85.0 and mean_forget <= 10.0 and elapsed <= 300.0
    _report(
        "criterion 6 (toy protocol)",
        ok,
        f"avg acc {mean_acc:.2f}% (per seed {[round(a, 1) for a in accs]}), forgetting {mean_forget:.2f}%, {elapsed:.0f}s/5 seeds",
    )


# -- criterion 7: protocol fidelity -----------------------------------------------------------


def test_criterion_7_protocol_fidelity():
    train = _labels({c: 10 for c in range(100)})
    test = _labels({c: 100 for c in range(100)})
    specs = build_fscil_splits(train, test, 60, 5, 5, seed=0)
    mi_ok = all(len(s.test_indices) == 100 * (60 + 5 * s.session) for s in specs)
    nk_ok = all(len(s.train_indices) == 25 for s in specs[1:])
    disjoint_ok = True
    seen = set()
    for s in specs:
        if seen & set(s.label_set):
            disjoint_ok = False
        seen |= set(s.label_set)

    cub_train = _labels({c: 30 for c in range(200)})
    sizes = [CUB_CUMULATIVE[0]] + list(np.diff(CUB_CUMULATIVE))
    counts = {}
    for k, total in enumerate(sizes):
        group = list(range(100)) if k == 0 else list(range(100 + 10 * (k - 1), 100 + 10 * k))
        for i, c in enumerate(group):
            counts[c] = total // len(group) + (1 if i < total % len(group) else 0)
    cub_specs = build_fscil_splits(cub_train, _labels(counts), 100, 10, 5, seed=1)
    cub_ok = [len(s.test_indices) for s in cub_specs] == CUB_CUMULATIVE

    ds = generate_blobs(classes=6, dim=16, samples_per_class=6, separation=6.0, seed=700, test_per_class=3)
    vspecs = build_fscil_splits(ds.train_y, ds.test_y, 2, 2, 2, seed=2)
    vault = SessionDataVault(ds, vspecs)
    view = vault.open(0)
    vault.open(1)
    try:
        _ = view.images
        guard_ok = False
    except ContractViolation:
        guard_ok = True

    ok = mi_ok and nk_ok and disjoint_ok and cub_ok and guard_ok
    _report(
        "criterion 7 (protocol fidelity)",
        ok,
        f"pool sizes {mi_ok}, N*K {nk_ok}, disjoint {disjoint_ok}, cumulative pattern {cub_ok}, access guard {guard_ok}",
    )


# -- criterion 8: ablation direction ------------------------------------------------------------


def test_criterion_8_ablation_direction(toy_runs, ablated_runs):
    full_records, _ = toy_runs
    hits = 0
    details = []
    for full, ablated in zip(full_records, ablated_runs):
        acc_drop = ablated.metrics["average_accuracy"] < full.metrics["average_accuracy"]
        forget_rise = ablated.metrics["average_forgetting"] > full.metrics["average_forgetting"]
        hits += int(acc_drop and forget_rise)
        details.append((round(full.metrics["average_accuracy"], 1), round(ablated.metrics["average_accuracy"], 1)))
    _report("criterion 8 (ablation direction)", hits >= 4, f"{hits}/5 seeds degraded; (full, without-delta) acc pairs {details}")


# -- criterion 9: metric oracle -------------------------------------------------------------------


def test_criterion_9_metric_oracle():
    rng = np.random.default_rng(900)
    matches = 0
    for _ in range(1000):
        n_sessions = int(rng.integers(1, 5))
        class_to_task = {}
        next_class = 0
        seen = []
        preds_per, labels_per = [], []
        for t in range(n_sessions):
            for _ in range(int(rng.integers(1, 4))):
                class_to_task[next_class] = t
                seen.append(next_class)
                next_class += 1
            labels = [int(c) for c in rng.choice(seen, size=int(rng.integers(len(seen), 3 * len(seen) + 1)), replace=True)]
            labels.extend(seen)
            preds = [int(c) for c in rng.choice(seen, size=len(labels), replace=True)]
            preds_per.append(preds)
            labels_per.append(labels)
        got = compute_metrics(preds_per, labels_per, class_to_task)
        want = reference_metrics(preds_per, labels_per, class_to_task)
        matches += int(
            got.per_session_accuracy == want[0]
            and got.average_accuracy == want[1]
            and got.average_forgetting == want[2]
            and got.macro_f1 == want[3]
        )
    _report("criterion 9 (metric oracle)", matches == 1000, f"{matches}/1000 traces matched exactly")


# -- criterion 10: determinism ----------------------------------------------------------------------


def test_criterion_10_determinism():
    from test_protocol import small_config

    cfg = small_config()
    h1 = run_from_config(cfg, seed=42)[0].content_hash()
    h2 = run_from_config(cfg, seed=42)[0].content_hash()
    _report("criterion 10 (determinism)", h1 == h2, f"hash {h1[:16]}... reproduced: {h1 == h2}")
