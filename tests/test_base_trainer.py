"""Base training tests: crops, distillation identities, EMA, phase ordering."""

import tracemalloc

import numpy as np
import pytest

from fscil import base_trainer
from fscil.backbone import BackboneConfig, Encoder, hash_state
from fscil.base_trainer import (
    CENTER_MOMENTUM,
    EMBED_BATCH,
    GLOBAL_CROP_SCALE,
    LOCAL_CROP_SCALE,
    PROJ_HIDDEN_DIM,
    SSL_WEIGHT_DECAY,
    SSL_WEIGHT_DECAY_END,
    STUDENT_TEMP,
    TEACHER_TEMP,
    WARMUP_TEACHER_TEMP,
    DinoHead,
    crop_slots,
    dino_step,
    ema_update_teacher,
    embed_all,
    make_teacher,
    train_base,
    update_center,
)
from fscil.config import TrainingConfig, desk_profile, toy_fscil_config
from fscil.errors import ArgumentError, NumericError, UsageError
from fscil.events import EventLog
from fscil.numerics import SeededRng, Tensor, log_softmax, no_grad


def blob_images(seed=0, classes=4, per_class=20, spread=4.0):
    rng = SeededRng(seed)
    means = rng.child("m").normal(size=(classes, 16), scale=spread)
    xs = [means[c] + rng.child(f"c{c}").normal(size=(per_class, 16)) for c in range(classes)]
    x = np.concatenate(xs).reshape(-1, 1, 4, 4)
    y = np.repeat(np.arange(classes), per_class)
    return x, y


def tiny_model():
    return BackboneConfig(image_size=4, patch_size=2, embed_dim=16, heads=2, layers=1, ffn_hidden=32)


# -- multi-crop ------------------------------------------------------------------


def replayed_boxes(rng, batch, h, n_local, global_scale=(0.6, 1.0), local_scale=(0.2, 0.5)):
    """Per slot, (top, left, side) arrays drawn in `crop_slots`' documented order."""
    boxes = []
    for j in range(2 + n_local):
        low, high = global_scale if j < 2 else local_scale
        side = np.clip(np.round(h * np.sqrt(rng.uniform(low, high, size=batch))), 1, h).astype(int)
        top = rng.integers(0, h - side + 1)
        left = rng.integers(0, h - side + 1)
        boxes.append((top, left, side))
    return boxes


def window_crops(images, boxes):
    """Per-image oracle: slice each box's window and resize it by nearest neighbour."""
    h = images.shape[-1]
    slots = []
    for top, left, side in boxes:
        crops = []
        for img, t, l, sd in zip(images, top, left, side):
            patch = img[:, t : t + sd, l : l + sd]
            idx = np.floor(np.arange(h) * sd / h).astype(int)
            crops.append(patch[:, idx][:, :, idx])
        slots.append(np.stack(crops))
    return slots


def test_multi_crop_counts():
    img = np.random.default_rng(0).normal(size=(3, 1, 8, 8))
    assert len(crop_slots(img, SeededRng(1), 0, (0.6, 1.0), (0.2, 0.5))) == 2
    assert len(crop_slots(img, SeededRng(1), 3, (0.6, 1.0), (0.2, 0.5))) == 5


def test_multi_crop_deterministic_bitwise():
    img = np.random.default_rng(1).normal(size=(5, 2, 8, 8))
    a = crop_slots(img, SeededRng(7), 4, (0.6, 1.0), (0.2, 0.5))
    b = crop_slots(img, SeededRng(7), 4, (0.6, 1.0), (0.2, 0.5))
    assert all(np.array_equal(ca, cb) for ca, cb in zip(a, b))


def test_multi_crop_boxes_within_bounds_oracle():
    img = np.random.default_rng(2).normal(size=(8, 1, 6, 6))
    for seed in range(2_000):
        boxes = replayed_boxes(SeededRng(seed), 8, 6, n_local=2)
        for top, left, side in boxes:
            assert np.all(top >= 0) and np.all(left >= 0) and np.all(side >= 1)
            assert np.all(top + side <= 6) and np.all(left + side <= 6)
        slots = crop_slots(img, SeededRng(seed), 2, (0.6, 1.0), (0.2, 0.5))
        for got, expected in zip(slots, window_crops(img, boxes)):
            assert got.shape == (8, 1, 6, 6) and np.array_equal(got, expected)


@pytest.mark.parametrize("global_scale, local_scale", [((0.6, 1.0), (0.2, 0.5)), ((1.0, 1.0), (0.0, 1e-3))])
def test_crop_slots_crops_are_nearest_resized_windows(global_scale, local_scale):
    img = np.random.default_rng(3).normal(size=(5, 3, 9, 9))
    for seed in range(20):
        slots = crop_slots(img, SeededRng(seed), 3, global_scale, local_scale)
        boxes = replayed_boxes(SeededRng(seed), 5, 9, 3, global_scale, local_scale)
        for got, expected in zip(slots, window_crops(img, boxes)):
            assert np.array_equal(got, expected)
    if global_scale == (1.0, 1.0):  # whole-image windows and one-pixel windows
        assert np.array_equal(slots[0], img)
        assert all(np.all(s == s[:, :, :1, :1]) for s in slots[2:])


def test_multi_crop_too_small_image():
    with pytest.raises(ArgumentError):
        crop_slots(np.zeros((2, 1, 1, 1)), SeededRng(0), 0, (0.6, 1.0), (0.2, 0.5))
    with pytest.raises(ArgumentError):
        crop_slots(np.zeros((1, 4, 4)), SeededRng(0), 0, (0.6, 1.0), (0.2, 0.5))


# -- dino step ------------------------------------------------------------------------


def _student_teacher(seed=3, proj_dim=8, equal_temps=True):
    cfg = tiny_model()
    encoder = Encoder(cfg, SeededRng(seed)).train()
    proj = DinoHead(SeededRng(seed).child("proj"), cfg.embed_dim, 16, proj_dim)
    teacher = make_teacher(encoder, proj)
    if equal_temps:
        teacher.current_temp = STUDENT_TEMP  # match so p_teacher == p_student
    return encoder, proj, teacher


def _iter_bns(encoder):
    yield encoder.tokenizer.norm
    for block in encoder.blocks:
        yield from (bn for _, bn in block.norms())
    yield encoder.final_bn


def _calibrate_teacher_bn(student, teacher_encoder, batch):
    """Set the teacher's running stats to the student's batch statistics so a
    train-mode student and an eval-mode teacher compute the same function."""
    from fscil.backbone import BN_EPS, BN_MOMENTUM
    from fscil.numerics import Tensor

    snaps = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in _iter_bns(student)]
    student.train()
    student.forward(Tensor(batch))
    for bn, tbn, (old_m, old_v) in zip(_iter_bns(student), _iter_bns(teacher_encoder), snaps):
        batch_mean = (bn.running_mean - (1 - BN_MOMENTUM) * old_m) / BN_MOMENTUM
        batch_var = (bn.running_var - (1 - BN_MOMENTUM) * old_v) / BN_MOMENTUM
        tbn.running_mean[...] = batch_mean
        tbn.running_var[...] = batch_var + BN_EPS  # matches the train denominator


def test_teacher_equals_student_loss_is_summed_entropy():
    encoder, proj, teacher = _student_teacher()
    batch = np.random.default_rng(3).normal(size=(2, 1, 4, 4))
    slots = [batch.copy() for _ in range(4)]  # identical deterministic "crops"
    _calibrate_teacher_bn(encoder, teacher.encoder, batch)
    loss, info = dino_step(encoder, proj, teacher, slots, student_temp=STUDENT_TEMP)
    # identical nets, identical inputs, equal temps, zero center -> CE(p, p) = H(p)
    probs = teacher.probs(teacher.logits(batch))
    entropy = float(-(probs * np.log(probs)).sum(axis=-1).mean())
    assert info["n_pairs"] == 2 * (len(slots) - 1)
    assert isinstance(loss, float) and abs(loss - info["n_pairs"] * entropy) < 1e-9


def test_pair_count_two_global_two_local():
    encoder, proj, teacher = _student_teacher(4)
    batch = np.random.default_rng(4).normal(size=(2, 1, 4, 4))
    slots = [batch, batch * 0.9, batch * 0.8, batch * 0.7]
    loss, info = dino_step(encoder, proj, teacher, slots, student_temp=STUDENT_TEMP)
    assert info["n_pairs"] == 6  # 2 * (|V| - 1)
    assert isinstance(loss, float)


def test_sharpening_limit_approaches_argmax_ce():
    encoder, proj, teacher = _student_teacher(5)
    batch = np.random.default_rng(5).normal(size=(1, 1, 4, 4))
    slots = [batch, batch * 0.5]
    import fscil.numerics as num

    t_logits = [teacher.logits(s) for s in slots]  # the eval-mode teacher: no state changes
    top2 = np.sort(np.concatenate(t_logits), axis=-1)[:, -2:]
    gap = (top2[:, 1] - top2[:, 0]).min()
    assert gap > 0 and not teacher.center.any()  # premise: a unique argmax of the uncentred logits
    # tau_t -> 0+: the target is one-hot up to weights below exp(-40)
    teacher.current_temp = gap / 40
    loss, info = dino_step(encoder, proj, teacher, slots, student_temp=STUDENT_TEMP)

    with num.no_grad():
        s_logits = [proj(encoder.forward(num.Tensor(s))).data / STUDENT_TEMP for s in slots]
    expected = 0.0
    for t_idx in range(2):
        hot = t_logits[t_idx].argmax(axis=-1)
        for s_idx in range(2):
            if s_idx == t_idx:
                continue
            row = s_logits[s_idx][0]
            expected += -(row[hot[0]] - np.log(np.exp(row - row.max()).sum()) - row.max())
    assert abs(loss - expected) < 1e-6


def test_teacher_receives_no_gradient():
    encoder, proj, teacher = _student_teacher(6)
    before = teacher.state_hash()
    batch = np.random.default_rng(6).normal(size=(2, 1, 4, 4))
    dino_step(encoder, proj, teacher, [batch, batch * 0.5, batch * 0.2], student_temp=STUDENT_TEMP)
    # dino_step backpropagates by itself: the student holds gradients, the teacher none
    assert all(p.grad is not None for p in proj.params().values())
    assert teacher.state_hash() == before
    assert all(p.grad is None for p in teacher.proj.params().values())
    assert all(p.grad is None for p in teacher.encoder.params().values())


def one_graph_dino_loss(encoder, proj, teacher, slots, student_temp):
    """The distillation loss as one graph over every slot, forwards in slot
    order: the oracle of `dino_step`'s slot-at-a-time backward."""
    targets = [Tensor(teacher.probs(teacher.logits(slots[i]))) for i in range(2)]
    logp = [log_softmax(proj(encoder.forward(Tensor(s))) * (1.0 / student_temp), axis=-1) for s in slots]
    loss = None
    for t_idx in range(2):
        for s_idx in range(len(slots)):
            if s_idx != t_idx:
                term = -(targets[t_idx] * logp[s_idx]).sum(axis=-1).mean()
                loss = term if loss is None else loss + term
    return loss


def _toy_distillation(seed):
    """Toy-config student and teacher plus a 64-image batch's 2 global and 4 local slots."""
    cfg = toy_fscil_config().model
    tc = desk_profile(n_local_crops=4)
    encoder = Encoder(cfg, SeededRng(seed)).train()
    proj = DinoHead(SeededRng(seed).child("proj"), cfg.embed_dim, PROJ_HIDDEN_DIM, tc.proj_dim)
    teacher = make_teacher(encoder, proj)
    teacher.center = SeededRng(seed).child("center").normal(size=tc.proj_dim)
    for i, p in enumerate(list(encoder.params().values()) + list(proj.params().values())):
        p.data = p.data + 0.05 * SeededRng(seed).child("drift", str(i)).normal(size=p.data.shape)
    images = SeededRng(seed).child("images").normal(size=(64, 1, cfg.image_size, cfg.image_size), scale=3.0)
    slots = crop_slots(images, SeededRng(seed).child("crops"), tc.n_local_crops, GLOBAL_CROP_SCALE, LOCAL_CROP_SCALE)
    assert len(slots) == 6
    return encoder, proj, teacher, slots


@pytest.mark.parametrize("seed", [11, 12])
def test_slot_at_a_time_backward_is_bitwise_the_one_graph_backward(seed):
    runs = []
    for one_graph in (True, False):
        encoder, proj, teacher, slots = _toy_distillation(seed)
        if one_graph:
            loss = one_graph_dino_loss(encoder, proj, teacher, slots, STUDENT_TEMP)
            loss.backward()
            value = loss.item()
        else:
            value, info = dino_step(encoder, proj, teacher, slots, STUDENT_TEMP)
            assert info["n_pairs"] == 10
        grads = {f"encoder.{n}": p.grad for n, p in encoder.params().items()}
        grads.update({f"proj.{n}": p.grad for n, p in proj.params().items()})
        buffers = {n: b.copy() for n, b in encoder.buffers().items()}
        runs.append((value, grads, buffers))
    (oracle_loss, oracle_grads, oracle_buffers), (loss, grads, buffers) = runs
    assert loss == oracle_loss
    assert grads.keys() == oracle_grads.keys() and all(g is not None for g in grads.values())
    for name, grad in grads.items():
        assert np.array_equal(grad, oracle_grads[name]), name
    assert buffers.keys() == oracle_buffers.keys() and buffers
    for name, buf in buffers.items():
        assert np.array_equal(buf, oracle_buffers[name]), name


def test_dino_step_peak_memory_is_one_slot_working_set():
    peaks = []
    for one_graph in (True, False):
        encoder, proj, teacher, slots = _toy_distillation(13)
        tracemalloc.start()
        try:
            if one_graph:
                one_graph_dino_loss(encoder, proj, teacher, slots, STUDENT_TEMP).backward()
            else:
                dino_step(encoder, proj, teacher, slots, STUDENT_TEMP)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    oracle_peak, peak = peaks
    assert peak <= 0.4 * oracle_peak, (peak, oracle_peak)


def test_dino_step_mode_contracts():
    encoder, proj, teacher = _student_teacher(7)
    encoder.eval()
    with pytest.raises(UsageError):
        dino_step(encoder, proj, teacher, [np.zeros((1, 1, 4, 4))] * 2, student_temp=0.1)
    encoder.train()
    teacher.encoder.mode = "train"
    with pytest.raises(UsageError):
        dino_step(encoder, proj, teacher, [np.zeros((1, 1, 4, 4))] * 2, student_temp=0.1)


# -- center and EMA ----------------------------------------------------------------------


def test_update_center_momentum_zero_is_batch_mean():
    _, _, teacher = _student_teacher(8)
    outputs = np.random.default_rng(8).normal(size=(10, 8))
    update_center(teacher, outputs, momentum=0.0)
    np.testing.assert_allclose(teacher.center, outputs.mean(axis=0), atol=1e-12)


def test_update_center_momentum_one_is_identity():
    _, _, teacher = _student_teacher(9)
    teacher.center = np.arange(8.0)
    update_center(teacher, np.random.default_rng(9).normal(size=(5, 8)), momentum=1.0)
    np.testing.assert_array_equal(teacher.center, np.arange(8.0))


def test_update_center_geometric_convergence():
    # constant outputs o: c_t -> o at rate (1 - m) per step
    _, _, teacher = _student_teacher(10)
    o = np.full(8, 2.0)
    m = 0.9
    teacher.center = np.zeros(8)
    for step in range(1, 40):
        update_center(teacher, np.tile(o, (3, 1)), momentum=m)
        expected = o * (1.0 - m**step)
        np.testing.assert_allclose(teacher.center, expected, atol=1e-10)


def test_update_center_defaults_to_the_center_momentum():
    _, _, teacher = _student_teacher(14)
    outputs = np.random.default_rng(14).normal(size=(6, 8))
    teacher.center = np.arange(8.0)
    expected = update_center(teacher, outputs, momentum=0.9).copy()
    teacher.center = np.arange(8.0)
    np.testing.assert_array_equal(update_center(teacher, outputs), expected)
    assert CENTER_MOMENTUM == 0.9 and base_trainer.EMA_MOMENTUM == 0.996


def test_update_center_empty_batch_rejected():
    _, _, teacher = _student_teacher(11)
    with pytest.raises(ArgumentError):
        update_center(teacher, np.zeros((0, 8)))


def test_ema_momentum_one_and_zero():
    encoder, proj, teacher = _student_teacher(12)
    for p in encoder.params().values():
        p.data = p.data + 1.0
    before = teacher.state_hash()
    ema_update_teacher(teacher, encoder, proj, momentum=1.0)
    assert teacher.state_hash() == before
    ema_update_teacher(teacher, encoder, proj, momentum=0.0)
    assert hash_state(teacher.encoder) == hash_state(encoder)


def test_ema_contraction_factor_matches_momentum():
    encoder, proj, teacher = _student_teacher(13)
    rng = np.random.default_rng(13)
    for p in encoder.params().values():
        p.data = p.data + rng.normal(size=p.data.shape)

    def distance():
        s = encoder.params()
        return np.sqrt(sum(((p.data - s[n].data) ** 2).sum() for n, p in teacher.encoder.params().items()))

    d0 = distance()
    ema_update_teacher(teacher, encoder, proj, momentum=0.99)
    d1 = distance()
    assert abs(d1 - 0.99 * d0) < 1e-9 * max(1.0, d0)
    assert d1 < d0  # strict contraction toward a fixed student


# -- full phases -------------------------------------------------------------------------


def test_train_base_phases_and_loss_trend():
    x, y = blob_images(seed=20, classes=4, per_class=15)
    tc = desk_profile(ssl_epochs=6, ssl_early_stop=6, sup_epochs=24, sup_early_stop=24, sup_batch_size=30, ssl_batch_size=30)
    log = EventLog()
    encoder, head, teacher, history = train_base(x, y, tiny_model(), tc, SeededRng(21), log=log)

    # distillation strictly precedes supervised work in the event stream
    phases = [r["phase"] for r in log.records if r["phase"] in ("ssl", "supervised")]
    assert "ssl" in phases and "supervised" in phases
    assert max(i for i, p in enumerate(phases) if p == "ssl") < min(i for i, p in enumerate(phases) if p == "supervised")

    # smoothed supervised loss improves on separable data (window mean)
    sup = history["sup_loss"]
    k = min(10, max(1, len(sup) // 2))
    assert np.mean(sup[-k:]) < np.mean(sup[:k])

    # training releases the last step's gradients
    for model in (encoder, head, teacher.encoder, teacher.proj):
        assert all(p.grad is None for p in model.params().values())


def test_train_base_enforces_two_classes():
    x, y = blob_images(seed=22, classes=1, per_class=10)
    with pytest.raises(ArgumentError):
        train_base(x, y, tiny_model(), desk_profile(), SeededRng(23))
    with pytest.raises(ArgumentError):
        train_base(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int), tiny_model(), desk_profile(), SeededRng(24))


def test_published_early_stop_and_temperature_defaults():
    tc = TrainingConfig()
    assert tc.ssl_early_stop == 30 and tc.sup_early_stop == 30
    assert TEACHER_TEMP == 0.07 and WARMUP_TEACHER_TEMP == 0.04
    assert SSL_WEIGHT_DECAY == 0.04 and SSL_WEIGHT_DECAY_END == 0.4


def test_embed_all_folds_the_encoder_once_per_call(monkeypatch):
    encoder = Encoder(tiny_model(), SeededRng(5)).train()
    x, _ = blob_images(seed=5, classes=5, per_class=2 * EMBED_BATCH // 5 + 1)  # three batches, the last one short
    folds = []
    fold = base_trainer.FoldedEncoder
    monkeypatch.setattr(base_trainer, "FoldedEncoder", lambda enc: folds.append(enc) or fold(enc))
    out = embed_all(encoder, x)
    assert folds == [encoder] and encoder.mode == "train"
    with no_grad():
        expected = [encoder.eval().forward(Tensor(x[i : i + EMBED_BATCH])).data for i in range(0, len(x), EMBED_BATCH)]
    assert np.array_equal(out, np.concatenate(expected))


def test_head_rows_start_at_the_class_means_of_the_distilled_embeddings(monkeypatch):
    x, y = blob_images(seed=38, classes=3, per_class=10)
    monkeypatch.setattr(base_trainer, "_supervised_phase", lambda *args: None)
    encoder, head, _, _ = train_base(x, y, tiny_model(), desk_profile(ssl_epochs=2, ssl_batch_size=16), SeededRng(39))
    emb = embed_all(encoder, x)
    assert np.array_equal(head.mu.data, np.stack([emb[y == c].mean(axis=0) for c in range(3)]))


def test_a_non_finite_distilled_embedding_raises_before_supervised_training(monkeypatch):
    x, y = blob_images(seed=40, classes=3, per_class=10)
    real = base_trainer._ssl_phase

    def poisoned(encoder, *args):
        real(encoder, *args)
        encoder.pool_proj.data[0, 0] = np.nan  # column 0 of every embedding

    monkeypatch.setattr(base_trainer, "_ssl_phase", poisoned)
    monkeypatch.setattr(base_trainer, "_supervised_phase", lambda *args: pytest.fail("supervised training started"))
    with pytest.raises(NumericError, match="session 0, class 0: embedding statistics are not finite") as info:
        train_base(x, y, tiny_model(), desk_profile(ssl_epochs=1, ssl_batch_size=16), SeededRng(41))
    assert info.value.exit_code == 5


def test_crop_slots_shapes():
    x, _ = blob_images(seed=28, classes=2, per_class=5)
    slots = crop_slots(x[:6], SeededRng(29), n_local=3, global_scale=(0.6, 1.0), local_scale=(0.2, 0.5))
    assert len(slots) == 5
    for s in slots:
        assert s.shape == (6, 1, 4, 4)


# -- gradient guard ----------------------------------------------------------------


def nan_backward(fn):
    """`fn` whose result sends a NaN gradient back; its forward value stays finite."""

    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        inner = out._backward
        out._backward = lambda g: inner(g * np.nan)
        return out

    return planted


def test_autodiff_phases_log_one_finite_grad_norm_per_epoch():
    x, y = blob_images(seed=30, classes=3, per_class=10)
    tc = desk_profile(ssl_epochs=2, sup_epochs=3, ssl_batch_size=16, sup_batch_size=16)
    log = EventLog(None)
    train_base(x, y, tiny_model(), tc, SeededRng(31), log=log)
    for phase in ("ssl", "supervised"):
        norms = [r for r in log.records if r["phase"] == phase and r["key"] == "grad_norm"]
        assert [r["epoch"] for r in norms] == list(range(len(log.series(phase, "loss")))) and norms
        assert all(np.isfinite(r["value"]) and r["value"] > 0 for r in norms)


@pytest.mark.parametrize("phase, primitive", [("ssl", "log_softmax"), ("supervised", "cross_entropy_loss")])
def test_a_non_finite_base_gradient_under_a_finite_loss_raises(monkeypatch, phase, primitive):
    x, y = blob_images(seed=33, classes=3, per_class=10)
    tc = desk_profile(ssl_epochs=2 if phase == "ssl" else 0, sup_epochs=2, ssl_batch_size=16, sup_batch_size=16)
    monkeypatch.setattr(base_trainer, primitive, nan_backward(getattr(base_trainer, primitive)))
    with pytest.raises(NumericError, match=f"non-finite gradient in phase '{phase}', session 0, epoch 0") as info:
        train_base(x, y, tiny_model(), tc, SeededRng(34))
    assert info.value.exit_code == 5
