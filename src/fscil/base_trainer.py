"""Base-task training: self-distillation first, then supervised cross-entropy.

The distillation phase follows the teacher/student recipe: two global crops
feed the teacher, all crops feed the student (every crop box of a batch is
drawn from that batch's one random stream), teacher targets are centered
and sharpened before the softmax, no gradient reaches the teacher, and the
teacher tracks the student by exponential moving average.  Once that phase
finishes (early stopping on the distillation loss), the classifier means
are initialized at the class means of the distilled embeddings and the
encoder plus stochastic head train under cross-entropy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneConfig, Encoder, FoldedEncoder, Linear, hash_state
from .errors import ArgumentError, UsageError
from .numerics import SeededRng, Tensor, gelu, log_softmax, no_grad
from .optim import CosineSchedule, EarlyStopping, ReduceOnPlateau, backprop_step, make_optimizer, run_epochs
from .stochastic_classifier import StochasticHead, cross_entropy_loss, init_means_from_prototypes
from .task_inference import fit_class_stats


# -- multi-crop views ---------------------------------------------------------


def crop_slots(images: np.ndarray, rng: SeededRng, n_local: int, global_scale, local_scale) -> list:
    """Multi-crop views of a (B, C, H, W) batch as per-slot (B, C, H, W) batches.

    Slots 0 and 1 hold the global crops, the other `n_local` the local ones;
    slot j stacks the j-th crop of every image.  A crop is a random square
    window resized back to H x W by nearest neighbour: for a scale s drawn
    uniformly from the slot's range, side = clip(round(H sqrt(s)), 1, H),
    top and left are uniform in [0, H - side], and output pixel i reads
    window pixel floor(i side / H).  Every box of the batch comes from `rng`:
    per slot, B scales, then B tops, then B lefts.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 4:
        raise ArgumentError(f"crop_slots expects (B, C, H, W) images, got shape {images.shape}")
    b, c, h = images.shape[0], images.shape[1], images.shape[-1]
    if min(images.shape[-2:]) < 2:
        raise ArgumentError(f"images {images.shape} too small to crop")
    grid = np.arange(h)
    batch_idx = np.arange(b)[:, None, None, None]
    channel_idx = np.arange(c)[None, :, None, None]
    slots = []
    for j in range(2 + n_local):
        low, high = global_scale if j < 2 else local_scale
        side = np.clip(np.round(h * np.sqrt(rng.uniform(low, high, size=b))), 1, h).astype(int)
        top = rng.integers(0, h - side + 1)
        left = rng.integers(0, h - side + 1)
        offsets = grid * side[:, None] // h  # (B, H): window pixel read by each output pixel
        rows, cols = top[:, None] + offsets, left[:, None] + offsets
        slots.append(images[batch_idx, channel_idx, rows[:, None, :, None], cols[:, None, None, :]])
    return slots


# -- teacher state ------------------------------------------------------------


class DinoHead:
    """Two-layer projection from the pooled feature to the distillation space."""

    def __init__(self, rng: SeededRng, in_dim: int, hidden: int, out_dim: int):
        self.l1 = Linear(rng.child("l1"), in_dim, hidden)
        self.l2 = Linear(rng.child("l2"), hidden, out_dim)
        self.out_dim = out_dim

    def __call__(self, z: Tensor) -> Tensor:
        return self.l2(gelu(self.l1(z)))

    def params(self) -> dict:
        out = self.l1.params("l1")
        out.update(self.l2.params("l2"))
        return out


@dataclass
class TeacherState:
    encoder: Encoder
    proj: DinoHead
    center: np.ndarray
    ema_momentum: float
    teacher_temp: float
    warmup_teacher_temp: float
    current_temp: float = 0.0

    def __post_init__(self):
        if self.teacher_temp <= 0 or self.warmup_teacher_temp <= 0:
            raise ArgumentError("teacher temperatures must be positive")
        if self.current_temp == 0.0:
            self.current_temp = self.warmup_teacher_temp
        self.encoder.eval()
        self.encoder.set_requires_grad(False)
        for p in self.proj.params().values():
            p.requires_grad = False

    def logits(self, images: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.proj(self.encoder.forward(Tensor(images))).data

    def probs(self, logits: np.ndarray) -> np.ndarray:
        shifted = (logits - self.center) / self.current_temp
        shifted = shifted - shifted.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def state_hash(self) -> str:
        return hash_state(self.encoder, self.proj)


def make_teacher(student_encoder: Encoder, student_proj: DinoHead, config) -> TeacherState:
    return TeacherState(
        encoder=copy.deepcopy(student_encoder),
        proj=copy.deepcopy(student_proj),
        center=np.zeros(student_proj.out_dim),
        ema_momentum=config.ema_momentum,
        teacher_temp=config.teacher_temp,
        warmup_teacher_temp=config.warmup_teacher_temp,
    )


def update_center(teacher: TeacherState, batch_outputs: np.ndarray, momentum: float | None = None) -> np.ndarray:
    """c <- m*c + (1-m)*mean(batch outputs)."""
    batch_outputs = np.asarray(batch_outputs, dtype=float)
    if batch_outputs.size == 0:
        raise ArgumentError("update_center needs a non-empty batch")
    m = teacher.ema_momentum if momentum is None else momentum
    teacher.center = m * teacher.center + (1.0 - m) * batch_outputs.mean(axis=0)
    return teacher.center


def ema_update_teacher(teacher: TeacherState, student_encoder: Encoder, student_proj: DinoHead, momentum: float | None = None):
    """theta_t <- m*theta_t + (1-m)*theta_s elementwise (buffers included)."""
    m = teacher.ema_momentum if momentum is None else momentum
    s_params = student_encoder.params()
    for name, p in teacher.encoder.params().items():
        if p.data.shape != s_params[name].data.shape:
            raise ArgumentError(f"teacher/student shape mismatch at {name}")
        p.data = m * p.data + (1.0 - m) * s_params[name].data
    s_buffers = student_encoder.buffers()
    for name, buf in teacher.encoder.buffers().items():
        buf[...] = m * buf + (1.0 - m) * s_buffers[name]
    sp = student_proj.params()
    for name, p in teacher.proj.params().items():
        p.data = m * p.data + (1.0 - m) * sp[name].data


# -- distillation step --------------------------------------------------------


def dino_step(student_encoder: Encoder, student_proj: DinoHead, teacher: TeacherState, slots: list, student_temp: float):
    """Backpropagate the distillation loss over all (teacher global, student
    other-view) pairs into the student's gradients, one student slot at a time.

    `slots` holds per-view batches, the first two being the global views.
    The teacher targets come first; then each slot, in slot order, runs its
    forward, its pair terms (teacher index ascending) and one `backward()`
    of their sum, so only one slot's graph is alive at a time.  The loss is
    a sum of pair terms, so the gradients are those of the one-graph loss;
    with slots in order they accumulate as its sweep does, bitwise.  Returns
    the loss value, folded over the pair terms in (teacher, student) order,
    plus a dict with the pair count, teacher logits, and mean entropy.
    """
    if teacher.encoder.mode != "eval":
        raise UsageError("teacher must be in eval mode for dino_step")
    if student_encoder.mode != "train":
        raise UsageError("student must be in train mode for dino_step")
    if len(slots) < 2:
        raise ArgumentError("need at least the two global views")
    teacher_logits = [teacher.logits(slots[i]) for i in range(2)]
    teacher_probs = [teacher.probs(lg) for lg in teacher_logits]
    targets = [Tensor(p) for p in teacher_probs]
    values = {}
    for s_idx, s in enumerate(slots):
        student_logp = log_softmax(student_proj(student_encoder.forward(Tensor(s))) * (1.0 / student_temp), axis=-1)
        slot_loss = None
        for t_idx in range(2):
            if t_idx == s_idx:
                continue  # a view is never its own distillation target
            term = -(targets[t_idx] * student_logp).sum(axis=-1).mean()
            values[t_idx, s_idx] = term.item()
            slot_loss = term if slot_loss is None else slot_loss + term
        slot_loss.backward()
    loss = 0.0
    for key in sorted(values):  # (teacher, student) order: the one-graph loss's left fold
        loss += values[key]
    all_teacher = np.concatenate(teacher_probs)
    entropy = float(-(all_teacher * np.log(all_teacher + 1e-12)).sum(axis=-1).mean())
    info = {"n_pairs": len(values), "teacher_outputs": np.concatenate(teacher_logits), "teacher_entropy": entropy}
    return loss, info


# -- phases -------------------------------------------------------------------


EMBED_BATCH = 64  # rows per folded forward; its transient arrays grow with the rows


def embed_all(encoder: Encoder, data_x: np.ndarray, prefixes=None) -> np.ndarray:
    """Eval-mode embeddings of `data_x` in `EMBED_BATCH`-row batches, with
    the encoder folded once for the whole call."""
    mode = encoder.mode
    encoder.eval()
    with no_grad():
        folded = FoldedEncoder(encoder)
        outs = [encoder.forward(Tensor(data_x[start : start + EMBED_BATCH]), prefixes, folded).data for start in range(0, len(data_x), EMBED_BATCH)]
    encoder.mode = mode
    return np.concatenate(outs) if outs else np.zeros((0, encoder.cfg.embed_dim))


def train_base(
    data_x: np.ndarray,
    data_y: np.ndarray,
    model_cfg: BackboneConfig,
    config,
    rng: SeededRng,
    log=None,
):
    """Full base-task routine.

    Phase 1 distills with cosine-scheduled learning rate and weight decay
    until early stopping (`ssl_epochs=0` skips it); phase 2 starts the head means at the
    `fit_class_stats` means of the distilled embeddings and runs supervised cross-entropy.
    Phase 2 never starts before phase 1 has finished.  Returns (encoder, head, teacher, history).
    """
    data_x = np.asarray(data_x, dtype=float)
    data_y = np.asarray(data_y, dtype=int)
    if len(data_x) == 0:
        raise ArgumentError("base task has no data")
    classes = sorted(set(int(c) for c in data_y))
    if len(classes) < 2:
        raise ArgumentError("base task needs at least 2 classes")

    encoder = Encoder(model_cfg, rng.child("init"))
    proj = DinoHead(rng.child("proj"), model_cfg.embed_dim, config.proj_hidden_dim, config.proj_dim)
    teacher = make_teacher(encoder, proj, config)
    history = {"ssl_loss": [], "sup_loss": [], "teacher_entropy": []}

    _ssl_phase(encoder, proj, teacher, data_x, config, rng.child("ssl"), history, log)

    head = StochasticHead(model_cfg.embed_dim, temperature=config.head_temperature, offset=config.head_offset)
    gaussians, _ = fit_class_stats(embed_all(encoder, data_x), data_y, 0)
    init_means_from_prototypes(head, {g.class_id: g.mean for g in gaussians})
    _supervised_phase(encoder, head, data_x, data_y, config, rng.child("supervised"), history, log)
    return encoder, head, teacher, history


def _ssl_phase(encoder, proj, teacher, data_x, config, rng, history, log):
    encoder.train()
    params = list(encoder.params().values()) + list(proj.params().values())
    opt = make_optimizer(config.optimizer, [{"params": params, "lr": config.ssl_lr, "weight_decay": config.ssl_weight_decay}])
    lr_schedule = CosineSchedule(config.ssl_lr, config.ssl_lr * 1e-2, config.ssl_epochs)
    wd_schedule = CosineSchedule(config.ssl_weight_decay, config.ssl_weight_decay_end, config.ssl_epochs)
    warmup_epochs = max(1, int(config.warmup_fraction * config.ssl_epochs))
    entropies = []

    def record_entropy(epoch):
        mean_entropy = float(np.mean(entropies))
        entropies.clear()
        history["teacher_entropy"].append(mean_entropy)
        if log is not None:
            log.emit(phase="ssl", session=0, epoch=epoch, key="teacher_entropy", value=mean_entropy)

    def before_epoch(epoch):
        if epoch:
            record_entropy(epoch - 1)
        if epoch < warmup_epochs:
            frac = epoch / warmup_epochs
            teacher.current_temp = config.warmup_teacher_temp + frac * (config.teacher_temp - config.warmup_teacher_temp)
        else:
            teacher.current_temp = config.teacher_temp
        for group in opt.groups:
            group["lr"] = lr_schedule.value(epoch)
            group["weight_decay"] = wd_schedule.value(epoch)

    def step(idx, epoch, start):
        slots = crop_slots(
            data_x[idx], rng.child("crops", f"e{epoch}", f"b{start}"), config.n_local_crops, config.global_crop_scale, config.local_crop_scale
        )
        opt.zero_grad()
        loss, info = dino_step(encoder, proj, teacher, slots, config.student_temp)
        opt.step()
        ema_update_teacher(teacher, encoder, proj)
        update_center(teacher, info["teacher_outputs"], momentum=config.center_momentum)
        entropies.append(info["teacher_entropy"])
        return loss

    stopper = EarlyStopping(config.ssl_early_stop)
    losses = run_epochs(
        opt, len(data_x), config.ssl_batch_size, config.ssl_epochs, rng, step, log, "ssl",
        stopper=stopper, before_epoch=before_epoch,
    )
    history["ssl_loss"].extend(losses)
    if losses:
        record_entropy(len(losses) - 1)


def _supervised_phase(encoder, head, data_x, data_y, config, rng, history, log):
    encoder.train()
    opt = make_optimizer(
        config.optimizer,
        [
            {"params": list(encoder.params().values()), "lr": config.sup_lr, "weight_decay": config.sup_weight_decay},
            {"params": head.trained_params(config.head_noise_train), "lr": config.sup_classifier_lr, "weight_decay": config.sup_weight_decay},
        ],
    )

    def batch_loss(idx, epoch, start):
        z = encoder.forward(Tensor(data_x[idx]))
        return cross_entropy_loss(head, z, data_y[idx], rng.child("eps", f"e{epoch}", f"b{start}"), noise=config.head_noise_train)

    plateau = ReduceOnPlateau(opt, config.sup_plateau_patience, config.sup_plateau_factor, config.sup_min_lr)
    stopper = EarlyStopping(config.sup_early_stop)
    losses = run_epochs(
        opt, len(data_x), config.sup_batch_size, config.sup_epochs, rng, backprop_step(opt, batch_loss), log, "supervised",
        plateau=plateau, stopper=stopper,
    )
    history["sup_loss"].extend(losses)
    encoder.eval()
