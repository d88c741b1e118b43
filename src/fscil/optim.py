"""Optimizers, schedules and the epoch loop shared by every training phase.

SGD with momentum plus two adaptive-moment variants (coupled and decoupled
weight decay) mirror the sensitivity grid; the decoupled variant is the
default everywhere.  The adaptive variants keep their moments in one flat
buffer per parameter group, so a step costs a few whole-buffer array ops
rather than a Python loop of them per parameter.  `run_epochs` is the one
shuffle/batch/log loop that distillation, supervised training, prefix
sessions, the backbone-finetune ablation, prediction nets and the linear
probe all run.  It calls a per-batch `step(idx, epoch, start) -> float`
that makes one optimizer step and returns the batch's mean loss: the five
autodiff phases pass `backprop_step(opt, batch_loss)`, and prediction nets
pass a closed-form step that writes its gradient without building a graph.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, NumericError


class Optimizer:
    """Base: parameter groups of {params: [Tensor], lr: float, weight_decay: float}."""

    def __init__(self, groups):
        self.groups = []
        for g in groups:
            self.groups.append(
                {
                    "params": list(g["params"]),
                    "lr": float(g.get("lr", 1e-3)),
                    "weight_decay": float(g.get("weight_decay", 0.0)),
                }
            )

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.grad = None

    def scale_lr(self, factor: float, min_lr: float = 0.0):
        for g in self.groups:
            g["lr"] = max(g["lr"] * factor, min_lr)

    def step(self):
        raise NotImplementedError


class SGD(Optimizer):
    def __init__(self, groups, momentum: float = 0.9):
        super().__init__(groups)
        self.momentum = momentum
        self._velocity = {}

    def step(self):
        for g in self.groups:
            for p in g["params"]:
                if p.grad is None:
                    continue
                grad = p.grad + g["weight_decay"] * p.data
                v = self._velocity.get(id(p))
                v = grad if v is None else self.momentum * v + grad
                self._velocity[id(p)] = v
                p.data -= g["lr"] * v


class Adam(Optimizer):
    """Adam; weight decay, when set, is coupled (added to the gradient).

    Each group keeps its first and second moments in one flat buffer apiece,
    the group's parameters laid end to end in order (in the group's common
    dtype).  A step concatenates the gradients that exist, updates the
    moments with whole-buffer array ops and subtracts one slice from each
    parameter.  A parameter whose `grad` is None keeps its data and moments
    untouched; moments start at zero, as on a parameter's first step.  Every
    op is elementwise, so the result is bitwise a per-parameter update's.
    """

    decoupled = False

    def __init__(self, groups, betas=(0.9, 0.999), eps: float = 1e-8):
        super().__init__(groups)
        self.b1, self.b2 = betas
        self.eps = eps
        self._t = 0
        self._moments = []
        for g in self.groups:
            size = sum(p.data.size for p in g["params"])
            dtype = np.result_type(*(p.data.dtype for p in g["params"])) if g["params"] else np.float64
            self._moments.append((np.zeros(size, dtype), np.zeros(size, dtype)))
        self._layouts = [{} for _ in self.groups]

    @staticmethod
    def _layout(params, live):
        """(live params, their entries of the group's buffers or None for all,
        each live param's (start, end) in the concatenated gradient)."""
        chosen, rows, bounds = [], [], []
        offset = start = 0
        for p, has_grad in zip(params, live):
            if has_grad:
                chosen.append(p)
                rows.append(np.arange(offset, offset + p.data.size))
                bounds.append((start, start + p.data.size))
                start += p.data.size
            offset += p.data.size
        return chosen, (None if all(live) or not chosen else np.concatenate(rows)), bounds

    def step(self):
        self._t += 1
        b1t = 1.0 - self.b1**self._t
        b2t = 1.0 - self.b2**self._t
        for g, (m_all, v_all), layouts in zip(self.groups, self._moments, self._layouts):
            live = tuple(p.grad is not None for p in g["params"])
            if live not in layouts:
                layouts[live] = self._layout(g["params"], live)
            params, rows, bounds = layouts[live]
            if not params:
                continue
            grad = np.concatenate([p.grad.reshape(-1) for p in params])
            decay = g["weight_decay"]
            data = np.concatenate([p.data.reshape(-1) for p in params]) if decay else None
            if decay and not self.decoupled:
                grad = grad + decay * data
            m = m_all if rows is None else m_all[rows]
            v = v_all if rows is None else v_all[rows]
            m *= self.b1
            m += (1 - self.b1) * grad
            v *= self.b2
            v += (1 - self.b2) * grad * grad
            if rows is not None:
                m_all[rows], v_all[rows] = m, v
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            if decay and self.decoupled:
                update += decay * data
            update *= g["lr"]
            for p, (start, end) in zip(params, bounds):
                p.data -= update[start:end].reshape(p.data.shape)


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    decoupled = True


_OPTIMIZERS = {"sgd": SGD, "adam": Adam, "adamw": AdamW}


def make_optimizer(name: str, groups) -> Optimizer:
    try:
        return _OPTIMIZERS[name.lower()](groups)
    except KeyError:
        raise ArgumentError(f"unknown optimizer {name!r}; expected one of {sorted(_OPTIMIZERS)}") from None


class CosineSchedule:
    """Half-cosine interpolation from `start` to `end` over `total` steps."""

    def __init__(self, start: float, end: float, total: int):
        self.start, self.end, self.total = start, end, max(int(total), 1)

    def value(self, step: int) -> float:
        t = min(max(step, 0), self.total) / self.total
        return self.end + 0.5 * (self.start - self.end) * (1.0 + math.cos(math.pi * t))


class EarlyStopping:
    """Signal a stop after `patience` epochs without loss improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, metric: float) -> bool:
        if metric < self.best - 1e-12:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


class ReduceOnPlateau(EarlyStopping):
    """Multiply the optimizer lr by `factor` after more than `patience` epochs without improvement."""

    def __init__(self, optimizer: Optimizer, patience: int, factor: float, min_lr: float = 0.0):
        super().__init__(patience + 1)
        self.optimizer = optimizer
        self.factor = factor
        self.min_lr = min_lr

    def step(self, metric: float):
        if self.update(metric):
            self.optimizer.scale_lr(self.factor, self.min_lr)
            self.bad_epochs = 0


def backprop_step(opt: Optimizer, batch_loss, after_step=None):
    """The `run_epochs` step of a phase whose loss is an autodiff graph.

    `batch_loss(idx, epoch, start)` returns the graph-carrying mean loss of the
    samples `idx`; the step clears the gradients, backpropagates that loss,
    steps `opt`, calls `after_step()` (when given) and returns the loss value.
    """

    def step(idx, epoch, start):
        loss = batch_loss(idx, epoch, start)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if after_step is not None:
            after_step()
        return loss.item()

    return step


def run_epochs(
    opt: Optimizer,
    n: int,
    batch_size: int,
    epochs: int,
    rng,
    step,
    log=None,
    phase: str = "",
    session: int = 0,
    plateau: ReduceOnPlateau | None = None,
    stopper: EarlyStopping | None = None,
    before_epoch=None,
) -> list:
    """Train for up to `epochs` passes over `n` samples; returns per-epoch mean losses.

    Epoch `e` visits the samples in the order `rng.child("shuffle", f"epoch{e}")`
    permutes them, in batches of `min(batch_size, n)` (the last may be short).
    `step(idx, epoch, start)` makes one optimizer step of `opt` on the samples
    `idx`, which start at offset `start` of the epoch's order, and returns
    their mean loss as a float (`backprop_step` builds it from a graph-carrying
    loss).  The epoch's mean weights each batch loss by its length; a mean
    that is not finite raises `NumericError` naming the phase, session and
    epoch, checked once per epoch rather than per step.  After every epoch
    the plateau (when given) steps on that mean, `loss` and `lr` (the first
    group's, after the plateau step) are logged under `phase` and `session`,
    and the stopper (when given) may end training.
    `before_epoch(epoch)` runs before an epoch's first batch.  The last step's
    gradients are released on return, so the trained parameters hold no
    `.grad` arrays.
    """
    batch = min(batch_size, n)
    means = []
    for epoch in range(epochs):
        if before_epoch is not None:
            before_epoch(epoch)
        order = rng.child("shuffle", f"epoch{epoch}").permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            total += step(idx, epoch, start) * len(idx)
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise NumericError(f"non-finite mean loss {mean_loss} in phase {phase!r}, session {session}, epoch {epoch}")
        means.append(mean_loss)
        if plateau is not None:
            plateau.step(mean_loss)
        if log is not None:
            log.emit(phase=phase, session=session, epoch=epoch, key="loss", value=mean_loss)
            log.emit(phase=phase, session=session, epoch=epoch, key="lr", value=opt.groups[0]["lr"])
        if stopper is not None and stopper.update(mean_loss):
            break
    opt.zero_grad()
    return means
