"""Optimizers, schedules and the epoch loop shared by every training phase.

SGD with momentum plus two adaptive-moment variants (coupled and decoupled
weight decay) mirror the sensitivity grid; the decoupled variant is the
default everywhere.  The adaptive variants keep their moments in one flat
buffer per parameter group, so a step costs a few whole-buffer array ops
rather than a Python loop of them per parameter.  `run_epochs` is the one
shuffle/batch/log loop that distillation, supervised training, prefix
sessions, the backbone-finetune ablation and prediction nets all run.  It
calls a per-batch `step(idx, epoch, start) -> float` that makes one
optimizer step and returns the batch's mean loss: the supervised and
backbone-finetune phases pass `backprop_step(opt, batch_loss)`,
distillation a step whose `dino_step` backpropagates one crop slot at a
time, and prefix sessions and prediction nets closed-form steps that write
their gradients without building a graph.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, NumericError, UsageError


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
    dtype).  A step concatenates the group's gradients (a group with one
    parameter reads its `grad` in place), updates the moments with
    whole-buffer array ops written into two scratch buffers of the group's
    size, and subtracts one slice from each parameter.  A group in which no
    parameter has a `grad` is skipped; one in which some but not all have
    one raises `UsageError`, so an optimizer is given only the tensors that
    train.  Gradients are read in the moments' dtype.  Every op is
    elementwise, so the result is bitwise a per-parameter update's.
    """

    decoupled = False

    def __init__(self, groups, betas=(0.9, 0.999), eps: float = 1e-8):
        super().__init__(groups)
        self.b1, self.b2 = betas
        self.eps = eps
        self._t = 0
        self._moments, self._constants = [], []
        for g in self.groups:
            size = sum(p.data.size for p in g["params"])
            dtype = np.result_type(*(p.data.dtype for p in g["params"])) if g["params"] else np.float64
            self._moments.append(tuple(np.zeros(size, dtype) for _ in range(4)))  # m, v and two scratch buffers
            # b1, 1 - b1, b2, 1 - b2 and eps as 0-d arrays of the moments' dtype, the values a
            # Python scalar operand would take; a ufunc converts a Python scalar on every call
            self._constants.append(tuple(np.array(c, dtype) for c in (self.b1, 1 - self.b1, self.b2, 1 - self.b2, eps)))

    def step(self):
        self._t += 1
        b1t = 1.0 - self.b1**self._t
        b2t = 1.0 - self.b2**self._t
        for g, (m, v, update, tmp), (b1, c1, b2, c2, eps) in zip(self.groups, self._moments, self._constants):
            params = g["params"]
            live = sum(p.grad is not None for p in params)
            if not live:
                continue
            if live < len(params):
                raise UsageError(f"{live} of a group's {len(params)} parameters have a gradient; give the optimizer only the tensors that train")
            decay = g["weight_decay"]
            if len(params) == 1:
                grad = params[0].grad.reshape(-1).astype(m.dtype, copy=False)
                data = params[0].data.reshape(-1) if decay else None
            else:
                grad = np.concatenate([p.grad.reshape(-1) for p in params]).astype(m.dtype, copy=False)
                data = np.concatenate([p.data.reshape(-1) for p in params]) if decay else None
            if decay and not self.decoupled:
                grad = grad + decay * data
            # the ops and their order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
            # update = lr ((m / b1t) / (sqrt(v / b2t) + eps) [+ decay data]), written into scratch
            m *= b1
            m += np.multiply(grad, c1, tmp)
            v *= b2
            np.multiply(grad, c2, tmp)
            tmp *= grad
            v += tmp
            np.divide(v, b2t, tmp)
            np.sqrt(tmp, tmp)
            tmp += eps
            np.divide(m, b1t, update)
            update /= tmp
            if decay and self.decoupled:
                update += np.multiply(data, decay, tmp)
            update *= g["lr"]
            start = 0
            for p in params:
                p.data -= update[start : start + p.data.size].reshape(p.data.shape)
                start += p.data.size


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


def backprop_step(opt: Optimizer, batch_loss):
    """The `run_epochs` step of a phase whose loss is an autodiff graph.

    `batch_loss(idx, epoch, start)` returns the graph-carrying mean loss of the
    samples `idx`; the step clears the gradients, backpropagates that loss,
    steps `opt` and returns the loss value.
    """

    def step(idx, epoch, start):
        loss = batch_loss(idx, epoch, start)
        opt.zero_grad()
        loss.backward()
        opt.step()
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
    and the stopper (when given) may end training.  The L2 norm of the
    gradients that `opt`'s parameters hold after each step is taken: one
    that is not finite under a finite batch loss raises `NumericError`
    naming the phase, session and epoch, and each epoch's mean norm is
    logged as `grad_norm` after its `lr`.
    `before_epoch(epoch)` runs before an epoch's first batch.  The last step's
    gradients are released on return, so the trained parameters hold no
    `.grad` arrays.  A `batch_size` below 1 raises `ArgumentError` naming
    the phase.
    """
    if batch_size < 1:
        raise ArgumentError(f"batch size of phase {phase!r} must be at least 1, got {batch_size}")
    batch = min(batch_size, n)
    params = [p for g in opt.groups for p in g["params"]]
    means = []
    for epoch in range(epochs):
        if before_epoch is not None:
            before_epoch(epoch)
        order = rng.child("shuffle", f"epoch{epoch}").permutation(n)
        total = 0.0
        norms = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss = step(idx, epoch, start)
            total += loss * len(idx)
            grads = [p.grad for p in params if p.grad is not None]
            # one float64 dot, not one per tensor
            flat = grads[0].reshape(-1).astype(np.float64, copy=False) if len(grads) == 1 else np.concatenate([g.reshape(-1) for g in grads] + [np.zeros(0)])
            norms.append(math.sqrt(float(flat @ flat)))
            if not math.isfinite(norms[-1]) and math.isfinite(loss):
                raise NumericError(f"non-finite gradient in phase {phase!r}, session {session}, epoch {epoch}")
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise NumericError(f"non-finite mean loss {mean_loss} in phase {phase!r}, session {session}, epoch {epoch}")
        means.append(mean_loss)
        if plateau is not None:
            plateau.step(mean_loss)
        if log is not None:
            log.emit(phase=phase, session=session, epoch=epoch, key="loss", value=mean_loss)
            log.emit(phase=phase, session=session, epoch=epoch, key="lr", value=opt.groups[0]["lr"])
            log.emit(phase=phase, session=session, epoch=epoch, key="grad_norm", value=sum(norms) / len(norms))
        if stopper is not None and stopper.update(mean_loss):
            break
    opt.zero_grad()
    return means
