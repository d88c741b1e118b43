"""Optimizers and the shared epoch loop: the one-buffer Adam against the
per-parameter loop, batch order, loss means, plateau, early stop, events,
non-finite losses."""

import numpy as np
import pytest

from fscil.errors import NumericError
from fscil.events import EventLog
from fscil.numerics import SeededRng, Tensor
from fscil.optim import SGD, Adam, AdamW, EarlyStopping, Optimizer, ReduceOnPlateau, backprop_step, run_epochs


class PerParameterAdam(Optimizer):
    """Adam as one update per parameter with its own moment arrays (the oracle)."""

    def __init__(self, groups, decoupled: bool, betas=(0.9, 0.999), eps: float = 1e-8):
        super().__init__(groups)
        self.decoupled = decoupled
        self.b1, self.b2 = betas
        self.eps = eps
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self):
        self._t += 1
        b1t = 1.0 - self.b1**self._t
        b2t = 1.0 - self.b2**self._t
        for g in self.groups:
            for p in g["params"]:
                if p.grad is None:
                    continue
                grad = p.grad
                if g["weight_decay"] and not self.decoupled:
                    grad = grad + g["weight_decay"] * p.data
                m, v = self._m.get(id(p)), self._v.get(id(p))
                if m is None:
                    m, v = np.zeros_like(p.data), np.zeros_like(p.data)
                m = self.b1 * m + (1 - self.b1) * grad
                v = self.b2 * v + (1 - self.b2) * grad * grad
                self._m[id(p)], self._v[id(p)] = m, v
                update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
                if g["weight_decay"] and self.decoupled:
                    update = update + g["weight_decay"] * p.data
                p.data -= g["lr"] * update


@pytest.mark.parametrize("cls", [Adam, AdamW])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_matches_the_per_parameter_loop_bitwise(cls, dtype):
    rng = np.random.default_rng(0)
    shapes = [[(3, 4), (4,)], [(2,), (5, 2), (1,)]]
    init = [[rng.normal(size=shape).astype(dtype) for shape in group] for group in shapes]
    sides = []
    for make in (lambda groups: cls(groups), lambda groups: PerParameterAdam(groups, cls.decoupled)):
        params = [[Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in group] for group in init]
        sides.append((make([{"params": params[0], "lr": 0.05, "weight_decay": 0.1}, {"params": params[1], "lr": 0.01}]), params))
    for step in range(20):
        grads = [[rng.normal(size=shape).astype(dtype) for shape in group] for group in shapes]
        for opt, params in sides:
            opt.groups[0]["lr"] = 0.05 / (1 + step)
            opt.groups[1]["weight_decay"] = 0.02 * (step % 3)
            if step % 5 == 4:
                opt.scale_lr(0.5)
            for group, group_grads in zip(params, grads):
                for i, (p, grad) in enumerate(zip(group, group_grads)):
                    # group 1's second parameter first gets a gradient at step 3; at step 7
                    # no parameter of group 1 has one
                    skip = group is params[1] and ((i == 1 and (step < 3 or step % 4 == 1)) or step == 7)
                    p.grad = None if skip else grad.copy()
            opt.step()
        for fused, oracle in zip(*(params for _, params in sides)):
            for a, b in zip(fused, oracle):
                assert a.data.dtype == dtype and np.array_equal(a.data, b.data)


def _setup(lr: float = 0.1):
    w = Tensor(np.zeros(3), requires_grad=True)
    return w, SGD([{"params": [w], "lr": lr}], momentum=0.0)


def _flat_loss(w):
    """Loss 1.0 on every batch: no epoch ever improves on the first."""
    return lambda idx, epoch, start: (w * 0.0).sum() + 1.0


def test_batch_order_follows_the_epoch_shuffle_stream():
    w, opt = _setup()
    rng = SeededRng(3).child("phase")
    seen, calls = [], []

    def batch_loss(idx, epoch, start):
        seen.append((epoch, start, idx.copy()))
        return (w * 0.0).sum()

    step = backprop_step(opt, batch_loss, after_step=lambda: calls.append("step"))
    run_epochs(opt, 10, 4, 3, rng, step, before_epoch=lambda e: calls.append(("epoch", e)))
    for epoch in range(3):
        batches = [(start, idx) for e, start, idx in seen if e == epoch]
        assert [start for start, _ in batches] == [0, 4, 8]
        np.testing.assert_array_equal(np.concatenate([idx for _, idx in batches]), rng.child("shuffle", f"epoch{epoch}").permutation(10))
    assert calls == [item for e in range(3) for item in (("epoch", e), "step", "step", "step")]


@pytest.mark.parametrize("n, batch_size, lengths", [(10, 4, [4, 4, 2]), (9, 3, [3, 3, 3]), (5, 64, [5])])
def test_last_batch_is_short_when_batch_does_not_divide_n(n, batch_size, lengths):
    w, opt = _setup()
    got = []

    def batch_loss(idx, epoch, start):
        got.append(len(idx))
        return (w * 0.0).sum()

    run_epochs(opt, n, batch_size, 1, SeededRng(0), backprop_step(opt, batch_loss))
    assert got == lengths


def test_early_stopping_halts_after_patience_flat_epochs():
    w, opt = _setup()
    means = run_epochs(opt, 6, 4, 20, SeededRng(1), backprop_step(opt, _flat_loss(w)), stopper=EarlyStopping(3))
    assert means == [1.0] * 4  # the first epoch sets the best, then 3 flat epochs


def test_no_stopper_runs_every_epoch():
    w, opt = _setup()
    means = run_epochs(opt, 6, 4, 7, SeededRng(1), backprop_step(opt, _flat_loss(w)), stopper=None)
    assert len(means) == 7


def test_plateau_lowers_the_logged_lr():
    w, opt = _setup(lr=1.0)
    log = EventLog(None)
    plateau = ReduceOnPlateau(opt, patience=1, factor=0.5)
    run_epochs(opt, 6, 4, 5, SeededRng(2), backprop_step(opt, _flat_loss(w)), log, "supervised", plateau=plateau)
    assert log.series("supervised", "lr") == [1.0, 1.0, 0.5, 0.5, 0.25]
    assert opt.groups[0]["lr"] == 0.25


def test_one_loss_and_one_lr_event_per_epoch_with_phase_and_session():
    w, opt = _setup()
    log = EventLog(None)
    means = run_epochs(opt, 6, 4, 3, SeededRng(4), backprop_step(opt, _flat_loss(w)), log, "prediction_net", 5)
    expected = [(e, key) for e in range(3) for key in ("loss", "lr")]
    assert [(r["epoch"], r["key"]) for r in log.records] == expected
    assert {(r["phase"], r["session"]) for r in log.records} == {("prediction_net", 5)}
    assert log.series("prediction_net", "loss", session=5) == means


def test_returned_means_weight_batch_losses_by_length():
    w, opt = _setup(lr=0.2)
    targets = SeededRng(5).normal(size=(10, 3))
    batches = []

    def batch_loss(idx, epoch, start):
        diff = w - Tensor(targets[idx])
        loss = (diff * diff).mean()
        batches.append((epoch, loss.item(), len(idx)))
        return loss

    means = run_epochs(opt, 10, 4, 3, SeededRng(6), backprop_step(opt, batch_loss))
    for epoch, mean in enumerate(means):
        parts = [(value, size) for e, value, size in batches if e == epoch]
        assert mean == pytest.approx(sum(v * s for v, s in parts) / 10, abs=1e-15)
    assert means[-1] < means[0]  # the optimizer steps between batches


def test_a_plain_step_drives_the_loop_as_backprop_step_does():
    # per-batch losses improve for two epochs, then stay flat: the plateau
    # halves the lr and the stopper ends training before the last epoch
    levels = [3.0, 2.0, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5]
    runs = []
    for plain in (True, False):
        w, opt = _setup(lr=1.0)
        log, steps = EventLog(None), []
        if plain:

            def step(idx, epoch, start):
                w.grad = np.zeros(3)
                opt.step()
                steps.append(start)
                return levels[epoch] + 0.01 * start

        else:
            step = backprop_step(opt, lambda idx, epoch, start: (w * 0.0).sum() + (levels[epoch] + 0.01 * start), after_step=lambda: steps.append(None))
        plateau = ReduceOnPlateau(opt, patience=1, factor=0.5)
        means = run_epochs(opt, 10, 4, len(levels), SeededRng(8), step, log, "prediction_net", 2, plateau=plateau, stopper=EarlyStopping(3))
        assert w.grad is None
        runs.append((means, log.records, opt.groups[0]["lr"], len(steps)))
    assert runs[0] == runs[1]
    means, _, lr, steps = runs[0]
    assert len(means) == 5 and lr == 0.5 and steps == 15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_epoch_loss_raises_numeric_error_after_the_epoch(bad):
    # the second epoch's first batch goes bad; its other batches still run,
    # because the loss is checked once per epoch, and nothing later runs
    w, opt = _setup()
    log, steps = EventLog(None), []

    def step(idx, epoch, start):
        steps.append((epoch, start))
        return bad if (epoch, start) == (1, 0) else 1.0

    with pytest.raises(NumericError, match=r"phase 'incremental', session 3, epoch 1") as info:
        run_epochs(opt, 10, 4, 5, SeededRng(9), step, log, "incremental", 3)
    assert info.value.exit_code == 5
    assert steps == [(e, start) for e in (0, 1) for start in (0, 4, 8)]
    assert [r["epoch"] for r in log.records if r["key"] == "loss"] == [0]
