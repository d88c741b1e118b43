"""Optimizers and the shared epoch loop: the one-buffer Adam against the
per-parameter loop, batch order, loss means, plateau, early stop, events,
non-finite losses."""

import numpy as np
import pytest

from fscil.errors import NumericError, UsageError
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
    # group 2 holds one parameter, whose gradient the step reads in place
    shapes = [[(3, 4), (4,)], [(2,), (5, 2), (1,)], [(33, 64)]]
    init = [[rng.normal(size=shape).astype(dtype) for shape in group] for group in shapes]
    sides = []
    for make in (lambda groups: cls(groups), lambda groups: PerParameterAdam(groups, cls.decoupled)):
        params = [[Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in group] for group in init]
        groups = [{"params": params[0], "lr": 0.05, "weight_decay": 0.1}, {"params": params[1], "lr": 0.01}, {"params": params[2], "lr": 0.03, "weight_decay": 0.05}]
        sides.append((make(groups), params))
    for step in range(20):
        grads = [[rng.normal(size=shape).astype(dtype) for shape in group] for group in shapes]
        for opt, params in sides:
            opt.groups[0]["lr"] = 0.05 / (1 + step)
            opt.groups[1]["weight_decay"] = 0.02 * (step % 3)
            if step % 5 == 4:
                opt.scale_lr(0.5)
            for group, group_grads in zip(params, grads):
                # a group without gradients is skipped: group 1 at step 7, group 0 every third step
                skip = (group is params[1] and step == 7) or (group is params[0] and step % 3 == 0)
                for p, grad in zip(group, group_grads):
                    p.grad = None if skip else grad.copy()
            opt.step()
        for fused, oracle in zip(*(params for _, params in sides)):
            for a, b in zip(fused, oracle):
                assert a.data.dtype == dtype and np.array_equal(a.data, b.data)


@pytest.mark.parametrize("cls", [Adam, AdamW])
def test_adam_rejects_a_group_with_gradients_for_only_some_parameters(cls):
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    opt = cls([{"params": [a, b], "lr": 0.1, "weight_decay": 0.01}])
    a.grad = np.ones(3)
    with pytest.raises(UsageError, match="1 of a group's 2 parameters"):
        opt.step()
    assert np.array_equal(a.data, np.ones(3)) and np.array_equal(b.data, np.ones(2))


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
        calls.append("step")
        return (w * 0.0).sum()

    run_epochs(opt, 10, 4, 3, rng, backprop_step(opt, batch_loss), before_epoch=lambda e: calls.append(("epoch", e)))
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
    expected = [(e, key) for e in range(3) for key in ("loss", "lr", "grad_norm")]
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

            def batch_loss(idx, epoch, start):
                steps.append(start)
                return (w * 0.0).sum() + (levels[epoch] + 0.01 * start)

            step = backprop_step(opt, batch_loss)
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


def test_run_epochs_logs_each_epochs_mean_step_gradient_norm_after_its_lr():
    # a second, gradient-free parameter is skipped; the steps' norms are 3, 4 and 5
    w, frozen = Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    opt = SGD([{"params": [w, frozen], "lr": 0.0}], momentum=0.0)
    grads = [np.array([3.0, 0.0]), np.array([0.0, -4.0]), np.array([3.0, 4.0])]
    log = EventLog(None)

    def step(idx, epoch, start):
        opt.zero_grad()
        w.grad = grads[start // 4]
        opt.step()
        return 1.0

    run_epochs(opt, 10, 4, 2, SeededRng(10), step, log, "supervised", 0)
    assert [(r["epoch"], r["key"]) for r in log.records] == [(e, key) for e in range(2) for key in ("loss", "lr", "grad_norm")]
    assert log.series("supervised", "grad_norm") == [4.0, 4.0]


@pytest.mark.parametrize("count", [1, 2])
def test_the_logged_gradient_norm_is_a_float64_sum_of_squares(count):
    # one float32 gradient is read in place but summed in float64, as two are
    rng = np.random.default_rng(6)
    params = [Tensor(np.zeros(50, np.float32), requires_grad=True, dtype=np.float32) for _ in range(count)]
    grads = [rng.normal(size=50).astype(np.float32) * 1e3 for _ in range(count)]
    opt = SGD([{"params": params, "lr": 0.0}], momentum=0.0)
    log = EventLog(None)

    def step(idx, epoch, start):
        for p, g in zip(params, grads):
            p.grad = g
        return 1.0

    run_epochs(opt, 4, 4, 1, SeededRng(0), step, log, "supervised", 0)
    flat = np.concatenate([g.astype(np.float64) for g in grads])
    assert log.series("supervised", "grad_norm") == [float(np.sqrt(flat @ flat))]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_epochs_rejects_a_non_finite_gradient_under_a_finite_loss(bad):
    w, opt = _setup()
    steps = []

    def step(idx, epoch, start):
        steps.append((epoch, start))
        w.grad = np.array([1.0, bad if (epoch, start) == (1, 4) else 0.0, 0.0])
        return 1.0

    with pytest.raises(NumericError, match=r"non-finite gradient in phase 'ssl', session 0, epoch 1") as info:
        run_epochs(opt, 10, 4, 3, SeededRng(11), step, None, "ssl")
    assert info.value.exit_code == 5
    assert steps[-1] == (1, 4)  # raised at the step, not at the end of the epoch
    # under a non-finite loss, only the epoch-loss check speaks
    w, opt = _setup()
    with pytest.raises(NumericError, match="non-finite mean loss .* epoch 1"):
        run_epochs(opt, 10, 4, 3, SeededRng(11), lambda idx, e, s: step(idx, e, s) * (bad if (e, s) == (1, 4) else 1.0), None, "ssl")
