"""The shared epoch loop: batch order, loss means, plateau, early stop, events."""

import numpy as np
import pytest

from fscil.events import EventLog
from fscil.numerics import SeededRng, Tensor
from fscil.optim import SGD, EarlyStopping, ReduceOnPlateau, run_epochs


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

    run_epochs(opt, 10, 4, 3, rng, batch_loss, before_epoch=lambda e: calls.append(("epoch", e)), after_step=lambda: calls.append("step"))
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

    run_epochs(opt, n, batch_size, 1, SeededRng(0), batch_loss)
    assert got == lengths


def test_early_stopping_halts_after_patience_flat_epochs():
    w, opt = _setup()
    means = run_epochs(opt, 6, 4, 20, SeededRng(1), _flat_loss(w), stopper=EarlyStopping(3))
    assert means == [1.0] * 4  # the first epoch sets the best, then 3 flat epochs


def test_no_stopper_runs_every_epoch():
    w, opt = _setup()
    means = run_epochs(opt, 6, 4, 7, SeededRng(1), _flat_loss(w), stopper=None)
    assert len(means) == 7


def test_plateau_lowers_the_logged_lr():
    w, opt = _setup(lr=1.0)
    log = EventLog(None)
    plateau = ReduceOnPlateau(opt, patience=1, factor=0.5)
    run_epochs(opt, 6, 4, 5, SeededRng(2), _flat_loss(w), log, "supervised", plateau=plateau)
    assert log.series("supervised", "lr") == [1.0, 1.0, 0.5, 0.5, 0.25]
    assert opt.groups[0]["lr"] == 0.25


def test_one_loss_and_one_lr_event_per_epoch_with_phase_and_session():
    w, opt = _setup()
    log = EventLog(None)
    means = run_epochs(opt, 6, 4, 3, SeededRng(4), _flat_loss(w), log, "prediction_net", 5)
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

    means = run_epochs(opt, 10, 4, 3, SeededRng(6), batch_loss)
    for epoch, mean in enumerate(means):
        parts = [(value, size) for e, value, size in batches if e == epoch]
        assert mean == pytest.approx(sum(v * s for v, s in parts) / 10, abs=1e-15)
    assert means[-1] < means[0]  # the optimizer steps between batches
