"""Protocol harness: dataset ingestion, splits, session data guard, metrics.

Sessions receive their training data through owning views that are destroyed
when the next session opens, so raw samples from past sessions are
structurally unreachable.  Metric scalars are computed with plain Python
arithmetic from integer counts so they match a from-definition reference
implementation exactly.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ContractViolation, FormatError
from .numerics import SeededRng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
BAYES_BLOCK = 256  # probe rows per (rows, C, D) difference array of the Bayes estimate


# -- datasets -----------------------------------------------------------------


@dataclass
class ArrayDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    true_means: np.ndarray | None = None
    bayes_accuracy: float | None = None

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for arr in (self.train_x, self.train_y, self.test_x, self.test_y):
            digest.update(str(arr.shape).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


NEAR_TIE = 1e-9  # relative band inside which the per-row formulas decide, far wider than rounding


def _clears_placed(candidate: np.ndarray, placed: np.ndarray, separation: float) -> bool:
    """`all(np.linalg.norm(candidate - m) >= separation for m in placed)`.

    One vectorized distance to the nearest placed mean decides unless it lies
    within a relative `NEAR_TIE` of `separation`; the two computations differ
    by a few ulps, so only there do the per-mean norms run.
    """
    if not len(placed):
        return True
    nearest = float(np.sqrt(((placed - candidate) ** 2).sum(axis=1).min()))
    if abs(nearest - separation) > NEAR_TIE * separation:
        return nearest > separation
    return all(np.linalg.norm(candidate - m) >= separation for m in placed)


def _nearest_means(rows: np.ndarray, means: np.ndarray) -> np.ndarray:
    """`((rows[:, None] - means[None]) ** 2).sum(axis=2).argmin(axis=1)`, bitwise.

    Ranks by ||x||^2 - 2 x.mu + ||mu||^2 (one matrix product and two row
    norms).  That form's rounding error, about (D + 3) u (||x||^2 + 2|x.mu| +
    ||mu||^2), is far inside the band NEAR_TIE (||x||^2 + max ||mu||^2), so a
    row whose runner-up lies outside the band has the same argmin under the
    broadcast formula; the rows with a runner-up inside it are re-ranked by
    that formula, which keeps its first-index tie rule.
    """
    mean_sq = np.einsum("cd,cd->c", means, means)
    row_sq = np.einsum("nd,nd->n", rows, rows)
    dists = rows @ (-2.0 * means.T)
    dists += row_sq[:, None]
    dists += mean_sq
    nearest = dists.argmin(axis=1)
    band = NEAR_TIE * (row_sq + mean_sq.max())
    near_tie = (dists <= (dists.min(axis=1) + band)[:, None]).sum(axis=1) > 1
    if near_tie.any():
        tied = rows[near_tie]
        nearest[near_tie] = ((tied[:, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1)
    return nearest


def generate_blobs(
    classes: int,
    dim: int,
    samples_per_class: int,
    separation: float,
    seed: int,
    test_per_class: int = 0,
    bayes_draws: int = 200,
) -> ArrayDataset:
    """Gaussian clusters (unit within-class std) whose means sit at pairwise
    distance >= separation, reshaped to single-channel square images.

    A candidate mean is kept when `np.linalg.norm(candidate - m) >= separation`
    for every placed mean m; `_clears_placed` tests all of them with one
    vectorized distance and falls back to those norms when the nearest lies
    within a relative `NEAR_TIE` of `separation`.

    Ships a Monte-Carlo estimate of the Bayes-optimal (nearest-true-mean)
    accuracy alongside the data.  The probe rows are ranked `BAYES_BLOCK` at
    a time by `_nearest_means`: one matrix product per block, with the rows
    whose runner-up lies within the `NEAR_TIE` band re-ranked by the
    broadcast difference formula.  Both fallbacks cover every case in which
    rounding could flip a decision, so means, data and estimate are bitwise
    those of the per-mean norms and the one-array broadcast estimate.
    """
    if separation <= 0:
        raise ArgumentError("separation must be positive")
    for name, value, low in (("classes", classes, 1), ("dim", dim, 1), ("samples_per_class", samples_per_class, 1), ("test_per_class", test_per_class, 0)):
        if value < low:
            raise ArgumentError(f"blob {name} must be at least {low}, got {value}")
    side = int(round(np.sqrt(dim)))
    if side * side != dim:
        raise ArgumentError(f"blob dim {dim} must be a perfect square to form images")
    rng = SeededRng(seed).child("blobs")
    means = np.empty((classes, dim))
    scale = max(separation, 1.0)
    mean_rng = rng.child("means")
    for c in range(classes):
        for attempt in range(2000):
            candidate = mean_rng.normal(size=dim, scale=scale)
            if _clears_placed(candidate, means[:c], separation):
                means[c] = candidate
                break
            if attempt % 200 == 199:
                scale *= 1.3
        else:
            raise ArgumentError(f"could not place {classes} means at separation {separation}")

    def draw(count: int, label: str):
        xs, ys = [], []
        for c in range(classes):
            pts = means[c] + rng.child(label, f"class{c}").normal(size=(count, dim))
            xs.append(pts)
            ys.append(np.full(count, c, dtype=int))
        return np.concatenate(xs).reshape(-1, 1, side, side), np.concatenate(ys)

    train_x, train_y = draw(samples_per_class, "train")
    test_x, test_y = (draw(test_per_class, "test") if test_per_class else (np.zeros((0, 1, side, side)), np.zeros(0, dtype=int)))

    probe = rng.child("bayes").normal(size=(classes, bayes_draws, dim)) + means[:, None, :]
    flat = probe.reshape(-1, dim)
    truth = np.repeat(np.arange(classes), bayes_draws)
    nearest = np.empty(len(flat), dtype=int)
    for start in range(0, len(flat), BAYES_BLOCK):
        nearest[start : start + BAYES_BLOCK] = _nearest_means(flat[start : start + BAYES_BLOCK], means)
    bayes = float((nearest == truth).mean())
    return ArrayDataset(train_x, train_y, test_x, test_y, true_means=means, bayes_accuracy=bayes)


# -- IDX file format -----------------------------------------------------------


def _read_exact(fh, count: int, path, offset: int) -> bytes:
    """The `count` bytes at `offset`; a garbled header's huge `count` is checked
    against the file size first, so it is never asked of `read`."""
    data = fh.read(min(count, max(os.fstat(fh.fileno()).st_size - offset, 0)))
    if len(data) != count:
        raise FormatError(f"{path}: truncated at byte {offset + len(data)} (wanted {count} more bytes)")
    return data


def load_idx_images(path) -> np.ndarray:
    """Big-endian IDX image file -> float images (N, 1, H, W) scaled to [0, 1].

    No mean/std normalization is applied; the batch-norm layers absorb scale.
    """
    with open(path, "rb") as fh:
        header = _read_exact(fh, 16, path, 0)
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        payload = _read_exact(fh, count * rows * cols, path, 16)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {16 + count * rows * cols}")
    try:
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, 1, rows, cols)
    except ValueError as exc:  # zero images of a size numpy cannot index
        raise FormatError(f"{path}: {count} images of {rows}x{cols} pixels: {exc}") from exc
    return images.astype(float) / 255.0


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = _read_exact(fh, 8, path, 0)
        magic, count = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        payload = _read_exact(fh, count, path, 8)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {8 + count}")
    return np.frombuffer(payload, dtype=np.uint8).astype(int)


def write_idx_images(path, images: np.ndarray):
    """Inverse of `load_idx_images`; expects uint8 pixels (N, 1, H, W) or (N, H, W)."""
    images = np.asarray(images)
    if images.ndim == 4:
        images = images[:, 0]
    if images.dtype != np.uint8:
        raise ArgumentError("write_idx_images expects uint8 pixel values")
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(np.ascontiguousarray(images).tobytes())


def write_idx_labels(path, labels: np.ndarray):
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise ArgumentError("labels must fit in one byte")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def load_idx_dataset(train_images, train_labels, test_images, test_labels) -> ArrayDataset:
    return ArrayDataset(
        train_x=load_idx_images(train_images),
        train_y=load_idx_labels(train_labels),
        test_x=load_idx_images(test_images),
        test_y=load_idx_labels(test_labels),
    )


# -- FSCIL splits ---------------------------------------------------------------


@dataclass
class SessionSpec:
    session: int
    label_set: tuple
    ways: int
    shots: int  # 0 for the base session (all samples used)
    train_indices: np.ndarray
    test_indices: np.ndarray  # cumulative pool over all classes seen so far


def build_fscil_splits(train_labels, test_labels, base_classes: int, ways: int, shots: int, seed: int) -> list[SessionSpec]:
    """Base session with every base-class training sample, then N-way K-shot
    sessions over the remaining classes (in sorted label order), each scored
    against the cumulative test pool."""
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    classes = sorted(set(int(c) for c in train_labels))
    if base_classes < 1 or base_classes > len(classes):
        raise ArgumentError(f"base_classes {base_classes} infeasible for {len(classes)} classes")
    if ways < 1 or shots < 1:
        raise ArgumentError("ways and shots must be at least 1")
    n_sessions = (len(classes) - base_classes) // ways
    rng = SeededRng(seed).child("splits")

    specs = []
    seen: list[int] = []
    for k in range(n_sessions + 1):
        if k == 0:
            label_set = tuple(classes[:base_classes])
            train_idx = np.sort(np.concatenate([np.flatnonzero(train_labels == c) for c in label_set]))
            spec_shots = 0
        else:
            start = base_classes + (k - 1) * ways
            label_set = tuple(classes[start : start + ways])
            picks = []
            for c in label_set:
                pool = np.flatnonzero(train_labels == c)
                if len(pool) < shots:
                    raise ArgumentError(f"class {c} has {len(pool)} train samples, needs {shots}")
                chosen = rng.child(f"session{k}", f"class{c}").choice(len(pool), size=shots, replace=False)
                picks.append(pool[np.sort(chosen)])
            train_idx = np.concatenate(picks)
            spec_shots = shots
        seen.extend(label_set)
        test_idx = np.sort(np.flatnonzero(np.isin(test_labels, seen)))
        if not len(test_idx):
            raise ArgumentError(f"the test set holds 0 samples of the {len(seen)} classes seen by session {k}")
        specs.append(
            SessionSpec(session=k, label_set=label_set, ways=len(label_set), shots=spec_shots, train_indices=train_idx, test_indices=test_idx)
        )
    return specs


def check_disjoint(specs: list[SessionSpec]):
    for a in specs:
        for b in specs:
            if a.session < b.session and set(a.label_set) & set(b.label_set):
                raise ContractViolation(f"sessions {a.session} and {b.session} share labels")


# -- no-memory data guard --------------------------------------------------------


class SessionView:
    """Owning view over one session's training samples; dead once closed."""

    def __init__(self, session: int, images: np.ndarray, labels: np.ndarray):
        self.session = session
        self._images = images
        self._labels = labels
        self._closed = False

    def _check(self):
        if self._closed:
            raise ContractViolation(f"training data of session {self.session} was discarded when the next session opened")

    @property
    def images(self) -> np.ndarray:
        self._check()
        return self._images

    @property
    def labels(self) -> np.ndarray:
        self._check()
        return self._labels

    def close(self):
        self._images = None
        self._labels = None
        self._closed = True


class SessionDataVault:
    """Hands out one live `SessionView` at a time, in session order."""

    def __init__(self, dataset: ArrayDataset, specs: list[SessionSpec]):
        self.dataset = dataset
        self.specs = specs
        self._open_view: SessionView | None = None
        self._next = 0

    def open(self, session: int) -> SessionView:
        if session != self._next:
            raise ContractViolation(f"sessions must be opened in order; expected {self._next}, got {session}")
        if self._open_view is not None:
            self._open_view.close()
        spec = self.specs[session]
        view = SessionView(session, self.dataset.train_x[spec.train_indices].copy(), self.dataset.train_y[spec.train_indices].copy())
        self._open_view = view
        self._next += 1
        return view

    def test_pool(self, session: int):
        """Evaluation pool (cumulative) - test data is not session memory."""
        spec = self.specs[session]
        return self.dataset.test_x[spec.test_indices], self.dataset.test_y[spec.test_indices]


# -- metrics ----------------------------------------------------------------------


@dataclass
class Metrics:
    per_session_accuracy: list
    average_accuracy: float
    average_forgetting: float
    macro_f1: float
    per_task_accuracy: list = field(default_factory=list)  # one {task: acc} dict per session

    def to_dict(self) -> dict:
        return {
            "per_session_accuracy": self.per_session_accuracy,
            "average_accuracy": self.average_accuracy,
            "average_forgetting": self.average_forgetting,
            "macro_f1": self.macro_f1,
            "per_task_accuracy": [{str(task): acc for task, acc in row.items()} for row in self.per_task_accuracy],
        }


def _accuracy_percent(predictions, labels) -> float:
    correct = sum(1 for p, t in zip(predictions, labels) if p == t)
    return 100.0 * correct / len(labels)


def macro_f1_score(predictions, labels) -> float:
    """Mean per-class F1 over the classes present in `labels`."""
    classes = sorted(set(labels))
    scores = []
    for c in classes:
        tp = sum(1 for p, t in zip(predictions, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(predictions, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(predictions, labels) if p != c and t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(scores) / len(scores)


def compute_metrics(predictions_per_session: list, labels_per_session: list, class_to_task: dict) -> Metrics:
    """Session accuracies, their mean, max-over-time forgetting, and final macro F1.

    Forgetting for task j is max_{t<=T} a[t][j] - a[T][j], averaged over all
    tasks j before the final session T.
    """
    if len(predictions_per_session) != len(labels_per_session):
        raise ArgumentError("predictions and labels disagree on session count")
    for preds, labels in zip(predictions_per_session, labels_per_session):
        if len(preds) != len(labels):
            raise ArgumentError("predictions and labels disagree on sample count")

    per_session = [_accuracy_percent(p, l) for p, l in zip(predictions_per_session, labels_per_session)]
    average_accuracy = sum(per_session) / len(per_session)

    # per-task accuracy a[t][j]
    matrix = []
    for preds, labels in zip(predictions_per_session, labels_per_session):
        row: dict = {}
        tasks = sorted(set(class_to_task[t] for t in labels))
        for j in tasks:
            pairs = [(p, t) for p, t in zip(preds, labels) if class_to_task[t] == j]
            row[j] = _accuracy_percent([p for p, _ in pairs], [t for _, t in pairs])
        matrix.append(row)

    final = len(matrix) - 1
    drops = []
    for j in sorted(matrix[final]):
        if j >= final and final > 0:
            continue
        if final == 0:
            continue
        best = max(matrix[t][j] for t in range(final + 1) if j in matrix[t])
        drops.append(best - matrix[final][j])
    average_forgetting = sum(drops) / len(drops) if drops else 0.0

    macro = macro_f1_score(predictions_per_session[final], labels_per_session[final])
    return Metrics(
        per_session_accuracy=per_session,
        average_accuracy=average_accuracy,
        average_forgetting=average_forgetting,
        macro_f1=macro,
        per_task_accuracy=matrix,
    )
