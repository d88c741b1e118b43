"""Harness tests: split patterns, blob generation, IDX files, guard, metrics."""

import tracemalloc

import numpy as np
import pytest

from fscil.errors import ArgumentError, ContractViolation, FormatError
from fscil.harness import (
    BAYES_BLOCK,
    _clears_placed,
    _nearest_means,
    SessionDataVault,
    build_fscil_splits,
    check_disjoint,
    compute_metrics,
    generate_blobs,
    load_idx_images,
    load_idx_labels,
    macro_f1_score,
    write_idx_images,
    write_idx_labels,
)
from fscil.numerics import SeededRng
from test_bench_contract import bench_module

CUB_CUMULATIVE = [2864, 3143, 3430, 3728, 4028, 4326, 4614, 4911, 5206, 5494, 5794]


# -- splits -----------------------------------------------------------------------


def _labels(counts: dict) -> np.ndarray:
    return np.concatenate([np.full(n, c, dtype=int) for c, n in counts.items()])


def test_standard_split_60_base_8_sessions_of_5():
    train = _labels({c: 10 for c in range(100)})
    test = _labels({c: 100 for c in range(100)})
    specs = build_fscil_splits(train, test, base_classes=60, ways=5, shots=5, seed=0)
    assert len(specs) == 9  # base + 8 incremental -> 9 evaluation points
    assert specs[0].shots == 0 and len(specs[0].train_indices) == 600
    for k, spec in enumerate(specs[1:], start=1):
        assert len(spec.label_set) == 5
        assert len(spec.train_indices) == 25  # exactly N*K
    # cumulative pools: 100 test samples per learned class
    for spec in specs:
        learned = 60 + 5 * spec.session
        assert len(spec.test_indices) == 100 * learned
    check_disjoint(specs)


def test_cub_pattern_cumulative_test_sizes():
    train = _labels({c: 30 for c in range(200)})
    test_counts = {}
    sizes = [CUB_CUMULATIVE[0]] + list(np.diff(CUB_CUMULATIVE))
    for k, total in enumerate(sizes):
        classes = range(100 + 10 * (k - 1), 100 + 10 * k) if k > 0 else range(100)
        group = list(classes)
        for i, c in enumerate(group):
            share = total // len(group) + (1 if i < total % len(group) else 0)
            test_counts[c] = share
    test = _labels(test_counts)
    specs = build_fscil_splits(train, test, base_classes=100, ways=10, shots=5, seed=1)
    assert [len(s.test_indices) for s in specs] == CUB_CUMULATIVE
    lens = {len(s.label_set) for s in specs[1:]}
    assert lens == {10}


def test_all_pairwise_label_sets_disjoint():
    train = _labels({c: 8 for c in range(30)})
    test = _labels({c: 4 for c in range(30)})
    specs = build_fscil_splits(train, test, base_classes=10, ways=4, shots=3, seed=2)
    seen = set()
    for spec in specs:
        assert not (seen & set(spec.label_set))
        seen |= set(spec.label_set)


def test_split_infeasible_cases():
    train = _labels({c: 3 for c in range(10)})
    test = _labels({c: 2 for c in range(10)})
    with pytest.raises(ArgumentError):
        build_fscil_splits(train, test, base_classes=20, ways=2, shots=2, seed=0)
    with pytest.raises(ArgumentError):
        build_fscil_splits(train, test, base_classes=4, ways=2, shots=9, seed=0)  # not enough shots
    with pytest.raises(ArgumentError):
        build_fscil_splits(train, test, base_classes=4, ways=0, shots=1, seed=0)


def test_split_shot_selection_deterministic():
    train = _labels({c: 20 for c in range(8)})
    test = _labels({c: 5 for c in range(8)})
    a = build_fscil_splits(train, test, 4, 2, 3, seed=9)
    b = build_fscil_splits(train, test, 4, 2, 3, seed=9)
    c = build_fscil_splits(train, test, 4, 2, 3, seed=10)
    assert all(np.array_equal(x.train_indices, y.train_indices) for x, y in zip(a, b))
    assert any(not np.array_equal(x.train_indices, y.train_indices) for x, y in zip(a, c))


# -- blobs ------------------------------------------------------------------------------


def test_blob_class_counts_exact():
    ds = generate_blobs(classes=5, dim=16, samples_per_class=7, separation=6.0, seed=0, test_per_class=3)
    assert ds.train_x.shape == (35, 1, 4, 4)
    assert all((ds.train_y == c).sum() == 7 for c in range(5))
    assert all((ds.test_y == c).sum() == 3 for c in range(5))


def test_blob_separation_holds():
    ds = generate_blobs(classes=8, dim=16, samples_per_class=2, separation=9.0, seed=1)
    means = ds.true_means
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.linalg.norm(means[i] - means[j]) >= 9.0


def test_blob_bayes_accuracy_near_one_at_high_separation():
    ds = generate_blobs(classes=6, dim=16, samples_per_class=2, separation=10.0, seed=2)
    assert ds.bayes_accuracy >= 0.999


def test_blocked_bayes_accuracy_equals_the_unblocked_estimate():
    # 7 * 111 probe rows: the last block is short; weak separation keeps errors
    classes, draws, dim, seed = 7, 111, 16, 4
    assert (classes * draws) % BAYES_BLOCK
    ds = generate_blobs(classes, dim, 2, separation=1.0, seed=seed, bayes_draws=draws)
    means = ds.true_means
    probe = SeededRng(seed).child("blobs").child("bayes").normal(size=(classes, draws, dim)) + means[:, None, :]
    flat = probe.reshape(-1, dim)
    dists = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    expected = float((dists.argmin(axis=1) == np.repeat(np.arange(classes), draws)).mean())
    assert 0.5 < expected < 1.0
    assert ds.bayes_accuracy == expected


def test_bayes_estimate_peak_memory_is_bounded_by_the_block():
    # 74 classes x 200 draws: one (14,800, 74, 16) difference array would be 140 MB
    tracemalloc.start()
    try:
        generate_blobs(classes=74, dim=16, samples_per_class=20, separation=8.0, seed=0, test_per_class=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _per_mean_blob_oracle(classes, dim, separation, seed, bayes_draws=200):
    """Means placed by one `np.linalg.norm` per placed mean, and the Bayes
    estimate from the broadcast difference array, as `generate_blobs` defines them."""
    rng = SeededRng(seed).child("blobs")
    mean_rng, means, scale = rng.child("means"), [], max(separation, 1.0)
    for _ in range(classes):
        for attempt in range(2000):
            candidate = mean_rng.normal(size=dim, scale=scale)
            if all(np.linalg.norm(candidate - m) >= separation for m in means):
                means.append(candidate)
                break
            if attempt % 200 == 199:
                scale *= 1.3
    means = np.stack(means)
    flat = (rng.child("bayes").normal(size=(classes, bayes_draws, dim)) + means[:, None, :]).reshape(-1, dim)
    nearest = np.concatenate([((flat[i : i + BAYES_BLOCK, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1) for i in range(0, len(flat), BAYES_BLOCK)])
    return means, float((nearest == np.repeat(np.arange(classes), bayes_draws)).mean())


@pytest.mark.parametrize("name", sorted(bench_module("run").WORKLOADS))
@pytest.mark.parametrize("seed", range(3))
def test_blobs_of_the_benchmark_workloads_equal_the_per_mean_oracle_bitwise(name, seed):
    ds = bench_module("run").workload_config(name).dataset
    blobs = generate_blobs(ds.classes, ds.dim, ds.train_per_class, ds.separation, seed, test_per_class=ds.test_per_class)
    means, bayes = _per_mean_blob_oracle(ds.classes, ds.dim, ds.separation, seed)
    assert blobs.true_means.tobytes() == means.tobytes()
    assert blobs.bayes_accuracy == bayes


def test_near_tied_probes_are_ranked_by_the_broadcast_formula_with_its_first_index():
    dim = 16
    axis = np.eye(dim)
    # exactly midway between means 0 and 1 (a tie: the first index wins), 1e-12 off
    # the midpoint, and probes near the midpoint of two means far from the origin,
    # where the expanded form's cancellation hides which mean is nearer
    means = np.stack([np.zeros(dim), 2 * axis[0], 3 * axis[1]])
    rows = np.stack([axis[0], (1 + 1e-12) * axis[0], (1 - 1e-12) * axis[0]])
    assert _nearest_means(rows, means).tolist() == [0, 1, 0]
    assert _nearest_means(rows, means[[1, 0, 2]]).tolist() == [0, 0, 1]
    far = means + 1e4
    probes = far[0] + axis[0] + np.random.default_rng(0).normal(size=(BAYES_BLOCK, dim)) * 1e-9
    exact = ((probes[:, None, :] - far[None]) ** 2).sum(axis=2).argmin(axis=1)
    expanded = (probes @ (-2.0 * far.T) + (probes**2).sum(axis=1)[:, None] + (far**2).sum(axis=1)).argmin(axis=1)
    assert set(exact.tolist()) == {0, 1}
    assert (expanded != exact).any()  # the expanded form alone would misrank these
    assert np.array_equal(_nearest_means(probes, far), exact)


def test_a_candidate_at_the_separation_is_decided_by_the_per_mean_norms():
    # (3, 4) is exactly 5 from the origin: kept at separation 5, rejected one ulp above
    candidate = np.zeros(4)
    candidate[:2] = 3.0, 4.0
    placed = np.stack([np.zeros(4), np.full(4, 20.0)])
    assert _clears_placed(candidate, placed, 5.0)
    assert not _clears_placed(candidate, placed, np.nextafter(5.0, np.inf))
    assert _clears_placed(candidate, placed[:0], 5.0)
    rng = np.random.default_rng(1)
    rounding_differs = 0
    for _ in range(200):
        placed, candidate = rng.normal(size=(6, 16)) * 8, rng.normal(size=16) * 8
        norms = [np.linalg.norm(candidate - m) for m in placed]
        nearest = min(norms)
        rounding_differs += np.sqrt(((placed - candidate) ** 2).sum(axis=1)).min() != nearest
        for separation in (np.nextafter(nearest, 0.0), nearest, np.nextafter(nearest, np.inf)):
            assert _clears_placed(candidate, placed, separation) == all(n >= separation for n in norms)
    assert rounding_differs  # the vectorized distance alone would decide some of these wrongly


def test_blob_dataset_hash_deterministic():
    a = generate_blobs(4, 16, 5, 6.0, seed=3, test_per_class=2)
    b = generate_blobs(4, 16, 5, 6.0, seed=3, test_per_class=2)
    c = generate_blobs(4, 16, 5, 6.0, seed=4, test_per_class=2)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_blob_argument_validation():
    with pytest.raises(ArgumentError):
        generate_blobs(3, 16, 5, separation=0.0, seed=0)
    with pytest.raises(ArgumentError):
        generate_blobs(3, 15, 5, separation=2.0, seed=0)  # not a perfect square


# -- IDX --------------------------------------------------------------------------------


def test_idx_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 5, 5)).astype(np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)

    loaded = load_idx_images(ipath)
    np.testing.assert_allclose(loaded, images[:, None, :, :] / 255.0, atol=1e-12)
    np.testing.assert_array_equal(load_idx_labels(lpath), labels)

    # write back what we loaded: files must match byte for byte
    ipath2 = tmp_path / "imgs2.idx"
    write_idx_images(ipath2, (loaded * 255.0).round().astype(np.uint8))
    assert ipath.read_bytes() == ipath2.read_bytes()


def test_idx_zero_items(tmp_path):
    path = tmp_path / "empty.idx"
    write_idx_images(path, np.zeros((0, 4, 4), dtype=np.uint8))
    assert load_idx_images(path).shape == (0, 1, 4, 4)


def test_idx_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        load_idx_images(path)
    with pytest.raises(FormatError, match="magic"):
        load_idx_labels(path)


def test_idx_truncation_reports_offset(tmp_path):
    path = tmp_path / "trunc.idx"
    import struct

    payload = struct.pack(">IIII", 0x00000803, 2, 3, 3) + b"\x01" * 10  # needs 18 bytes
    path.write_bytes(payload)
    with pytest.raises(FormatError, match="byte 26"):
        load_idx_images(path)


@pytest.mark.parametrize("count, match", [(0xFFFFFFFF, "truncated at byte 32"), (0, "0 images of 4294967295x4294967295")])
def test_idx_garbled_header_dims_raise_format_error(tmp_path, count, match):
    import struct

    path = tmp_path / "garbled.idx"
    payload = b"\x01" * 16 if count else b""
    path.write_bytes(struct.pack(">IIII", 0x00000803, count, 0xFFFFFFFF, 0xFFFFFFFF) + payload)  # ~7.9e28 bytes, or none
    with pytest.raises(FormatError, match=match):
        load_idx_images(path)


def test_idx_scaling_range(tmp_path):
    path = tmp_path / "scale.idx"
    write_idx_images(path, np.array([[[0, 255], [128, 64]]], dtype=np.uint8))
    loaded = load_idx_images(path)
    assert loaded.min() == 0.0 and loaded.max() == 1.0


# -- session data guard ---------------------------------------------------------------------


def _tiny_dataset():
    ds = generate_blobs(classes=6, dim=16, samples_per_class=6, separation=6.0, seed=5, test_per_class=3)
    specs = build_fscil_splits(ds.train_y, ds.test_y, base_classes=2, ways=2, shots=2, seed=5)
    return ds, specs


def test_vault_closes_previous_session_view():
    ds, specs = _tiny_dataset()
    vault = SessionDataVault(ds, specs)
    v0 = vault.open(0)
    assert v0.images.shape[0] == len(specs[0].train_indices)
    v1 = vault.open(1)
    with pytest.raises(ContractViolation):
        _ = v0.images  # session-0 training data is gone at session 1
    assert v1.labels.shape[0] == 4


def test_vault_enforces_session_order():
    ds, specs = _tiny_dataset()
    vault = SessionDataVault(ds, specs)
    with pytest.raises(ContractViolation):
        vault.open(1)


# -- metrics -----------------------------------------------------------------------------------


def test_all_correct_metrics():
    preds = [[0, 1], [0, 1, 2, 2]]
    labels = [[0, 1], [0, 1, 2, 2]]
    m = compute_metrics(preds, labels, {0: 0, 1: 0, 2: 1})
    assert m.per_session_accuracy == [100.0, 100.0]
    assert m.average_accuracy == 100.0
    assert m.average_forgetting == 0.0
    assert m.macro_f1 == 1.0


def test_forgetting_hand_case():
    # task 0: 90% at session 0, 80% at session 1 -> forgetting 10
    preds = [[0] * 9 + [1], [0] * 8 + [1, 1] + [2, 2]]
    labels = [[0] * 10, [0] * 10 + [2, 2]]
    m = compute_metrics(preds, labels, {0: 0, 1: 0, 2: 1})
    assert m.per_task_accuracy[0][0] == 90.0
    assert m.per_task_accuracy[1][0] == 80.0
    assert m.average_forgetting == 10.0


def test_macro_f1_confusion_hand_case():
    # confusion [[2,1],[0,2]] -> per-class F1 = (0.8, 0.8), mean 0.8
    preds = [0, 0, 1, 1, 1]
    labels = [0, 0, 0, 1, 1]
    assert abs(macro_f1_score(preds, labels) - 0.8) < 1e-15


def test_metrics_length_mismatch_rejected():
    with pytest.raises(ArgumentError):
        compute_metrics([[0]], [[0], [1]], {0: 0})
    with pytest.raises(ArgumentError):
        compute_metrics([[0, 1]], [[0]], {0: 0, 1: 0})


def reference_metrics(preds_per, labels_per, class_to_task):
    """From-definition reference, written independently of the implementation."""
    per_session = []
    for p, l in zip(preds_per, labels_per):
        correct = sum(1 for a, b in zip(p, l) if a == b)
        per_session.append(100.0 * correct / len(l))
    avg = sum(per_session) / len(per_session)

    table = {}
    for t, (p, l) in enumerate(zip(preds_per, labels_per)):
        for j in sorted(set(class_to_task[c] for c in l)):
            hits = [1 if a == b else 0 for a, b in zip(p, l) if class_to_task[b] == j]
            table[(t, j)] = 100.0 * sum(hits) / len(hits)
    final = len(preds_per) - 1
    drops = []
    for j in sorted({j for (t, j) in table if t == final}):
        if j >= final or final == 0:
            continue
        best = max(table[(t, j)] for t in range(final + 1) if (t, j) in table)
        drops.append(best - table[(final, j)])
    forgetting = sum(drops) / len(drops) if drops else 0.0

    classes = sorted(set(labels_per[final]))
    f1s = []
    for c in classes:
        tp = sum(1 for a, b in zip(preds_per[final], labels_per[final]) if a == c and b == c)
        fp = sum(1 for a, b in zip(preds_per[final], labels_per[final]) if a == c and b != c)
        fn = sum(1 for a, b in zip(preds_per[final], labels_per[final]) if a != c and b == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    macro = sum(f1s) / len(f1s)
    return per_session, avg, forgetting, macro


def test_metrics_match_reference_on_random_traces():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n_sessions = int(rng.integers(1, 5))
        classes_per = [int(rng.integers(1, 4)) for _ in range(n_sessions)]
        class_to_task = {}
        next_class = 0
        seen = []
        preds_per, labels_per = [], []
        for t in range(n_sessions):
            for _ in range(classes_per[t]):
                class_to_task[next_class] = t
                seen.append(next_class)
                next_class += 1
            n = int(rng.integers(len(seen), 4 * len(seen) + 1))
            labels = [int(c) for c in rng.choice(seen, size=n, replace=True)]
            labels.extend(seen)  # every seen class appears in the pool
            preds = [int(c) for c in rng.choice(seen, size=len(labels), replace=True)]
            preds_per.append(preds)
            labels_per.append(labels)
        got = compute_metrics(preds_per, labels_per, class_to_task)
        want_sessions, want_avg, want_forget, want_macro = reference_metrics(preds_per, labels_per, class_to_task)
        assert got.per_session_accuracy == want_sessions
        assert got.average_accuracy == want_avg
        assert got.average_forgetting == want_forget
        assert got.macro_f1 == want_macro
