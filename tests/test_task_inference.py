"""Gaussian routing tests: MLE stats, covariance accumulation, distance ranking."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from fscil import task_inference
from fscil.errors import ArgumentError, NumericError
from fscil.task_inference import (
    ClassGaussian,
    SharedCovariance,
    accumulate_covariance,
    class_distances,
    fit_class_stats,
    select_class_batch,
)


# -- statistics fitting ----------------------------------------------------------


def test_single_sample_per_class():
    emb = np.array([[1.0, 2.0], [3.0, -1.0]])
    gaussians, scatter = fit_class_stats(emb, np.array([0, 1]), session=0)
    np.testing.assert_array_equal(gaussians[0].mean, [1.0, 2.0])
    np.testing.assert_array_equal(gaussians[1].mean, [3.0, -1.0])
    np.testing.assert_array_equal(scatter, np.zeros((2, 2)))


def test_two_point_class_hand_covariance():
    emb = np.array([[0.0, 0.0], [2.0, 0.0]])
    gaussians, scatter = fit_class_stats(emb, np.array([0, 0]), session=0)
    np.testing.assert_array_equal(gaussians[0].mean, [1.0, 0.0])
    np.testing.assert_allclose(scatter, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)  # pooled over 2 samples


def test_five_shot_matches_brute_force_mle():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(15, 4))
    labels = np.repeat([0, 1, 2], 5)
    gaussians, scatter = fit_class_stats(emb, labels, session=2)

    expected = np.zeros((4, 4))
    for c in range(3):
        rows = emb[labels == c]
        mu = rows.sum(axis=0) / 5.0
        np.testing.assert_allclose(gaussians[c].mean, mu, atol=1e-10)
        for r in rows:
            d = (r - mu)[:, None]
            expected += d @ d.T
    np.testing.assert_allclose(scatter, expected / 15.0, atol=1e-10)
    assert all(g.session == 2 for g in gaussians)


def test_empty_or_mismatched_inputs_rejected():
    with pytest.raises(ArgumentError):
        fit_class_stats(np.zeros((0, 3)), np.array([]), session=0)
    with pytest.raises(ArgumentError):
        fit_class_stats(np.zeros((2, 3)), np.array([0]), session=0)


# -- accumulation -------------------------------------------------------------------


def test_first_accumulation_copies():
    a1 = np.array([[2.0, 0.5], [0.5, 1.0]])
    shared = accumulate_covariance(None, a1, session=0)
    np.testing.assert_array_equal(shared.matrix, a1)
    assert shared.sessions == [0]


def test_accumulation_matches_matrix_sum_oracle():
    rng = np.random.default_rng(1)
    b1, b2 = rng.normal(size=(2, 3, 3))
    a1, a2 = b1 @ b1.T, b2 @ b2.T
    shared = accumulate_covariance(accumulate_covariance(None, a1, 0), a2, 1)
    np.testing.assert_array_equal(shared.matrix, a1 + a2)
    shared.check()


def test_accumulating_zero_is_identity():
    a1 = np.eye(3)
    shared = accumulate_covariance(None, a1, 0)
    shared = accumulate_covariance(shared, np.zeros((3, 3)), 1)
    np.testing.assert_array_equal(shared.matrix, np.eye(3))


def test_accumulation_shape_mismatch_rejected():
    with pytest.raises(ArgumentError):
        accumulate_covariance(accumulate_covariance(None, np.eye(2), 0), np.eye(3), 1)


def test_covariance_stays_psd_property():
    rng = np.random.default_rng(2)
    shared = None
    for k in range(5):
        pts = rng.normal(size=(12, 4)) @ np.diag(rng.uniform(0.1, 2.0, size=4))
        labels = np.repeat([0, 1, 2], 4)
        _, scatter = fit_class_stats(pts, labels, session=k)
        shared = accumulate_covariance(shared, scatter, k)
        np.testing.assert_allclose(shared.matrix, shared.matrix.T, atol=1e-10)
        assert np.linalg.eigvalsh(shared.matrix).min() >= -1e-8


# -- selection ------------------------------------------------------------------------


def _random_instance(rng, n_classes, dim):
    gaussians, _ = fit_class_stats(rng.normal(size=(n_classes, dim)) * 3, np.arange(n_classes), session=0)
    for i, g in enumerate(gaussians):
        g.session = i % 3
    b = rng.normal(size=(dim, dim))
    shared = SharedCovariance(matrix=b @ b.T + 0.5 * np.eye(dim), sessions=[0])
    return gaussians, shared


def test_identity_covariance_ranks_like_euclidean():
    rng = np.random.default_rng(3)
    gaussians, _ = fit_class_stats(rng.normal(size=(6, 4)), np.arange(6), session=0)
    shared = SharedCovariance(matrix=np.eye(4), sessions=[0])
    for _ in range(100):
        q = rng.normal(size=4) * 2
        m_cls, _ = select_class_batch(q[None], gaussians, shared, metric="mahalanobis")
        e_cls, _ = select_class_batch(q[None], gaussians, None, metric="euclidean")
        assert m_cls[0] == e_cls[0]


def test_select_class_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    agree = 0
    for _ in range(1000):
        n_classes = int(rng.integers(2, 11))
        dim = int(rng.integers(2, 9))
        gaussians, shared = _random_instance(rng, n_classes, dim)
        q = rng.normal(size=dim) * 2
        (got_cls,), (got_sess,) = select_class_batch(q[None], gaussians, shared, metric="mahalanobis")

        # brute force: explicit inverse of the regularized matrix, python loop
        eps = 1e-6 * np.trace(shared.matrix) / dim
        inv = np.linalg.inv(shared.matrix + eps * np.eye(dim))
        best, best_d = None, np.inf
        for g in gaussians:
            d = (q - g.mean) @ inv @ (q - g.mean)
            if d < best_d - 0.0 and (best is None or d < best_d):
                best, best_d = g, d
        agree += int(got_cls == best.class_id and got_sess == best.session)
    assert agree == 1000


def test_batch_selection_matches_scalar_path():
    rng = np.random.default_rng(5)
    gaussians, shared = _random_instance(rng, 7, 5)
    queries = rng.normal(size=(20, 5))
    ids, sessions = select_class_batch(queries, gaussians, shared, metric="mahalanobis")
    for i, q in enumerate(queries):
        (c,), (s,) = select_class_batch(q[None], gaussians, shared, metric="mahalanobis")
        assert ids[i] == c and sessions[i] == s


def test_affine_equivariance_of_mahalanobis_argmin():
    rng = np.random.default_rng(6)
    for _ in range(50):
        gaussians, shared = _random_instance(rng, 6, 4)
        q = rng.normal(size=4) * 2
        base, _ = select_class_batch(q[None], gaussians, shared, metric="mahalanobis")

        m = rng.normal(size=(4, 4)) + 2 * np.eye(4)  # invertible w.h.p.
        mapped = [type(g)(class_id=g.class_id, session=g.session, mean=m @ g.mean, count=g.count) for g in gaussians]
        mapped_cov = SharedCovariance(matrix=m @ shared.matrix @ m.T, sessions=list(shared.sessions))
        got, _ = select_class_batch((m @ q)[None], mapped, mapped_cov, metric="mahalanobis")
        assert got[0] == base[0]


def test_singular_regularized_matrix_raises_numeric_error():
    gaussians, _ = fit_class_stats(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), session=0)
    zero_cov = SharedCovariance(matrix=np.zeros((2, 2)), sessions=[0])  # trace 0 -> eps 0 -> singular
    with pytest.raises(NumericError, match="euclidean"):
        select_class_batch(np.array([[0.5, 0.5]]), gaussians, zero_cov, metric="mahalanobis")


def test_unknown_metric_rejected():
    gaussians, _ = fit_class_stats(np.eye(2), np.array([0, 1]), session=0)
    with pytest.raises(ArgumentError):
        class_distances(np.zeros((1, 2)), gaussians, None, metric="manhattan")


def test_tie_breaks_to_lowest_class_id():
    gaussians, _ = fit_class_stats(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 0]), session=0)
    cls, _ = select_class_batch(np.array([[0.0, 0.0]]), gaussians, None, metric="euclidean")
    assert cls[0] == 0


@pytest.mark.parametrize("queries", [1, 63, 64, 65, 200])
def test_blocked_euclidean_distances_equal_the_one_array_oracle_bitwise(queries):
    rng = np.random.default_rng(40)
    q, means = rng.normal(size=(queries, 7)), rng.normal(size=(5, 7))
    gaussians = [ClassGaussian(class_id=c, session=0, mean=m, count=1) for c, m in enumerate(means)]
    diff = q[:, None, :] - means[None, :, :]
    assert np.array_equal(class_distances(q, gaussians, None, "euclidean"), np.einsum("qcd,qcd->qc", diff, diff))


def _per_class_solve_distances(queries, gaussians, covariance):
    """Mahalanobis oracle: one triangular solve of (q - mu) per class."""
    dim = covariance.matrix.shape[0]
    reg = covariance.matrix + task_inference.COV_REG_SCALE * np.trace(covariance.matrix) / dim * np.eye(dim)
    chol = np.linalg.cholesky(reg)
    dists = np.empty((len(queries), len(gaussians)))
    for c, g in enumerate(gaussians):
        solved = solve_triangular(chol, (queries - g.mean).T, lower=True)
        dists[:, c] = np.einsum("dq,dq->q", solved, solved)
    return dists


@pytest.mark.parametrize("queries, classes, dim", [(1, 1, 1), (1, 5, 3), (7, 1, 4), (9, 6, 1), (130, 74, 16)] + np.random.default_rng(41).integers(1, 40, size=(20, 3)).tolist())
def test_whitened_mahalanobis_distances_match_the_per_class_solve_oracle(queries, classes, dim):
    rng = np.random.default_rng([queries, classes, dim])
    gaussians, shared = _random_instance(rng, classes, dim)
    q = rng.normal(size=(queries, dim)) * 2
    got = class_distances(q, gaussians, shared, "mahalanobis")
    want = _per_class_solve_distances(q, gaussians, shared)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
    np.testing.assert_array_equal(np.argmin(got, axis=1), np.argmin(want, axis=1))


@pytest.mark.parametrize("classes", [1, 74])
def test_mahalanobis_distances_take_at_most_two_triangular_solves(monkeypatch, classes):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_triangular(*args, **kwargs)

    monkeypatch.setattr(task_inference, "solve_triangular", counting)
    rng = np.random.default_rng(42)
    gaussians, shared = _random_instance(rng, classes, 8)
    class_distances(rng.normal(size=(296, 8)), gaussians, shared, "mahalanobis")
    assert len(calls) <= 2


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
@pytest.mark.parametrize("where", ["query", "mean"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_routing_inputs_raise_numeric_error(metric, where, bad):
    rng = np.random.default_rng(43)
    gaussians, shared = _random_instance(rng, 4, 3)
    queries = rng.normal(size=(5, 3))
    if where == "query":
        queries[2, 1] = bad
    else:
        gaussians[1].mean[0] = bad
    with pytest.raises(NumericError, match=where):
        select_class_batch(queries, gaussians, shared, metric)


def test_non_finite_covariance_raises_numeric_error():
    rng = np.random.default_rng(44)
    gaussians, shared = _random_instance(rng, 4, 3)
    shared.matrix[1, 1] = np.nan
    with pytest.raises(NumericError, match="covariance is not finite"):
        select_class_batch(rng.normal(size=(5, 3)), gaussians, shared, "mahalanobis")
