"""Gaussian routing tests: MLE stats, covariance accumulation, distance ranking."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from fscil import protocol, task_inference
from fscil.errors import ArgumentError, NumericError
from fscil.task_inference import (
    ClassGaussian,
    SharedCovariance,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_embedding_row_raises_naming_session_and_class(bad):
    # one planted row in class 7: before the check, a NaN scatter was summed
    # into the shared covariance with no error (the Euclidean metric never factors it)
    emb = np.random.default_rng(3).normal(size=(12, 4))
    labels = np.repeat([2, 7, 9], 4)
    emb[5, 1] = bad
    with pytest.raises(NumericError, match="session 3, class 7") as info:
        fit_class_stats(emb, labels, session=3)
    assert info.value.exit_code == 5


def test_an_overflowing_scatter_raises():
    # finite rows and mean whose squared deviations overflow
    emb = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NumericError, match="session 1, class 0"):
        fit_class_stats(emb, np.array([0, 0, 1, 1]), session=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_non_finite_statistics_raise_without_a_floating_point_warning(bad):
    # the rows are checked before any arithmetic on them; an overflowing scatter is caught after it
    emb = np.random.default_rng(4).normal(size=(8, 3))
    if bad == "overflow":
        emb[4:6] = [[1e200, 0.0, 0.0], [-1e200, 0.0, 0.0]]
    else:
        emb[5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="session 2, class 1"):
            fit_class_stats(emb, np.repeat([0, 1], 4), session=2)


def test_empty_or_mismatched_inputs_rejected():
    with pytest.raises(ArgumentError):
        fit_class_stats(np.zeros((0, 3)), np.array([]), session=0)
    with pytest.raises(ArgumentError):
        fit_class_stats(np.zeros((2, 3)), np.array([0]), session=0)


# -- accumulation -------------------------------------------------------------------


def shared_covariance(*scatters):
    """The protocol's shared covariance after one session's scatter per argument."""
    state = protocol._ProtocolState()
    for k, scatter in enumerate(scatters):
        state.set_session_stats(k, [], scatter)
    return state.covariance.matrix


def test_first_accumulation_copies():
    a1 = np.array([[2.0, 0.5], [0.5, 1.0]])
    shared = shared_covariance(a1)
    np.testing.assert_array_equal(shared, a1)
    assert not np.shares_memory(shared, a1)


def test_accumulation_matches_matrix_sum_oracle():
    rng = np.random.default_rng(1)
    b1, b2 = rng.normal(size=(2, 3, 3))
    a1, a2 = b1 @ b1.T, b2 @ b2.T
    shared = shared_covariance(a1, a2)
    np.testing.assert_array_equal(shared, a1 + a2)
    np.testing.assert_array_equal(shared, shared.T)


def test_accumulating_zero_is_identity():
    np.testing.assert_array_equal(shared_covariance(np.eye(3), np.zeros((3, 3))), np.eye(3))


def test_covariance_stays_psd_property():
    rng = np.random.default_rng(2)
    scatters = []
    for k in range(5):
        pts = rng.normal(size=(12, 4)) @ np.diag(rng.uniform(0.1, 2.0, size=4))
        labels = np.repeat([0, 1, 2], 4)
        scatters.append(fit_class_stats(pts, labels, session=k)[1])
        shared = shared_covariance(*scatters)
        np.testing.assert_allclose(shared, shared.T, atol=1e-10)
        assert np.linalg.eigvalsh(shared).min() >= -1e-8


# -- selection ------------------------------------------------------------------------


def _random_instance(rng, n_classes, dim):
    gaussians, _ = fit_class_stats(rng.normal(size=(n_classes, dim)) * 3, np.arange(n_classes), session=0)
    for i, g in enumerate(gaussians):
        g.session = i % 3
    b = rng.normal(size=(dim, dim))
    shared = SharedCovariance(matrix=b @ b.T + 0.5 * np.eye(dim))
    return gaussians, shared


def test_identity_covariance_ranks_like_euclidean():
    rng = np.random.default_rng(3)
    gaussians, _ = fit_class_stats(rng.normal(size=(6, 4)), np.arange(6), session=0)
    shared = SharedCovariance(matrix=np.eye(4))
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
        mapped_cov = SharedCovariance(matrix=m @ shared.matrix @ m.T)
        got, _ = select_class_batch((m @ q)[None], mapped, mapped_cov, metric="mahalanobis")
        assert got[0] == base[0]


def test_singular_regularized_matrix_raises_numeric_error():
    gaussians, _ = fit_class_stats(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), session=0)
    zero_cov = SharedCovariance(matrix=np.zeros((2, 2)))  # trace 0 -> eps 0 -> singular
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


def _one_array_distances(queries, means):
    """Euclidean oracle: one (Q, C, D) difference array."""
    diff = queries[:, None, :] - means[None, :, :]
    return np.einsum("qcd,qcd->qc", diff, diff)


@pytest.mark.parametrize("queries", [1, 63, 64, 65, 200])
def test_expanded_euclidean_distances_match_the_one_array_oracle(queries):
    rng = np.random.default_rng(40)
    q, means = rng.normal(size=(queries, 7)), rng.normal(size=(5, 7))
    # a common offset far above the spread: the rows are centred before the product
    for offset in (0.0, 1e3, 1e8):
        gaussians = [ClassGaussian(class_id=c, session=0, mean=m + offset, count=1) for c, m in enumerate(means)]
        got = class_distances(q + offset, gaussians, None, "euclidean")
        want = _one_array_distances(q + offset, means + offset)
        centre = (means + offset).mean(axis=0)
        scale = np.sum((q + offset - centre) ** 2, axis=1)[:, None] + np.sum((means + offset - centre) ** 2, axis=1)
        assert np.all(np.abs(got - want) <= 1e-14 * scale), offset
        np.testing.assert_array_equal(np.argmin(got, axis=1), np.argmin(want, axis=1))
        assert np.all(got >= 0)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_exact_ties_break_to_the_lowest_class_id(offset):
    # integer means whose mean is exact and half-integer midpoints: every
    # distance is exact, so each midpoint ties between its two endpoints
    points = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 2]], dtype=float)
    class_ids = [7, 3, 9, 5]
    gaussians = [ClassGaussian(class_id=c, session=c % 2, mean=p + offset, count=1) for c, p in zip(class_ids, points)]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    midpoints = np.array([(points[i] + points[j]) / 2 for i, j in pairs]) + offset
    ids, sessions = select_class_batch(midpoints, gaussians, None, "euclidean")
    want = _one_array_distances(midpoints - offset, points)
    for row in range(len(pairs)):
        tied = [class_ids[c] for c in np.flatnonzero(want[row] == want[row].min())]
        assert ids[row] == min(tied) and sessions[row] == min(tied) % 2


@pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
def test_a_query_on_a_mean_routes_to_it_at_distance_zero(metric):
    rng = np.random.default_rng(45)
    gaussians, shared = _random_instance(rng, 6, 5)
    for g in gaussians:
        g.mean = g.mean + 1e3
    means = np.stack([g.mean for g in gaussians])
    dists = class_distances(means, gaussians, shared, metric)
    assert np.all(dists >= 0)
    np.testing.assert_array_equal(np.argmin(dists, axis=1), np.arange(6))
    np.testing.assert_allclose(np.diag(dists), 0.0, atol=1e-9 * dists.max())


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
def test_mahalanobis_distances_take_one_whitening_inverse(monkeypatch, classes):
    calls = []
    inv = np.linalg.inv

    def counting(*args, **kwargs):
        calls.append(1)
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting)
    rng = np.random.default_rng(42)
    gaussians, shared = _random_instance(rng, classes, 8)
    class_distances(rng.normal(size=(296, 8)), gaussians, shared, "mahalanobis")
    assert len(calls) == 1


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
