"""Task inference from class-conditional Gaussian statistics.

Each session fits a mean per class plus one pooled within-class scatter
matrix; scatters accumulate across sessions into a single shared covariance
used for Mahalanobis ranking at test time.  The winning class decides which
session's delta parameters handle the sample.  A ranking factors the shared
covariance once and whitens queries and class means, so Mahalanobis and
Euclidean distances share one matrix-product kernel and no step loops over
queries or classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError

COV_REG_SCALE = 1e-6  # epsilon = scale * trace(A) / D added before inversion


@dataclass
class ClassGaussian:
    class_id: int
    session: int
    mean: np.ndarray
    count: int


@dataclass
class SharedCovariance:
    """The sum of every session's pooled scatter."""

    matrix: np.ndarray


def fit_class_stats(embeddings: np.ndarray, labels: np.ndarray, session: int):
    """Per-class means and the pooled within-class scatter for one session.

    The scatter is normalized by the total sample count over all classes
    (the maximum-likelihood pooled estimate).  A class whose rows, mean or
    scatter are not finite raises `NumericError` naming the session and class.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    labels = np.asarray(labels)
    if len(embeddings) != len(labels):
        raise ArgumentError("embeddings and labels length mismatch")
    if len(embeddings) == 0:
        raise ArgumentError("cannot fit statistics on an empty session")
    dim = embeddings.shape[1]
    gaussians = []
    scatter = np.zeros((dim, dim))
    for cls in sorted(set(int(c) for c in labels)):
        rows = embeddings[labels == cls]
        if len(rows) == 0:
            raise ArgumentError(f"class {cls} has no samples")
        not_finite = f"session {session}, class {cls}: embedding statistics are not finite"
        if not np.isfinite(rows).all():
            raise NumericError(not_finite)
        with np.errstate(over="ignore", invalid="ignore"):  # finite rows can still overflow, checked below
            mean = rows.mean(axis=0)
            centered = rows - mean
            class_scatter = centered.T @ centered
        if not (np.isfinite(mean).all() and np.isfinite(class_scatter).all()):
            raise NumericError(not_finite)
        gaussians.append(ClassGaussian(class_id=cls, session=session, mean=mean, count=len(rows)))
        scatter += class_scatter
    return gaussians, scatter / len(embeddings)


def _regularized_cholesky(matrix: np.ndarray):
    if not np.isfinite(matrix).all():
        raise NumericError("shared covariance is not finite")
    dim = matrix.shape[0]
    eps = COV_REG_SCALE * float(np.trace(matrix)) / dim
    reg = matrix + eps * np.eye(dim)
    try:
        return np.linalg.cholesky(reg)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"regularized covariance is singular (trace={np.trace(matrix):.3e}, eps={eps:.3e}); "
            "use the euclidean metric when too few samples exist"
        ) from exc


def class_distances(queries: np.ndarray, gaussians: list, covariance: SharedCovariance | None, metric: str) -> np.ndarray:
    """(Q, C) matrix of squared distances to every class mean.

    Mahalanobis distances are Euclidean distances in whitened coordinates:
    with the regularized covariance factored as A = L L^T,
    (q - mu)^T A^-1 (q - mu) = ||L^-1 q - L^-1 mu||^2, so one (D, D) inverse
    of L whitens queries and means by a matrix product.  Both metrics then
    shift queries and means by the mean of the means (a shared shift leaves
    every distance unchanged and keeps the expanded terms small) and expand
    ||q - mu||^2 = ||q||^2 - 2 q.mu + ||mu||^2: one matrix product and two
    row norms, clamped at 0 against cancellation.  A non-finite query or
    mean raises `NumericError` rather than routing silently.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if not gaussians:
        raise ArgumentError("no class statistics available")
    if metric not in ("euclidean", "mahalanobis"):
        raise ArgumentError(f"unknown metric {metric!r}")
    means = np.stack([g.mean for g in gaussians])
    if not np.isfinite(queries).all():
        raise NumericError("a query embedding is not finite and cannot be routed")
    if not np.isfinite(means).all():
        raise NumericError("a class mean is not finite; no query can be routed against it")
    if metric == "mahalanobis":
        if covariance is None:
            raise ArgumentError("mahalanobis metric needs an accumulated covariance")
        chol = _regularized_cholesky(covariance.matrix)
        whiten = np.linalg.inv(chol).T  # rows @ L^-T are the rows of L^-1 x
        queries, means = queries @ whiten, means @ whiten
    centre = means.mean(axis=0)
    queries, means = queries - centre, means - centre
    dists = queries @ (-2.0 * means.T)
    dists += np.einsum("qd,qd->q", queries, queries)[:, None]
    dists += np.einsum("cd,cd->c", means, means)
    return np.maximum(dists, 0.0, out=dists)


def select_class_batch(queries: np.ndarray, gaussians: list, covariance: SharedCovariance | None, metric: str = "mahalanobis"):
    """Nearest class of every query row under the chosen metric.

    Returns arrays of class ids and their owning sessions.  Ties break toward
    the lowest class id (statistics are ranked in class-id order).
    """
    ordered = sorted(gaussians, key=lambda g: g.class_id)
    best = np.argmin(class_distances(queries, ordered, covariance, metric), axis=1)
    return np.array([g.class_id for g in ordered])[best], np.array([g.session for g in ordered])[best]
