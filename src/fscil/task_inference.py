"""Task inference from class-conditional Gaussian statistics.

Each session fits a mean per class plus one pooled within-class scatter
matrix; scatters accumulate across sessions into a single shared covariance
used for Mahalanobis ranking at test time.  The winning class decides which
session's delta parameters handle the sample.  A ranking factors the shared
covariance once and whitens queries and class means, so Mahalanobis and
Euclidean distances share one blocked kernel and no step loops over classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ArgumentError, NumericError

COV_REG_SCALE = 1e-6  # epsilon = scale * trace(A) / D added before inversion
EUCLIDEAN_BLOCK = 64  # query rows per (rows, C, D) difference array


@dataclass
class ClassGaussian:
    class_id: int
    session: int
    mean: np.ndarray
    count: int


@dataclass
class SharedCovariance:
    matrix: np.ndarray
    sessions: list = field(default_factory=list)

    def check(self, tol: float = 1e-10):
        if not np.allclose(self.matrix, self.matrix.T, atol=tol):
            raise NumericError("shared covariance lost symmetry")


def fit_class_stats(embeddings: np.ndarray, labels: np.ndarray, session: int):
    """Per-class means and the pooled within-class scatter for one session.

    The scatter is normalized by the total sample count over all classes
    (the maximum-likelihood pooled estimate).
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
        mean = rows.mean(axis=0)
        gaussians.append(ClassGaussian(class_id=cls, session=session, mean=mean, count=len(rows)))
        centered = rows - mean
        scatter += centered.T @ centered
    return gaussians, scatter / len(embeddings)


def accumulate_covariance(existing: SharedCovariance | None, new_matrix: np.ndarray, session: int) -> SharedCovariance:
    """A <- A + A_k (elementwise sum, symmetry preserved)."""
    new_matrix = np.asarray(new_matrix, dtype=float)
    if existing is None:
        return SharedCovariance(matrix=new_matrix.copy(), sessions=[session])
    if existing.matrix.shape != new_matrix.shape:
        raise ArgumentError(f"covariance shape mismatch: {existing.matrix.shape} vs {new_matrix.shape}")
    existing.matrix = existing.matrix + new_matrix
    existing.sessions.append(session)
    return existing


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
    (q - mu)^T A^-1 (q - mu) = ||L^-1 q - L^-1 mu||^2, so one triangular
    solve whitens every query and one more every mean.  Both metrics then
    run the same kernel, a block of `EUCLIDEAN_BLOCK` queries at a time, so
    the cost does not grow with a per-class loop.  A non-finite query or
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
        queries = solve_triangular(chol, queries.T, lower=True, check_finite=False).T
        means = solve_triangular(chol, means.T, lower=True, check_finite=False).T
    # a block of queries at a time bounds the (Q, C, D) difference array
    dists = np.empty((len(queries), len(means)))
    for start in range(0, len(queries), EUCLIDEAN_BLOCK):
        diff = queries[start : start + EUCLIDEAN_BLOCK, None, :] - means[None, :, :]
        dists[start : start + EUCLIDEAN_BLOCK] = np.einsum("qcd,qcd->qc", diff, diff)
    return dists


def select_class_batch(queries: np.ndarray, gaussians: list, covariance: SharedCovariance | None, metric: str = "mahalanobis"):
    """Nearest class of every query row under the chosen metric.

    Returns arrays of class ids and their owning sessions.  Ties break toward
    the lowest class id (statistics are ranked in class-id order).
    """
    ordered = sorted(gaussians, key=lambda g: g.class_id)
    dists = class_distances(queries, ordered, covariance, metric)
    best = np.argmin(dists, axis=1)
    class_ids = np.array([ordered[b].class_id for b in best])
    sessions = np.array([ordered[b].session for b in best])
    return class_ids, sessions
