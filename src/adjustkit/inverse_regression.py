"""Slicing and inverse-regression candidate matrices (SIR and SAVE).

Candidate matrices summarize how the covariate distribution moves with a
response: M_T slices on the treatment label over the full sample, M_{Y(t)}
slices on the outcome within one treatment arm.  Their column spans estimate
the corresponding central subspaces.  Slices are plain label arrays, and one
loop over them builds either estimator: SIR takes each slice's mean, SAVE
its covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, split_by_treatment
from .errors import (
    DegenerateData,
    DegenerateResponse,
    SingularCovariance,
    SliceTooSmall,
    TooFewObservations,
)

__all__ = [
    "GroupMoments",
    "slice_response",
    "candidate_matrix",
    "outcome_candidate",
    "treatment_candidate",
    "group_moments",
    "check_covariance",
]

DISCRETE_CUTOFF = 10
MIN_EIGENVALUE = 1e-10


@dataclass(frozen=True)
class GroupMoments:
    """Mean and covariance (ddof=1) of the rows ``rows`` of X."""

    rows: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


def slice_response(values, h: int = 5) -> np.ndarray:
    """Assign observations to response slices.

    Parameters
    ----------
    values : array_like, shape (m,)
        Response values to slice on.
    h : int
        Requested slice count for continuous responses.

    Returns
    -------
    ndarray of int, shape (m,)
        Slice label in 1..k per observation, every slice nonempty, so k,
        the number of slices formed, is ``labels.max()``.  Discrete
        passthrough (one slice per distinct value) when the response takes
        at most 10 distinct values, otherwise quantile slices with empty
        slices merged rightward.

    Raises
    ------
    TooFewObservations
        If fewer than h observations are supplied.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    m = vals.size
    if h < 2:
        raise ValueError("h must be at least 2")
    if m == 0:
        raise TooFewObservations("no observations to slice")
    uniq = np.unique(vals)
    if uniq.size <= DISCRETE_CUTOFF:
        # a discrete response ignores h, so a short vector is fine here
        labels = np.searchsorted(uniq, vals) + 1
    else:
        if m < h:
            raise TooFewObservations(f"{m} observations for {h} slices")
        edges = np.quantile(vals, np.arange(1, h) / h)
        raw = np.searchsorted(edges, vals, side="left")
        used = np.unique(raw)
        remap = np.zeros(h, dtype=np.int64)
        remap[used] = np.arange(1, used.size + 1)
        labels = remap[raw]
    if labels.max() == 1:
        warnings.warn("response is constant; single slice", DegenerateResponse)
    return labels


def check_covariance(sigma, what: str) -> None:
    """SingularCovariance naming ``what`` unless every variance is positive and
    finite and the correlation matrix has its smallest eigenvalue above
    MIN_EIGENVALUE, a test that rescaling a coordinate does not move."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    var = np.diagonal(sigma)
    if not np.all(np.isfinite(sigma)) or not np.all(var > 0):
        raise SingularCovariance(f"{what} has a zero or non-finite variance")
    scale = 1.0 / np.sqrt(var)
    corr = sigma * scale[:, None] * scale[None, :]
    if np.linalg.eigvalsh(corr)[0] <= MIN_EIGENVALUE:
        raise SingularCovariance(
            f"{what}: correlation min eigenvalue below {MIN_EIGENVALUE}"
        )


def candidate_matrix(x, labels, sigma, method: str = "sir") -> np.ndarray:
    """Inverse-regression candidate matrix, one moment per slice.

    Parameters
    ----------
    x : ndarray, shape (m, p)
        Covariates already centered with respect to the relevant mean.
    labels : ndarray of int, shape (m,)
        Slice label in 1..k per row, every slice nonempty, as
        `slice_response` returns.
    sigma : ndarray, shape (p, p)
        Covariance to whiten against, already passed by `check_covariance`.
    method : str
        "sir": slice j gives the mean of its rows as column j, shape p x k.
        "save": slice j gives sigma minus the covariance (ddof=1) of its
        rows as block j, the blocks stacked as columns, shape p x (p*k).

    Returns
    -------
    ndarray
        sigma^{-1} times the stacked slice moments.

    Raises
    ------
    ValueError
        For a method other than "sir" or "save".
    SliceTooSmall
        For SAVE, if any slice holds fewer than 2 rows.
    """
    if method not in ("sir", "save"):
        raise ValueError(f"unknown method {method!r}; expected 'sir' or 'save'")
    x = np.asarray(x, dtype=np.float64)
    blocks = []
    for k in range(1, int(labels.max()) + 1):
        rows = x[labels == k]
        if method == "sir":
            blocks.append(rows.mean(axis=0)[:, None])
        elif rows.shape[0] < 2:
            raise SliceTooSmall(f"slice {k} has {rows.shape[0]} rows")
        else:
            blocks.append(sigma - np.atleast_2d(np.cov(rows, rowvar=False, ddof=1)))
    return np.linalg.solve(sigma, np.hstack(blocks))


def _moments(x: np.ndarray, rows: np.ndarray) -> GroupMoments:
    sub = x[rows]
    sigma = np.atleast_2d(np.cov(sub, rowvar=False, ddof=1))
    return GroupMoments(rows, sub.mean(axis=0), sigma)


def group_moments(d: Dataset) -> tuple[GroupMoments, GroupMoments, GroupMoments]:
    """Moments of X in arm 0, in arm 1 and over the whole sample, in that order.

    Raises ``EmptyGroup`` for an empty arm and ``TooFewObservations``
    when an arm has a single row (covariance undefined at ddof=1).
    """
    arms = []
    for arm, rows in enumerate(split_by_treatment(d)):
        if rows.size < 2:
            raise TooFewObservations(f"arm {arm} has a single row")
        g = _moments(d.x, rows)
        if not np.any(g.sigma):
            warnings.warn(f"arm {arm} rows are identical", DegenerateData)
        arms.append(g)
    return arms[0], arms[1], _moments(d.x, np.arange(d.n))


def outcome_candidate(
    d: Dataset, arm: GroupMoments, method: str = "sir", h: int = 5
) -> tuple[np.ndarray, int]:
    """Candidate matrix for the outcome within one treatment arm.

    Parameters
    ----------
    d : Dataset
    arm : GroupMoments
        The arm's entry of `group_moments`.
    method : str
        "sir" or "save".
    h : int
        Requested slice count for the within-arm outcome.

    Returns
    -------
    (ndarray, int)
        The `candidate_matrix` of the arm's rows, centered by the arm mean,
        sliced on the arm outcomes, whitened by the arm covariance, which
        the caller checks first (`criterion_fit` does, for both arms);
        and the number of slices formed.

    Raises
    ------
    TooFewObservations
        If the arm has fewer than 2h rows.
    """
    n_t = arm.rows.size
    if n_t < 2 * h:
        t = int(d.t[arm.rows[0]])
        raise TooFewObservations(f"arm {t} has {n_t} rows, need {2 * h}")
    centered = d.x[arm.rows] - arm.mu
    labels = slice_response(d.y[arm.rows], h)
    return candidate_matrix(centered, labels, arm.sigma, method), int(labels.max())


def treatment_candidate(
    d: Dataset, whole: GroupMoments, method: str = "sir"
) -> np.ndarray:
    """Candidate matrix for the treatment label over the full sample.

    Its two slices are the treatment arms, both nonempty once
    `group_moments` has returned; centering and whitening
    use ``whole``, the whole-sample entry of `group_moments`, whose
    covariance is checked by `check_covariance` before any work.
    """
    check_covariance(whole.sigma, "whole-sample covariance")
    centered = d.x - whole.mu
    return candidate_matrix(centered, d.t.astype(np.int64) + 1, whole.sigma, method)

