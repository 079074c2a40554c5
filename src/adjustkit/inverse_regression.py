"""Slicing and inverse-regression candidate matrices (SIR and SAVE).

Candidate matrices summarize how the covariate distribution moves with a
response: M_T slices on the treatment label over the full sample, M_{Y(t)}
slices on the outcome within one treatment arm.  Their column spans estimate
the corresponding central subspaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .errors import (
    DegenerateData,
    DegenerateResponse,
    EmptyGroup,
    SingularCovariance,
    SliceTooSmall,
    TooFewObservations,
)

__all__ = [
    "SliceAssignment",
    "CandidateMatrix",
    "GroupMoments",
    "slice_response",
    "sir_matrix",
    "save_matrix",
    "outcome_candidate",
    "treatment_candidate",
    "group_moments",
    "check_covariance",
]

DISCRETE_CUTOFF = 10
MIN_EIGENVALUE = 1e-10


@dataclass(frozen=True)
class SliceAssignment:
    """Partition of observations into response slices.

    Attributes
    ----------
    labels : ndarray of int, shape (m,)
        Slice index in 1..h per observation; every slice is nonempty.
    h : int
        Number of slices actually formed.
    kind : str
        "quantile-sliced" or "discrete-passthrough".
    """

    labels: np.ndarray
    h: int
    kind: str


@dataclass(frozen=True)
class CandidateMatrix:
    """Inverse-regression candidate matrix.

    Attributes
    ----------
    m : ndarray
        p x h for SIR, p x (p*h) column blocks for SAVE.
    method : str
        "SIR" or "SAVE".
    target : str
        "outcome-in-group-t" or "treatment-marginal".
    h : int
        Slice count the matrix was built from.
    """

    m: np.ndarray
    method: str
    target: str
    h: int


@dataclass(frozen=True)
class GroupMoments:
    """First and second moments of X within one treatment arm."""

    mu: np.ndarray
    sigma: np.ndarray
    sigma_marginal: np.ndarray
    n_s: int


def slice_response(values, h: int = 5) -> SliceAssignment:
    """Assign observations to response slices.

    Parameters
    ----------
    values : array_like, shape (m,)
        Response values to slice on.
    h : int
        Requested slice count for continuous responses.

    Returns
    -------
    SliceAssignment
        Discrete passthrough (one slice per distinct value) when the
        response takes at most 10 distinct values, otherwise quantile
        slices with empty slices merged rightward.

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
        n_eff = int(uniq.size)
        kind = "discrete-passthrough"
    else:
        if m < h:
            raise TooFewObservations(f"{m} observations for {h} slices")
        edges = np.quantile(vals, np.arange(1, h) / h)
        raw = np.searchsorted(edges, vals, side="left")
        used = np.unique(raw)
        remap = np.zeros(h, dtype=np.int64)
        remap[used] = np.arange(1, used.size + 1)
        labels = remap[raw]
        n_eff = int(used.size)
        kind = "quantile-sliced"
    if n_eff == 1:
        warnings.warn("response is constant; single slice", DegenerateResponse)
    return SliceAssignment(labels=labels, h=n_eff, kind=kind)


def check_covariance(sigma, what: str = "covariance") -> np.ndarray:
    """``sigma`` as a float array; SingularCovariance unless every variance is
    positive and finite and the correlation matrix has its smallest eigenvalue
    above MIN_EIGENVALUE, a test that rescaling a coordinate does not move."""
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
    return sigma


def sir_matrix(x, slices: SliceAssignment, sigma, target: str = "") -> CandidateMatrix:
    """Sliced-inverse-regression candidate matrix.

    Parameters
    ----------
    x : ndarray, shape (m, p)
        Covariates already centered with respect to the relevant mean.
    slices : SliceAssignment
    sigma : ndarray, shape (p, p)
        Covariance to whiten against; see `check_covariance`.

    Returns
    -------
    CandidateMatrix
        Column h is sigma^{-1} times the mean of the centered rows in
        slice h; shape p x h.
    """
    sigma = check_covariance(sigma)
    x = np.asarray(x, dtype=np.float64)
    p = x.shape[1]
    cols = np.empty((p, slices.h))
    for k in range(1, slices.h + 1):
        cols[:, k - 1] = x[slices.labels == k].mean(axis=0)
    return CandidateMatrix(
        m=np.linalg.solve(sigma, cols), method="SIR", target=target, h=slices.h
    )


def save_matrix(x, slices: SliceAssignment, sigma, target: str = "") -> CandidateMatrix:
    """Sliced-average-variance candidate matrix.

    Parameters
    ----------
    x : ndarray, shape (m, p)
        Centered covariates.
    slices : SliceAssignment
    sigma : ndarray, shape (p, p)

    Returns
    -------
    CandidateMatrix
        Block h is sigma^{-1}(sigma - within-slice covariance); the
        blocks are stacked as columns, shape p x (p*h).

    Raises
    ------
    SliceTooSmall
        If any slice holds fewer than 2 rows.
    """
    sigma = check_covariance(sigma)
    x = np.asarray(x, dtype=np.float64)
    p = x.shape[1]
    blocks = np.empty((p, p * slices.h))
    for k in range(1, slices.h + 1):
        rows = x[slices.labels == k]
        if rows.shape[0] < 2:
            raise SliceTooSmall(f"slice {k} has {rows.shape[0]} rows")
        cov = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
        blocks[:, (k - 1) * p : k * p] = sigma - cov
    return CandidateMatrix(
        m=np.linalg.solve(sigma, blocks), method="SAVE", target=target, h=slices.h
    )


def group_moments(d: Dataset) -> tuple[GroupMoments, GroupMoments]:
    """Per-arm means and covariances plus the shared marginal covariance.

    Raises ``EmptyGroup`` for an empty arm and ``TooFewObservations``
    when an arm has a single row (covariance undefined at ddof=1).
    """
    sigma_marg = np.atleast_2d(np.cov(d.x, rowvar=False, ddof=1))
    out = []
    for arm in (0, 1):
        rows = d.x[d.t == arm]
        n_s = rows.shape[0]
        if n_s == 0:
            raise EmptyGroup(f"treatment arm {arm} has no rows")
        if n_s < 2:
            raise TooFewObservations(f"arm {arm} has a single row")
        sigma = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
        if not np.any(sigma):
            warnings.warn(f"arm {arm} rows are identical", DegenerateData)
        out.append(
            GroupMoments(
                mu=rows.mean(axis=0),
                sigma=sigma,
                sigma_marginal=sigma_marg,
                n_s=n_s,
            )
        )
    return out[0], out[1]


def outcome_candidate(
    d: Dataset, t: int, method: str = "sir", h: int = 5
) -> CandidateMatrix:
    """Candidate matrix for the outcome within treatment arm t.

    Parameters
    ----------
    d : Dataset
    t : int
        Arm, 0 or 1.
    method : str
        "sir" or "save".
    h : int
        Requested slice count for the within-arm outcome.

    Returns
    -------
    CandidateMatrix
        Built from rows with T=t, centered by the arm mean, sliced on
        the arm outcomes, whitened by the arm covariance.

    Raises
    ------
    TooFewObservations
        If the arm has fewer than 2h rows.
    """
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    mask = d.t == t
    n_t = int(mask.sum())
    if n_t == 0:
        raise EmptyGroup(f"treatment arm {t} has no rows")
    if n_t < 2 * h:
        raise TooFewObservations(f"arm {t} has {n_t} rows, need {2 * h}")
    x_t = d.x[mask]
    y_t = d.y[mask]
    centered = x_t - x_t.mean(axis=0)
    sigma_t = np.atleast_2d(np.cov(x_t, rowvar=False, ddof=1))
    slices = slice_response(y_t, h)
    fn = _pick_method(method)
    return fn(centered, slices, sigma_t, target="outcome-in-group-t")


def treatment_candidate(d: Dataset, method: str = "sir") -> CandidateMatrix:
    """Candidate matrix for the treatment label over the full sample.

    Slices are the treatment groups themselves; centering and whitening
    use the marginal moments.
    """
    for arm in (0, 1):
        if not np.any(d.t == arm):
            raise EmptyGroup(f"treatment arm {arm} has no rows")
    centered = d.x - d.x.mean(axis=0)
    sigma = np.atleast_2d(np.cov(d.x, rowvar=False, ddof=1))
    slices = SliceAssignment(
        labels=d.t.astype(np.int64) + 1, h=2, kind="discrete-passthrough"
    )
    fn = _pick_method(method)
    return fn(centered, slices, sigma, target="treatment-marginal")


def _pick_method(method: str):
    key = method.strip().lower()
    if key == "sir":
        return sir_matrix
    if key == "save":
        return save_matrix
    raise ValueError(f"unknown method {method!r}; expected 'sir' or 'save'")
