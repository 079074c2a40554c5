"""Gaussian-copula front end: per-coordinate normal scores with cross-arm pooling.

Each covariate is replaced by its within-arm normal score, with the treated
arm's scores mapped onto the control scale by a truncated least-squares fit.
The output depends on the data only through within-arm ranks, so any strictly
increasing per-coordinate transform of the input leaves it bit-identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, split_by_treatment
from .errors import DegeneratePooling

__all__ = [
    "CopulaTransform",
    "transform_dataset",
    "TRUNCATION",
]

# ndtri(0.975), written out as the same double: scipy.special is imported only
# in _arm_scores, so a command that fits no copula never loads scipy
TRUNCATION = 1.959963984540054
MIN_SURVIVORS = 10


@dataclass(frozen=True)
class CopulaTransform:
    """Both arms' score functions at every observation, and the pooling.

    Attributes
    ----------
    scores0, scores1 : ndarray of shape (n, p)
        Each arm's normal-score step function evaluated at every
        observation; nondecreasing in the value within a column.
    a, b : ndarray of shape (p,)
        Pooling coefficients mapping arm-1 scores onto the arm-0 scale.
    degenerate : ndarray of bool, shape (p,)
        True where pooling fell back to (1, 0).
    """

    scores0: np.ndarray
    scores1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    degenerate: np.ndarray


def _arm_scores(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One arm's score function at every row of x, shape (n, p).

    Each column of the arm is sorted once.  A value scores Phi^{-1} of the
    midrank, over n_s + 1, of the largest arm value <= it (or of the minimum).
    """
    from scipy.special import ndtri

    arm = np.sort(x[rows], axis=0)
    n_s = arm.shape[0]
    out = np.empty(x.shape)
    for i in range(x.shape[1]):
        col = arm[:, i]
        below = np.searchsorted(col, col, "left")
        counts = np.searchsorted(col, col, "right") - below
        scores = ndtri((below + (counts + 1) / 2.0) / (n_s + 1))
        idx = np.searchsorted(col, x[:, i], "right") - 1
        out[:, i] = scores[np.maximum(idx, 0)]
    return out


def _pool(s0: np.ndarray, s1: np.ndarray) -> tuple[float, float, str | None]:
    """Truncated least-squares fit s0 ~ a * s1 + b; reason is set on fall-back."""
    keep = (np.abs(s0) < TRUNCATION) & (np.abs(s1) < TRUNCATION)
    if keep.sum() < MIN_SURVIVORS:
        return 1.0, 0.0, f"only {int(keep.sum())} observations inside the truncation band"
    u = s1[keep]
    v = s0[keep]
    var_u = np.var(u)
    if var_u == 0.0:
        return 1.0, 0.0, "pooling regressor has zero variance"
    a = float(np.cov(u, v, ddof=0)[0, 1] / var_u)
    return a, float(v.mean() - a * u.mean()), None


def fit_copula(d: Dataset) -> CopulaTransform:
    """Score both arms at every observation and pool every coordinate.

    Issues one DegeneratePooling warning per coordinate that falls back.
    """
    rows0, rows1 = split_by_treatment(d)
    s0, s1 = _arm_scores(d.x, rows0), _arm_scores(d.x, rows1)
    a, b, reasons = zip(*(_pool(s0[:, i], s1[:, i]) for i in range(d.p)))
    for i, reason in enumerate(reasons):
        if reason:
            warnings.warn(f"coordinate {i + 1}: {reason}", DegeneratePooling)
    degenerate = np.array([reason is not None for reason in reasons])
    return CopulaTransform(s0, s1, np.array(a), np.array(b), degenerate)


def transform_dataset(d: Dataset) -> Dataset:
    """Replace every covariate by its pooled within-arm normal score.

    Parameters
    ----------
    d : Dataset

    Returns
    -------
    Dataset
        Same shape, T and Y untouched; coordinate i becomes
        (1-T) * score0(X_i) + T * (a_i * score1(X_i) + b_i).

    Notes
    -----
    The output is invariant, bit for bit, under any strictly increasing
    per-coordinate transform of the input covariates: every step uses
    the data only through within-arm ranks.
    """
    tf = fit_copula(d)
    return d.with_x(np.where(d.t[:, None] == 0, tf.scores0, tf.a * tf.scores1 + tf.b))
