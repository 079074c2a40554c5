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
# in _scores, so a command that fits no copula never loads scipy
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


def _scores(x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both arms' score functions at every row of x, each of shape (n, p).

    A value scores Phi^{-1} of the midrank, over n_s + 1, of the largest
    value of the arm <= it (or of the arm's minimum).  One argsort per column
    orders all n rows; the tie runs of the sorted column and each arm's
    running count give every midrank and every lookup, so values enter only
    through comparisons.  Tied values share one score, which is why the
    unstable default sort is enough.
    """
    from scipy.special import ndtri

    n, p = x.shape
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1)
    treated = t[order] == 1
    order += np.arange(0, p * n, n)[:, None]  # flat positions in xt
    sx = xt.take(order)
    start = np.empty((p, n), dtype=bool)  # a tie run starts here
    start[:, 0] = True
    np.not_equal(sx[:, 1:], sx[:, :-1], out=start[:, 1:])
    del xt, sx
    end = np.empty((p, n), dtype=bool)  # a tie run ends here
    end[:, -1] = True
    end[:, :-1] = start[:, 1:]
    out = []
    for arm in (~treated, treated):
        count = np.cumsum(arm, axis=1)  # arm rows up to here
        n_s = int(count[0, -1])
        # the arm's values at or below each position's value, and below it:
        # the count is nondecreasing, so its value at the end of the run is a
        # running minimum from the right, and its value before the run's
        # start a running maximum from the left
        upto = np.where(end, count, n)[:, ::-1]
        np.minimum.accumulate(upto, axis=1, out=upto)
        upto = upto[:, ::-1]
        below = count
        below -= arm
        below *= start
        np.maximum.accumulate(below, axis=1, out=below)
        own = np.flatnonzero(arm)
        lo = below.take(own)
        scores = ndtri((lo + (upto.take(own) - lo + 1) / 2.0) / (n_s + 1))
        # a row looks up the arm's last value at or below it, or its first
        upto -= 1
        np.maximum(upto, 0, out=upto)
        upto += np.arange(0, p * n_s, n_s)[:, None]
        s = np.empty((p, n))
        s.put(order, scores.take(upto))
        out.append(s.T)
    return out[0], out[1]


def _pool(s0: np.ndarray, s1: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Truncated least-squares fits s0 ~ a * s1 + b, one per column of the
    (n, p) score arrays; a column's reason is set where it falls back to
    (1, 0)."""
    s0, s1 = s0.T, s1.T
    keep = (np.abs(s0) < TRUNCATION) & (np.abs(s1) < TRUNCATION)
    survivors = np.count_nonzero(keep, axis=1)
    p = keep.shape[0]
    a, b, reasons = np.ones(p), np.zeros(p), [None] * p
    for i in range(p):
        if survivors[i] < MIN_SURVIVORS:
            reasons[i] = f"only {int(survivors[i])} observations inside the truncation band"
            continue
        u = s1[i, keep[i]]
        var_u = np.var(u)
        if var_u == 0.0:
            reasons[i] = "pooling regressor has zero variance"
            continue
        # np.cov(u, v, ddof=0)[0, 1], step for step, without its checks
        uv = np.stack((u, s0[i, keep[i]]))
        mean = uv.mean(axis=1)
        uv -= mean[:, None]
        a[i] = np.dot(uv, uv.T)[0, 1] * (1 / u.size) / var_u
        b[i] = mean[1] - a[i] * mean[0]
    return a, b, reasons


def fit_copula(d: Dataset) -> CopulaTransform:
    """Score both arms at every observation and pool every coordinate.

    Issues one DegeneratePooling warning per coordinate that falls back.
    """
    split_by_treatment(d)  # EmptyGroup before any work
    s0, s1 = _scores(d.x, d.t)
    a, b, reasons = _pool(s0, s1)
    for i, reason in enumerate(reasons):
        if reason:
            warnings.warn(f"coordinate {i + 1}: {reason}", DegeneratePooling)
    degenerate = np.array([reason is not None for reason in reasons])
    return CopulaTransform(s0, s1, a, b, degenerate)


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
