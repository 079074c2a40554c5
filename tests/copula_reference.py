"""The copula scored column by column, written apart from the library's scorer.

The library scores both arms of every column from one argsort of all rows
(`adjustkit.copula._scores`) and pools every coordinate from one batch of
truncation masks (`adjustkit.copula._pool`).  Tests pin it, bit for bit, to
this direct reading: each arm's column is sorted on its own, its midranks
come from two `searchsorted` calls per value, every row looks up the largest
arm value at or below it with a third, and each coordinate's pooling calls
`np.cov`.
"""

import numpy as np
from scipy.special import ndtri

from adjustkit.copula import MIN_SURVIVORS, TRUNCATION
from adjustkit.data_model import split_by_treatment


def arm_scores(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One arm's score function at every row of x, shape (n, p).

    Each column of the arm is sorted once.  A value scores Phi^{-1} of the
    midrank, over n_s + 1, of the largest arm value <= it (or of the minimum).
    """
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


def pool(s0: np.ndarray, s1: np.ndarray) -> tuple[float, float, bool]:
    """Truncated least-squares fit s0 ~ a * s1 + b of one coordinate, and
    whether it fell back to (1, 0)."""
    keep = (np.abs(s0) < TRUNCATION) & (np.abs(s1) < TRUNCATION)
    if keep.sum() < MIN_SURVIVORS:
        return 1.0, 0.0, True
    u = s1[keep]
    v = s0[keep]
    var_u = np.var(u)
    if var_u == 0.0:
        return 1.0, 0.0, True
    a = float(np.cov(u, v, ddof=0)[0, 1] / var_u)
    return a, float(v.mean() - a * u.mean()), False


def transform(d) -> tuple[np.ndarray, ...]:
    """Both arms' scores, a, b, the degenerate flags and the transformed x."""
    rows0, rows1 = split_by_treatment(d)
    s0, s1 = arm_scores(d.x, rows0), arm_scores(d.x, rows1)
    a, b, degenerate = (np.array(v) for v in zip(*(pool(s0[:, i], s1[:, i])
                                                    for i in range(d.p))))
    x = np.where(d.t[:, None] == 0, s0, a * s1 + b)
    return s0, s1, a, b, degenerate, x
