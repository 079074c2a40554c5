"""Ridge-ratio thresholding of the criterion table.

The sorted criterion values form a scree; the selector finds the index where
consecutive ratios (ridged by cn) drop the most and keeps everything strictly
after it.  A leading constant ratio c0 absorbs the degenerate all-zero table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .set_analysis import AdjustmentCollection

__all__ = [
    "SelectorConfig",
    "SelectionResult",
    "default_cn",
    "ridge_ratios",
    "select",
]


def default_cn(n: int) -> float:
    """Ridge constant 0.2 * n^{-1/2} * log(n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 0.2 * math.log(n) / math.sqrt(n)


@dataclass(frozen=True)
class SelectorConfig:
    """Thresholding constants.

    Attributes
    ----------
    c0 : float
        Leading ratio in (0, 1); the cutoff never moves past index 0
        unless some empirical ratio drops below it.
    cn : float
        Finite positive ridge added to numerator and denominator.
    """

    c0: float = 0.6
    cn: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.c0 < 1.0:
            raise ValueError("c0 must lie in (0, 1)")
        if not (math.isfinite(self.cn) and self.cn > 0.0):
            raise ValueError("cn must be finite and positive")

    @classmethod
    def for_sample(cls, n: int) -> "SelectorConfig":
        """The default c0 with the ridge `default_cn(n)`."""
        return cls(cn=default_cn(n))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one ridge-ratio selection.

    Attributes
    ----------
    order : ndarray of uint32
        Subset masks sorted by descending criterion value.
    sorted_values : ndarray
        Criterion values aligned with `order`.
    tau : int
        Argmin of the ridge ratios (smallest index on ties).
    selected : AdjustmentCollection
        Subsets at positions strictly after tau in 1-based terms, i.e.
        order[tau:]; tau = 0 selects the whole universe.
    config : SelectorConfig
        The c0 and cn the ratios were computed with.
    """

    order: np.ndarray
    sorted_values: np.ndarray
    tau: int
    selected: AdjustmentCollection
    config: SelectorConfig


def ridge_ratios(sorted_values: np.ndarray, config: SelectorConfig) -> np.ndarray:
    """Consecutive ridged ratios of a descending value sequence.

    ratios[0] = c0 and ratios[k] = (v[k] + cn) / (v[k-1] + cn).  Pairs
    touching a non-finite value (singular-block sentinels) get a neutral
    ratio of 1 so the cutoff stays inside the finite part of the scree.
    """
    v = np.asarray(sorted_values, dtype=np.float64)
    r = np.empty(v.size)
    r[0] = config.c0
    if v.size > 1:
        # inf / inf is NaN only in pairs that are overwritten below
        with np.errstate(invalid="ignore"):
            np.divide(v[1:] + config.cn, v[:-1] + config.cn, out=r[1:])
        nonfinite = ~np.isfinite(v)
        if nonfinite.any():
            touched = nonfinite[1:] | nonfinite[:-1]
            r[1:][touched] = 1.0
    return r


def _descending(masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation of ``np.lexsort((masks, popcount, -values))`` and the
    values it sorts, from one unstable ``argsort(-values)`` and one
    ``lexsort`` over the positions inside runs of equal values (NaNs, which
    both sorts put last, make one run), keyed (run, popcount, mask).  The
    two sorts differ only inside such runs, and the second reorders exactly
    those, so the permutation is the same.  About 2x faster at p = 24, and
    3-4x at p = 20, when few values tie."""
    perm = np.argsort(-values)
    sorted_values = values[perm]
    # tied[k]: position k continues the run of position k - 1
    tied = np.zeros(values.size + 1, dtype=bool)
    np.equal(sorted_values[1:], sorted_values[:-1], out=tied[1:-1])
    tied[1:-1] |= np.isnan(sorted_values[:-1])  # a NaN is followed only by NaNs
    pos = np.flatnonzero(tied[1:] | tied[:-1])
    if pos.size:
        run = np.cumsum(~tied[pos])
        sub = perm[pos]
        sub_masks = masks[sub]
        perm[pos] = sub[np.lexsort((sub_masks, np.bitwise_count(sub_masks), run))]
        # +0.0 and -0.0, and NaNs, tie but differ in their bits
        sorted_values[pos] = values[perm[pos]]
    return perm, sorted_values


def select(table, config: SelectorConfig | None = None) -> SelectionResult:
    """Sort a criterion table, cut its scree at the smallest ridge ratio and
    keep the tail.

    The table is sorted by descending value; ties break toward smaller subset
    cardinality, then ascending mask, so exact-zero population tables order
    identically everywhere.  The order is that of
    ``np.lexsort((masks, popcount, -values))``, computed by `_descending`.
    tau is the argmin of `ridge_ratios` (first index on ties) and the
    selected collection is order[tau:]; tau = 0 selects every subset, the
    reading of a constantly-zero criterion.  The default config is
    `SelectorConfig.for_sample` of metadata["n"].  ValueError for an empty
    table, a kept mask outside 0..2^p-1, or no config and no metadata["n"].
    """
    if config is None and "n" not in table.metadata:
        raise ValueError('no config and no metadata["n"] to derive one from')
    cfg = config or SelectorConfig.for_sample(table.metadata["n"])
    if len(table.masks) == 0:
        raise ValueError("empty criterion table")
    perm, sorted_values = _descending(table.masks, table.values)
    order = table.masks[perm]
    tau = int(np.argmin(ridge_ratios(sorted_values, cfg)))
    selected = AdjustmentCollection.from_masks(table.p, order[tau:])
    return SelectionResult(order, sorted_values, tau, selected, cfg)
