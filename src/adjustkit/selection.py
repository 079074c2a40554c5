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
    "sort_table",
    "ridge_ratios",
    "select_tail",
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
    t : int
        Treatment arm of the underlying table.
    p : int
    order : ndarray of uint32
        Subset masks sorted by descending criterion value.
    sorted_values : ndarray
        Criterion values aligned with `order`.
    tau : int
        Argmin of the ridge ratios (smallest index on ties).
    selected : AdjustmentCollection
        Subsets at positions strictly after tau in 1-based terms, i.e.
        order[tau:]; tau = 0 selects the whole universe.
    c0, cn : float
    """

    t: int
    p: int
    order: np.ndarray
    sorted_values: np.ndarray
    tau: int
    selected: AdjustmentCollection
    c0: float
    cn: float


def sort_table(table) -> tuple[np.ndarray, np.ndarray]:
    """Sort a criterion table by descending value.

    Ties break toward smaller subset cardinality, then ascending mask,
    so exact-zero population tables order identically everywhere.

    Returns
    -------
    (order, sorted_values)
        Masks and their values, descending.
    """
    if len(table.masks) == 0:
        raise ValueError("empty criterion table")
    masks = table.masks
    values = table.values
    perm = np.lexsort((masks, np.bitwise_count(masks), -values))
    return masks[perm], values[perm]


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
        np.divide(v[1:] + config.cn, v[:-1] + config.cn, out=r[1:])
        nonfinite = ~np.isfinite(v)
        if nonfinite.any():
            touched = nonfinite[1:] | nonfinite[:-1]
            r[1:][touched] = 1.0
    return r


def select_tail(
    ratios: np.ndarray,
    order: np.ndarray,
    p: int,
    sorted_values: np.ndarray,
    t: int,
    config: SelectorConfig,
) -> SelectionResult:
    """Cut the scree at the smallest ratio and keep the tail.

    tau is the argmin of the ratios (first index on ties); the selected
    collection is order[tau:].  tau = 0 selects every subset, the
    reading of a constantly-zero criterion.  The other arguments are
    carried into the result; a kept mask outside 0..2^p-1 is a ValueError.
    """
    order = np.asarray(order, dtype=np.uint32)
    tau = int(np.argmin(ratios))
    selected = AdjustmentCollection.from_masks(p, order[tau:])
    return SelectionResult(
        t=t,
        p=p,
        order=order,
        sorted_values=np.asarray(sorted_values, dtype=np.float64),
        tau=tau,
        selected=selected,
        c0=config.c0,
        cn=config.cn,
    )


def select(table, config: SelectorConfig | None = None) -> SelectionResult:
    """Run the full sort / ratio / cut pipeline on a criterion table."""
    cfg = config or SelectorConfig.for_sample(table.metadata.get("n", 2))
    order, sorted_values = sort_table(table)
    ratios = ridge_ratios(sorted_values, cfg)
    return select_tail(ratios, order, table.p, sorted_values, table.t, cfg)
