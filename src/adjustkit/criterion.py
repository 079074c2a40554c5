"""Subset screening criterion: residual association between outcome and
treatment candidate directions after conditioning on a subset.

For a subset A the value is the sum over treatment arms of the spectral norm
of M'_{Y(t)} restricted off A, sandwiched with the conditional covariance of
X_{-A} given X_A, against M_T restricted off A.  Sufficient adjustment sets
drive the population value to zero; the full table over all 2^p subsets feeds
the ridge-ratio selector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .copula import transform_dataset
from .data_model import WARN_SUBSET_DIM, Dataset, check_dimension, check_mask, subcube
from .errors import AdjustKitError, LargeDimension
from .inverse_regression import (
    MIN_EIGENVALUE,
    check_covariance,
    group_moments,
    outcome_candidate,
    treatment_candidate,
)

__all__ = [
    "CriterionConfig",
    "CriterionFit",
    "CriterionTable",
    "criterion_fit",
    "criterion_table",
    "population_values",
]

# numbers in one level of the pivot tree's walk, over both arm covariances,
# whose block rows are the stacked outcome candidates of every requested
# arm; a batch whose next level would pass it is walked as two halves, so
# 2,048 subsets at the leaves for two SIR outcome candidates against a SIR
# treatment candidate
STATE_CELLS = 96 * 1024

# candidate-matrix estimators: sliced inverse regression, sliced average
# variance estimation
METHODS = ("sir", "save")

# raw covariates, and covariates replaced by pooled normal scores
VARIANTS = ("mn", "gc")


@dataclass(frozen=True)
class CriterionConfig:
    """Estimator choices for one criterion table.

    Attributes
    ----------
    method_y : str
        "sir" or "save" for the outcome candidate matrix.
    method_t : str
        "sir" or "save" for the treatment candidate matrix.
    h : int
        Requested outcome slice count, at least 2.  The methods and h are
        checked here, so that a table is refused before any work.
    universe : (int, int) or None
        Optional pruned universe ``(fixed, free)``, as `prune_hints` returns
        it: the sub-cube of the masks that hold every index of ``fixed``,
        any of ``free`` and none of the rest, checked by `criterion_fit`;
        default all 2^p subsets, ``(0, 2^p - 1)``.
    """

    method_y: str = "sir"
    method_t: str = "sir"
    h: int = 5
    universe: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("method_y", "method_t"):
            if getattr(self, name) not in METHODS:
                raise ValueError(f"{name} must be 'sir' or 'save'")
        if self.h < 2:
            raise ValueError("h must be at least 2")


@dataclass(frozen=True)
class CriterionTable:
    """Criterion values over a subset universe: the universe and its values.

    Attributes
    ----------
    p : int
    universe : (int, int)
        The fit's sub-cube ``(fixed, free)``.
    values : ndarray of float
        f̂ of each rank, aligned with `masks`; nonnegative, +inf marks a singular block.
    metadata : dict
        n, p, slice counts, the config's estimator methods ("sir" or
        "save"), singular-block count.
    """

    p: int
    universe: tuple[int, int]
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def masks(self) -> np.ndarray:
        """`subcube` of the universe, built on each access."""
        return subcube(*self.universe)


def _narrowed(m: np.ndarray) -> np.ndarray:
    """A candidate matrix wider than p replaced by the p x p factor R' from
    the QR of m'; R'R = m m', so every spectral norm of u' K m is unchanged."""
    p, w = m.shape
    return m if w <= p else np.linalg.qr(m.T, mode="r").T


def _pivot(aug: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Decide the last undecided index for every node of the batch.

    ``aug`` has shape (2, h_y + k, h_t + k, B): per arm covariance and node
    the block [[Z, M_Y'], [M_T, S]] over the k undecided indices, M_Y' being
    the stacked outcome candidates and the last row and column index k-1;
    the node axis is last so that every operation runs along long
    contiguous rows.  A node either pivots on the index (bit 0, a rank-1
    update: the index leaves the subset) or keeps it in the subset (bit 1,
    its row and column dropped), so node j becomes nodes 2j and 2j+1.  A
    pivot at or below ``floor`` (per arm) is replaced by NaN, which fills
    the pivoted node and all of its subtree.  Elementwise arithmetic only:
    a node's numbers do not depend on the batch it is computed in.
    """
    two, r, c, b = aug.shape
    d = aug[:, -1, -1]
    d = np.where(d > floor[:, None], d, np.nan)
    row = aug[:, -1, :-1] / d[:, None]
    col = aug[:, :-1, -1]
    kept = aug[:, :-1, :-1]
    out = np.empty((two, r - 1, c - 1, b, 2))
    out[..., 1] = kept
    pivoted = out[..., 0]
    np.multiply(col[:, :, None], row[:, None], out=pivoted)
    np.subtract(kept, pivoted, out=pivoted)
    return out.reshape(two, r - 1, c - 1, 2 * b)


def _spectral_norms(z: np.ndarray) -> np.ndarray:
    """Largest singular value of z[..., :, :, j] for each j, from its smaller
    Gram matrix: closed form up to 2 x 2, eigvalsh above."""
    if z.shape[-2] > z.shape[-3]:
        z = z.swapaxes(-2, -3)
    gram = z[..., 0, :, None, :] * z[..., 0, None, :, :]
    for r in range(1, z.shape[-3]):
        gram += z[..., r, :, None, :] * z[..., r, None, :, :]
    w = gram.shape[-2]
    if w == 1:
        return np.sqrt(gram[..., 0, 0, :])
    if w == 2:
        a, b, c = gram[..., 0, 0, :], gram[..., 0, 1, :], gram[..., 1, 1, :]
        half = (a - c) / 2
        return np.sqrt((a + c) / 2 + np.sqrt(half * half + b * b))
    gram = np.moveaxis(gram, -1, -3)
    nan = np.isnan(gram[..., 0, 0])
    gram[nan] = 0.0  # LAPACK may reject a NaN matrix
    top = np.linalg.eigvalsh(gram)[..., -1]
    top[nan] = np.nan
    return np.sqrt(np.maximum(top, 0.0))


def _lattice_values(
    inv_sigmas: np.ndarray, mys, mt: np.ndarray, fixed: int, free: int
) -> list[np.ndarray]:
    """Criterion values of the sub-cube ``(fixed, free)`` of 0..2^p-1, in
    the ascending order of `subcube(fixed, free)`, for each outcome
    candidate of ``mys``, by one pivot tree.

    The term of an arm for complement C is minus the Y x T block left after
    pivoting the indices of C out of [[Sigma^{-1}, M_T], [M_Y', 0]].  The
    outcome candidates are stacked as rows, [[Sigma^{-1}, M_T], [M_Y(0)';
    M_Y(1)', 0]], and each one's spectral norms are taken on its own row
    slice of the Y x T block; `_pivot` is elementwise, so every candidate's
    values are bit-identical to those of a walk of its own.  Indices are
    decided top bit first.  At a free index node j's children are 2j (pivot)
    and 2j+1 (keep); at an index pinned by the sub-cube every node keeps the
    one child its masks agree on (keep if the index is in every mask, pivot
    if in none) and its number.  A leaf's number is then its mask's free
    bits, read as one number: its rank in the sub-cube.  The tree is walked
    breadth-first in batches of nodes, depth-first between batches: a batch
    of more than one node whose next level would hold more than STATE_CELLS
    numbers is walked as two halves, one after the other.  No level then
    holds more than STATE_CELLS numbers (a single node's next level aside),
    for any p and candidate width; a split level stays alive while its
    halves are walked.
    A pivot d on index i with d <= MIN_EIGENVALUE * Sigma^{-1}[i, i] (a
    scale-free ratio) marks every subset below it singular: NaN in the
    tree, +inf in the result.
    """
    p = inv_sigmas.shape[-1]
    rows = np.cumsum([0] + [my.shape[1] for my in mys])
    h_y, h_t = int(rows[-1]), mt.shape[1]
    aug = np.zeros((2, h_y + p, h_t + p, 1))
    aug[:, :h_y, h_t:, 0] = np.concatenate(mys, axis=1).T
    aug[:, h_y:, :h_t, 0] = mt
    aug[:, h_y:, h_t:, 0] = inv_sigmas
    floor = MIN_EIGENVALUE * np.diagonal(inv_sigmas, axis1=1, axis2=2)
    outs = [np.empty(1 << free.bit_count()) for _ in mys]

    def walk(aug: np.ndarray, ids: range, k: int) -> None:
        # ids: the batch's node numbers
        while k:
            two, r, c, b = aug.shape
            if b > 1 and two * (r - 1) * (c - 1) * 2 * b > STATE_CELLS:
                walk(aug[..., : b // 2], ids[: b // 2], k)
                walk(aug[..., b // 2 :], ids[b // 2 :], k)
                return
            k -= 1
            aug = _pivot(aug, floor[:, k])
            if free >> k & 1:
                ids = range(2 * ids.start, 2 * ids.stop)
            else:
                aug = aug[..., (fixed >> k & 1) :: 2]
        for out, top, bottom in zip(outs, rows[:-1], rows[1:]):
            norms = _spectral_norms(aug[:, top:bottom])
            v = norms[0] + norms[1]
            v[np.isnan(v)] = np.inf
            out[ids.start : ids.stop] = v

    walk(aug, range(1), p)
    return outs


def _inverses(sigma0, sigma1) -> np.ndarray:
    """The two arm covariances, both checked by `check_covariance` first,
    inverted and stacked arm 0 first; callers take this step before they
    build candidates, so a singular arm is reported ahead of their errors."""
    for s, sigma in enumerate((sigma0, sigma1)):
        check_covariance(sigma, f"arm {s} covariance")
    return np.stack([np.linalg.inv(sigma0), np.linalg.inv(sigma1)])


@dataclass(frozen=True)
class CriterionFit:
    """Everything a criterion table needs ahead of its pivot tree, made once
    by `criterion_fit` for several arms; `tables` walks it.

    Attributes
    ----------
    universe : (int, int)
        The checked universe ``(fixed, free)``.
    inv_sigmas : ndarray of shape (2, p, p)
        Both arm covariances, inverted, arm 0 first.
    m_t : ndarray or None
        The narrowed treatment candidate; None when no outcome candidate
        was built.
    arms : tuple
        One entry per requested arm: its narrowed outcome candidate and the
        number of slices formed, or the `AdjustKitError` building it raised.
    metadata : dict
        n, p, the config's estimator methods; each table adds its own
        ``h_y`` and ``singular_blocks``.
    """

    universe: tuple[int, int]
    inv_sigmas: np.ndarray
    m_t: np.ndarray | None
    arms: tuple
    metadata: dict

    def tables(self, positions=None) -> tuple[CriterionTable | AdjustKitError, ...]:
        """The entries of ``arms`` at ``positions`` (default all of them),
        each built candidate replaced by its `CriterionTable`, from one pivot
        tree over those candidates stacked; `_pivot` is elementwise, so a
        table is bit-identical whichever arms share its walk.  Raises no
        error and warns nothing.

        Returns
        -------
        tuple
            One entry per position: its `CriterionTable`, or the
            `AdjustKitError` that arm's outcome candidate raised (for
            example `TooFewObservations`), which holds the fit's universe
            and its values.  A table is deterministic given dataset and config;
            subsets whose conditioning block is singular (a failed pivot,
            see `_lattice_values`) carry +inf and are counted in
            metadata["singular_blocks"].
        """
        out = [self.arms[i] for i in (range(len(self.arms)) if positions is None else positions)]
        built = [i for i, arm in enumerate(out) if not isinstance(arm, AdjustKitError)]
        if not built:
            return tuple(out)
        mys = [out[i][0] for i in built]
        values = _lattice_values(self.inv_sigmas, mys, self.m_t, *self.universe)
        meta = self.metadata
        for i, v in zip(built, values):
            out[i] = CriterionTable(p=meta["p"], universe=self.universe, values=v, metadata={
                "n": meta["n"],
                "p": meta["p"],
                "h_y": out[i][1],
                "h_t": 2,  # the two arms, both nonempty past group_moments
                "method_y": meta["method_y"],
                "method_t": meta["method_t"],
                "singular_blocks": int(np.isinf(v).sum()),
            })
        return tuple(out)


def criterion_fit(
    d: Dataset, arms, variant: str = "mn", config: CriterionConfig | None = None
) -> CriterionFit:
    """Every step of a criterion table ahead of the pivot tree, once for
    several arms: the universe, the copula (``"gc"``), the moments, both
    arm covariances' checks and inverses, each requested arm's outcome
    candidate and the treatment candidate.  Every error or warning that is
    not tied to one arm comes from here; `CriterionFit.tables` then walks
    the universe (all 2^p subsets, or the sub-cube ``config.universe``)
    for the requested arms.

    Parameters
    ----------
    d : Dataset
    arms : iterable of int
        Arms for the outcome candidate matrices, each 0 or 1.  Only these
        arms' candidates are built.
    variant : str
        "mn" (raw covariates) or "gc" (covariates replaced by pooled
        normal scores first).
    config : CriterionConfig, optional

    Raises
    ------
    ValueError
        For an arm outside {0, 1}, an unknown variant, or a
        ``config.universe`` that is not two integer masks in 0..2^p-1
        sharing no bit, before any work.
    DimensionTooLarge
        For p > 24, with or without ``config.universe``, before any work.
    SingularCovariance
        If an arm covariance fails `check_covariance`, or, once an
        outcome candidate is built, the whole-sample covariance.

    Warns
    -----
    LargeDimension
        Once, for the full universe from p = 20 upward; a pruned universe
        does not warn.
    """
    cfg = config or CriterionConfig()
    arms = tuple(arms)
    if any(t not in (0, 1) for t in arms):
        raise ValueError("t must be 0 or 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p = d.p
    # the universe first: the dimension cap must stop a run before any work
    check_dimension(p)
    if cfg.universe is None:
        universe = 0, (1 << p) - 1
        if p >= WARN_SUBSET_DIM:
            warnings.warn(
                f"enumerating 2^{p} subsets; expect heavy memory and runtime",
                LargeDimension,
                stacklevel=2,
            )
    else:
        try:
            fixed, free = (check_mask(m, p) for m in cfg.universe)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"universe must be two masks (fixed, free): {exc}") from None
        if fixed & free:
            raise ValueError("universe: fixed and free share a bit")
        universe = fixed, free
    if variant == "gc":
        d = transform_dataset(d)
    g0, g1, whole = group_moments(d)
    inv_sigmas = _inverses(g0.sigma, g1.sigma)
    out = []
    for t in arms:
        try:
            m_y, h_y = outcome_candidate(d, (g0, g1)[t], cfg.method_y, cfg.h)
            out.append((_narrowed(m_y), h_y))
        except AdjustKitError as exc:
            out.append(exc)
    m_t = None
    if not all(isinstance(arm, AdjustKitError) for arm in out):
        m_t = _narrowed(treatment_candidate(d, whole, cfg.method_t))
    meta = {"n": d.n, "p": p, "method_y": cfg.method_y, "method_t": cfg.method_t}
    return CriterionFit(universe, inv_sigmas, m_t, tuple(out), meta)


def criterion_table(
    d: Dataset, t: int, variant: str = "mn", config: CriterionConfig | None = None
) -> CriterionTable:
    """The table of arm ``t`` alone: `criterion_fit` for ``(t,)`` and its
    `CriterionFit.tables`, with the arm's outcome-candidate error raised
    instead of returned."""
    [table] = criterion_fit(d, (t,), variant, config).tables()
    if isinstance(table, AdjustKitError):
        raise table
    return table


def population_values(spec) -> np.ndarray:
    """Noise-free criterion value of every subset, entry m for mask m, from a
    `PopulationSpec`: the table's checks and pivot tree, with the bases
    ``beta_y`` and ``beta_t`` as candidate matrices.  Zero exactly on the
    sufficient adjustment sets of any compatible linear-Gaussian design."""
    check_dimension(spec.p)
    inv_sigmas = _inverses(spec.sigma0, spec.sigma1)
    [values] = _lattice_values(
        inv_sigmas, [_narrowed(spec.beta_y)], _narrowed(spec.beta_t), 0, (1 << spec.p) - 1
    )
    return values
