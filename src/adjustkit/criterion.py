"""Subset screening criterion: residual association between outcome and
treatment candidate directions after conditioning on a subset.

For a subset A the value is the sum over treatment arms of the spectral norm
of M'_{Y(t)} restricted off A, sandwiched with the conditional covariance of
X_{-A} given X_A, against M_T restricted off A.  Sufficient adjustment sets
drive the population value to zero; the full table over all 2^p subsets feeds
the ridge-ratio selector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copula import transform_dataset
from .data_model import Dataset, check_dimension, enumerate_masks, subcube
from .errors import AdjustKitError
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
    "criterion_tables",
    "population_values",
]

# numbers in one level of the pivot tree's walk, over both arm covariances,
# whose block rows are the stacked outcome candidates of every requested
# arm: about 2,400 subsets at the leaves for two SIR outcome candidates
# against a SIR treatment candidate
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
    masks : ndarray or None
        Optional pruned universe: a sub-cube of 0..2^p-1 (some indices in
        every mask, some in none, the rest free), as the strictly ascending
        integer masks that `prune_hints` returns, checked by
        `criterion_tables` through `_checked_masks`; default all 2^p
        subsets.
    """

    method_y: str = "sir"
    method_t: str = "sir"
    h: int = 5
    masks: np.ndarray | None = None

    def __post_init__(self):
        for name in ("method_y", "method_t"):
            if getattr(self, name) not in METHODS:
                raise ValueError(f"{name} must be 'sir' or 'save'")
        if self.h < 2:
            raise ValueError("h must be at least 2")


@dataclass(frozen=True)
class CriterionTable:
    """Criterion values over an enumerated subset universe.

    Attributes
    ----------
    p : int
    masks : ndarray of uint32
        Ascending subset masks covered by the table.
    values : ndarray of float
        f̂ aligned with masks; nonnegative, +inf marks a singular block.
    metadata : dict
        n, p, slice counts, the config's estimator methods ("sir" or
        "save"), singular-block count.
    """

    p: int
    masks: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)


def _checked_masks(masks, p: int) -> np.ndarray:
    """A caller-given universe as uint32; DimensionTooLarge for p > 24, and
    ValueError unless it is a 1-D integer array inside 0..2^p-1 equal to the
    ascending sub-cube spanned by the AND and the OR of its masks, the one
    shape `_lattice_values` walks (an empty array is not)."""
    check_dimension(p)
    arr = np.asarray(masks)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("masks must be a 1-D integer array")
    if arr.size and (arr.min() < 0 or arr.max() >= 1 << p):
        raise ValueError(f"masks must lie in 0..2^{p}-1")
    arr = arr.astype(np.uint32)
    fixed = int(np.bitwise_and.reduce(arr))
    free = int(np.bitwise_or.reduce(arr)) & ~fixed
    if arr.size != 1 << free.bit_count() or not np.array_equal(arr, subcube(fixed, free)):
        raise ValueError("masks must be the ascending sub-cube between their AND and OR")
    return arr


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
    contiguous rows.  A node either drops the index (bit 0)
    or pivots on it (bit 1, a rank-1 update), so node j becomes nodes 2j and
    2j+1.  A pivot at or below ``floor`` (per arm) is replaced by NaN, which
    fills the pivoted node and all of its subtree.  Elementwise arithmetic
    only: a node's numbers do not depend on the batch it is computed in.
    """
    two, r, c, b = aug.shape
    d = aug[:, -1, -1]
    d = np.where(d > floor[:, None], d, np.nan)
    row = aug[:, -1, :-1] / d[:, None]
    col = aug[:, :-1, -1]
    kept = aug[:, :-1, :-1]
    out = np.empty((two, r - 1, c - 1, b, 2))
    out[..., 0] = kept
    pivoted = out[..., 1]
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


def _walk_cells(h_y: int, h_t: int, k: int, b: int, leaves: int) -> int:
    """Numbers, over both arm covariances, in the largest level of the
    pivot-tree walk below ``b`` nodes with ``k`` undecided indices and
    ``leaves`` requested leaves, where ``h_y`` counts the rows of the stacked
    outcome candidates of every requested arm: the level with j undecided
    indices holds at most b * 2^(k-j) nodes, and at most 2 * leaves before
    a pinned index's other child is dropped."""
    return max(
        2 * (h_y + j) * (h_t + j) * min(b << (k - j), 2 * leaves) for j in range(k + 1)
    )


def _lattice_values(
    inv_sigmas: np.ndarray, mys, mt: np.ndarray, masks: np.ndarray
) -> list[np.ndarray]:
    """Criterion values of ``masks`` (an ascending sub-cube of 0..2^p-1, as
    `_checked_masks` admits) for each outcome candidate of ``mys``, by one
    pivot tree.

    The term of an arm for complement C is minus the Y x T block left after
    pivoting the indices of C out of [[Sigma^{-1}, M_T], [M_Y', 0]].  The
    outcome candidates are stacked as rows, [[Sigma^{-1}, M_T], [M_Y(0)';
    M_Y(1)', 0]], and each one's spectral norms are taken on its own row
    slice of the Y x T block; `_pivot` is elementwise, so every candidate's
    values are bit-identical to those of a walk of its own.  Indices
    are decided top bit first.  At a free index node j's children are 2j
    (skip) and 2j+1 (pivot); at an index pinned by the sub-cube every node
    keeps the one child its masks agree on (skip if the index is in every
    mask, pivot if in none) and its number.  A leaf's number is then its
    complement's free bits, read as one number, so leaf c is mask n-1-c of
    the n requested.  The tree is walked
    breadth-first in batches of nodes, depth-first between batches: once a
    node's whole subtree fits in STATE_CELLS numbers, batches of as many
    nodes as fit are finished to their leaves; above that depth a batch is
    halved when its next level would exceed STATE_CELLS.  No level then
    holds more than STATE_CELLS numbers (a single node's next level aside),
    for any p and candidate width.
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
    fixed = int(np.bitwise_and.reduce(masks))
    free = int(np.bitwise_or.reduce(masks)) & ~fixed
    outs = [np.empty(masks.size) for _ in mys]

    def walk(aug: np.ndarray, ids: range, k: int) -> None:
        # ids: the batch's node numbers; once the batch's whole walk fits,
        # so do those of its descendants
        fits = False
        while k:
            two, r, c, b = aug.shape
            if not fits:
                leaves = b << (free & ((1 << k) - 1)).bit_count()
                need = _walk_cells(h_y, h_t, k, b, leaves)
                fits = need <= STATE_CELLS
                # as many nodes as fit whole; above that depth, halve a
                # batch whose next level would not fit
                fit = b * STATE_CELLS // need
                if not fit and two * (r - 1) * (c - 1) * 2 * b > STATE_CELLS:
                    fit = b // 2
                if 0 < fit < b:
                    for s in range(0, b, fit):
                        walk(aug[..., s : s + fit], ids[s : s + fit], k)
                    return
            k -= 1
            aug = _pivot(aug, floor[:, k])
            if free >> k & 1:
                ids = range(2 * ids.start, 2 * ids.stop)
            else:
                aug = aug[..., (~fixed >> k & 1) :: 2]
        n = masks.size
        for out, top, bottom in zip(outs, rows[:-1], rows[1:]):
            norms = _spectral_norms(aug[:, top:bottom])
            v = norms[0] + norms[1]
            v[np.isnan(v)] = np.inf
            out[n - ids.stop : n - ids.start] = v[::-1]

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
    masks : ndarray of uint32
        The checked universe.
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

    masks: np.ndarray
    inv_sigmas: np.ndarray
    m_t: np.ndarray | None
    arms: tuple
    metadata: dict

    def tables(self, positions=None) -> tuple[CriterionTable | AdjustKitError, ...]:
        """The entries of ``arms`` at ``positions`` (default all of them),
        each built candidate replaced by its `CriterionTable`, from one pivot
        tree over those candidates stacked; `_pivot` is elementwise, so a
        table is bit-identical whichever arms share its walk."""
        out = [self.arms[i] for i in (range(len(self.arms)) if positions is None else positions)]
        built = [i for i, arm in enumerate(out) if not isinstance(arm, AdjustKitError)]
        if not built:
            return tuple(out)
        values = _lattice_values(self.inv_sigmas, [out[i][0] for i in built], self.m_t, self.masks)
        meta = self.metadata
        for i, v in zip(built, values):
            out[i] = CriterionTable(p=meta["p"], masks=self.masks, values=v, metadata={
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
    """Every step of `criterion_tables` ahead of the pivot tree, once for
    several arms: the universe, the copula (``"gc"``), the moments, both
    arm covariances' checks and inverses, each requested arm's outcome
    candidate and the treatment candidate.  Every error or warning that is
    not tied to one arm comes from here; `CriterionFit.tables` raises none.
    Takes and raises as `criterion_tables` does."""
    cfg = config or CriterionConfig()
    arms = tuple(arms)
    if any(t not in (0, 1) for t in arms):
        raise ValueError("t must be 0 or 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p = d.p
    # the universe first: the dimension cap must stop a run before the sweep
    masks = enumerate_masks(p) if cfg.masks is None else _checked_masks(cfg.masks, p)
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
    return CriterionFit(masks, inv_sigmas, m_t, tuple(out), meta)


def criterion_tables(
    d: Dataset, arms, variant: str = "mn", config: CriterionConfig | None = None
) -> tuple[CriterionTable | AdjustKitError, ...]:
    """Evaluate the criterion on every subset of the universe (all 2^p, or
    the sub-cube of ``config.masks``), for each of several arms' outcome
    candidates, with one fit (`criterion_fit`) and one pivot tree
    (`CriterionFit.tables`).

    Parameters
    ----------
    d : Dataset
    arms : iterable of int
        Arms for the outcome candidate matrices, each 0 or 1.
    variant : str
        "mn" (raw covariates) or "gc" (covariates replaced by pooled
        normal scores first).
    config : CriterionConfig, optional

    Returns
    -------
    tuple
        One entry per arm of ``arms``: its `CriterionTable`, or the
        `AdjustKitError` its outcome candidate raised (for example
        `TooFewObservations`).  Only the requested arms' candidates are
        built.  A table is deterministic given dataset and config;
        subsets whose conditioning block is singular (a failed pivot,
        see `_lattice_values`) carry +inf and are counted in
        metadata["singular_blocks"].

    Raises
    ------
    ValueError
        For an arm outside {0, 1}, an unknown variant, or a
        ``config.masks`` that is malformed or not a sub-cube (see
        `CriterionConfig`), before any work.
    DimensionTooLarge
        For p > 24, with or without ``config.masks``, before any work.
    SingularCovariance
        If an arm covariance fails `check_covariance`, or, once an
        outcome candidate is built, the whole-sample covariance.
    """
    return criterion_fit(d, arms, variant, config).tables()


def criterion_table(
    d: Dataset, t: int, variant: str = "mn", config: CriterionConfig | None = None
) -> CriterionTable:
    """The table of arm ``t`` alone: `criterion_tables` for ``(t,)``, with
    the arm's outcome-candidate error raised instead of returned."""
    [table] = criterion_tables(d, (t,), variant, config)
    if isinstance(table, AdjustKitError):
        raise table
    return table


def population_values(spec) -> np.ndarray:
    """Noise-free criterion value of every subset, entry m for mask m, from a
    `PopulationSpec`: the table's checks and pivot tree, with the bases
    ``beta_y`` and ``beta_t`` as candidate matrices.  Zero exactly on the
    sufficient adjustment sets of any compatible linear-Gaussian design."""
    masks = enumerate_masks(spec.p)
    inv_sigmas = _inverses(spec.sigma0, spec.sigma1)
    [values] = _lattice_values(
        inv_sigmas, [_narrowed(spec.beta_y)], _narrowed(spec.beta_t), masks
    )
    return values
