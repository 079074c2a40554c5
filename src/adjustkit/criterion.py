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
from .data_model import Dataset, SubsetId, as_mask, enumerate_masks
from .errors import SingularBlock
from .inverse_regression import (
    CandidateMatrix,
    check_covariance,
    group_moments,
    outcome_candidate,
    treatment_candidate,
)

__all__ = [
    "CriterionConfig",
    "CriterionTable",
    "schur_complement",
    "f_value",
    "population_f",
    "criterion_table",
]

MIN_EIGENVALUE = 1e-10
# numbers in one level of the pivot tree's walk, both arms: 4096 subsets
# for SIR x SIR at the leaves
STATE_CELLS = 96 * 1024

VARIANT_ALIASES = {
    "normality": "normality",
    "mn": "normality",
    "gaussian-copula": "gaussian-copula",
    "gc": "gaussian-copula",
}


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
        Requested outcome slice count, at least 2; checked here, so that a
        table is refused before any work.
    masks : ndarray or None
        Optional pruned universe: strictly ascending integer masks inside
        0..2^p-1, checked by `criterion_table`; default all 2^p subsets.
    """

    method_y: str = "sir"
    method_t: str = "sir"
    h: int = 5
    masks: np.ndarray | None = None

    def __post_init__(self):
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
    t : int
        Treatment arm the outcome matrix was built in.
    variant : str
        "normality" or "gaussian-copula".
    metadata : dict
        n, p, slice counts, estimator methods, singular-block count.
    """

    p: int
    masks: np.ndarray
    values: np.ndarray
    t: int
    variant: str
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.masks.size

    def value(self, a) -> float:
        mask = as_mask(a)
        idx = np.searchsorted(self.masks, mask)
        if idx >= self.masks.size or self.masks[idx] != mask:
            raise KeyError(f"subset mask {mask} not in table")
        return float(self.values[idx])

    def items(self):
        for mask, val in zip(self.masks, self.values):
            yield SubsetId(int(mask), self.p), float(val)


def _checked_masks(masks, p: int) -> np.ndarray:
    """A caller-given universe as uint32; ValueError unless it is 1-D, integer,
    strictly ascending (`CriterionTable.value` bisects it) and inside 0..2^p-1."""
    arr = np.asarray(masks)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("masks must be a 1-D integer array")
    if np.any(arr[1:] <= arr[:-1]):
        raise ValueError("masks must be strictly ascending")
    if arr.size and (arr[0] < 0 or arr[-1] >= 1 << p):
        raise ValueError(f"masks must lie in 0..2^{p}-1")
    return arr.astype(np.uint32)


def schur_complement(sigma: np.ndarray, a) -> np.ndarray:
    """Conditional covariance of X_{-A} given X_A under normality.

    Parameters
    ----------
    sigma : ndarray, shape (p, p)
    a : SubsetId or int mask
        Proper subset; the empty set returns sigma itself.

    Returns
    -------
    ndarray
        Sigma_{-A,-A} - Sigma_{-A,A} Sigma_{A,A}^{-1} Sigma_{A,-A}.

    Raises
    ------
    SingularBlock
        If the A-block has an eigenvalue at or below 1e-10.  This absolute
        floor is the reference's own rule: unlike `criterion_table`'s pivot
        ratio it depends on the units of X, so on data scaled far below
        unit variance (Sigma entries near 1e-10) it rejects blocks that the
        table evaluates.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    p = sigma.shape[0]
    mask = as_mask(a)
    if mask == 0:
        return sigma
    if mask == (1 << p) - 1:
        raise ValueError("A must be a proper subset")
    inside = [i for i in range(p) if mask >> i & 1]
    outside = [i for i in range(p) if not mask >> i & 1]
    saa = sigma[np.ix_(inside, inside)]
    if np.linalg.eigvalsh(saa)[0] <= MIN_EIGENVALUE:
        raise SingularBlock(f"block {inside} not invertible")
    sca = sigma[np.ix_(outside, inside)]
    scc = sigma[np.ix_(outside, outside)]
    return scc - sca @ np.linalg.solve(saa, sca.T)


def _pair_value(my: np.ndarray, mt: np.ndarray, sigmas, mask: int) -> float:
    p = my.shape[0]
    if mask == (1 << p) - 1:
        return 0.0
    outside = [i for i in range(p) if not mask >> i & 1]
    total = 0.0
    for sigma in sigmas:
        cond = schur_complement(sigma, mask)
        g = my[outside].T @ cond @ mt[outside]
        total += float(np.linalg.svd(g, compute_uv=False)[0])
    return total


def f_value(
    m_y: CandidateMatrix, m_t: CandidateMatrix, sigma0, sigma1, a
) -> float:
    """Criterion value for one subset from fitted candidate matrices.

    Parameters
    ----------
    m_y, m_t : CandidateMatrix
    sigma0, sigma1 : ndarray, shape (p, p)
        Within-arm covariances.
    a : SubsetId or int mask

    Returns
    -------
    float
        Sum over arms of the spectral norm of
        M'_{Y,-A} SchurComplement(Sigma_s, A) M_{T,-A}; the full set
        returns 0 by convention.
    """
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    sigma1 = np.asarray(sigma1, dtype=np.float64)
    return _pair_value(m_y.m, m_t.m, (sigma0, sigma1), as_mask(a))


def population_f(sigma0, sigma1, beta_y, beta_t, a) -> float:
    """Noise-free criterion value from population directions.

    Same sandwich as `f_value` with the central-subspace bases in place
    of estimated candidate matrices; zero exactly on the sufficient
    adjustment sets of any compatible linear-Gaussian design.
    """
    beta_y = np.atleast_2d(np.asarray(beta_y, dtype=np.float64))
    beta_t = np.atleast_2d(np.asarray(beta_t, dtype=np.float64))
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    if beta_y.shape[0] != sigma0.shape[0]:
        beta_y = beta_y.T
    if beta_t.shape[0] != sigma0.shape[0]:
        beta_t = beta_t.T
    return _pair_value(
        beta_y, beta_t, (sigma0, np.asarray(sigma1, dtype=np.float64)), as_mask(a)
    )


def _narrowed(m: np.ndarray) -> np.ndarray:
    """A candidate matrix wider than p replaced by the p x p factor R' from
    the QR of m'; R'R = m m', so every spectral norm of u' K m is unchanged."""
    p, w = m.shape
    return m if w <= p else np.linalg.qr(m.T, mode="r").T


def _pivot(aug: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Decide the last undecided index for every node of the batch.

    ``aug`` has shape (2, h_y + k, h_t + k, B): per arm and node the block
    [[Z, M_Y'], [M_T, S]] over the k undecided indices, the last row and
    column being index k-1; the node axis is last so that every operation
    runs along long contiguous rows.  A node either drops the index (bit 0)
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
    """Numbers, both arms, in the largest level of the pivot-tree walk
    below ``b`` nodes with ``k`` undecided indices and ``leaves`` requested
    leaves: the level with j undecided indices holds at most b * 2^(k-j)
    nodes, and at most 2 * leaves before the unreached ones are dropped."""
    return max(
        2 * (h_y + j) * (h_t + j) * min(b << (k - j), 2 * leaves) for j in range(k + 1)
    )


def _lattice_values(
    inv_sigmas: np.ndarray, my: np.ndarray, mt: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Criterion values of ``masks`` (strictly ascending, inside 0..2^p-1),
    by one pivot tree.

    The term of an arm for complement C is minus the Y x T block left after
    pivoting the indices of C out of [[Sigma^{-1}, M_T], [M_Y', 0]].  Indices
    are decided top bit first and node j's children are 2j (skip) and 2j+1
    (pivot), so a node at depth p - k holds the complements j*2^k ..
    (j+1)*2^k - 1 and a leaf's number is its complement.  The tree is walked
    breadth-first in batches of nodes, depth-first between batches: once a
    node's whole subtree fits in STATE_CELLS numbers, batches of as many
    nodes as fit are finished to their leaves; above that depth a batch is
    halved when its next level would exceed STATE_CELLS.  No level then
    holds more than STATE_CELLS numbers (a single node's next level aside),
    for any p and candidate width.  When ``masks`` is not the whole lattice,
    nodes under which no requested complement lies are dropped before they
    are pivoted.
    A pivot d on index i with d <= MIN_EIGENVALUE * Sigma^{-1}[i, i] (a
    scale-free ratio) marks every subset below it singular: NaN in the
    tree, +inf in the result.
    """
    p = inv_sigmas.shape[-1]
    h_y, h_t = my.shape[1], mt.shape[1]
    aug = np.zeros((2, h_y + p, h_t + p, 1))
    aug[:, :h_y, h_t:, 0] = my.T
    aug[:, h_y:, :h_t, 0] = mt
    aug[:, h_y:, h_t:, 0] = inv_sigmas
    floor = MIN_EIGENVALUE * np.diagonal(inv_sigmas, axis1=1, axis2=2)
    comps = None if masks.size == 1 << p else (1 << p) - 1 - masks[::-1].astype(np.int64)
    out = np.empty(masks.size)

    def walk(aug: np.ndarray, ids, k: int) -> None:
        # ids: the batch's node numbers, a range on the full lattice; once
        # the batch's whole walk fits, so do those of its descendants
        fits = False
        while True:
            if comps is None:
                leaves = len(ids) << k
            else:
                lo = np.searchsorted(comps, ids << k)
                hi = np.searchsorted(comps, (ids + 1) << k)
                leaves = int((hi - lo).sum())
                if not leaves:
                    return
                reached = lo < hi
                if not reached.all():
                    aug, ids = aug[..., reached], ids[reached]
            if k == 0:
                break
            two, r, c, b = aug.shape
            if not fits:
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
            aug = _pivot(aug, floor[:, k - 1])
            if comps is None:
                ids = range(2 * ids.start, 2 * ids.stop)
            else:
                ids = (2 * ids[:, None] + (0, 1)).ravel()
            k -= 1
        norms = _spectral_norms(aug)
        v = norms[0] + norms[1]
        v[np.isnan(v)] = np.inf
        n = out.size  # complement c is mask n - 1 - c
        if comps is None:
            out[n - ids.stop : n - ids.start] = v[::-1]
        else:
            out[n - 1 - np.searchsorted(comps, ids)] = v

    walk(aug, range(1) if comps is None else np.zeros(1, dtype=np.int64), p)
    return out


def criterion_table(
    d: Dataset, t: int, variant: str = "normality", config: CriterionConfig | None = None
) -> CriterionTable:
    """Evaluate the criterion on every enumerated subset.

    Parameters
    ----------
    d : Dataset
    t : int
        Arm for the outcome candidate matrix.
    variant : str
        "normality" (raw covariates) or "gaussian-copula" (covariates
        replaced by pooled normal scores first); short aliases "mn" and
        "gc" are accepted.
    config : CriterionConfig, optional

    Returns
    -------
    CriterionTable
        Deterministic given dataset and config; subsets whose
        conditioning block is singular (a failed pivot, see
        `_lattice_values`) carry +inf and are counted in
        metadata["singular_blocks"].

    Raises
    ------
    ValueError
        For an unknown variant or a malformed ``config.masks``.
    DimensionTooLarge
        Without ``config.masks``, for p > 24, before any work.
    SingularCovariance
        If an arm covariance fails `check_covariance`.
    """
    cfg = config or CriterionConfig()
    try:
        variant = VARIANT_ALIASES[variant.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    p = d.p
    # the universe first: the dimension cap must stop a run before the sweep
    masks = enumerate_masks(p) if cfg.masks is None else _checked_masks(cfg.masks, p)
    if variant == "gaussian-copula":
        d = transform_dataset(d)
    g0, g1 = group_moments(d)
    for s, gm in ((0, g0), (1, g1)):
        check_covariance(gm.sigma, f"arm {s} covariance")
    m_y = outcome_candidate(d, t, cfg.method_y, cfg.h)
    m_t = treatment_candidate(d, cfg.method_t)
    inv_sigmas = np.stack([np.linalg.inv(gm.sigma) for gm in (g0, g1)])
    values = _lattice_values(inv_sigmas, _narrowed(m_y.m), _narrowed(m_t.m), masks)
    singular = int(np.isinf(values).sum())

    meta = {
        "n": d.n,
        "p": p,
        "h_y": m_y.h,
        "h_t": m_t.h,
        "method_y": m_y.method,
        "method_t": m_t.method,
        "singular_blocks": singular,
    }
    return CriterionTable(
        p=p, masks=masks, values=values, t=t, variant=variant, metadata=meta
    )
