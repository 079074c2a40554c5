"""Subset screening criterion: residual association between outcome and
treatment candidate directions after conditioning on a subset.

For a subset A the value is the sum over treatment arms of the spectral norm
of M'_{Y(t)} restricted off A, sandwiched with the conditional covariance of
X_{-A} given X_A, against M_T restricted off A.  Sufficient adjustment sets
drive the population value to zero; the full table over all 2^p subsets feeds
the ridge-ratio selector.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .copula import transform_dataset
from .data_model import Dataset, SubsetId, enumerate_masks, mask_popcounts
from .errors import SingularBlock, SingularCovariance
from .inverse_regression import (
    CandidateMatrix,
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
CHUNK = 32768

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
        Requested outcome slice count.
    threads : int
        Worker threads for the subset sweep; results do not depend on it.
    masks : ndarray or None
        Optional pruned universe: strictly ascending integer masks inside
        0..2^p-1, checked by `criterion_table`; default all 2^p subsets.
    """

    method_y: str = "sir"
    method_t: str = "sir"
    h: int = 5
    threads: int = 1
    masks: np.ndarray | None = None


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
        mask = a.mask if isinstance(a, SubsetId) else int(a)
        idx = np.searchsorted(self.masks, mask)
        if idx >= self.masks.size or self.masks[idx] != mask:
            raise KeyError(f"subset mask {mask} not in table")
        return float(self.values[idx])

    def items(self):
        for mask, val in zip(self.masks, self.values):
            yield SubsetId(int(mask), self.p), float(val)


def _as_mask(a) -> int:
    return a.mask if isinstance(a, SubsetId) else int(a)


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
        If the A-block has an eigenvalue at or below 1e-10.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    p = sigma.shape[0]
    mask = _as_mask(a)
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
    return _pair_value(m_y.m, m_t.m, (sigma0, sigma1), _as_mask(a))


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
        beta_y, beta_t, (sigma0, np.asarray(sigma1, dtype=np.float64)), _as_mask(a)
    )


def _sweep_group(
    values: np.ndarray,
    positions: np.ndarray,
    rows_idx: np.ndarray,
    inv_sigmas,
    my: np.ndarray,
    mt: np.ndarray,
) -> int:
    """Evaluate one complement-size group in place; returns singular count."""
    singular = 0
    k, c = rows_idx.shape
    total = np.zeros(k)
    bad = np.zeros(k, dtype=bool)
    for inv in inv_sigmas:
        blocks = inv[rows_idx[:, :, None], rows_idx[:, None, :]]
        mt_stack = mt[rows_idx]
        my_stack = my[rows_idx]
        try:
            sol = np.linalg.solve(blocks, mt_stack)
            g = my_stack.transpose(0, 2, 1) @ sol
            sv = np.linalg.svd(g, compute_uv=False)[:, 0]
        except np.linalg.LinAlgError:
            sv = np.empty(k)
            for j in range(k):
                try:
                    sol_j = np.linalg.solve(blocks[j], mt_stack[j])
                    sv[j] = np.linalg.svd(
                        my_stack[j].T @ sol_j, compute_uv=False
                    )[0]
                except np.linalg.LinAlgError:
                    sv[j] = np.inf
                    bad[j] = True
        total += sv
    finite = np.isfinite(total) & ~bad
    total[~finite] = np.inf
    singular = int((~finite).sum())
    values[positions] = total
    return singular


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
        conditioning block is singular carry +inf and are counted in
        metadata["singular_blocks"].

    Raises
    ------
    ValueError
        For an unknown variant or a malformed ``config.masks``.
    """
    cfg = config or CriterionConfig()
    try:
        variant = VARIANT_ALIASES[variant.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    p = d.p
    masks = enumerate_masks(p) if cfg.masks is None else _checked_masks(cfg.masks, p)
    if variant == "gaussian-copula":
        d = transform_dataset(d)
    g0, g1 = group_moments(d)
    for s, gm in ((0, g0), (1, g1)):
        if np.linalg.eigvalsh(gm.sigma)[0] <= MIN_EIGENVALUE:
            raise SingularCovariance(f"arm {s} covariance is singular")
    m_y = outcome_candidate(d, t, cfg.method_y, cfg.h)
    m_t = treatment_candidate(d, cfg.method_t)
    inv_sigmas = tuple(np.linalg.inv(gm.sigma) for gm in (g0, g1))

    values = np.empty(masks.size, dtype=np.float64)
    sizes = mask_popcounts(masks)
    full = np.uint32((1 << p) - 1)
    values[masks == full] = 0.0

    # group by complement size so each batch solves same-shape blocks
    jobs = []
    for c in range(1, p + 1):
        group = np.flatnonzero(sizes == p - c)
        if group.size == 0:
            continue
        comp = (~masks[group]) & full
        bits = ((comp[:, None] >> np.arange(p, dtype=np.uint32)) & 1).astype(bool)
        rows_idx = np.argsort(~bits, axis=1, kind="stable")[:, :c]
        for lo in range(0, group.size, CHUNK):
            hi = min(lo + CHUNK, group.size)
            jobs.append((group[lo:hi], rows_idx[lo:hi]))

    singular = 0
    if cfg.threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [
                pool.submit(
                    _sweep_group, values, pos, ridx, inv_sigmas, m_y.m, m_t.m
                )
                for pos, ridx in jobs
            ]
            singular = sum(f.result() for f in futures)
    else:
        for pos, ridx in jobs:
            singular += _sweep_group(values, pos, ridx, inv_sigmas, m_y.m, m_t.m)

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
