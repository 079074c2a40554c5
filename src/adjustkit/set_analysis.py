"""Structure extraction from collections of sufficient adjustment sets.

The collection recovered for one arm is a family of covariate subsets.
Its shape carries causal information: locally minimal members, their
intersection, indices that behave like non-colliders, and small blocks
that can only be explained by colliders.  The rules implemented here
operate on the collection alone, so they apply equally to oracle
collections and to estimated ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data_model import (
    SubsetId,
    check_dimension,
    mask_popcounts,
    mask_to_indices,
    popcount,
)
from .errors import ContradictoryHints


def _as_mask(a) -> int:
    return a.mask if isinstance(a, SubsetId) else int(a)


@dataclass(frozen=True)
class AdjustmentCollection:
    """A family of covariate subsets over a universe of size p."""

    p: int
    masks: frozenset[int]
    source: str = ""

    def __post_init__(self):
        if self.masks and (min(self.masks) < 0 or max(self.masks) >= 1 << self.p):
            raise ValueError("mask outside the universe")

    @classmethod
    def from_masks(cls, p: int, masks: Iterable[int], source: str = "") -> "AdjustmentCollection":
        return cls(p=p, masks=frozenset(int(m) for m in masks), source=source)

    @classmethod
    def from_member_array(cls, member: np.ndarray, source: str = "") -> "AdjustmentCollection":
        p = int(member.shape[0]).bit_length() - 1
        if 1 << p != member.shape[0]:
            raise ValueError("member array length must be a power of two")
        return cls(p=p, masks=frozenset(np.flatnonzero(member).tolist()), source=source)

    @classmethod
    def full_universe(cls, p: int, source: str = "universe") -> "AdjustmentCollection":
        check_dimension(p)
        return cls(p=p, masks=frozenset(range(1 << p)), source=source)

    @cached_property
    def member_array(self) -> np.ndarray:
        """Dense membership indicator indexed by mask."""
        arr = np.zeros(1 << self.p, dtype=bool)
        if self.masks:
            arr[np.fromiter(self.masks, dtype=np.int64, count=len(self.masks))] = True
        arr.setflags(write=False)
        return arr

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, a) -> bool:
        return _as_mask(a) in self.masks

    def subset_ids(self) -> Iterator[SubsetId]:
        """Members ordered by (cardinality, mask)."""
        for m in sorted(self.masks, key=lambda m: (popcount(m), m)):
            yield SubsetId(m, self.p)

    def sorted_masks(self) -> list[int]:
        return sorted(self.masks)


def upward_closure(p: int, bases: Iterable) -> AdjustmentCollection:
    """All subsets containing at least one of the base sets."""
    check_dimension(p)
    masks = np.arange(1 << p, dtype=np.int64)
    member = np.zeros(1 << p, dtype=bool)
    for b in bases:
        bm = _as_mask(b)
        member |= (masks & bm) == bm
    return AdjustmentCollection.from_member_array(member, source="upward_closure")


def _subset_or_transform(member: np.ndarray, p: int) -> np.ndarray:
    """has[m] = any subset of m (including m) is a member."""
    has = member.copy()
    for i in range(p):
        view = has.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return has


def _superset_and_transform(member: np.ndarray, p: int) -> np.ndarray:
    """allsup[m] = every superset of m (including m) is a member."""
    allsup = member.copy()
    for i in range(p):
        view = allsup.reshape(-1, 2, 1 << i)
        view[:, 0, :] &= view[:, 1, :]
    return allsup


def locally_minimal(c: AdjustmentCollection) -> tuple[SubsetId, ...]:
    """Members with no proper subset in the collection, by (size, mask)."""
    if not c.masks:
        return ()
    member = c.member_array
    has_sub = _subset_or_transform(member, c.p)
    out = []
    for m in c.masks:
        if any(has_sub[m ^ (1 << i)] for i in range(c.p) if m >> i & 1):
            continue
        out.append(m)
    return tuple(SubsetId(m, c.p) for m in sorted(out, key=lambda m: (popcount(m), m)))


def _intersection_of(lm: tuple[SubsetId, ...], p: int) -> SubsetId | None:
    if not lm:
        return None
    inter = lm[0].mask
    for s in lm[1:]:
        inter &= s.mask
    return SubsetId(inter, p)


def _unique_of(lm: tuple[SubsetId, ...]) -> SubsetId | None:
    return lm[0] if len(lm) == 1 else None


def minimal_intersection(c: AdjustmentCollection) -> SubsetId | None:
    """Intersection of all locally minimal members; None when empty collection."""
    return _intersection_of(locally_minimal(c), c.p)


def unique_minimal(c: AdjustmentCollection) -> SubsetId | None:
    """The unique smallest member, when one exists.

    Exists exactly when the intersection of the locally minimal members
    is itself in the collection, which for a finite family is the same
    as there being a single locally minimal member.
    """
    return _unique_of(locally_minimal(c))


def upward_closed_members(c: AdjustmentCollection) -> AdjustmentCollection:
    """Members all of whose supersets are also members."""
    member = c.member_array
    allsup = _superset_and_transform(member, c.p)
    return AdjustmentCollection.from_member_array(allsup & member, source="upward_closed")


def noncollider_indices(c: AdjustmentCollection) -> SubsetId:
    """Indices certified to act as a non-collider on some relevant path.

    Index i qualifies when either
      (a) some member A with A \\ {i} not a member exists, or
      (b) some upward-closed member A has A \\ {i} a member but not
          upward-closed.
    """
    member = c.member_array
    nt = _superset_and_transform(member, c.p) & member
    members = np.fromiter(c.masks, dtype=np.int64, count=len(c.masks)) if c.masks else np.empty(0, np.int64)
    out = 0
    for i in range(c.p):
        bit = 1 << i
        sel = members[(members & bit) != 0]
        if sel.size == 0:
            continue
        drop = sel ^ bit
        if np.any(~member[drop]):
            out |= bit
            continue
        if np.any(nt[sel] & member[drop] & ~nt[drop]):
            out |= bit
    return SubsetId(out, c.p)


def _proper_submasks(mask: int) -> Iterator[int]:
    sub = (mask - 1) & mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def collider_blocks(c: AdjustmentCollection, max_block: int = 3) -> tuple[SubsetId, ...]:
    """Index blocks B that can only be explained by colliders.

    B qualifies when some member A has A | B outside the collection
    while A | C stays inside for every proper subset C of B.  Blocks are
    searched up to |B| = max_block and returned by (size, mask).
    """
    if not c.masks:
        return ()
    member = c.member_array
    members = np.fromiter(c.masks, dtype=np.int64, count=len(c.masks))
    found = []
    from itertools import combinations

    for size in range(1, max_block + 1):
        for combo in combinations(range(c.p), size):
            b = 0
            for i in combo:
                b |= 1 << i
            ok = ~member[members | b]
            if not ok.any():
                continue
            for sub in _proper_submasks(b):
                ok &= member[members | sub]
                if not ok.any():
                    break
            if ok.any():
                found.append(b)
    return tuple(SubsetId(m, c.p) for m in sorted(found, key=lambda m: (popcount(m), m)))


def collider_indices(c: AdjustmentCollection, max_block: int = 3) -> SubsetId:
    """Union of all collider blocks."""
    out = 0
    for b in collider_blocks(c, max_block):
        out |= b.mask
    return SubsetId(out, c.p)


def refined_collider_indices(c: AdjustmentCollection, max_block: int = 3) -> SubsetId:
    """Collider-block union minus indices that also certify as non-colliders."""
    return collider_indices(c, max_block).difference(noncollider_indices(c))


@dataclass(frozen=True)
class StructureReport:
    """Summary of the causal structure readable from one collection."""

    p: int
    n_members: int
    locally_minimal: tuple[SubsetId, ...]
    intersection: SubsetId | None
    unique_minimal: SubsetId | None
    n_upward_closed: int
    noncolliders: SubsetId
    collider_blocks: tuple[SubsetId, ...]
    colliders: SubsetId
    refined_colliders: SubsetId
    flags: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        def ids(s):
            return list(s.indices) if s is not None else None

        return {
            "p": self.p,
            "n_members": self.n_members,
            "locally_minimal": [ids(s) for s in self.locally_minimal],
            "intersection": ids(self.intersection),
            "unique_minimal": ids(self.unique_minimal),
            "n_upward_closed": self.n_upward_closed,
            "noncolliders": ids(self.noncolliders),
            "collider_blocks": [ids(b) for b in self.collider_blocks],
            "colliders": ids(self.colliders),
            "refined_colliders": ids(self.refined_colliders),
            "flags": list(self.flags),
        }


def structure_report(c: AdjustmentCollection, max_block: int = 3) -> StructureReport:
    """Build the full report.  Never raises on odd collections; flags them."""
    flags = []
    if not c.masks:
        flags.append("empty collection")
    full = (1 << c.p) - 1
    if c.masks and full not in c.masks:
        # The full covariate set is sufficient whenever anything is.
        flags.append("full set not a member")
    lm = locally_minimal(c)
    nt = upward_closed_members(c)
    blocks = collider_blocks(c, max_block)
    nc = noncollider_indices(c)
    col = SubsetId(0, c.p)
    for b in blocks:
        col = col.union(b)
    refined = col.difference(nc)
    if col.mask & nc.mask:
        flags.append("collider and non-collider evidence overlap")
    return StructureReport(
        p=c.p,
        n_members=len(c.masks),
        locally_minimal=lm,
        intersection=_intersection_of(lm, c.p),
        unique_minimal=_unique_of(lm),
        n_upward_closed=len(nt),
        noncolliders=nc,
        collider_blocks=blocks,
        colliders=col,
        refined_colliders=refined,
        flags=tuple(flags),
    )


def prune_hints(
    p: int,
    known_forks=0,
    pure_colliders=0,
    pure_noncolliders=0,
) -> np.ndarray:
    """Reduced enumeration universe implied by prior structural knowledge.

    Representatives keep every known fork, include every pure non-collider
    (membership of A settles A minus the index), and exclude every pure
    collider (membership of A | {i} follows from A).  Returns the sorted
    mask array to feed the criterion table.
    """
    check_dimension(p)
    forks = _as_mask(known_forks)
    cols = _as_mask(pure_colliders)
    noncols = _as_mask(pure_noncolliders)
    full = (1 << p) - 1
    for m in (forks, cols, noncols):
        if m & ~full:
            raise ValueError("hint index outside 1..p")
    if forks & cols:
        raise ContradictoryHints("an index cannot be both a known fork and a pure collider")
    if cols & noncols:
        raise ContradictoryHints("an index cannot be both a pure collider and a pure non-collider")
    fixed_in = forks | noncols
    free = full & ~(fixed_in | cols)
    free_bits = [i for i in range(p) if free >> i & 1]
    k = len(free_bits)
    out = np.empty(1 << k, dtype=np.int64)
    for j in range(1 << k):
        m = fixed_in
        for b, i in enumerate(free_bits):
            if j >> b & 1:
                m |= 1 << i
        out[j] = m
    out.sort()
    return out


def _nearest_donor_outcome(
    queries: np.ndarray, donors: np.ndarray, donor_y: np.ndarray
) -> np.ndarray:
    """1-NN imputation with replacement; ties resolved to the lowest donor row."""
    if donors.shape[1] == 0:
        return np.full(queries.shape[0], donor_y.mean())
    out = np.empty(queries.shape[0])
    chunk = max(1, 2**22 // max(donors.shape[0], 1))
    for start in range(0, queries.shape[0], chunk):
        q = queries[start : start + chunk]
        d2 = ((q[:, None, :] - donors[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = donor_y[np.argmin(d2, axis=1)]
    return out


def estimate_ate(d, a0=0, a1=0) -> float:
    """Matching estimate of the average treatment effect.

    The missing potential outcome of each unit is imputed by its nearest
    neighbour in the opposite arm, measured by Euclidean distance on the
    standardized covariates named by a0 (for the control outcome) and a1
    (for the treated outcome).  An explicitly empty subset falls back to
    the donor-arm mean.
    """
    from .data_model import split_by_treatment, subset_columns

    g0, g1 = split_by_treatment(d)
    mu = d.x.mean(axis=0)
    sd = d.x.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    z = (d.x - mu) / sd

    m0 = _as_mask(a0)
    m1 = _as_mask(a1)
    y0_hat = np.empty(d.n)
    y1_hat = np.empty(d.n)
    y0_hat[g0.rows] = d.y[g0.rows]
    y1_hat[g1.rows] = d.y[g1.rows]
    # control outcome for treated units: donors are controls, metric X_{A_0}
    y0_hat[g1.rows] = _nearest_donor_outcome(
        subset_columns(z[g1.rows], m0), subset_columns(z[g0.rows], m0), d.y[g0.rows]
    )
    # treated outcome for control units: donors are treated, metric X_{A_1}
    y1_hat[g0.rows] = _nearest_donor_outcome(
        subset_columns(z[g0.rows], m1), subset_columns(z[g1.rows], m1), d.y[g1.rows]
    )
    return float(np.mean(y1_hat - y0_hat))
