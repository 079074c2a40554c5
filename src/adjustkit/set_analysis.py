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
from itertools import combinations

import numpy as np

from .data_model import (
    by_size,
    check_dimension,
    check_mask,
    deposit,
    mask_indices,
    split_by_treatment,
    subset_columns,
)
from .errors import ContradictoryHints

# largest collider block `collider_blocks` searches; a block of size k is
# 2^k moved copies of the words
MAX_BLOCK = 3


@dataclass(frozen=True, eq=False, init=False)
class AdjustmentCollection:
    """A family of covariate subsets over a universe of size p.

    ``words`` is the collection: a read-only membership bitmap packed 64
    subsets per little-endian uint64 word, bit m % 64 of word m // 64 saying
    whether the subset with mask m is a member; when p < 6 it is one word
    whose bits past 2^p are 0.  The constructor packs the bool array of
    length 2^p it is given, and ``member_array`` unpacks the words again.
    """

    p: int
    words: np.ndarray

    def __init__(self, p: int, member_array):
        member = np.asarray(member_array, dtype=bool)
        if member.shape != (1 << p,):
            raise ValueError(f"member array must have length 2^{p}")
        self._hold(p, _pack(member))

    @classmethod
    def _from_words(cls, p: int, words: np.ndarray) -> "AdjustmentCollection":
        """The collection of `words`, taken over with the bits past 2^p cleared."""
        c = cls.__new__(cls)
        c._hold(p, words & np.uint64((1 << (1 << p)) - 1) if p < 6 else words)
        return c

    def _hold(self, p: int, words: np.ndarray) -> None:
        words.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "words", words)

    @classmethod
    def from_masks(cls, p: int, masks) -> "AdjustmentCollection":
        """The collection of a sequence or array of integer masks; ValueError
        for a non-integer mask (bool included) or one outside 0..2^p-1."""
        check_dimension(p)
        arr = np.asarray(masks)
        member = np.zeros(1 << p, dtype=bool)
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("masks must be integers")
            if arr.min() < 0 or arr.max() >= 1 << p:
                raise ValueError("mask outside the universe")
            # indexed as given: numpy casts an index array to intp in buffered
            # chunks, so a uint32 array gets no whole-size int64 copy
            member[arr] = True
        return cls(p, member)

    @property
    def member_array(self) -> np.ndarray:
        """The words unpacked, on each access, into a read-only bool array of
        length 2^p whose entry m says whether mask m is a member."""
        member = _unpack(self.words, self.p)
        member.setflags(write=False)
        return member

    @property
    def masks(self) -> np.ndarray:
        """Member masks as an ascending uint32 array, built on each access."""
        return np.flatnonzero(self.member_array).astype(np.uint32)

    def __len__(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild through the word builder, which
        # makes the words they restore read-only again
        return AdjustmentCollection._from_words, (self.p, self.words)


# The passes below work on a collection's words: bit m % 64 of word m // 64
# is member[m].  For i < 6 the masks with and without bit i share a word,
# 2^i bits apart; _WITHOUT[i] marks the bits whose mask lacks bit i.  For
# i >= 6 they sit in different words.
_WITHOUT = tuple(
    np.uint64(sum(1 << m for m in range(64) if not m >> i & 1)) for i in range(6)
)
_SHIFT = tuple(np.uint64(1 << i) for i in range(6))


def _pack(member: np.ndarray) -> np.ndarray:
    """The bool member array as words; one word, its bits past 2^p 0, when
    p < 6."""
    packed = np.packbits(member, bitorder="little")
    if packed.size < 8:
        packed = np.append(packed, np.zeros(8 - packed.size, dtype=np.uint8))
    return packed.view("<u8")


def _unpack(words: np.ndarray, p: int) -> np.ndarray:
    """The bool array of length 2^p that `words` packs."""
    packed = np.asarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(packed, count=1 << p, bitorder="little").view(bool)


def _up(words: np.ndarray, i: int) -> np.ndarray:
    """Words whose bit m | 2^i is bit m of `words`, for each m without bit i;
    the bits of masks without bit i are 0."""
    if i < 6:
        return (words & _WITHOUT[i]) << _SHIFT[i]
    out = np.zeros_like(words)
    half = 1 << (i - 6)
    out.reshape(-1, 2, half)[:, 1] = words.reshape(-1, 2, half)[:, 0]
    return out


def _down(words: np.ndarray, i: int) -> np.ndarray:
    """Words whose bit m is bit m | 2^i of `words`, for each m without bit i;
    the bits of masks with bit i are 0."""
    if i < 6:
        return (words >> _SHIFT[i]) & _WITHOUT[i]
    out = np.zeros_like(words)
    half = 1 << (i - 6)
    out.reshape(-1, 2, half)[:, 0] = words.reshape(-1, 2, half)[:, 1]
    return out


def _leaves(words: np.ndarray, i: int) -> bool:
    """Whether removing index i from some member holding it gives a
    non-member; on the complement's words, whether adding i to some member
    lacking it does."""
    if i < 6:
        return bool((words & _up(~words, i)).any())
    # the masks without i and with i, as the two halves of each block
    halves = words.reshape(-1, 2, 1 << (i - 6))
    return bool((halves[:, 1] & ~halves[:, 0]).any())


def _spread(words: np.ndarray, p: int, keep: int) -> np.ndarray:
    """The words over p indices of the collection that `words` packs over
    the indices of `keep` (bit r of a mask there standing for the r-th index
    of `keep`): mask m is a member when its part in `keep` is, whatever its
    other bits.  Each index outside `keep` is inserted, lowest first: below
    bit 6 by repeating each run of 2^i entries of the bool form, from bit 6
    on by repeating each run of 2^(i-6) words."""
    low = [i for i in range(min(p, 6)) if not keep >> i & 1]
    if low:
        member = _unpack(words, keep.bit_count())
        for i in low:
            member = np.repeat(member.reshape(-1, 1 << i), 2, axis=0).ravel()
        words = _pack(member)
    for i in range(6, p):
        if not keep >> i & 1:
            words = np.repeat(words.reshape(-1, 1 << (i - 6)), 2, axis=0).ravel()
    return words


def _squeeze(words: np.ndarray, p: int, keep: int) -> np.ndarray:
    """The inverse of `_spread`: the words over the indices of `keep` of
    the masks of `words` that hold no other index.  Each index outside
    `keep` is dropped, highest first, by keeping the half without it."""
    n = p
    for i in reversed(range(6, p)):
        if not keep >> i & 1:
            words = words.reshape(-1, 2, 1 << (i - 6))[:, 0].ravel()
            n -= 1
    low = [i for i in reversed(range(min(p, 6))) if not keep >> i & 1]
    if low:
        member = _unpack(words, n)
        for i in low:
            member = member.reshape(-1, 2, 1 << i)[:, 0].ravel()
        words = _pack(member)
    return words


def upward_closure(p: int, bases) -> AdjustmentCollection:
    """All subsets containing at least one of the base masks."""
    seeds = AdjustmentCollection.from_masks(p, bases).words
    return AdjustmentCollection._from_words(p, _subset_or_transform(seeds, p))


def _subset_or_transform(words: np.ndarray, p: int) -> np.ndarray:
    """has[m] = any subset of m (including m) is a member, on packed words."""
    has = words.copy()
    for i in range(p):
        has |= _up(has, i)
    return has


def _superset_and_transform(words: np.ndarray, p: int) -> np.ndarray:
    """allsup[m] = every superset of m (including m) is a member, on packed
    words."""
    # the complement of "some superset of m is a non-member"; when p < 6 the
    # bits past 2^p start and stay set in `missing`, so they read 0 here
    missing = ~words
    for i in range(p):
        missing |= _down(missing, i)
    return ~missing


def locally_minimal(c: AdjustmentCollection) -> np.ndarray:
    """Masks of the members with no proper subset in the collection, by
    (size, mask)."""
    has_sub = _subset_or_transform(c.words, c.p)
    # strict[m]: some proper subset of m is a member, i.e. has_sub[m ^ bit]
    # for some bit of m
    strict = np.zeros_like(c.words)
    for i in range(c.p):
        strict |= _up(has_sub, i)
    return by_size(np.flatnonzero(_unpack(c.words & ~strict, c.p)))


def noncollider_indices(c: AdjustmentCollection) -> int:
    """Mask of the indices certified to act as a non-collider on some
    relevant path.

    Index i qualifies when either
      (a) some member A with A \\ {i} not a member exists, or
      (b) some upward-closed member A has A \\ {i} a member but not
          upward-closed.
    """
    # Rule (b) implies rule (a): if A \ {i} has a non-member superset D,
    # then i is not in D (else D contains A and is a member), so D | {i}
    # is a member containing i whose removal of i leaves the non-member D.
    return sum(1 << i for i in range(c.p) if _leaves(c.words, i))


def _is_collider_block(words: np.ndarray, block: tuple[int, ...]) -> bool:
    """Whether some A disjoint from the block has A | C in the collection for
    every proper subset C of the block and A | block outside it.

    The corner of C holds, at each A disjoint from C, the bit of A | C: it
    is `words` moved down by each index of C, and its bits at the masks
    meeting C are 0.
    """
    # A | block outside the collection, as the corner of the block in the
    # complement; its bits at the masks meeting the block are 0
    ok = ~words
    for i in block:
        ok = _down(ok, i)
    ok &= words
    corners = {(): words}
    for size in range(1, len(block)):
        for sub in combinations(block, size):
            if not ok.any():
                return False
            corners[sub] = _down(corners[sub[:-1]], sub[-1])
            ok &= corners[sub]
    return bool(ok.any())


def collider_blocks(c: AdjustmentCollection) -> np.ndarray:
    """Masks of the index blocks B that can only be explained by colliders.

    B qualifies when some member A has A | B outside the collection
    while A | C stays inside for every proper subset C of B.  Blocks are
    searched up to |B| = MAX_BLOCK and returned by (size, mask).
    """
    # Only A disjoint from B can qualify: if A meets B, then A | B = A | C for
    # the proper subset C = B \ A.  And if A qualifies B, then A | {i}
    # qualifies B \ {i} for each i in B, so a block is searched only when
    # every block one index smaller qualified.  {i} qualifies when adding i
    # to some member takes it out of the collection: `_leaves` on the
    # complement.
    missing = ~c.words
    qualified = [(i,) for i in range(c.p) if _leaves(missing, i)]
    found = [1 << i for (i,) in qualified]
    for size in range(2, MAX_BLOCK + 1):
        known = set(qualified)
        blocks = [
            b + (j,)
            for b in qualified
            for j in range(b[-1] + 1, c.p)
            if all(sub in known for sub in combinations(b + (j,), size - 1))
        ]
        qualified = [b for b in blocks if _is_collider_block(c.words, b)]
        found += [sum(1 << i for i in b) for b in qualified]
    return by_size(found)


def collider_indices(c: AdjustmentCollection) -> int:
    """Mask of the union of all collider blocks."""
    return int(np.bitwise_or.reduce(collider_blocks(c)))


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Summary of the causal structure readable from one collection.

    Sets are masks: ``locally_minimal`` and ``collider_blocks`` are uint32
    arrays ordered by (size, mask), the other sets ints.  ``unique_minimal``
    is the one locally minimal member, if only one exists (then the
    intersection of the locally minimal members is a member);
    ``n_upward_closed`` counts members all of whose supersets are members;
    ``refined_colliders`` is ``colliders``, the union of the collider
    blocks, minus the non-collider indices.  ``to_dict`` names the sets by
    their 1-based indices.
    """

    p: int
    n_members: int
    locally_minimal: np.ndarray
    intersection: int | None
    unique_minimal: int | None
    n_upward_closed: int
    noncolliders: int
    collider_blocks: np.ndarray
    colliders: int
    refined_colliders: int
    flags: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        def ids(mask):
            return list(mask_indices(mask)) if mask is not None else None

        return {
            "p": self.p,
            "n_members": self.n_members,
            "locally_minimal": [ids(m) for m in self.locally_minimal.tolist()],
            "intersection": ids(self.intersection),
            "unique_minimal": ids(self.unique_minimal),
            "n_upward_closed": self.n_upward_closed,
            "noncolliders": ids(self.noncolliders),
            "collider_blocks": [ids(b) for b in self.collider_blocks.tolist()],
            "colliders": ids(self.colliders),
            "refined_colliders": ids(self.refined_colliders),
            "flags": list(self.flags),
        }


def structure_report(c: AdjustmentCollection) -> StructureReport:
    """Build the full report.  Never raises on odd collections; flags them."""
    flags = []
    n_members = len(c)
    if not n_members:
        flags.append("empty collection")
    elif not int(c.words[-1]) >> ((1 << c.p) - 1) % 64 & 1:
        # The full covariate set (the top bit) is sufficient whenever anything is.
        flags.append("full set not a member")
    # An index is free when flipping it never moves a mask into or out of
    # the collection: it is neither a non-collider nor a one-index collider
    # block.  A free index is in no locally minimal member, non-collider or
    # collider block, and whether A is upward-closed depends only on the
    # other indices, so the rest is read off the collection over those.
    nc = noncollider_indices(c)
    missing = ~c.words
    keep = nc | sum(1 << i for i in range(c.p) if not nc >> i & 1 and _leaves(missing, i))
    core = AdjustmentCollection._from_words(keep.bit_count(), _squeeze(c.words, c.p, keep))
    lm, blocks = deposit(locally_minimal(core), keep), deposit(collider_blocks(core), keep)
    upward_closed = _superset_and_transform(core.words, core.p)
    col = int(np.bitwise_or.reduce(blocks))
    if col & nc:
        flags.append("collider and non-collider evidence overlap")
    return StructureReport(
        p=c.p,
        n_members=n_members,
        locally_minimal=lm,
        intersection=int(np.bitwise_and.reduce(lm)) if lm.size else None,
        unique_minimal=int(lm[0]) if lm.size == 1 else None,
        n_upward_closed=int(np.bitwise_count(upward_closed).sum()) << (c.p - core.p),
        noncolliders=nc,
        collider_blocks=blocks,
        colliders=col,
        refined_colliders=col & ~nc,
        flags=tuple(flags),
    )


def prune_hints(
    p: int,
    known_forks=0,
    pure_colliders=0,
    pure_noncolliders=0,
) -> tuple[int, int]:
    """Reduced enumeration universe implied by prior structural knowledge.

    Representatives keep every known fork, include every pure non-collider
    (membership of A settles A minus the index), and exclude every pure
    collider (membership of A | {i} follows from A).  Returns that
    sub-cube as ``(fixed, free)``: the indices in every mask and those in
    some, for `CriterionConfig.universe` (`data_model.subcube` lists it).
    """
    check_dimension(p)
    forks, cols, noncols = int(known_forks), int(pure_colliders), int(pure_noncolliders)
    full = (1 << p) - 1
    for m in (forks, cols, noncols):
        if m & ~full:
            raise ValueError("hint index outside 1..p")
    if forks & cols:
        raise ContradictoryHints("an index cannot be both a known fork and a pure collider")
    if cols & noncols:
        raise ContradictoryHints("an index cannot be both a pure collider and a pure non-collider")
    fixed_in = forks | noncols
    return fixed_in, full & ~(fixed_in | cols)


def _nearest_donor_outcome(
    queries: np.ndarray, donors: np.ndarray, donor_y: np.ndarray
) -> np.ndarray:
    """1-NN imputation with replacement; ties resolved to the lowest donor row."""
    if donors.shape[1] == 0:
        return np.full(queries.shape[0], donor_y.mean())
    out = np.empty(queries.shape[0])
    # the difference array below holds chunk * donors.size numbers
    chunk = max(1, 2**22 // max(donors.size, 1))
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
    the donor-arm mean.  ValueError for a mask outside 0..2^p-1, before
    any work.
    """
    m0 = check_mask(a0, d.p)
    m1 = check_mask(a1, d.p)
    rows0, rows1 = split_by_treatment(d)
    mu = d.x.mean(axis=0)
    sd = d.x.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    z = (d.x - mu) / sd

    y0_hat = np.empty(d.n)
    y1_hat = np.empty(d.n)
    y0_hat[rows0] = d.y[rows0]
    y1_hat[rows1] = d.y[rows1]
    # control outcome for treated units: donors are controls, metric X_{A_0}
    y0_hat[rows1] = _nearest_donor_outcome(
        subset_columns(z[rows1], m0), subset_columns(z[rows0], m0), d.y[rows0]
    )
    # treated outcome for control units: donors are treated, metric X_{A_1}
    y1_hat[rows0] = _nearest_donor_outcome(
        subset_columns(z[rows0], m1), subset_columns(z[rows1], m1), d.y[rows1]
    )
    return float(np.mean(y1_hat - y0_hat))
