"""Core data containers: observational samples and covariate subsets.

Covariate subsets are bitmasks over the columns of the design matrix.
Bit ``i`` of a mask corresponds to covariate ``X_{i+1}``.  Inside the
package a subset is a Python int and a list of subsets a uint32 array;
1-based indices appear only where text is read or written.  A universe is
a sub-cube ``(fixed, free)``, whose mask of rank r is ``fixed | deposit(r,
free)``; set_analysis's uint64 words are a bitset over its masks, 64 per
word, for `AdjustmentCollection` and the d-separation oracle's node state.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, EmptyGroup, SchemaError

# Hard cap on exhaustive enumeration: 2^24 subsets is the most the
# dense table machinery is allowed to materialize.
MAX_SUBSET_DIM = 24
WARN_SUBSET_DIM = 20


def check_dimension(p: int) -> None:
    """Validate a covariate count destined for exhaustive enumeration; it
    raises only (`criterion_fit` warns ``LargeDimension`` for a full universe
    from p = WARN_SUBSET_DIM upward)."""
    if p < 1:
        raise ValueError(f"need at least one covariate, got p={p}")
    if p > MAX_SUBSET_DIM:
        raise DimensionTooLarge(
            f"p={p} would enumerate 2^{p} subsets; the cap is p={MAX_SUBSET_DIM}"
        )


def check_mask(mask, p: int) -> int:
    """A caller's integer mask as an int; TypeError for a non-integer, ValueError
    outside 0..2^p-1."""
    mask = operator.index(mask)
    if not 0 <= mask < 1 << p:
        raise ValueError(f"mask {mask:#x} out of range for p={p}")
    return mask


def indices_mask(p: int, indices) -> int:
    """The mask of 1-based covariate indices; ValueError outside 1..p."""
    mask = 0
    for i in indices:
        if not 1 <= i <= p:
            raise ValueError(f"index {i} outside 1..{p}")
        mask |= 1 << (i - 1)
    return mask


def mask_indices(mask) -> tuple[int, ...]:
    """1-based indices of the member covariates of a mask, ascending."""
    mask = int(mask)
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def deposit(ranks: np.ndarray, keep: int) -> np.ndarray:
    """Bit r of each rank moved to the r-th index of ``keep``, in the ranks'
    dtype: one pass per run of consecutive indices, or ``ranks`` itself when
    ``keep`` is 2^k - 1.  The one rank-to-mask map; it keeps order and sizes."""
    if not keep & (keep + 1):
        return ranks
    out, r = np.zeros_like(ranks), 0
    while keep:  # the lowest run left, indices low..low+width-1, takes bits r..r+width-1
        low = (keep & -keep).bit_length() - 1
        width = (keep >> low ^ (keep >> low) + 1).bit_length() - 1
        out |= (ranks >> r & (1 << width) - 1) << low
        r, keep = r + width, keep & -1 << (low + width)
    return out


def subcube(fixed: int, free: int) -> np.ndarray:
    """The masks of ranks 0..2^|free|-1 in the sub-cube ``(fixed, free)``, an
    ascending uint32 array; ``subcube(0, 2^p - 1)`` is the whole lattice."""
    return np.uint32(fixed) | deposit(np.arange(1 << free.bit_count(), dtype=np.uint32), free)


def by_size(masks) -> np.ndarray:
    """Masks as a uint32 array ordered by (cardinality, mask): ``np.sort``,
    then a stable ``argsort`` of the uint8 popcounts, which numpy does by
    radix; the order of ``np.lexsort((masks, popcount))``, 4-6x faster at
    2^24 masks."""
    masks = np.sort(np.asarray(masks, dtype=np.uint32))
    return masks[np.argsort(np.bitwise_count(masks), kind="stable")]


@dataclass(frozen=True)
class Dataset:
    """Observational sample (X, T, Y) with n rows and p covariates.

    Attributes
    ----------
    x : ndarray of shape (n, p)
        Covariate matrix; must be finite.
    t : ndarray of shape (n,)
        Binary treatment labels (0/1 integers).
    y : ndarray of shape (n,)
        Observed outcome.

    Covariate j is named ``X{j}`` wherever a name is needed.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # copies, so the arrays made read-only below are the dataset's own and
        # the caller's stay writeable; x is C-contiguous whatever it was given
        x = np.array(self.x, dtype=np.float64, order="C")
        t = np.asarray(self.t)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        n, p = x.shape
        if n < 2 or p < 1:
            raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        if t.shape != (n,) or y.shape != (n,):
            raise ValueError("t and y must be vectors of length n")
        if not np.isfinite(x).all():
            raise ValueError("x contains non-finite entries")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite entries")
        tv = np.unique(t)
        if not np.isin(tv, (0, 1)).all():
            raise ValueError(f"t must be 0/1, found values {tv}")
        t = t.astype(np.int8)
        for arr in (x, t, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def with_x(self, x: np.ndarray) -> "Dataset":
        """Copy of the dataset with the covariate matrix replaced."""
        return Dataset(x=x, t=self.t, y=self.y)


def split_by_treatment(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the control and treated arms, in that order.

    Raises ``EmptyGroup`` when either arm has no rows.
    """
    rows = np.flatnonzero(d.t == 0), np.flatnonzero(d.t == 1)
    for arm in (0, 1):
        if rows[arm].size == 0:
            raise EmptyGroup(f"treatment arm {arm} has no rows")
    return rows


def subset_columns(m: np.ndarray, mask: int) -> np.ndarray:
    """Columns of a matrix named by a mask, in ascending index order.

    An empty subset yields an (n, 0) slice.
    """
    cols = [i for i in range(m.shape[-1]) if mask >> i & 1]
    return m[..., cols]


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with columns T, Y, X1..Xp.

    The header row is required.  T must be 0/1 integers, Y real, and the
    covariate columns must be named X1..Xp in ascending order.  Missing
    or non-finite values are rejected, not imputed; blank rows are skipped.
    A leading UTF-8 byte-order mark is ignored.
    """
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError("empty file: header row required")
        # skipinitialspace: a quoted name after ", " is unquoted, as at a line start
        header = [h.strip() for h in next(csv.reader([first], skipinitialspace=True))]
        if "T" not in header or "Y" not in header:
            raise SchemaError("header must contain columns T and Y")
        t_col, y_col = header.index("T"), header.index("Y")
        x_cols = [i for i in range(len(header)) if i not in (t_col, y_col)]
        expected = [f"X{k}" for k in range(1, len(x_cols) + 1)]
        got = [header[i] for i in x_cols]
        if got != expected:
            raise SchemaError(
                f"covariate columns must be named X1..X{len(x_cols)} in order, got {got}"
            )
        if not x_cols:
            raise SchemaError("no covariate columns found")
        body, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip(' \t\r\n",'):
                continue
            if line.count('"') % 2:
                # np.loadtxt would join the next line into the quoted field
                raise SchemaError(f"line {lineno}: unterminated quote")
            if line.count(",") + 1 != len(header):
                raise SchemaError(f"line {lineno}: expected {len(header)} fields")
            body.append(line)
            linenos.append(lineno)
    if len(body) < 2:
        raise SchemaError("need at least two data rows")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError as exc:  # re-read by line only to name the bad line
        for lineno, line in zip(linenos, body):
            try:
                list(map(float, next(csv.reader([line]))))
            except ValueError as bad:
                raise SchemaError(f"line {lineno}: {bad}") from None
        raise SchemaError(str(exc)) from None
    t = data[:, t_col]
    bad_t = ~np.isin(t, (0.0, 1.0))
    if bad_t.any():
        i = bad_t.argmax()
        raise SchemaError(f"line {linenos[i]}: T must be 0 or 1, got {t[i]:g}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise SchemaError(f"line {linenos[finite.argmin()]}: non-finite value")
    return Dataset(x=data[:, x_cols], t=t.astype(np.int8), y=data[:, y_col])


def save_csv(d: Dataset, path) -> None:
    """Write a dataset in the same schema load_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "Y", *(f"X{j}" for j in range(1, d.p + 1))])
        for i in range(d.n):
            writer.writerow([int(d.t[i]), repr(float(d.y[i])), *map(repr, d.x[i].tolist())])
