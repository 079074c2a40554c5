"""Core data containers: observational samples and covariate subsets.

Covariate subsets are bitmasks over the columns of the design matrix.
Bit ``i`` of a mask corresponds to covariate ``X_{i+1}``.  Inside the
package a subset is a Python int and a list of subsets a uint32 array;
1-based indices appear only where text is read or written.  A bitset over
the masks of a sub-cube (`subcube`) is set_analysis's uint64 words, 64 masks
each, in structure analysis and in the d-separation oracle alike.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    EmptyGroup,
    LargeDimension,
    SchemaError,
)

# Hard cap on exhaustive enumeration: 2^24 subsets is the most the
# dense table machinery is allowed to materialize.
MAX_SUBSET_DIM = 24
WARN_SUBSET_DIM = 20


def check_dimension(p: int) -> None:
    """Validate a covariate count destined for exhaustive enumeration; only
    `enumerate_masks`, which materializes the 2^p masks, warns."""
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


def enumerate_masks(p: int) -> np.ndarray:
    """Dense array of all 2^p masks, ascending.  Raises ``DimensionTooLarge``
    for p > 24 and warns ``LargeDimension`` from p = 20 upward."""
    check_dimension(p)
    if p >= WARN_SUBSET_DIM:
        warnings.warn(
            f"enumerating 2^{p} subsets; expect heavy memory and runtime",
            LargeDimension,
            stacklevel=2,
        )
    return np.arange(1 << p, dtype=np.uint32)


def subcube(fixed: int, free: int) -> np.ndarray:
    """Ascending uint32 array of every mask that holds the bits of ``fixed``
    and any of those of ``free`` (disjoint from ``fixed``): 2^|free| masks."""
    out = np.array([fixed], dtype=np.uint32)
    for i in range(free.bit_length()):
        if free >> i & 1:
            # the masks so far agree above bit i and lack it: this stays ascending
            out = np.concatenate((out, out | np.uint32(1 << i)))
    return out


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
        x = np.asarray(self.x, dtype=np.float64)
        t = np.asarray(self.t)
        y = np.asarray(self.y, dtype=np.float64)
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
        header = [h.strip() for h in next(csv.reader([first]))]
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
    x = np.ascontiguousarray(data[:, x_cols])
    return Dataset(x=x, t=t.astype(np.int8), y=data[:, y_col].copy())


def save_csv(d: Dataset, path) -> None:
    """Write a dataset in the same schema load_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "Y", *(f"X{j}" for j in range(1, d.p + 1))])
        for i in range(d.n):
            writer.writerow([int(d.t[i]), repr(float(d.y[i])), *map(repr, d.x[i].tolist())])
