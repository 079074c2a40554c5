"""Computations the benchmark checks adjustkit against, written apart from it.

Nothing here imports adjustkit.  The input generators, the closed-form
collections, the per-subset criterion, the ridge-ratio cut and the
d-separation test are independent of the code under test, so a fault in
the package cannot hide by also being present in its own check.

Masks follow the package's convention: bit i set means covariate X_{i+1}
is in the set.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NOISE_SD = math.sqrt(0.2)


# ---------------------------------------------------------------- inputs


def model1_sample(rng: np.random.Generator, n: int, p: int):
    """One draw of simulation model 1 with p covariates.

    T is a fair coin; X ~ N(0, 0.8) with X1 and X2 shifted by 0.6 when
    T = 1; X4 = 1.5 X3 + X1 + noise; Y = 4 (X2 + X3) in the control arm
    and 5 (X2 + X3) in the treated arm, plus noise.  X5..Xp are noise.
    """
    t = (rng.random(n) < 0.5).astype(np.int64)
    x = rng.normal(0.0, math.sqrt(0.8), (n, p))
    x[t == 1, :2] += 0.6
    x[:, 3] = 1.5 * x[:, 2] + x[:, 0] + rng.normal(0.0, NOISE_SD, n)
    signal = x[:, 1] + x[:, 2]
    y = np.where(t == 1, 5.0, 4.0) * signal + 2.2 * rng.normal(0.0, NOISE_SD, n)
    return x, t, y


def write_csv(path, x: np.ndarray, t: np.ndarray, y: np.ndarray) -> None:
    """Write the T, Y, X1..Xp schema; repr() makes the floats round-trip."""
    p = x.shape[1]
    lines = ["T,Y," + ",".join(f"X{k}" for k in range(1, p + 1))]
    for ti, yi, row in zip(t.tolist(), y.tolist(), x.tolist()):
        lines.append(f"{ti},{yi!r}," + ",".join(map(repr, row)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# graph of simulation models 1 and 2; X5..Xp are isolated
MODEL1_EDGES = [("T", "X1"), ("T", "X2"), ("X1", "X4"), ("X3", "X4"), ("X2", "Y"), ("X3", "Y")]


def model3_edges(p: int) -> list[tuple[str, str]]:
    """Graph of simulation model 3 (X4 a common parent, Xp an outcome parent)."""
    return [("X4", "X1"), ("X4", "X2"), ("X4", "X3"), ("X4", "X5"),
            ("X2", "T"), ("X5", "T"), ("X1", "Y"), ("X3", "Y"), ("X6", "Y"),
            (f"X{p}", "Y")]


def random_dag_edges(rng: np.random.Generator, p: int, x_edge_prob: float = 0.3,
                     t_child_prob: float = 0.4, y_parent_prob: float = 0.4):
    """Random rooted design: X edges forward along a random order, T a root
    with X children, Y a sink with X parents (both nonempty)."""
    order = rng.permutation(p) + 1
    edges = [(f"X{order[a]}", f"X{order[b]}")
             for a, b in itertools.combinations(range(p), 2)
             if rng.random() < x_edge_prob]
    t_children = [k for k in range(1, p + 1) if rng.random() < t_child_prob]
    y_parents = [k for k in range(1, p + 1) if rng.random() < y_parent_prob]
    t_children = t_children or [int(rng.integers(1, p + 1))]
    y_parents = y_parents or [int(rng.integers(1, p + 1))]
    edges += [("T", f"X{k}") for k in t_children]
    edges += [(f"X{k}", "Y") for k in y_parents]
    return edges


def relabel(edges, perm) -> list[tuple[str, str]]:
    """Rename X_k to X_{perm[k-1]+1}; Y and T keep their names."""
    def name(v):
        return v if v in ("Y", "T") else f"X{perm[int(v[1:]) - 1] + 1}"
    return [(name(a), name(b)) for a, b in edges]


def permute_masks(masks: np.ndarray, perm) -> np.ndarray:
    """Masks with bit i moved to bit perm[i]."""
    out = np.zeros_like(masks)
    for i, j in enumerate(perm):
        out |= ((masks >> i) & 1) << j
    return out


def edge_text(p: int, edges) -> str:
    """Edge-list file body; every X node is declared so p is explicit."""
    lines = [f"{a} -> {b}" for a, b in edges]
    lines += [f"X{k}" for k in range(1, p + 1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- graphs


class Graph:
    """Parents and children as bitmasks over nodes Y=0, T=1, X_k=k+1."""

    def __init__(self, p: int, edges):
        self.p = p
        n = p + 2
        self.parents = [0] * n
        self.children = [0] * n
        for a, b in edges:
            i, j = _node(a), _node(b)
            self.parents[j] |= 1 << i
            self.children[i] |= 1 << j
        # ancestors of each node, itself included, for the collider rule
        self.ancestors = [0] * n
        for v in range(n):
            seen, stack = 1 << v, [v]
            while stack:
                for u in _bits(self.parents[stack.pop()]):
                    if not seen >> u & 1:
                        seen |= 1 << u
                        stack.append(u)
            self.ancestors[v] = seen


def _node(name: str) -> int:
    if name == "Y":
        return 0
    if name == "T":
        return 1
    return int(name[1:]) + 1


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def yt_separated(g: Graph, mask: int) -> bool:
    """True iff X_mask d-separates Y from T (reachability on active trails).

    A trail arriving at a node from a child may continue to its parents
    and children unless the node is conditioned on; a trail arriving from
    a parent may continue to children unless the node is conditioned on,
    and to parents when the node has a conditioned descendant (or is
    conditioned on itself).
    """
    z = mask << 2
    anc_z = 0
    for v in _bits(z):
        anc_z |= g.ancestors[v]
    up_seen = down_seen = 0  # nodes entered from a child / from a parent
    stack = [(0, True)]
    while stack:
        v, from_child = stack.pop()
        bit = 1 << v
        if from_child:
            if up_seen & bit:
                continue
            up_seen |= bit
        else:
            if down_seen & bit:
                continue
            down_seen |= bit
        if v == 1:
            return False
        blocked = z & bit
        if from_child and not blocked:
            stack.extend((u, True) for u in _bits(g.parents[v]))
            stack.extend((u, False) for u in _bits(g.children[v]))
        elif not from_child:
            if not blocked:
                stack.extend((u, False) for u in _bits(g.children[v]))
            if anc_z & bit:
                stack.extend((u, True) for u in _bits(g.parents[v]))
    return True


def count_yt_paths(g: Graph, cap: int) -> int | None:
    """Number of simple Y..T paths in the skeleton, or None above cap."""
    und = [g.parents[v] | g.children[v] for v in range(g.p + 2)]
    count = 0
    stack = [(0, 1)]
    while stack:
        v, visited = stack.pop()
        for w in _bits(und[v] & ~visited):
            if w == 1:
                count += 1
                if count > cap:
                    return None
            else:
                stack.append((w, visited | 1 << w))
    return count


# ---------------------------------------------------------------- collections


def _has(masks: np.ndarray, index: int) -> np.ndarray:
    return (masks >> (index - 1)) & 1 == 1


def model1_truth(masks: np.ndarray) -> np.ndarray:
    """Models 1-2: X2 is needed, and X4 opens T->X1->X4<-X3->Y unless X1 or X3 is in."""
    return _has(masks, 2) & ~(_has(masks, 4) & ~_has(masks, 1) & ~_has(masks, 3))


def model3_truth(masks: np.ndarray) -> np.ndarray:
    """Model 3: every Y-(X1|X3)-X4-(X2|X5)-T chain must be cut."""
    return (_has(masks, 4) | (_has(masks, 1) & _has(masks, 3))
            | (_has(masks, 2) & _has(masks, 5)))


def pair_truth(masks: np.ndarray) -> np.ndarray:
    """Models 4-5: treatment moves only the (X1, X2) block."""
    return _has(masks, 1) & _has(masks, 2)


TRUTH = {1: model1_truth, 2: model1_truth, 3: model3_truth, 4: pair_truth, 5: pair_truth}
TRUE_MINIMAL = {1: [0b10], 2: [0b10], 3: [0b1000, 0b101, 0b10010], 4: [0b11], 5: [0b11]}


def locally_minimal(member: np.ndarray, p: int) -> np.ndarray:
    """Masks of members none of whose proper subsets is a member, ascending."""
    masks = np.arange(1 << p)
    below = member.copy()  # below[m]: some subset of m, m included, is a member
    for i in range(p):
        halves = below.reshape(-1, 2, 1 << i)
        halves[:, 1, :] |= halves[:, 0, :]
    keep = member.copy()
    for i in range(p):
        inside = masks & (1 << i) != 0
        keep[inside] &= ~below[masks[inside] ^ (1 << i)]
    return np.flatnonzero(keep)


# ---------------------------------------------------------------- criterion


def quantile_slices(y: np.ndarray, h: int) -> np.ndarray:
    """Slice label 0..h'-1: how many of the h-1 quantile edges lie below y,
    with empty slices dropped."""
    edges = np.quantile(y, np.arange(1, h) / h)
    raw = (y[:, None] > edges[None, :]).sum(axis=1)
    _, labels = np.unique(raw, return_inverse=True)
    return labels


def sir_directions(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sigma^{-1} times each slice's mean of the centred rows, one column per slice."""
    centred = x - x.mean(axis=0)
    means = np.column_stack([centred[labels == k].mean(axis=0)
                             for k in range(labels.max() + 1)])
    return np.linalg.solve(np.cov(x, rowvar=False), means)


def criterion_reference(x, t, y, arm: int, masks, h: int = 5) -> np.ndarray:
    """SIR/SIR normality criterion of each mask by explicit Schur complements.

    f(A) = sum over arms s of the largest singular value of
    M_Y[C]' (S_s[C,C] - S_s[C,A] S_s[A,A]^{-1} S_s[A,C]) M_T[C], with C
    the complement of A, M_Y the outcome directions within `arm`, M_T
    the treatment directions over the whole sample and S_s the arm
    covariances; the full set scores 0.
    """
    p = x.shape[1]
    sigmas = [np.cov(x[t == s], rowvar=False) for s in (0, 1)]
    in_arm = t == arm
    m_y = sir_directions(x[in_arm], quantile_slices(y[in_arm], h))
    m_t = sir_directions(x, t.astype(np.int64))
    out = np.empty(len(masks))
    for j, mask in enumerate(masks):
        a = [i for i in range(p) if int(mask) >> i & 1]
        c = [i for i in range(p) if not int(mask) >> i & 1]
        total = 0.0
        for sig in sigmas if c else ():
            cond = sig[np.ix_(c, c)]
            if a:
                cross = sig[np.ix_(c, a)]
                cond = cond - cross @ np.linalg.solve(sig[np.ix_(a, a)], cross.T)
            g = m_y[c].T @ cond @ m_t[c]
            total += np.linalg.svd(g, compute_uv=False)[0]
        out[j] = total
    return out


def ridge_cut(masks: np.ndarray, values: np.ndarray, n: int, c0: float = 0.6) -> np.ndarray:
    """Masks kept by the ridge-ratio rule.

    Sort by value descending (ties: fewer members, then smaller mask),
    take ratios (v[k] + cn) / (v[k-1] + cn) after a leading c0 with
    cn = 0.2 log(n) / sqrt(n), neutralise ratios touching a non-finite
    value, and keep everything from the first smallest ratio on.
    """
    cn = 0.2 * math.log(n) / math.sqrt(n)
    sizes = np.array([bin(int(m)).count("1") for m in masks])
    order = np.lexsort((masks, sizes, -values))
    v = values[order]
    ratios = np.concatenate(([c0], (v[1:] + cn) / (v[:-1] + cn)))
    finite = np.isfinite(v)
    ratios[1:][~(finite[1:] & finite[:-1])] = 1.0
    return masks[order][int(np.argmin(ratios)):]
