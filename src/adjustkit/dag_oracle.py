"""Directed acyclic graphs over (Y, T, X_1..X_p) and exact adjustment-set oracles.

Ground truth for everything the estimation pipeline tries to recover: the
graph itself, d-separation queries, the exhaustive collection of sufficient
adjustment sets, and closed-form linear-Gaussian population designs for
validating the criterion at zero noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data_model import check_dimension, check_mask
from .errors import CyclicGraph, InvalidMechanism
from .set_analysis import AdjustmentCollection, _spread, _up

__all__ = [
    "Dag",
    "PopulationSpec",
    "d_separated",
    "true_collection",
    "linear_sem_population",
]

_Y = 0
_T = 1

_NODE_RE = re.compile(r"X([1-9]\d*)\Z")
_EDGE_RE = re.compile(r"\A(\S+)\s*->\s*(\S+)\Z")


def _node_id(node, p: int) -> int:
    s = str(node).strip()
    if s == "Y":
        return _Y
    if s == "T":
        return _T
    m = _NODE_RE.match(s)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= p:
            raise ValueError(f"node {s} outside X1..X{p}")
        return k + 1
    raise ValueError(f"unknown node name {node!r}")


def _node_label(i: int) -> str:
    if i == _Y:
        return "Y"
    if i == _T:
        return "T"
    return f"X{i - 1}"


class Dag:
    """Directed acyclic graph with nodes Y, T, X_1..X_p.

    Parameters
    ----------
    p : int
        Number of X nodes.
    edges : iterable of (node, node)
        Directed edges between nodes named "Y", "T" or "X<i>".

    Raises
    ------
    CyclicGraph
        If the edge set contains a directed cycle.
    ValueError
        On self-loops, duplicate edges, or unknown node names.

    Notes
    -----
    Instances are immutable after construction; all queries are pure.
    """

    __slots__ = ("p", "_parents", "_children", "_order")

    def __init__(self, p: int, edges=()):
        check_dimension(p)
        n = p + 2
        parents = [set() for _ in range(n)]
        children = [set() for _ in range(n)]
        seen = set()
        for src, dst in edges:
            i = _node_id(src, p)
            j = _node_id(dst, p)
            if i == j:
                raise ValueError(f"self-loop on {_node_label(i)}")
            if (i, j) in seen:
                raise ValueError(
                    f"duplicate edge {_node_label(i)} -> {_node_label(j)}"
                )
            seen.add((i, j))
            parents[j].add(i)
            children[i].add(j)
        # Kahn's algorithm; what is left over sits on a cycle or below one
        indeg = [len(parents[v]) for v in range(n)]
        queue = [v for v in range(n) if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in children[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != n:
            # a leftover is on a cycle when it reaches itself; reach[v] grows
            # to every leftover below v within len(left) rounds
            left = {v for v in range(n) if indeg[v] > 0}
            reach = {v: children[v] & left for v in left}
            for _ in left:
                reach = {v: r.union(*map(reach.get, r)) for v, r in reach.items()}
            cyclic = sorted(_node_label(v) for v in left if v in reach[v])
            raise CyclicGraph(f"cycle through {{{', '.join(cyclic)}}}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_parents", tuple(frozenset(s) for s in parents))
        object.__setattr__(self, "_children", tuple(frozenset(s) for s in children))
        object.__setattr__(self, "_order", tuple(order))

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    @classmethod
    def from_text(cls, text: str) -> "Dag":
        """Parse the edge-list format: one `A -> B` per line.

        Blank lines and `#` comments are ignored.  A line holding a bare
        node name declares an isolated node.  p is the largest X index
        mentioned.
        """
        edges = []
        max_x = 0
        unknown = None  # the first unknown name, raised once p is known
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            # an unspaced chain would otherwise read as a node named "X1->X2"
            m = _EDGE_RE.match(line) if line.count("->") == 1 else None
            for name in m.groups() if m else (line,):
                mx = _NODE_RE.match(name)
                if mx:
                    max_x = max(max_x, int(mx.group(1)))
                elif name not in ("Y", "T"):
                    if not m:
                        raise ValueError(f"line {lineno}: cannot parse {raw!r}")
                    unknown = unknown or f"line {lineno}: unknown node name {name!r}"
            if m:
                edges.append(m.groups())
        if max_x < 1:
            raise ValueError("no X nodes declared")
        if unknown:
            raise ValueError(unknown)
        return cls(max_x, edges)

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for i, kids in enumerate(self._children):
            for j in kids:
                out.append((i, j))
        out.sort()
        return tuple((_node_label(i), _node_label(j)) for i, j in out)

    def __repr__(self):
        return f"Dag(p={self.p}, edges={len(self.edges())})"


def _reachable(g: Dag, source: int, target: int, fixed: int, free: int) -> np.ndarray:
    """Bayes-ball from `source` under every conditioning set of the sub-cube
    `data_model.subcube(fixed, free)` at once.

    Returns `target`'s words in set_analysis's packed format: bit j is set
    when `target` is d-connected to `source` given the j-th mask of the
    sub-cube.  A ball entered from a child (`up`) passes on to parents and
    children when the node is free (not conditioned on); a ball entered from
    a parent (`down`) passes on to children when the node is free and
    bounces back to the parents when the node or a descendant is conditioned
    on.  A trail enters a node at most once from each side, so the sweeps
    reach a fixpoint.  Only the nodes that touch an edge, the source and the
    target are swept.
    """
    ones = ~np.zeros(max(1, (1 << free.bit_count()) >> 6), dtype=np.uint64)
    zeros = np.zeros_like(ones)
    nodes = [v for v in g._order if g._parents[v] or g._children[v] or v in (source, target)]
    # masks holding v (`held`), and v or an X descendant (`opens`), children first
    unconditioned, opens = {}, {}
    for v in reversed(nodes):
        bit = 1 << (v - 2) if v >= 2 else 0
        held = ones if bit & fixed else zeros
        if bit & free:
            # bit r of a sub-cube index stands for the r-th index of `free`
            held = _up(ones, (free & (bit - 1)).bit_count())
        unconditioned[v] = ~held if bit & (fixed | free) else ones
        opens[v] = held
        for w in g._children[v]:
            opens[v] = opens[v] | opens[w]
    up = dict.fromkeys(nodes, zeros)
    down = dict.fromkeys(nodes, zeros)
    up[source] = ones
    # what each node sends to its children (as `down`) and parents (as `up`)
    to_child = dict.fromkeys(nodes, zeros)
    to_parent = dict.fromkeys(nodes, zeros)
    while True:
        # parents first: down[c] is final once every parent's is
        for c in nodes:
            ball = down[c]
            for a in g._parents[c]:
                ball = ball | to_child[a]
            down[c] = ball
            to_child[c] = (up[c] | ball) & unconditioned[c]
        # children first; the down pass saw every up, so an unchanged up
        # is the fixpoint
        changed = False
        for c in reversed(nodes):
            ball = up[c]
            for a in g._children[c]:
                ball = ball | to_parent[a]
            if (ball != up[c]).any():
                up[c] = ball
                changed = True
            to_parent[c] = (ball & unconditioned[c]) | (down[c] & opens[c])
        if not changed:
            return up[target] | down[target]


def d_separated(g: Dag, u, v, z=0) -> bool:
    """Test whether the node set X_z d-separates u from v in g.

    Parameters
    ----------
    g : Dag
    u, v : node
        Distinct nodes, named "Y", "T" or "X<i>".
    z : int
        Mask of the conditioning set over the X nodes; must exclude u and v.

    Returns
    -------
    bool
        True iff every undirected path between u and v is blocked: a
        non-collider on the path is conditioned on, or some collider has
        neither itself nor any descendant conditioned on.

    Notes
    -----
    One Bayes-ball sweep (`_reachable`) over the one-mask sub-cube (z, 0).
    """
    p = g.p
    ui = _node_id(u, p)
    vi = _node_id(v, p)
    if ui == vi:
        raise ValueError("u and v must differ")
    mask = check_mask(z, p)
    if (mask << 2) & (1 << ui | 1 << vi):
        raise ValueError("conditioning set must exclude u and v")
    return not _reachable(g, ui, vi, mask, 0)[0] & 1


def true_collection(g: Dag) -> AdjustmentCollection:
    """Exhaustive collection of subsets A with Y d-separated from T given X_A.

    Parameters
    ----------
    g : Dag

    Returns
    -------
    AdjustmentCollection
        Membership over all 2**p subsets; `Dag` caps p at 24 when it is
        built, so this raises nothing.

    Notes
    -----
    Only the X nodes joined to Y and T by edges, whatever their direction,
    lie on a Y-T path or below a node of one, so the sweep runs over the
    sub-cube of those nodes and the collection repeats it over the others.
    """
    keep = _yt_component(g)
    member = ~_reachable(g, _Y, _T, 0, keep)
    if keep.bit_count() < 6:
        member &= np.uint64((1 << (1 << keep.bit_count())) - 1)
    return AdjustmentCollection._from_words(g.p, _spread(member, g.p, keep))


def _yt_component(g: Dag) -> int:
    """Mask of the X nodes in the skeleton component that holds Y and T; 0
    when Y and T lie in different components."""
    seen, stack = {_Y}, [_Y]
    while stack:
        v = stack.pop()
        for w in g._parents[v] | g._children[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if _T not in seen:
        return 0
    return sum(1 << (v - 2) for v in seen if v >= 2)


@dataclass(frozen=True, eq=False, repr=False)
class PopulationSpec:
    """Closed-form population quantities of a linear-Gaussian design.

    Attributes
    ----------
    sigma0, sigma1 : ndarray, shape (p, p)
        Within-arm covariance of X given T = 0 and T = 1.
    beta_y : ndarray, shape (p, d_y)
        Directions spanning the outcome central subspace.
    beta_t : ndarray, shape (p, d_t)
        Directions spanning the treatment central subspace.
    provenance : Dag
        The design graph the quantities were derived from.

    Equality and hashing are by identity: the fields are arrays.
    """

    sigma0: np.ndarray
    sigma1: np.ndarray
    beta_y: np.ndarray
    beta_t: np.ndarray
    provenance: Dag

    def __post_init__(self):
        for name in ("sigma0", "sigma1", "beta_y", "beta_t"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        sigma0, sigma1, beta_y, beta_t = self.sigma0, self.sigma1, self.beta_y, self.beta_t
        p = sigma0.shape[0]
        if sigma0.shape != (p, p) or sigma1.shape != (p, p):
            raise ValueError("sigma matrices must be square and same size")
        if beta_y.ndim != 2 or beta_t.ndim != 2 or beta_y.shape[0] != p or beta_t.shape[0] != p:
            raise ValueError("beta matrices must be p x d")
        for s in (sigma0, sigma1):
            if not np.allclose(s, s.T, atol=1e-12):
                raise ValueError("sigma matrices must be symmetric")
            if np.linalg.eigvalsh(s)[0] < -1e-10:
                raise ValueError("sigma matrices must be PSD")

    @property
    def p(self) -> int:
        return self.sigma0.shape[0]

    def __repr__(self):
        return (
            f"PopulationSpec(p={self.p}, d_y={self.beta_y.shape[1]}, "
            f"d_t={self.beta_t.shape[1]})"
        )


def linear_sem_population(
    g: Dag,
    weights: dict | None = None,
    noise: dict | None = None,
) -> PopulationSpec:
    """Population moments of a linear SEM on g with a binary treatment root.

    The treatment mechanism is of the discriminant type: X | T = s is
    multivariate normal in both arms, with the covariance structured by
    the graph, and P(T = 1) does not enter.  When g draws T as a sink
    (edges X -> T), those edges are reversed so the mechanism can hold
    exactly; the returned provenance graph records the rooted design
    actually used, with zero-weight edges pruned.

    Parameters
    ----------
    g : Dag
    weights : dict, optional
        Edge weights keyed by (src, dst) node names; unlisted edges get 1.0.
        Keys use the orientation of `g`; a reversed treatment edge keeps
        the same weight.
    noise : dict, optional
        Structural noise variances keyed by X node name; a scalar applies
        to both arms, a (v0, v1) pair makes the variance arm-dependent.
        Default 1.0.

    Returns
    -------
    PopulationSpec

    Raises
    ------
    InvalidMechanism
        If g has a Y-T edge, Y has children, or T has both parents and
        children, so no discriminant-type design can match it exactly.
    """
    p = g.p
    if g._children[_Y]:
        raise InvalidMechanism("Y must be a sink")
    if _T in g._parents[_Y] or _Y in g._parents[_T]:
        raise InvalidMechanism("a direct Y-T edge admits no adjustment design")
    if g._parents[_T] and g._children[_T]:
        raise InvalidMechanism("T with both parents and children cannot be rooted")
    wmap = {(_node_id(a, p), _node_id(b, p)): float(v) for (a, b), v in (weights or {}).items()}

    w_xx = np.zeros((p, p))
    shift = np.zeros(p)
    b_y = np.zeros((p, 1))
    design_edges = []
    for a, kids in enumerate(g._children):
        for b in sorted(kids):
            wval = wmap.get((a, b), 1.0)
            if wval == 0.0:
                continue
            src, dst = (_T, a) if b == _T else (a, b)
            design_edges.append((_node_label(src), _node_label(dst)))
            if dst == _Y:
                b_y[src - 2, 0] = wval
            elif src == _T:
                shift[dst - 2] = wval
            else:
                w_xx[src - 2, dst - 2] = wval
    design = Dag(p, design_edges)

    var0 = np.ones(p)
    var1 = np.ones(p)
    if noise:
        for name, val in noise.items():
            k = _node_id(name, p)
            if k < 2:
                raise ValueError("noise variances apply to X nodes only")
            if np.ndim(val) == 0:
                v0 = v1 = float(val)
            else:
                v0, v1 = (float(v) for v in val)
            if v0 <= 0 or v1 <= 0:
                raise ValueError("noise variances must be positive")
            var0[k - 2] = v0
            var1[k - 2] = v1

    # x = W'x + shift*T + e  =>  x = M (shift*T + e) with M = (I - W')^{-1}
    m = np.linalg.inv(np.eye(p) - w_xx.T)
    mu1 = m @ shift
    sigma0 = m @ np.diag(var0) @ m.T
    sigma1 = m @ np.diag(var1) @ m.T

    cols = []
    if np.any(mu1 != 0.0):
        cols.append(np.linalg.solve(sigma1, mu1))
    if np.any(var0 != var1):
        delta = np.linalg.inv(sigma0) - np.linalg.inv(sigma1)
        delta = 0.5 * (delta + delta.T)
        vals, vecs = np.linalg.eigh(delta)
        keep = np.abs(vals) > 1e-10
        for j in np.nonzero(keep)[0]:
            cols.append(vecs[:, j])
    beta_t = np.column_stack(cols) if cols else np.zeros((p, 1))
    return PopulationSpec(sigma0, sigma1, b_y, beta_t, design)
