"""Directed acyclic graphs over (Y, T, X_1..X_p) and exact adjustment-set oracles.

Ground truth for everything the estimation pipeline tries to recover: the
graph itself, d-separation queries, the exhaustive collection of sufficient
adjustment sets, Markov boundaries, and closed-form linear-Gaussian population
designs for validating the criterion at zero noise.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .data_model import SubsetId, as_mask, check_dimension, enumerate_masks
from .errors import CyclicGraph, InvalidMechanism
from .set_analysis import AdjustmentCollection

__all__ = [
    "Dag",
    "PopulationSpec",
    "d_separated",
    "true_collection",
    "markov_boundary",
    "linear_sem_population",
    "reference_graphs",
    "random_design",
]

_Y = 0
_T = 1

_NODE_RE = re.compile(r"X([1-9]\d*)\Z")
_EDGE_RE = re.compile(r"\A(\S+)\s*->\s*(\S+)\Z")


def _node_id(node, p: int) -> int:
    if isinstance(node, (int, np.integer)):
        k = int(node)
        if not 1 <= k <= p:
            raise ValueError(f"X index {k} outside 1..{p}")
        return k + 1
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


def _z_mask(z, p: int) -> int:
    if isinstance(z, (SubsetId, int, np.integer)):
        return SubsetId(as_mask(z), p).mask
    return SubsetId.from_indices(p, [int(k) for k in z]).mask


class Dag:
    """Directed acyclic graph with nodes Y, T, X_1..X_p.

    Parameters
    ----------
    p : int
        Number of X nodes.
    edges : iterable of (node, node)
        Directed edges; nodes named "Y", "T", "X<i>", or given as the
        bare integer i for X_i.

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

    __slots__ = ("p", "_parents", "_children", "_order", "_below")

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
        # Kahn's algorithm; anything left over sits on a cycle.
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
            cyclic = sorted(_node_label(v) for v in range(n) if indeg[v] > 0)
            raise CyclicGraph(f"cycle through {{{', '.join(cyclic)}}}")
        # X-descendant mask of each node, itself included, children first
        below = [0] * n
        for v in reversed(order):
            below[v] = (1 << (v - 2) if v >= 2 else 0)
            for w in children[v]:
                below[v] |= below[w]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_parents", tuple(frozenset(s) for s in parents))
        object.__setattr__(self, "_children", tuple(frozenset(s) for s in children))
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_below", tuple(below))

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    @classmethod
    def from_text(cls, text: str, p: int | None = None) -> "Dag":
        """Parse the edge-list format: one `A -> B` per line.

        Blank lines and `#` comments are ignored.  A line holding a bare
        node name declares an isolated node.  When `p` is omitted it is
        inferred from the largest X index mentioned.
        """
        edges = []
        max_x = 0
        declared = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _EDGE_RE.match(line)
            if m:
                declared.append((m.group(1), m.group(2), lineno))
                for name in (m.group(1), m.group(2)):
                    mx = _NODE_RE.match(name)
                    if mx:
                        max_x = max(max_x, int(mx.group(1)))
                continue
            mx = _NODE_RE.match(line)
            if mx:
                max_x = max(max_x, int(mx.group(1)))
                continue
            if line in ("Y", "T"):
                continue
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        if p is None:
            p = max_x
        if p < 1:
            raise ValueError("no X nodes declared and p not given")
        for src, dst, lineno in declared:
            try:
                _node_id(src, p)
                _node_id(dst, p)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            edges.append((src, dst))
        return cls(p, edges)

    def to_text(self) -> str:
        lines = [f"{a} -> {b}" for a, b in self.edges()]
        used = {n for e in self.edges() for n in e}
        for k in range(1, self.p + 1):
            if f"X{k}" not in used:
                lines.append(f"X{k}")
        return "\n".join(lines) + "\n"

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for i, kids in enumerate(self._children):
            for j in kids:
                out.append((i, j))
        out.sort()
        return tuple((_node_label(i), _node_label(j)) for i, j in out)

    def parents_of(self, node) -> tuple[str, ...]:
        i = _node_id(node, self.p)
        return tuple(_node_label(j) for j in sorted(self._parents[i]))

    def children_of(self, node) -> tuple[str, ...]:
        i = _node_id(node, self.p)
        return tuple(_node_label(j) for j in sorted(self._children[i]))

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return self.p == other.p and self._children == other._children

    def __hash__(self):
        return hash((self.p, self._children))

    def __repr__(self):
        return f"Dag(p={self.p}, edges={len(self.edges())})"


def _pack(flags: np.ndarray) -> int:
    """A bool array as a Python int whose bit j is flags[j]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _reachable(g: Dag, source: int, masks: np.ndarray) -> list[int]:
    """Bayes-ball from `source` under every conditioning set in `masks` at once.

    Returns one Python-int bitset per node: bit j is set when the node is
    d-connected to `source` given X_{masks[j]}.  A ball entered from a child
    (`up`) passes on to parents and children when the node is free (not
    conditioned on); a ball entered from a parent (`down`) passes on to
    children when the node is free and bounces back to the parents when the
    node or a descendant is conditioned on.  A trail enters a node at most
    once from each side, so the sweeps reach a fixpoint.
    """
    n = g.p + 2
    full = (1 << masks.size) - 1
    free = [full] * n
    opens = [0] * n
    for v in range(n):
        if not (g._parents[v] or g._children[v]):
            continue
        if v >= 2:
            free[v] = _pack((masks & (1 << (v - 2))) == 0)
        if g._below[v]:
            opens[v] = _pack((masks & g._below[v]) != 0)
    up = [0] * n
    down = [0] * n
    up[source] = full
    # what each node sends to its children (as `down`) and parents (as `up`)
    to_child = [0] * n
    to_parent = [0] * n
    while True:
        # parents first: down[c] is final once every parent's is
        for c in g._order:
            ball = down[c]
            for a in g._parents[c]:
                ball |= to_child[a]
            down[c] = ball
            to_child[c] = (up[c] | ball) & free[c]
        # children first; the down pass saw every up, so an unchanged up
        # is the fixpoint
        changed = False
        for c in reversed(g._order):
            ball = up[c]
            for a in g._children[c]:
                ball |= to_parent[a]
            if ball != up[c]:
                up[c] = ball
                changed = True
            to_parent[c] = (ball & free[c]) | (down[c] & opens[c])
        if not changed:
            return [u | d for u, d in zip(up, down)]


def d_separated(g: Dag, u, v, z=0) -> bool:
    """Test whether the node set X_z d-separates u from v in g.

    Parameters
    ----------
    g : Dag
    u, v : node
        Distinct nodes, named "Y", "T", "X<i>", or integer X indices.
    z : SubsetId, int mask, or iterable of 1-based indices
        Conditioning set over the X nodes; must exclude u and v.

    Returns
    -------
    bool
        True iff every undirected path between u and v is blocked: a
        non-collider on the path is conditioned on, or some collider has
        neither itself nor any descendant conditioned on.

    Notes
    -----
    One Bayes-ball sweep (`_reachable`) over the single mask z.
    """
    p = g.p
    ui = _node_id(u, p)
    vi = _node_id(v, p)
    if ui == vi:
        raise ValueError("u and v must differ")
    mask = _z_mask(z, p)
    if (mask << 2) & (1 << ui | 1 << vi):
        raise ValueError("conditioning set must exclude u and v")
    return not _reachable(g, ui, np.array([mask], dtype=np.uint32))[vi]


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
    """
    masks = enumerate_masks(g.p)
    reach = _reachable(g, _Y, masks)[_T]
    bits = np.frombuffer(reach.to_bytes((masks.size + 7) // 8, "little"), dtype=np.uint8)
    connected = np.unpackbits(bits, count=masks.size, bitorder="little")
    return AdjustmentCollection(g.p, connected == 0)


def markov_boundary(g: Dag, node) -> SubsetId:
    """Minimal X subset rendering `node` independent of all remaining X nodes.

    Parameters
    ----------
    g : Dag
    node : node
        Typically "Y" or "T"; X nodes are allowed.

    Returns
    -------
    SubsetId
        The unique minimal C with d_separated(node, X_j, C) for every
        X_j outside C (and distinct from node).

    Raises
    ------
    ValueError
        If `node` is not a node of g.
    """
    p = g.p
    ni = _node_id(node, p)
    own = ni - 1 if ni >= 2 else None
    universe = [k for k in range(1, p + 1) if k != own]

    def separating(csets):
        """Bitset over csets: bit j is set when csets[j] separates node from
        every X outside it.  One sweep serves every candidate."""
        masks = np.array([sum(1 << (k - 1) for k in c) for c in csets], dtype=np.uint32)
        reach = _reachable(g, ni, masks)
        connected = 0
        for k in universe:
            if reach[k + 1]:
                connected |= reach[k + 1] & _pack((masks & (1 << (k - 1))) == 0)
        return ~connected & ((1 << len(csets)) - 1)

    base = set(universe)
    changed = True
    while changed:
        changed = False
        for k in sorted(base):
            trial = base - {k}
            if separating([trial]):
                base = trial
                changed = True
    items = sorted(base)
    if len(items) > 14:
        return SubsetId.from_indices(p, items)
    for size in range(len(items) + 1):
        combos = list(itertools.combinations(items, size))
        ok = separating(combos)
        if ok:
            return SubsetId.from_indices(p, combos[(ok & -ok).bit_length() - 1])
    return SubsetId.from_indices(p, items)


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
    """

    __slots__ = ("sigma0", "sigma1", "beta_y", "beta_t", "provenance")

    def __init__(self, sigma0, sigma1, beta_y, beta_t, provenance):
        sigma0 = np.asarray(sigma0, dtype=np.float64)
        sigma1 = np.asarray(sigma1, dtype=np.float64)
        beta_y = np.asarray(beta_y, dtype=np.float64)
        beta_t = np.asarray(beta_t, dtype=np.float64)
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
        object.__setattr__(self, "sigma0", sigma0)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "beta_y", beta_y)
        object.__setattr__(self, "beta_t", beta_t)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError("PopulationSpec is immutable")

    @property
    def p(self) -> int:
        return self.sigma0.shape[0]

    def __repr__(self):
        return (
            f"PopulationSpec(p={self.p}, d_y={self.beta_y.shape[1]}, "
            f"d_t={self.beta_t.shape[1]})"
        )


def _canon_pair(pair, p):
    a, b = pair
    return (_node_label(_node_id(a, p)), _node_label(_node_id(b, p)))


def linear_sem_population(
    g: Dag,
    weights: dict | None = None,
    noise: dict | None = None,
    pi: float = 0.5,
) -> PopulationSpec:
    """Population moments of a linear SEM on g with a Bernoulli treatment root.

    The treatment mechanism is of the discriminant type: T ~ Bernoulli(pi)
    and X | T = s is multivariate normal in both arms, with the covariance
    structured by the graph.  When g draws T as a sink (edges X -> T), those
    edges are reversed so the mechanism can hold exactly; the returned
    provenance graph records the rooted design actually used, with
    zero-weight edges pruned.

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
    pi : float, optional
        Treatment probability, in (0, 1).

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
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    if g._children[_Y]:
        raise InvalidMechanism("Y must be a sink")
    if _T in g._parents[_Y] or _Y in g._parents[_T]:
        raise InvalidMechanism("a direct Y-T edge admits no adjustment design")
    if g._parents[_T] and g._children[_T]:
        raise InvalidMechanism("T with both parents and children cannot be rooted")
    wmap = {}
    if weights:
        for pair, val in weights.items():
            wmap[_canon_pair(pair, p)] = float(val)

    design_edges = []
    design_weights = {}
    for a, b in g.edges():
        wval = wmap.get((a, b), 1.0)
        if b == "T":
            a, b = "T", a
        if wval == 0.0:
            continue
        design_edges.append((a, b))
        design_weights[(a, b)] = wval
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

    w_xx = np.zeros((p, p))
    shift = np.zeros(p)
    b_y = np.zeros((p, 1))
    for (a, b), wval in design_weights.items():
        ia = _node_id(a, p)
        ib = _node_id(b, p)
        if b == "Y":
            b_y[ia - 2, 0] = wval
        elif a == "T":
            shift[ib - 2] = wval
        else:
            w_xx[ia - 2, ib - 2] = wval

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


def reference_graphs() -> dict[str, Dag]:
    """Catalog of small benchmark graphs exercising distinct structures.

    Returns
    -------
    dict of str to Dag
        Keyed by a short structural name:

        - ``triple_minimal``: two routes, three disjoint minimal sets.
        - ``unique_minimal``: one confounder, unique minimal set.
        - ``collider_child``: collider whose child feeds the outcome.
        - ``outcome_collider``: collider that is itself an outcome parent.
        - ``confounded_child``: collider child that also confounds directly.
        - ``double_collider``: two colliders on interleaved routes.
        - ``deep_collider``: collider with a two-step descendant chain.
        - ``shared_parent``: one node parenting outcome, treatment, and
          a sink collider.
    """
    return {
        "triple_minimal": Dag(6, [
            ("X1", "Y"), ("X4", "Y"), ("X3", "X1"), ("X3", "X2"),
            ("X4", "X5"), ("X6", "X5"), ("X2", "T"), ("X6", "T"),
        ]),
        "unique_minimal": Dag(4, [
            ("X1", "T"), ("X1", "Y"), ("X2", "Y"), ("X4", "T"),
            ("X2", "X3"), ("X4", "X3"),
        ]),
        "collider_child": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X3", "X1"), ("X4", "T"),
        ]),
        "outcome_collider": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X3", "Y"), ("X4", "T"), ("X1", "T"),
        ]),
        "confounded_child": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X3", "X1"), ("X4", "T"), ("X1", "T"),
        ]),
        "double_collider": Dag(6, [
            ("X1", "Y"), ("X1", "X2"), ("X2", "X5"), ("X2", "X4"),
            ("X3", "X2"), ("X3", "T"), ("X4", "Y"), ("X6", "X5"),
            ("X6", "T"),
        ]),
        "deep_collider": Dag(5, [
            ("X1", "Y"), ("X1", "X2"), ("X2", "T"), ("X3", "X1"),
            ("X4", "X3"), ("X5", "X3"), ("X4", "Y"), ("X5", "T"),
        ]),
        "shared_parent": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X1", "X3"), ("X4", "T"), ("X1", "T"),
        ]),
    }


def random_design(
    rng: np.random.Generator,
    p: int,
    x_edge_prob: float = 0.3,
    t_child_prob: float = 0.4,
    y_parent_prob: float = 0.4,
    contrast_prob: float = 0.3,
) -> tuple[Dag, dict, dict]:
    """Draw a random rooted linear-Gaussian design.

    Edges run forward along a random ordering of the X nodes, T is a root
    with a random set of X children, and Y is a sink with random X parents
    (both nonempty).  Weights are signed and bounded away from zero; with
    probability `contrast_prob` one treatment child also gets an
    arm-dependent noise variance.

    Returns
    -------
    (Dag, weights, noise)
        Arguments ready for `linear_sem_population`.
    """
    check_dimension(p)
    order = rng.permutation(p) + 1

    def draw_weight():
        return float(rng.uniform(0.5, 1.2) * rng.choice([-1.0, 1.0]))

    edges = []
    weights = {}
    for ai, bi in itertools.combinations(range(p), 2):
        if rng.random() < x_edge_prob:
            e = (f"X{order[ai]}", f"X{order[bi]}")
            edges.append(e)
            weights[e] = draw_weight()
    t_children = [k for k in range(1, p + 1) if rng.random() < t_child_prob]
    if not t_children:
        t_children = [int(rng.integers(1, p + 1))]
    for k in t_children:
        e = ("T", f"X{k}")
        edges.append(e)
        weights[e] = draw_weight()
    y_parents = [k for k in range(1, p + 1) if rng.random() < y_parent_prob]
    if not y_parents:
        y_parents = [int(rng.integers(1, p + 1))]
    for k in y_parents:
        e = (f"X{k}", "Y")
        edges.append(e)
        weights[e] = draw_weight()

    noise = {f"X{k}": float(rng.uniform(0.6, 1.4)) for k in range(1, p + 1)}
    if rng.random() < contrast_prob:
        k = int(rng.choice(t_children))
        v0 = noise[f"X{k}"]
        noise[f"X{k}"] = (v0, v0 * float(rng.uniform(1.5, 2.5)))
    return Dag(p, edges), weights, noise
