import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.dag_oracle import (
    Dag,
    PopulationSpec,
    _reachable,
    d_separated,
    linear_sem_population,
    true_collection,
)
from adjustkit.criterion import population_values
from adjustkit.data_model import indices_mask, subcube
from adjustkit.errors import CyclicGraph, DimensionTooLarge, InvalidMechanism
from adjustkit.set_analysis import _unpack
from adjustkit.sim_bench import model_graph
from graph_fixtures import random_design, reference_graphs


# Independent reference: literal path enumeration.  A path is blocked by Z
# when some non-collider on it lies in Z, or some collider has neither
# itself nor any descendant in Z.
def _parents(g, node):
    return {a for a, b in g.edges() if b == node}


def _children(g, node):
    return {b for a, b in g.edges() if a == node}


def _descendants(g, node):
    out, stack = set(), [node]
    while stack:
        v = stack.pop()
        for c in _children(g, v):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _all_simple_paths(g, u, v):
    nodes = ["Y", "T"] + [f"X{i}" for i in range(1, g.p + 1)]
    nbrs = {a: _parents(g, a) | _children(g, a) for a in nodes}
    paths = []

    def walk(cur, trail):
        if cur == v:
            paths.append(list(trail))
            return
        for nxt in sorted(nbrs[cur]):
            if nxt not in trail:
                trail.append(nxt)
                walk(nxt, trail)
                trail.pop()

    walk(u, [u])
    return paths


def path_dsep(g, u, v, z_labels):
    z = set(z_labels)
    for path in _all_simple_paths(g, u, v):
        blocked = False
        for k in range(1, len(path) - 1):
            w = path[k]
            parents = _parents(g, w)
            is_collider = path[k - 1] in parents and path[k + 1] in parents
            if is_collider:
                if not (({w} | _descendants(g, w)) & z):
                    blocked = True
                    break
            elif w in z:
                blocked = True
                break
        if not blocked:
            return False
    return True


def _labels(mask, p):
    return [f"X{i + 1}" for i in range(p) if mask >> i & 1]


@st.composite
def _random_dags(draw, max_p):
    """A DAG with edges forward along a random order of all nodes, so Y may
    have children and T parents, at an edge probability up to 0.9."""
    p = draw(st.integers(1, max_p))
    order = draw(st.permutations(["Y", "T"] + [f"X{k}" for k in range(1, p + 1)]))
    prob = draw(st.floats(0.0, 0.9))
    pairs = list(itertools.combinations(order, 2))
    coins = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return Dag(p, [e for e, c in zip(pairs, coins) if c < prob])


@st.composite
def _split_dags(draw, max_p):
    """A DAG whose X nodes are drawn into three parts: up to four beside Y
    and T, the rest either in an X-X part of their own or on no edge.  Edges
    run forward along a random order of each part, so Y and T may end up
    apart too."""
    p = draw(st.integers(1, max_p))
    names = [f"X{k}" for k in range(1, p + 1)]
    roles = draw(st.lists(st.sampled_from("yxi"), min_size=p, max_size=p))
    near = [n for n, r in zip(names, roles) if r == "y"][:4]
    side = [n for n, r in zip(names, roles) if r == "x" or (r == "y" and n not in near)]
    edges = []
    for part in (["Y", "T", *near], side):
        order = draw(st.permutations(part))
        prob = draw(st.floats(0.0, 0.9))
        pairs = list(itertools.combinations(order, 2))
        coins = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
        edges += [e for e, c in zip(pairs, coins) if c < prob]
    return Dag(p, edges)


class TestDagBasics:
    def test_cycle_rejected(self):
        with pytest.raises(CyclicGraph):
            Dag(2, [("X1", "X2"), ("X2", "X1")])

    def test_self_loop_and_duplicates(self):
        with pytest.raises(ValueError):
            Dag(2, [("X1", "X1")])
        with pytest.raises(ValueError):
            Dag(2, [("X1", "X2"), ("X1", "X2")])

    def test_from_text_roundtrip(self):
        text = "# comment\nX1 -> T\nX1 -> Y\nX3\n"
        g = Dag.from_text(text)
        assert g.p == 3
        assert g.edges() == (("X1", "Y"), ("X1", "T"))
        lines = [f"{a} -> {b}" for a, b in g.edges()] + ["X2", "X3"]
        again = Dag.from_text("\n".join(lines))
        assert again.p == g.p
        assert again.edges() == g.edges()

    def test_from_text_cycle(self):
        with pytest.raises(CyclicGraph):
            Dag.from_text("X1 -> X2\nX2 -> X1\n")

    @pytest.mark.parametrize("text, exc, message", [
        ("", ValueError, "no X nodes declared"),
        ("Q", ValueError, "line 1: cannot parse 'Q'"),
        ("X1 -> Q", ValueError, "line 1: unknown node name 'Q'"),
        ("X0 -> Y", ValueError, "no X nodes declared"),
        ("X01 -> Y", ValueError, "no X nodes declared"),
        # an unspaced chain is refused as the spaced one is, alone or not
        ("X1->X2->Y", ValueError, "line 1: cannot parse 'X1->X2->Y'"),
        ("X1 -> X2 -> Y", ValueError, "line 1: cannot parse 'X1 -> X2 -> Y'"),
        ("X1 -> Y\nX1->X2->Y", ValueError, "line 2: cannot parse 'X1->X2->Y'"),
        # a line that cannot be parsed wins over an earlier unknown name
        ("X1 -> T\nX3 -> Q\nbad line", ValueError, "line 3: cannot parse 'bad line'"),
        # the first unknown name wins over a later one
        ("X2 -> Y\nX0 -> X1\nX3 -> Q", ValueError, "line 2: unknown node name 'X0'"),
        ("X1 -> X1", ValueError, "self-loop on X1"),
        ("X1 -> Y\nX1 -> Y", ValueError, "duplicate edge X1 -> Y"),
        ("X1 -> X2\nX2 -> X1", CyclicGraph, "cycle through {X1, X2}"),
        # a node below a cycle, or between two, is on none
        ("X1 -> X2\nX2 -> X1\nX1 -> T", CyclicGraph, "cycle through {X1, X2}"),
        ("X1 -> X2\nX2 -> X1\nX2 -> X5\nX5 -> X3\nX3 -> X4\nX4 -> X3\nX4 -> Y",
         CyclicGraph, "cycle through {X1, X2, X3, X4}"),
    ])
    def test_from_text_messages(self, text, exc, message):
        with pytest.raises(exc) as info:
            Dag.from_text(text)
        assert str(info.value) == message

    def test_immutability(self):
        g = Dag(2, [("X1", "Y")])
        with pytest.raises(AttributeError):
            g.p = 5

    def test_parents_children(self):
        # edges() lists the edges by (source, target), Y first, then T, X1..Xp
        g = Dag(3, [("X2", "Y"), ("Y", "X3"), ("X1", "Y")])
        assert g.edges() == (("Y", "X3"), ("X1", "Y"), ("X2", "Y"))
        assert _parents(g, "Y") == {"X1", "X2"}
        assert _children(g, "Y") == {"X3"}


class TestDSeparation:
    def test_triple_minimal_examples(self):
        g = reference_graphs()["triple_minimal"]
        assert d_separated(g, "Y", "T", indices_mask(6, (1,))) is True
        assert d_separated(g, "Y", "T", indices_mask(6, (1, 5))) is False

    def test_single_fork(self):
        g = Dag(1, [("X1", "Y"), ("X1", "T")])
        assert d_separated(g, "Y", "T") is False
        assert d_separated(g, "Y", "T", indices_mask(1, (1,))) is True

    def test_outcome_collider_examples(self):
        g = reference_graphs()["outcome_collider"]
        assert d_separated(g, "Y", "T", indices_mask(4, (1, 4))) is True
        assert d_separated(g, "Y", "T", indices_mask(4, (1,))) is False

    def test_z_is_one_integer_mask(self):
        g = reference_graphs()["triple_minimal"]
        assert d_separated(g, "Y", "T", 0b000001) == d_separated(g, "Y", "T", np.uint32(1))
        # indices are named at the edges only; a tuple of them is no mask
        for z in ((1,), 1.0):
            with pytest.raises(TypeError):
                d_separated(g, "Y", "T", z)

    @pytest.mark.parametrize(
        "z", [np.uint32(1 << 6), np.int64(-1), 1 << 6, -1, np.uint64(1 << 63)]
    )
    def test_z_outside_the_graph_rejected(self, z):
        with pytest.raises(ValueError):
            d_separated(reference_graphs()["triple_minimal"], "Y", "T", z)

    def test_agrees_with_path_enumeration_on_references(self):
        for g in reference_graphs().values():
            for mask in range(1 << g.p):
                z = _labels(mask, g.p)
                assert d_separated(g, "Y", "T", mask) == path_dsep(g, "Y", "T", z), (
                    g.edges(),
                    mask,
                )

    def test_agrees_with_path_enumeration_random(self):
        rng = np.random.default_rng(20240817)
        nodes_pool = ["Y", "T", "X1", "X2", "X3", "X4", "X5"]
        for trial in range(100):
            p = int(rng.integers(3, 6))
            nodes = nodes_pool[: 2 + p]
            order = rng.permutation(nodes)
            edges = []
            for i, j in itertools.combinations(range(len(order)), 2):
                if rng.random() < 0.35:
                    edges.append((order[i], order[j]))
            try:
                g = Dag(p, edges)
            except ValueError:
                continue
            for _ in range(8):
                # any ordered pair of nodes, X endpoints included; z
                # excludes both endpoints (bit b of a mask is X_{b+1})
                i, j = rng.choice(len(nodes), size=2, replace=False)
                u, v = nodes[i], nodes[j]
                ends = sum(1 << (k - 2) for k in (i, j) if k >= 2)
                mask = int(rng.integers(0, 1 << p)) & ~ends
                assert d_separated(g, u, v, mask) == path_dsep(
                    g, u, v, _labels(mask, p)
                ), (edges, u, v, mask)

    @settings(max_examples=80, deadline=None)
    @given(_random_dags(max_p=8), st.data())
    def test_subcube_sweep_matches_single_masks(self, g, data):
        # any sub-cube, so an index's rank in `free` need not be the index,
        # and any pair of nodes, X endpoints included
        i, j = data.draw(st.lists(st.integers(0, g.p + 1), min_size=2, max_size=2, unique=True))
        allowed = ((1 << g.p) - 1) & ~sum(1 << (k - 2) for k in (i, j) if k >= 2)
        free = data.draw(st.integers(0, allowed)) & allowed
        fixed = data.draw(st.integers(0, allowed)) & allowed & ~free
        reach = _unpack(_reachable(g, i, j, fixed, free), free.bit_count())
        name = ["Y", "T", *(f"X{k}" for k in range(1, g.p + 1))]
        expect = [not d_separated(g, name[i], name[j], m) for m in subcube(fixed, free).tolist()]
        assert reach.tolist() == expect, (g.edges(), i, j, fixed, free)


class TestTrueCollection:
    def test_golden_eight_cardinalities(self):
        sizes = {
            "triple_minimal": 49,
            "unique_minimal": 7,
            "collider_child": 11,
            "outcome_collider": 5,
            "confounded_child": 6,
            "double_collider": 41,
            "deep_collider": 17,
            "shared_parent": 7,
        }
        refs = reference_graphs()
        assert set(refs) == set(sizes)
        for name, g in refs.items():
            assert len(true_collection(g)) == sizes[name], name

    def test_triple_minimal_closed_form(self):
        g = reference_graphs()["triple_minimal"]
        base = set(range(1, 8))  # nonempty subsets of {1,2,3}
        up = {
            m
            for i in (1, 2, 3)
            for j in (4, 6)
            for m in range(1 << 6)
            if m & ((1 << (i - 1)) | (1 << (j - 1))) == ((1 << (i - 1)) | (1 << (j - 1)))
        }
        assert set(true_collection(g).masks.tolist()) == base | up

    def test_unique_minimal_closed_form(self):
        g = reference_graphs()["unique_minimal"]
        closed = {0b0001}
        closed |= {m for m in range(16) if m & 0b0011 == 0b0011}
        closed |= {m for m in range(16) if m & 0b1001 == 0b1001}
        assert set(true_collection(g).masks.tolist()) == closed

    def test_edgeless_graph(self):
        g = Dag(3)
        assert len(true_collection(g)) == 8

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            Dag(25)

    def test_above_twenty_covariates(self):
        # X7..X20 touch no edge, so the 92 of 128 settings of the other seven
        # indices that separate Y from T each stand for 2^14 members
        g = model_graph(3, 21)
        coll = true_collection(g)
        assert len(coll) == 736 << 11
        rng = np.random.default_rng(21)
        for mask in rng.integers(0, 1 << 21, size=40).tolist():
            assert coll.member_array[mask] == d_separated(g, "Y", "T", mask), mask

    def test_matches_path_enumeration(self):
        for name in ("collider_child", "confounded_child", "deep_collider"):
            g = reference_graphs()[name]
            expect = {
                m
                for m in range(1 << g.p)
                if path_dsep(g, "Y", "T", _labels(m, g.p))
            }
            assert set(true_collection(g).masks.tolist()) == expect, name

    @settings(max_examples=60, deadline=None)
    @given(_random_dags(max_p=6))
    def test_matches_path_enumeration_random(self, g):
        member = true_collection(g).member_array
        expect = [path_dsep(g, "Y", "T", _labels(m, g.p)) for m in range(1 << g.p)]
        assert member.tolist() == expect, g.edges()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_split_dags(max_p=9))
    def test_matches_path_enumeration_off_the_component(self, g):
        # the sweep holds only the X nodes joined to Y and T; the others,
        # isolated or in a part of their own, are repeated in afterwards
        member = true_collection(g).member_array
        expect = [path_dsep(g, "Y", "T", _labels(m, g.p)) for m in range(1 << g.p)]
        assert member.tolist() == expect, g.edges()

    def test_every_x_off_the_component(self):
        # the edge T -> Y is a path no set blocks
        for edges in ([("T", "Y")], [("T", "Y"), ("X1", "X2"), ("X3", "X2")]):
            for p in (3, 8):
                assert len(true_collection(Dag(p, edges))) == 0, (p, edges)

    def test_y_and_t_apart(self):
        # Y's part and T's part share no node, so every subset is sufficient
        for p in (4, 7):
            g = Dag(p, [("X1", "Y"), ("X2", "X1"), ("T", "X3"), ("X3", "X4")])
            assert len(true_collection(g)) == 1 << p

    @pytest.mark.parametrize("p", [2, 3, 5, 6, 7, 9, 11])
    def test_confounders_with_the_rest_off(self, p):
        # each hub confounds T and Y, so a member holds every hub; X1 -> X3
        # is a part of its own and every other X touches nothing.  From
        # p = 9 on, off indices lie below, between and above kept ones past
        # bit 6, so whole words are repeated in between differing ones.
        hubs = {2, p} | ({7} if p >= 7 else set()) | ({10} if p >= 11 else set())
        edges = [e for h in sorted(hubs) for e in ((f"X{h}", "T"), (f"X{h}", "Y"))]
        if p >= 4:
            edges += [("X1", "X3")]
        coll = true_collection(Dag(p, edges))
        need = sum(1 << (h - 1) for h in hubs)
        assert coll.masks.tolist() == [m for m in range(1 << p) if m & need == need]

    def test_dense_design_member_count(self):
        # 154 was counted with an independent per-mask d-separation loop;
        # enumerating the Y-T paths of this graph does not finish in 44 s.
        g, _, _ = random_design(np.random.default_rng(0), 12, x_edge_prob=0.7)
        assert len(true_collection(g)) == 154


class TestPopulationSpec:
    def test_validation(self):
        good = np.eye(2)
        with pytest.raises(ValueError):
            PopulationSpec(
                sigma0=np.array([[1.0, 0.5], [0.4, 1.0]]),
                sigma1=good,
                beta_y=np.eye(2),
                beta_t=np.eye(2),
                provenance=None,
            )

    def test_zero_weights_zero_set_everywhere(self):
        g = Dag(3, [("T", "X1"), ("X1", "Y"), ("X2", "Y")])
        spec = linear_sem_population(
            g, weights={("T", "X1"): 0.0, ("X1", "Y"): 0.0, ("X2", "Y"): 0.0}
        )
        assert population_values(spec).max() < 1e-10

    def test_single_fork_zero_set(self):
        g = Dag(2, [("T", "X1"), ("X1", "Y")])
        spec = linear_sem_population(g)
        zero = set(np.flatnonzero(population_values(spec) < 1e-10).tolist())
        assert zero == {0b01, 0b11}

    def test_invalid_mechanisms(self):
        with pytest.raises(InvalidMechanism):
            linear_sem_population(Dag(1, [("T", "Y")]))
        with pytest.raises(InvalidMechanism):
            linear_sem_population(Dag(2, [("Y", "X1"), ("X2", "T")]))
        with pytest.raises(InvalidMechanism):
            linear_sem_population(Dag(2, [("X1", "T"), ("T", "X2"), ("X2", "Y")]))

    def test_unique_minimal_design_bridge(self):
        g = reference_graphs()["unique_minimal"]
        spec = linear_sem_population(g)
        zero = set(np.flatnonzero(population_values(spec) < 1e-10).tolist())
        assert zero == set(true_collection(spec.provenance).masks.tolist())
        # rooting X->T edges leaves this design's collection unchanged
        assert zero == set(true_collection(g).masks.tolist())

    def test_reversed_treatment_edge_keeps_its_weight(self):
        # an X -> T edge is rooted as T -> X with the weight given for it
        weights = {("X1", "Y"): -0.4, ("X2", "Y"): 1.3, ("X1", "X2"): 0.8}
        noise = {"X1": (1.0, 2.0)}
        sink = linear_sem_population(
            Dag(2, [("X1", "T"), ("X1", "Y"), ("X2", "Y"), ("X1", "X2")]),
            {("X1", "T"): 0.7, **weights}, noise,
        )
        root = linear_sem_population(
            Dag(2, [("T", "X1"), ("X1", "Y"), ("X2", "Y"), ("X1", "X2")]),
            {("T", "X1"): 0.7, **weights}, noise,
        )
        for name in ("sigma0", "sigma1", "beta_y", "beta_t"):
            assert np.array_equal(getattr(sink, name), getattr(root, name)), name
        assert sink.provenance.edges() == root.provenance.edges()
        # and the weight is used: the unit weight gives another design
        unit = linear_sem_population(
            Dag(2, [("T", "X1"), ("X1", "Y"), ("X2", "Y"), ("X1", "X2")]), weights, noise
        )
        assert not np.array_equal(sink.beta_t, unit.beta_t)

    def test_random_design_bridge(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g, weights, noise = random_design(rng, p=5)
            spec = linear_sem_population(g, weights, noise)
            zero = set(np.flatnonzero(population_values(spec) < 1e-10).tolist())
            assert zero == set(true_collection(spec.provenance).masks.tolist())
