import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.dag_oracle import (
    Dag,
    PopulationSpec,
    d_separated,
    linear_sem_population,
    markov_boundary,
    random_design,
    reference_graphs,
    true_collection,
)
from adjustkit.criterion import population_f
from adjustkit.data_model import SubsetId
from adjustkit.errors import CyclicGraph, DimensionTooLarge, InvalidMechanism
from adjustkit.sim_bench import model_graph


# Independent reference: literal path enumeration.  A path is blocked by Z
# when some non-collider on it lies in Z, or some collider has neither
# itself nor any descendant in Z.
def _descendants(g, node):
    out, stack = set(), [node]
    while stack:
        v = stack.pop()
        for c in g.children_of(v):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _all_simple_paths(g, u, v):
    nodes = ["Y", "T"] + [f"X{i}" for i in range(1, g.p + 1)]
    nbrs = {a: set(g.parents_of(a)) | set(g.children_of(a)) for a in nodes}
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
            parents = set(g.parents_of(w))
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
        again = Dag.from_text(g.to_text())
        assert again == g

    def test_from_text_cycle(self):
        with pytest.raises(CyclicGraph):
            Dag.from_text("X1 -> X2\nX2 -> X1\n")

    def test_immutability(self):
        g = Dag(2, [("X1", "Y")])
        with pytest.raises(AttributeError):
            g.p = 5

    def test_parents_children(self):
        g = Dag(3, [("X1", "Y"), ("X2", "Y"), ("Y", "X3")])
        assert g.parents_of("Y") == ("X1", "X2")
        assert g.children_of("Y") == ("X3",)


class TestDSeparation:
    def test_triple_minimal_examples(self):
        g = reference_graphs()["triple_minimal"]
        assert d_separated(g, "Y", "T", (1,)) is True
        assert d_separated(g, "Y", "T", (1, 5)) is False

    def test_single_fork(self):
        g = Dag(1, [("X1", "Y"), ("X1", "T")])
        assert d_separated(g, "Y", "T") is False
        assert d_separated(g, "Y", "T", (1,)) is True

    def test_outcome_collider_examples(self):
        g = reference_graphs()["outcome_collider"]
        assert d_separated(g, "Y", "T", (1, 4)) is True
        assert d_separated(g, "Y", "T", (1,)) is False

    def test_z_accepts_mask_and_iterable(self):
        g = reference_graphs()["triple_minimal"]
        assert d_separated(g, "Y", "T", 0b000001) == d_separated(g, "Y", "T", (1,))

    @pytest.mark.parametrize("z", [(7,), (0,), 1 << 6, -1, SubsetId(1 << 6, 7)])
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
                mask = int(rng.integers(0, 1 << p))
                u, v = ("Y", "T") if rng.random() < 0.7 else ("T", "Y")
                assert d_separated(g, u, v, mask) == path_dsep(
                    g, u, v, _labels(mask, p)
                ), (edges, u, v, mask)


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
        assert set(true_collection(g).sorted_masks()) == base | up

    def test_unique_minimal_closed_form(self):
        g = reference_graphs()["unique_minimal"]
        closed = {0b0001}
        closed |= {m for m in range(16) if m & 0b0011 == 0b0011}
        closed |= {m for m in range(16) if m & 0b1001 == 0b1001}
        assert set(true_collection(g).sorted_masks()) == closed

    def test_edgeless_graph(self):
        g = Dag(3)
        assert len(true_collection(g)) == 8

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            Dag(25)

    @pytest.mark.filterwarnings("ignore::adjustkit.errors.LargeDimension")
    def test_above_twenty_covariates(self):
        # X7..X20 touch no edge, so the 92 of 128 settings of the other seven
        # indices that separate Y from T each stand for 2^14 members
        g = model_graph(3, 21)
        coll = true_collection(g)
        assert len(coll) == 736 << 11
        rng = np.random.default_rng(21)
        for mask in rng.integers(0, 1 << 21, size=40).tolist():
            assert (mask in coll) == d_separated(g, "Y", "T", mask), mask
        assert markov_boundary(g, "Y").indices == (1, 3, 6, 21)
        assert markov_boundary(g, "T").indices == (2, 5)

    def test_matches_path_enumeration(self):
        for name in ("collider_child", "confounded_child", "deep_collider"):
            g = reference_graphs()[name]
            expect = {
                m
                for m in range(1 << g.p)
                if path_dsep(g, "Y", "T", _labels(m, g.p))
            }
            assert set(true_collection(g).sorted_masks()) == expect, name

    @settings(max_examples=60, deadline=None)
    @given(_random_dags(max_p=6))
    def test_matches_path_enumeration_random(self, g):
        member = true_collection(g).member_array
        expect = [path_dsep(g, "Y", "T", _labels(m, g.p)) for m in range(1 << g.p)]
        assert member.tolist() == expect, g.edges()

    def test_dense_design_member_count(self):
        # 154 was counted with an independent per-mask d-separation loop;
        # enumerating the Y-T paths of this graph does not finish in 44 s.
        g, _, _ = random_design(np.random.default_rng(0), 12, x_edge_prob=0.7)
        assert len(true_collection(g)) == 154


class TestMarkovBoundary:
    def test_reference_boundaries(self):
        refs = reference_graphs()
        fig1 = refs["triple_minimal"]
        assert markov_boundary(fig1, "Y").indices == (1, 4)
        assert markov_boundary(fig1, "T").indices == (2, 6)
        figa = refs["unique_minimal"]
        assert markov_boundary(figa, "Y").indices == (1, 2)
        assert markov_boundary(figa, "T").indices == (1, 4)

    def test_isolated_node(self):
        g = Dag(2, [("X1", "Y")])
        assert markov_boundary(g, "T").indices == ()

    @settings(max_examples=40, deadline=None)
    @given(_random_dags(max_p=5), st.data())
    def test_definition_by_brute_force(self, g, data):
        # The boundary separates the node from every X outside it, and every
        # X subset that does so contains it.
        node = data.draw(st.sampled_from(["Y", "T"] + [f"X{k}" for k in range(1, g.p + 1)]))
        universe = [k for k in range(1, g.p + 1) if f"X{k}" != node]

        def separates(cset):
            z = [f"X{k}" for k in cset]
            return all(
                path_dsep(g, node, f"X{k}", z) for k in universe if k not in cset
            )

        separating = [
            set(c)
            for size in range(len(universe) + 1)
            for c in itertools.combinations(universe, size)
            if separates(c)
        ]
        got = set(markov_boundary(g, node).indices)
        assert got in separating
        assert all(got <= c for c in separating), (g.edges(), node)


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
        vals = [
            population_f(spec.sigma0, spec.sigma1, spec.beta_y, spec.beta_t, m)
            for m in range(8)
        ]
        assert max(vals) < 1e-10

    def test_single_fork_zero_set(self):
        g = Dag(2, [("T", "X1"), ("X1", "Y")])
        spec = linear_sem_population(g)
        zero = {
            m
            for m in range(4)
            if population_f(spec.sigma0, spec.sigma1, spec.beta_y, spec.beta_t, m)
            < 1e-10
        }
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
        zero = {
            m
            for m in range(1 << spec.p)
            if population_f(spec.sigma0, spec.sigma1, spec.beta_y, spec.beta_t, m)
            < 1e-10
        }
        assert zero == set(true_collection(spec.provenance).sorted_masks())
        # rooting X->T edges leaves this design's collection unchanged
        assert zero == set(true_collection(g).sorted_masks())

    def test_random_design_bridge(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g, weights, noise = random_design(rng, p=5)
            spec = linear_sem_population(g, weights, noise)
            zero = {
                m
                for m in range(1 << 5)
                if population_f(
                    spec.sigma0, spec.sigma1, spec.beta_y, spec.beta_t, m
                )
                < 1e-10
            }
            assert zero == set(true_collection(spec.provenance).sorted_masks())
