import copy
import pickle
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.data_model import Dataset, by_size, indices_mask, mask_indices, subcube
from adjustkit.dag_oracle import Dag, linear_sem_population, true_collection
from adjustkit import set_analysis
from adjustkit.errors import ContradictoryHints
from adjustkit.set_analysis import (
    MAX_BLOCK,
    AdjustmentCollection,
    collider_blocks,
    collider_indices,
    estimate_ate,
    locally_minimal,
    noncollider_indices,
    prune_hints,
    structure_report,
    upward_closure,
)
from adjustkit.sim_bench import ModelSpec, generate_model, model_graph
from graph_fixtures import random_design, reference_graphs


def _coll(p, masks):
    return AdjustmentCollection.from_masks(p, masks)


def _full(p):
    return AdjustmentCollection(p, np.ones(1 << p, dtype=bool))


class TestCollection:
    def test_from_masks_dedups(self):
        c = _coll(3, [5, 1, 5, 0])
        assert c.masks.tolist() == [0, 1, 5]
        assert c.masks.dtype == np.uint32
        assert len(c) == 3
        for dtype in (np.int64, np.uint32, np.int8):
            arr = _coll(3, np.array([5, 1, 5, 0], dtype=dtype))
            assert arr.masks.tolist() == [0, 1, 5]

    @pytest.mark.parametrize("masks", [[1.7, 2.2], [True, False], ["3"], np.array([1.0])])
    def test_non_integer_masks_refused(self, masks):
        # no coercion: 1.7 is not mask 1, True is not mask 1, "3" is not mask 3
        with pytest.raises(ValueError, match="masks must be integers"):
            _coll(3, masks)
        assert len(_coll(3, [])) == 0

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            _coll(2, [4])
        with pytest.raises(ValueError):
            _coll(2, np.array([0, 4], dtype=np.uint32))

    def test_negative_masks(self):
        with pytest.raises(ValueError):
            _coll(2, [-1])
        with pytest.raises(ValueError):
            _coll(2, np.array([1, -1], dtype=np.int64))

    def test_masks_by_size(self):
        c = _coll(3, [0b111, 0b010, 0b001])
        sizes = [len(mask_indices(m)) for m in by_size(c.masks).tolist()]
        assert sizes == sorted(sizes)

    def test_member_array_roundtrip(self):
        c = _coll(3, [0, 5, 7])
        back = AdjustmentCollection(3, c.member_array)
        assert np.array_equal(back.masks, c.masks)
        assert not back.member_array.flags.writeable
        with pytest.raises(ValueError, match="length 2"):
            AdjustmentCollection(2, c.member_array)


class TestWordStore:
    """A collection is its words, however it was built: below p = 6 that is
    one word whose bits past 2^p are 0, or len, n_members and the upward
    count would take them for members."""

    @staticmethod
    def _built(p):
        rng = np.random.default_rng(p)
        return {
            "constructor": AdjustmentCollection(p, rng.random(1 << p) < 0.5),
            "from_masks": _coll(p, rng.integers(0, 1 << p, 1 << (p - 1))),
            "true_collection": true_collection(random_design(rng, p)[0]),
            # Y touches no edge, so the sweep holds no index and every
            # mask is a member
            "true_collection_full": true_collection(Dag(p, [("X1", "T")])),
            "upward_closure": upward_closure(p, rng.integers(0, 1 << p, 2)),
        }

    @pytest.mark.parametrize("how", ["constructor", "from_masks", "true_collection",
                                     "true_collection_full", "upward_closure"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_words_as_built(self, p, how):
        c = self._built(p)[how]
        assert c.words.dtype == np.dtype("<u8") and c.words.shape == (1,)
        assert int(c.words[0]) >> (1 << p) == 0
        ref = AdjustmentCollection(p, c.member_array)
        assert np.array_equal(c.words, ref.words)
        assert len(c) == len(ref) and np.array_equal(c.masks, ref.masks)
        assert structure_report(c).to_dict() == structure_report(ref).to_dict()
        assert not c.words.flags.writeable and not c.member_array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.words[0] = 0

    @pytest.mark.parametrize("copied", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("p", [3, 8])
    def test_copies_keep_words_read_only(self, p, copied):
        # a forked child sends its results back pickled
        for c in self._built(p).values():
            d = copied(c)
            assert not d.words.flags.writeable
            assert d.p == c.p and np.array_equal(d.words, c.words)
            assert len(d) == len(c) and np.array_equal(d.masks, c.masks)


def _moral_separated(edges, z: set) -> bool:
    """Whether the X nodes named in z separate Y from T in the moral graph
    of the ancestors of {Y, T} and z, which holds exactly when they
    d-separate them (Lauritzen et al. 1990; van der Zander et al. 2019)."""
    parents = {}
    for a, b in edges:
        parents.setdefault(b, set()).add(a)
    ancestral, stack = set(), ["Y", "T", *z]
    while stack:
        v = stack.pop()
        if v not in ancestral:
            ancestral.add(v)
            stack.extend(parents.get(v, ()))
    # every parent of an ancestral node is ancestral; marry co-parents
    adjacent = {v: set() for v in ancestral}
    for v in ancestral:
        ps = parents.get(v, set())
        for a in ps:
            adjacent[a].add(v)
            adjacent[v].add(a)
        for a, b in combinations(ps, 2):
            adjacent[a].add(b)
            adjacent[b].add(a)
    seen, stack = {"Y"}, ["Y"]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen and w not in z:
                seen.add(w)
                stack.append(w)
    return "T" not in seen


def _by_size(masks):
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def _subsets(m):
    return [s for s in range(m + 1) if s & m == s]


class TestAgainstDefinitions:
    """Each analysis against its docstring definition, written over Python sets."""

    @staticmethod
    def _upward_closed(p, members):
        full = (1 << p) - 1
        return {
            a for a in members
            if all(a | s in members for s in _subsets(full & ~a))
        }

    @staticmethod
    def _noncolliders(p, members, closed):
        out = set()
        for i in range(p):
            bit = 1 << i
            for a in members:
                if a & bit and (
                    a ^ bit not in members
                    or (a in closed and a ^ bit in members and a ^ bit not in closed)
                ):
                    out.add(i + 1)
        return tuple(sorted(out))

    @staticmethod
    def _collider_blocks(p, members):
        found = []
        for b in range(1, 1 << p):
            if bin(b).count("1") > MAX_BLOCK:
                continue
            if any(
                a | b not in members
                and all(a | c in members for c in _subsets(b) if c != b)
                for a in members
            ):
                found.append(b)
        return _by_size(found)

    @given(
        st.integers(1, 7).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.one_of(
                    st.lists(st.booleans(), min_size=1 << p, max_size=1 << p),
                    st.integers(0, 2**32 - 1).map(
                        lambda seed: true_collection(
                            random_design(np.random.default_rng(seed), p)[0]
                        ).member_array.tolist()
                    ),
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_analysis_matches_definitions(self, args):
        self._check(*args)

    @pytest.mark.parametrize("p", [6, 7, 8, 9])
    def test_packed_words_match_definitions(self, p):
        # 64 subsets share a word, so from p = 8 on the halves for bit
        # i >= 6 span more than one word
        rng = np.random.default_rng(p)
        cases = [rng.random(1 << p) < density for density in (0.5, 0.9)]
        cases += [true_collection(random_design(rng, p)[0]).member_array for _ in range(2)]
        for bits in cases:
            self._check(p, bits.tolist())

    def _check(self, p, bits):
        c = AdjustmentCollection(p, np.array(bits, dtype=bool))
        members = {m for m, b in enumerate(bits) if b}
        assert c.masks.tolist() == sorted(members) and len(c) == len(members)
        assert by_size(c.masks).tolist() == _by_size(members)

        minimal = [a for a in members if not any(s in members for s in _subsets(a) if s != a)]
        assert locally_minimal(c).tolist() == _by_size(minimal)

        closed = self._upward_closed(p, members)
        upward = set_analysis._unpack(set_analysis._superset_and_transform(c.words, p), p)
        assert set(np.flatnonzero(upward).tolist()) == closed
        assert mask_indices(noncollider_indices(c)) == self._noncolliders(p, members, closed)
        blocks = collider_blocks(c).tolist()
        assert blocks == self._collider_blocks(p, members)

        rep = structure_report(c)
        assert rep.n_upward_closed == len(closed)
        assert rep.unique_minimal == (minimal[0] if len(minimal) == 1 else None)
        union = 0
        for b in blocks:
            union |= b
        assert rep.colliders == collider_indices(c) == union
        assert rep.refined_colliders == union & ~rep.noncolliders


def _packed_ranks(masks, keep):
    """Each mask's bits inside `keep`, moved down to their ranks in `keep`."""
    out = np.zeros_like(masks)
    for r, i in enumerate(mask_indices(keep)):
        out |= (masks >> (i - 1) & 1) << r
    return out


_FREE = {
    "any": lambda f, p: f,
    "none": lambda f, p: 0,
    "all": lambda f, p: (1 << p) - 1,
    "low": lambda f, p: f & 0b111111,
    "high": lambda f, p: f & ~0b111111,
}


@st.composite
def _collections_with_free_indices(draw):
    """(p, free, member): a bitmap read at `m & ~free` for every mask m, so
    flipping an index of `free` never changes membership."""
    p = draw(st.integers(1, 10))
    free = _FREE[draw(st.sampled_from(sorted(_FREE)))](draw(st.integers(0, (1 << p) - 1)), p)
    fill = draw(st.sampled_from(["empty", "full", "sparse", "half", "dense", "closure"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if fill == "closure":
        bitmap = upward_closure(p, rng.integers(0, 1 << p, 3)).member_array
    else:
        density = {"empty": 0.0, "full": 1.0, "sparse": 0.1, "half": 0.5, "dense": 0.9}[fill]
        bitmap = rng.random(1 << p) < density if 0 < density < 1 else np.full(1 << p, density > 0)
    return p, free, bitmap[np.arange(1 << p) & ~free]


class TestFreeIndices:
    """The report reads a collection with free indices off the collection
    over the other indices; it must give what the passes give on the whole."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_collections_with_free_indices())
    def test_report_matches_the_whole_collection(self, args):
        p, free, member = args
        c = AdjustmentCollection(p, member)
        rep = structure_report(c)
        for got, expect in ((rep.locally_minimal, locally_minimal(c)),
                            (rep.collider_blocks, collider_blocks(c))):
            assert got.dtype == expect.dtype and got.tolist() == expect.tolist()
        assert rep.noncolliders == noncollider_indices(c)
        upward = set_analysis._superset_and_transform(c.words, p)
        assert rep.n_upward_closed == int(np.bitwise_count(upward).sum())
        assert rep.n_members == len(c) == int(member.sum())
        assert not free & (rep.noncolliders | rep.colliders)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(0, (1 << p) - 1), st.integers(0, 2**32 - 1))))
    def test_spread_and_squeeze(self, args):
        p, keep, seed = args
        small = np.random.default_rng(seed).random(1 << keep.bit_count()) < 0.5
        words = set_analysis._pack(small)
        spread = set_analysis._spread(words, p, keep)
        assert spread.shape == (max(1, (1 << p) >> 6),)
        if p < 6:
            assert int(spread[0]) >> (1 << p) == 0
        expect = small[_packed_ranks(np.arange(1 << p), keep)]
        assert np.array_equal(set_analysis._unpack(spread, p), expect)
        assert np.array_equal(set_analysis._squeeze(spread, p, keep), words)
        # on any words, squeezing keeps the masks inside `keep`, in order
        big = np.random.default_rng(seed + 1).random(1 << p) < 0.5
        inside = np.flatnonzero(np.arange(1 << p) & ~keep == 0)
        squeezed = set_analysis._squeeze(set_analysis._pack(big), p, keep)
        assert np.array_equal(squeezed, set_analysis._pack(big[inside]))


class TestLocallyMinimal:
    def test_triple_minimal(self):
        c = true_collection(reference_graphs()["triple_minimal"])
        assert {mask_indices(m) for m in locally_minimal(c).tolist()} == {(1,), (2,), (3,)}
        assert structure_report(c).intersection == 0

    def test_unique_minimal_graph(self):
        c = true_collection(reference_graphs()["unique_minimal"])
        assert {mask_indices(m) for m in locally_minimal(c).tolist()} == {(1,)}
        assert mask_indices(structure_report(c).intersection) == (1,)

    def test_empty_set_member(self):
        c = _coll(3, [0, 1, 3])
        assert locally_minimal(c).tolist() == [0]

    def test_empty_collection(self):
        assert locally_minimal(_coll(3, [])).tolist() == []
        assert structure_report(_coll(3, [])).intersection is None

    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(3, 12),
        edge_prob=st.floats(0.1, 0.7),
    )
    @settings(max_examples=100, deadline=None)
    def test_oracle_minimal_by_one_removal(self, seed, p, edge_prob):
        # a d-separator from which no single node can be removed is minimal
        # (Tian, Paz & Pearl 1998), so on an oracle collection the locally
        # minimal members are those with no member one element smaller
        g, _, _ = random_design(np.random.default_rng(seed), p, x_edge_prob=edge_prob)
        c = true_collection(g)
        member = c.member_array
        masks = np.arange(member.size)
        one_smaller = np.zeros_like(member)
        for i in range(p):
            has = (masks >> i & 1).astype(bool)
            one_smaller[has] |= member[masks[has] ^ (1 << i)]
        expected = np.flatnonzero(member & ~one_smaller)
        assert sorted(locally_minimal(c).tolist()) == expected.tolist()

    @pytest.mark.parametrize("graph", ["model3-p20", "0-p16", "1-p17", "2-p18"])
    def test_minimal_separators_in_moral_graph(self, graph):
        # checked by a second engine built from the edge list alone: each
        # locally minimal set separates Y from T in the moralized ancestral
        # graph and no set one element smaller does (Tian, Paz & Pearl 1998)
        seed, p = graph.split("-p")
        if seed == "model3":
            g = model_graph(3, int(p))
        else:
            g = random_design(np.random.default_rng(int(seed)), int(p))[0]
        c = true_collection(g)
        edges = g.edges()

        def names(mask):
            return {f"X{i + 1}" for i in range(g.p) if mask >> i & 1}

        for m in np.random.default_rng(0).integers(0, 1 << g.p, 300).tolist():
            assert _moral_separated(edges, names(m)) == c.member_array[m], m
        lm = locally_minimal(c).tolist()
        assert lm
        for s in lm:
            z = names(s)
            assert _moral_separated(edges, z), s
            for x in z:
                assert not _moral_separated(edges, z - {x}), (s, x)

    def test_pairwise_non_nested(self):
        for g in reference_graphs().values():
            lm = locally_minimal(true_collection(g)).tolist()
            for a in lm:
                for b in lm:
                    if a != b:
                        assert a & b != a, (a, b)

    @given(
        st.integers(1, 5).flatmap(
            lambda p: st.tuples(
                st.just(p), st.sets(st.integers(0, (1 << p) - 1), min_size=1)
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_every_member_contains_a_minimal(self, args):
        p, masks = args
        c = _coll(p, sorted(masks))
        lm = locally_minimal(c).tolist()
        for m in c.masks.tolist():
            assert any(m & q == q for q in lm)


class TestUniqueMinimal:
    def test_present(self):
        c = true_collection(reference_graphs()["unique_minimal"])
        u = structure_report(c).unique_minimal
        assert u is not None and mask_indices(u) == (1,)

    def test_absent(self):
        c = true_collection(reference_graphs()["triple_minimal"])
        assert structure_report(c).unique_minimal is None

    def test_full_collection(self):
        assert structure_report(_full(3)).unique_minimal == 0

    def test_intersection_bridge(self):
        # unique minimal exists exactly when the intersection is a member
        for g in reference_graphs().values():
            c = true_collection(g)
            rep = structure_report(c)
            if c.member_array[rep.intersection]:
                assert rep.unique_minimal == rep.intersection
            else:
                assert rep.unique_minimal is None


class TestUpwardClosure:
    def test_closure_of_singleton(self):
        c = upward_closure(3, [0b001])
        assert set(c.masks.tolist()) == {m for m in range(8) if m & 1}

    def test_idempotent(self):
        once = upward_closure(4, [3, 8])
        again = upward_closure(4, once.masks)
        assert np.array_equal(again.masks, once.masks)

    def test_upward_closed_members_unique_minimal(self):
        c = true_collection(reference_graphs()["unique_minimal"])
        expect = {m for m in range(16) if m & 0b0011 == 0b0011}
        expect |= {m for m in range(16) if m & 0b1001 == 0b1001}
        assert structure_report(c).n_upward_closed == len(expect)

    def test_full_collection_everything_upward(self):
        assert structure_report(_full(3)).n_upward_closed == 8

    def test_empty_only_member(self):
        assert structure_report(_coll(2, [0])).n_upward_closed == 0


class TestColliderCalls:
    def test_noncolliders(self):
        refs = reference_graphs()
        c = true_collection(refs["collider_child"])
        assert 3 in mask_indices(noncollider_indices(c))
        c = true_collection(refs["confounded_child"])
        assert 3 not in mask_indices(noncollider_indices(c))
        # full universe: removing an index never breaks membership
        assert mask_indices(noncollider_indices(_full(3))) == ()

    def test_colliders(self):
        refs = reference_graphs()
        c = true_collection(refs["unique_minimal"])
        assert mask_indices(collider_indices(c)) == (3,)
        assert mask_indices(structure_report(c).refined_colliders) == (3,)
        # conditioning a collider's descendant opens the path, so index 2
        # (whose children 4 and 5 feed the outcome) never certifies here
        c = true_collection(refs["double_collider"])
        assert mask_indices(collider_indices(c)) == (5,)
        assert mask_indices(structure_report(c).refined_colliders) == (5,)
        c = true_collection(refs["outcome_collider"])
        assert mask_indices(collider_indices(c)) == ()

    def test_full_collection_no_colliders(self):
        assert mask_indices(collider_indices(_full(3))) == ()

    def test_collider_blocks(self):
        c = true_collection(reference_graphs()["unique_minimal"])
        blocks = collider_blocks(c)
        assert any(mask_indices(b) == (3,) for b in blocks.tolist())

    def test_structure_report_roundtrip(self):
        c = true_collection(reference_graphs()["unique_minimal"])
        rep = structure_report(c)
        assert mask_indices(rep.unique_minimal) == (1,)
        assert mask_indices(rep.refined_colliders) == (3,)
        d = rep.to_dict()
        assert d["unique_minimal"] == [1]
        assert d["colliders"] == [3]
        assert d["n_members"] == 7

    def test_structure_report_finds_minimal_members_once(self, monkeypatch):
        import adjustkit.set_analysis as sa

        calls = []

        def counted(c):
            calls.append(c)
            return locally_minimal(c)

        monkeypatch.setattr(sa, "locally_minimal", counted)
        for g in reference_graphs().values():
            c = true_collection(g)
            calls.clear()
            rep = structure_report(c)
            assert len(calls) == 1
            inter = (1 << c.p) - 1
            for s in locally_minimal(c).tolist():
                inter &= s
            assert rep.intersection == inter
            lm = locally_minimal(c).tolist()
            assert rep.unique_minimal == (lm[0] if len(lm) == 1 else None)

    def test_structure_report_flags(self):
        rep = structure_report(_coll(2, [1]))
        assert "full set not a member" in rep.flags
        rep = structure_report(_coll(2, []))
        assert "empty collection" in rep.flags


class TestPruneHints:
    def test_known_fork_halves(self):
        assert prune_hints(4, known_forks=0b0001) == (0b0001, 0b1110)

    def test_collider_excluded(self):
        assert prune_hints(3, pure_colliders=0b100) == (0, 0b011)

    def test_no_hints_full(self):
        assert prune_hints(4) == (0, 0b1111)

    def test_contradiction(self):
        with pytest.raises(ContradictoryHints):
            prune_hints(3, known_forks=1, pure_colliders=1)
        with pytest.raises(ContradictoryHints):
            prune_hints(3, pure_colliders=2, pure_noncolliders=2)

    def test_out_of_range_hint(self):
        with pytest.raises(ValueError):
            prune_hints(3, known_forks=0b1000)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_hints(self, p, data):
        role = data.draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
        forks, cols, noncols = (
            sum(1 << i for i, r in enumerate(role) if r == k) for k in (1, 2, 3)
        )
        keep = forks | noncols
        want = [m for m in range(1 << p) if m & keep == keep and not m & cols]
        got = subcube(*prune_hints(
            p, known_forks=forks, pure_colliders=cols, pure_noncolliders=noncols
        ))
        assert got.dtype == np.uint32
        assert got.tolist() == want


class TestEstimateAte:
    def test_identical_outcomes_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        t = np.repeat([0, 1], 25)
        y = np.ones(50) * 4.2
        d = Dataset(t=t, y=y, x=x)
        assert estimate_ate(d, 0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift(self):
        rng = np.random.default_rng(3)
        n = 800
        t = (rng.random(n) < 0.5).astype(np.int64)
        x = rng.normal(size=(n, 2))
        y = x[:, 0] + 2.0 * t + 0.1 * rng.normal(size=n)
        d = Dataset(t=t, y=y, x=x)
        a = indices_mask(2, [1])
        assert abs(estimate_ate(d, a, a) - 2.0) < 0.2

    def test_empty_sets_arm_mean_difference(self):
        rng = np.random.default_rng(5)
        n = 100
        t = np.repeat([0, 1], n // 2)
        y = rng.normal(size=n)
        d = Dataset(t=t, y=y, x=rng.normal(size=(n, 2)))
        got = estimate_ate(d, 0, 0)
        expect = y[t == 1].mean() - y[t == 0].mean()
        assert got == pytest.approx(expect, abs=1e-12)

    def test_model_one_recovers_effect(self):
        model = generate_model(ModelSpec(1, n=800, seed=11))
        a = indices_mask(model.dataset.p, [2, 3])
        got = estimate_ate(model.dataset, a, a)
        assert abs(got - 0.3) < 0.3

    def test_full_sets_memory_bounded(self):
        # the pairwise difference array is chunked by donors x columns, so
        # its size does not grow with the adjustment set
        d = generate_model(ModelSpec(1, n=2000, p=17, seed=0)).dataset
        full = (1 << d.p) - 1
        tracemalloc.start()
        try:
            estimate_ate(d, full, full)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak / 2**20

    @pytest.mark.parametrize("mask", [-1, 1 << 10])
    def test_mask_outside_universe_rejected(self, monkeypatch, mask):
        # both used to be accepted: 1 << p read as the empty set, -1 as the full set
        def split(*args):
            raise AssertionError("the arms were split")

        monkeypatch.setattr(set_analysis, "split_by_treatment", split)
        d = generate_model(ModelSpec(1, n=400, seed=0)).dataset
        for a0, a1 in ((mask, 0), (0, mask)):
            with pytest.raises(ValueError, match="out of range"):
                estimate_ate(d, a0, a1)


class TestLinearSemBridge:
    def test_report_consistent_with_design(self):
        g = reference_graphs()["unique_minimal"]
        spec = linear_sem_population(g)
        c = true_collection(spec.provenance)
        rep = structure_report(c)
        assert mask_indices(rep.unique_minimal) == (1,)
        assert mask_indices(rep.refined_colliders) == (3,)
