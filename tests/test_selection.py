"""Ridge-ratio selector: sort order, ratios, cutoff, and end-to-end runs."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.criterion import criterion_table
from adjustkit.selection import (
    SelectorConfig,
    default_cn,
    ridge_ratios,
    select,
)
from adjustkit.set_analysis import prune_hints
from adjustkit.sim_bench import ModelSpec, generate_model


def _table(p, masks, values, n=400):
    return SimpleNamespace(
        p=p,
        masks=np.asarray(masks, dtype=np.uint32),
        values=np.asarray(values, dtype=np.float64),
        metadata={"n": n},
    )


class TestDefaultCn:
    def test_formula(self):
        assert default_cn(400) == pytest.approx(0.2 * math.log(400) / 20.0, abs=1e-15)

    def test_shrinks_with_n(self):
        assert default_cn(1600) < default_cn(400) < default_cn(100)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            default_cn(1)


class TestSelectorConfig:
    def test_defaults(self):
        cfg = SelectorConfig()
        assert cfg.c0 == 0.6
        assert cfg.cn == 0.01

    @pytest.mark.parametrize("c0", [0.0, 1.0, -0.2, 1.5])
    def test_c0_open_interval(self, c0):
        with pytest.raises(ValueError):
            SelectorConfig(c0=c0)

    @pytest.mark.parametrize("cn", [0.0, -0.01, math.inf, math.nan])
    def test_cn_positive(self, cn):
        with pytest.raises(ValueError):
            SelectorConfig(cn=cn)

    def test_for_sample_uses_default_cn(self):
        cfg = SelectorConfig.for_sample(400)
        assert cfg.cn == default_cn(400)
        assert cfg.c0 == 0.6


class TestSortTable:
    """How `select` orders a table: descending value, then cardinality, then mask."""

    def test_descending_values(self):
        # p=2 table: f(empty)=3, f({1})=1, f({2})=2
        res = select(_table(2, [0b00, 0b01, 0b10], [3.0, 1.0, 2.0]))
        assert res.order.tolist() == [0b00, 0b10, 0b01]
        assert res.sorted_values.tolist() == [3.0, 2.0, 1.0]

    def test_all_equal_breaks_by_cardinality_then_mask(self):
        res = select(_table(2, [0b00, 0b01, 0b10, 0b11], [1.0] * 4))
        assert res.order.tolist() == [0b00, 0b01, 0b10, 0b11]

    def test_tie_prefers_smaller_set(self):
        # {1,2} and {3} share a value; the singleton sorts first
        res = select(_table(3, [0b011, 0b100], [0.5, 0.5]))
        assert res.order.tolist() == [0b100, 0b011]

    def test_values_track_masks(self):
        rng = np.random.default_rng(5)
        masks = np.arange(16, dtype=np.uint32)
        values = rng.uniform(size=16)
        res = select(_table(4, masks, values))
        lookup = dict(zip(masks.tolist(), values.tolist()))
        assert all(lookup[m] == v for m, v in zip(res.order.tolist(), res.sorted_values.tolist()))
        assert np.all(np.diff(res.sorted_values) <= 0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            select(_table(2, [], []))

    # values that tie often or sort specially: exact zeros of both signs,
    # the singular +inf, NaN, and a few plain values
    TIES = [0.0, -0.0, math.inf, math.nan, 0.5, 1.0, 2.5e-9]

    @staticmethod
    def _assert_three_key_lexsort(p, masks, values):
        table = _table(p, masks, values)
        perm = np.lexsort((table.masks, np.bitwise_count(table.masks), -table.values))
        # the ratios of adjacent inf, NaN or huge values warn; only the order is checked
        with np.errstate(invalid="ignore", over="ignore"):
            res = select(table, SelectorConfig())
        assert res.order.tolist() == table.masks[perm].tolist()
        # bit for bit: +0.0 and -0.0 tie, and so do NaNs
        assert res.sorted_values.view(np.uint64).tolist() == table.values[perm].view(np.uint64).tolist()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_order_is_the_three_key_lexsort(self, data):
        p = data.draw(st.integers(1, 9), label="p")
        masks = data.draw(st.lists(st.integers(0, (1 << p) - 1), min_size=1, unique=True))
        value = st.sampled_from(self.TIES) | st.floats(allow_nan=True, allow_infinity=True)
        values = data.draw(st.lists(value, min_size=len(masks), max_size=len(masks)))
        self._assert_three_key_lexsort(p, masks, values)

    @pytest.mark.parametrize("kind", ["short runs", "all equal", "one entry", "no ties"])
    def test_order_is_the_three_key_lexsort_at_p12(self, kind):
        rng = np.random.default_rng(12)
        masks = rng.permutation(1 << 12)
        values = {
            "short runs": rng.choice(self.TIES + list(rng.uniform(size=400)), size=masks.size),
            "all equal": np.full(masks.size, 0.25),
            "one entry": rng.uniform(size=masks.size),
            "no ties": rng.uniform(size=masks.size),
        }[kind]
        if kind == "one entry":
            masks, values = masks[:1], values[:1]
        self._assert_three_key_lexsort(12, masks, values)


class TestRidgeRatios:
    def test_worked_scree(self):
        v = np.array([1.0, 0.9, 0.001, 0.0005])
        r = ridge_ratios(v, SelectorConfig(c0=0.6, cn=0.01))
        expect = [0.6, 0.91 / 1.01, 0.011 / 0.91, 0.0105 / 0.011]
        assert np.allclose(r, expect, atol=1e-12)
        assert np.allclose(r, [0.6, 0.9010, 0.0121, 0.9545], atol=1e-3)

    def test_leading_entry_is_c0(self):
        r = ridge_ratios(np.array([5.0, 4.0]), SelectorConfig(c0=0.3, cn=0.01))
        assert r[0] == 0.3

    def test_all_zero_table(self):
        r = ridge_ratios(np.zeros(6), SelectorConfig())
        assert r[0] == 0.6
        assert np.all(r[1:] == 1.0)

    def test_constant_values_give_unit_ratios(self):
        r = ridge_ratios(np.full(5, 7.3), SelectorConfig(cn=1e-4))
        assert np.all(r[1:] == 1.0)

    def test_single_value(self):
        r = ridge_ratios(np.array([2.0]), SelectorConfig())
        assert r.tolist() == [0.6]

    def test_nonfinite_pairs_neutralised(self):
        r = ridge_ratios(np.array([np.inf, 1.0, 0.5]), SelectorConfig(cn=0.5))
        assert r[1] == 1.0
        assert r[2] == pytest.approx(1.0 / 1.5)


class TestSelectTail:
    """Where `select` cuts the sorted table: the tail from the smallest ridge ratio."""

    def test_worked_cutoff(self):
        cfg = SelectorConfig(c0=0.6, cn=0.01)
        masks = np.array([0b00, 0b10, 0b01, 0b11], dtype=np.uint32)
        values = np.array([1.0, 0.9, 0.001, 0.0005])
        res = select(_table(2, masks, values), cfg)
        assert res.order.tolist() == masks.tolist()
        assert res.tau == 2
        assert res.selected.masks.tolist() == [0b01, 0b11]
        r = ridge_ratios(res.sorted_values, cfg)
        assert r[0] == cfg.c0
        assert r.size == masks.size
        assert np.argmin(r) == res.tau

    def test_zero_table_selects_everything(self):
        res = select(_table(3, np.arange(8), np.zeros(8)), SelectorConfig())
        assert res.tau == 0
        assert len(res.selected) == 8

    def test_two_level_table_cuts_at_the_jump(self):
        cfg = SelectorConfig(c0=0.6, cn=0.01)
        res = select(_table(8, np.arange(200), np.r_[np.ones(100), np.zeros(100)]), cfg)
        assert res.tau == 100
        assert len(res.selected) == 100
        assert all(res.sorted_values[k] == 0.0 for k in range(res.tau, 200))

    def test_ties_break_to_the_earliest_index(self):
        # with cn = 1 the ratios are [c0, 2/4, 1/2]: a tie at 0.5
        cfg = SelectorConfig(c0=0.6, cn=1.0)
        res = select(_table(2, np.arange(3), [3.0, 1.0, 0.0]), cfg)
        assert ridge_ratios(res.sorted_values, cfg).tolist() == [0.6, 0.5, 0.5]
        assert res.tau == 1

    def test_c0_floors_a_flat_scree(self):
        # every empirical ratio stays above c0, so the cut never moves
        cfg = SelectorConfig(c0=0.6, cn=1.0)
        res = select(_table(2, np.arange(3), [1.0, 0.9, 0.8]), cfg)
        assert res.tau == 0
        assert len(res.selected) == 3

    def test_selected_is_the_order_tail(self):
        rng = np.random.default_rng(9)
        res = select(_table(4, np.arange(16), rng.uniform(size=16)), SelectorConfig())
        assert res.selected.masks.tolist() == sorted(res.order[res.tau:].tolist())

    def test_mask_outside_the_universe(self):
        # the cut keeps mask 4, which lies past 0..2^2-1
        with pytest.raises(ValueError, match="mask outside the universe"):
            select(_table(2, [0, 4], [1.0, 0.0]), SelectorConfig())

    def test_pruned_sub_cube(self):
        # a --hints universe: index 1 in every mask, index 5 in none
        p = 6
        masks = prune_hints(p, known_forks=0b000001, pure_colliders=0b010000)
        rng = np.random.default_rng(4)
        res = select(_table(p, masks, rng.uniform(size=masks.size)), SelectorConfig())
        assert masks.size == 1 << 4
        assert np.array_equal(np.sort(res.order), masks)
        assert res.selected.p == p
        assert res.selected.masks.tolist() == sorted(res.order[res.tau:].tolist())

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_joint_rescaling_keeps_the_cut(self, scale):
        # multiplying values and cn by the same factor cancels in every ratio
        values = np.array([1.0, 0.9, 0.001, 0.0005])
        masks = np.arange(4, dtype=np.uint32)
        base = SelectorConfig(c0=0.6, cn=0.01)
        scaled = SelectorConfig(c0=0.6, cn=0.01 * scale)
        r0 = select(_table(2, masks, values), base)
        r1 = select(_table(2, masks, values * scale), scaled)
        assert r1.tau == r0.tau == 2
        assert np.array_equal(r1.selected.masks, r0.selected.masks)


@pytest.fixture(scope="module")
def model2_table():
    gm = generate_model(ModelSpec(2, n=800, seed=0))
    return gm, criterion_table(gm.dataset, 0, "mn")


class TestSelectPipeline:
    def test_config_derived_from_sample_size(self, model2_table):
        gm, tab = model2_table
        res = select(tab)
        assert res.config == SelectorConfig.for_sample(800)
        assert res.config.cn == pytest.approx(default_cn(800))
        assert res.config.c0 == 0.6
        assert res.selected.p == 10

    def test_result_shapes_consistent(self, model2_table):
        _, tab = model2_table
        res = select(tab)
        r = ridge_ratios(res.sorted_values, res.config)
        assert res.order.size == res.sorted_values.size == r.size == tab.masks.size
        assert r[0] == res.config.c0
        assert np.argmin(r) == res.tau
        assert set(res.order.tolist()) == set(tab.masks.tolist())
        assert res.selected.masks.tolist() == sorted(res.order[res.tau:].tolist())

    def test_true_collection_fills_the_tail(self, model2_table):
        # the oracle members should own the bottom of the scree
        gm, tab = model2_table
        order = select(tab).order
        k = len(gm.truth)
        assert set(order[-k:].tolist()) == set(gm.truth.masks.tolist())

    def test_recovery_rate_across_seeds(self):
        hits = 0
        for seed in range(11):
            gm = generate_model(ModelSpec(2, n=800, seed=seed))
            tab = criterion_table(gm.dataset, 0, "mn")
            hits += np.array_equal(select(tab).selected.masks, gm.truth.masks)
        assert hits >= 6
