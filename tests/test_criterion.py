import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit import criterion
from adjustkit.criterion import (
    VARIANTS,
    CriterionConfig,
    _lattice_values,
    _narrowed,
    criterion_fit,
    criterion_table,
    population_values,
)
from adjustkit.dag_oracle import PopulationSpec, linear_sem_population, true_collection
from adjustkit.data_model import Dataset, subcube
from adjustkit.errors import DimensionTooLarge, SingularCovariance
from adjustkit.inverse_regression import group_moments, outcome_candidate, treatment_candidate
from adjustkit.set_analysis import prune_hints
from adjustkit.sim_bench import ModelSpec, generate_model
from criterion_reference import SingularBlock, pair_value, schur_complement
from graph_fixtures import reference_graphs


def _lattice(p):
    """The whole lattice of p indices as a (fixed, free) universe."""
    return 0, (1 << p) - 1


def _population(sigma, beta_y, beta_t):
    """population_values with both arms' covariance ``sigma``."""
    return population_values(PopulationSpec(sigma, sigma, beta_y, beta_t, None))


CORR = np.array([[1.0, 0.5], [0.5, 1.0]])
E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


class TestSchurComplement:
    """The test-side reference's own conditional covariance."""

    def test_identity_stays_identity(self):
        out = schur_complement(np.eye(3), 0b010)
        assert np.array_equal(out, np.eye(2))

    def test_two_dim_formula(self):
        out = schur_complement(CORR, 0b01)
        assert np.allclose(out, [[0.75]])

    def test_empty_set_returns_sigma(self):
        assert np.array_equal(schur_complement(CORR, 0), CORR)

    def test_full_set_rejected(self):
        with pytest.raises(ValueError):
            schur_complement(CORR, 0b11)

    def test_singular_block(self):
        sigma = np.diag([1e-12, 1.0])
        with pytest.raises(SingularBlock):
            schur_complement(sigma, 0b01)

    def test_matches_inverse_identity(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(5, 5))
        sigma = g @ g.T + 5 * np.eye(5)
        for mask in (0b00001, 0b01010, 0b10111):
            outside = [i for i in range(5) if not mask >> i & 1]
            direct = schur_complement(sigma, mask)
            via_inv = np.linalg.inv(np.linalg.inv(sigma)[np.ix_(outside, outside)])
            assert np.allclose(direct, via_inv, atol=1e-10)
            assert np.allclose(direct, direct.T)


class TestFValue:
    """Hand values of the criterion, through the pivot tree."""

    def test_zero_outcome_matrix(self):
        got = _population(np.eye(2), np.zeros((2, 1)), E2)
        assert np.array_equal(got, np.zeros(4))

    def test_orthogonal_directions_identity_sigma(self):
        got = _population(np.eye(2), E1, E2)
        np.testing.assert_allclose(got[[0b00, 0b01, 0b10]], 0.0, rtol=0, atol=1e-15)

    def test_correlated_hand_values(self):
        got = _population(CORR, E1, E1)
        assert got[0b00] == pytest.approx(2.0)
        assert got[0b10] == pytest.approx(1.5)
        assert got[0b01] == pytest.approx(0.0, abs=1e-15)

    def test_full_set_zero_by_convention(self):
        assert _population(CORR, E1, E1)[0b11] == 0.0

    def test_singular_block_propagates(self):
        # the reference's absolute floor; the tree's rule is scale-free
        sigma = np.diag([1e-12, 1.0])
        with pytest.raises(SingularBlock):
            pair_value(E1, E1, (sigma, sigma), 0b01)


class TestPopulationF:
    def test_orthogonal_betas_vanish_everywhere(self):
        got = _population(np.eye(3), np.eye(3)[:, :1], np.eye(3)[:, 1:2])
        assert got.shape == (8,)
        np.testing.assert_allclose(got, 0.0, rtol=0, atol=1e-15)

    def test_off_diagonal_picked_up(self):
        got = _population(CORR, E1, E2)
        assert got[0b00] == pytest.approx(1.0)
        assert got[0b01] == pytest.approx(0.0, abs=1e-15)
        assert got[0b10] == pytest.approx(0.0, abs=1e-15)

    def test_design_zero_set_matches_oracle(self):
        g = reference_graphs()["unique_minimal"]
        spec = linear_sem_population(g)
        members = set(true_collection(spec.provenance).masks.tolist())
        values = population_values(spec)
        for mask, val in enumerate(values):
            if mask in members:
                assert val < 1e-10, mask
            elif mask != (1 << spec.p) - 1:
                assert val > 0.01, mask

    def test_matches_reference(self):
        g = reference_graphs()["unique_minimal"]
        spec = linear_sem_population(g)
        sigmas = (spec.sigma0, spec.sigma1)
        ref = [pair_value(spec.beta_y, spec.beta_t, sigmas, m) for m in range(1 << spec.p)]
        np.testing.assert_allclose(population_values(spec), ref, rtol=1e-12, atol=1e-14)

    def test_singular_covariance_rejected(self):
        sigma = np.ones((2, 2))
        with pytest.raises(SingularCovariance):
            _population(sigma, E1, E2)


def _random_pd(rng, p):
    g = rng.normal(size=(p, p))
    return g @ g.T / p + np.eye(p)


class TestPivotTree:
    """The pivot tree against the per-subset Schur-complement reference."""

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("widths", ["sir", "sir-save", "save"])
    def test_every_mask_matches_reference(self, p, widths):
        rng = np.random.default_rng(100 + p)
        w_y, w_t = {"sir": (5, 2), "sir-save": (5, 2 * p), "save": (2 * p, 2 * p)}[widths]
        my = rng.normal(size=(p, w_y))
        mt = rng.normal(size=(p, w_t))
        sigmas = (_random_pd(rng, p), _random_pd(rng, p))
        inv = np.stack([np.linalg.inv(s) for s in sigmas])
        got = _lattice_values(inv, [_narrowed(my)], _narrowed(mt), *_lattice(p))[0]
        ref = np.array([pair_value(my, mt, sigmas, mask) for mask in range(1 << p)])
        assert got[-1] == 0.0
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_failed_pivot_marks_subset_singular(self, width):
        # X1 and X2 nearly collinear: after pivoting X2 the pivot on X1 is 1
        # against P_00 ~ 5e11, so the subsets whose complement holds both,
        # {} and {X3}, are singular
        eps = 1e-12
        sigma = np.eye(3)
        sigma[0, 1] = sigma[1, 0] = 1.0 - eps
        inv = np.stack([np.linalg.inv(sigma), np.eye(3)])
        m = np.random.default_rng(3).normal(size=(3, width))
        got = _lattice_values(inv, [m], m, *_lattice(3))[0]
        assert np.isinf(got[[0b000, 0b100]]).all()
        assert np.isfinite(np.delete(got, [0b000, 0b100])).all()

    @staticmethod
    def _problem(p, widths, seed=7):
        rng = np.random.default_rng(seed)
        w_y, w_t = {"sir": (5, 2), "save": (2 * p, 2 * p)}[widths]
        my, mt = rng.normal(size=(p, w_y)), rng.normal(size=(p, w_t))
        inv = np.stack([np.linalg.inv(_random_pd(rng, p)) for _ in range(2)])
        return inv, _narrowed(my), _narrowed(mt)

    @pytest.mark.parametrize("widths", ["sir", "save"])
    @pytest.mark.parametrize("cells", [1, 700, 5000])
    def test_walk_budget_is_invisible(self, monkeypatch, widths, cells):
        # a smaller level budget splits the tree sooner, down to one node
        # per batch at cells=1; every value must stay bit-identical
        inv, my, mt = self._problem(9, widths)
        full = _lattice_values(inv, [my], mt, *_lattice(9))[0]
        monkeypatch.setattr(criterion, "STATE_CELLS", cells)
        assert np.array_equal(_lattice_values(inv, [my], mt, *_lattice(9))[0], full)

    @pytest.mark.parametrize("cells", [1, 700, 96 * 1024])
    def test_pruned_masks_equal_full_entries(self, monkeypatch, cells):
        # pinned indices at the top, at the bottom, interleaved with free
        # ones and everywhere; two stacked outcome candidates
        inv, my, mt = self._problem(9, "sir")
        mys = [my, my[:, :3]]
        full = _lattice_values(inv, mys, mt, *_lattice(9))
        monkeypatch.setattr(criterion, "STATE_CELLS", cells)
        for fixed, free in (
            (0b100000000, 0b000111111),
            (0b000000010, 0b111111100),
            (0b100000001, 0b011101110),
            (0b001010100, 0b010001001),
            (0, 0),
            ((1 << 9) - 1, 0),
            (0b010110001, 0),
        ):
            masks = subcube(fixed, free)
            got = _lattice_values(inv, mys, mt, fixed, free)
            for g, f in zip(got, full):
                assert np.array_equal(g, f[masks])

    @pytest.mark.parametrize("cells", [700, 5000])
    @pytest.mark.parametrize(
        "universe",
        [(0, 0b111111111), (0b100000001, 0b011101110), (0b000000010, 0b111111100)],
        ids=["full", "pinned-ends", "pinned-low"],
    )
    @pytest.mark.parametrize("widths", ["sir", "save"])
    def test_stacked_rows_stay_within_the_budget(self, monkeypatch, widths, universe, cells):
        # the level budget counts the rows of every stacked outcome candidate:
        # only a batch of one node may pivot into a level above it, also at a
        # pinned index, where the pivot doubles the batch before half is kept
        inv, my, mt = self._problem(9, widths)
        levels = []
        step = criterion._pivot

        def measured(aug, floor):
            out = step(aug, floor)
            levels.append((aug.shape[-1], out.size))
            return out

        monkeypatch.setattr(criterion, "STATE_CELLS", cells)
        monkeypatch.setattr(criterion, "_pivot", measured)
        _lattice_values(inv, [my, my[:, :3]], mt, *universe)
        assert all(size <= cells or nodes == 1 for nodes, size in levels)

    def test_pinned_bits_prune_the_walk(self, monkeypatch):
        # ten pinned indices at p = 20 leave 1,024 subsets; the walk may pivot
        # at most two children per reachable node and level, not 2^20 leaves
        p = 20
        inv, my, mt = self._problem(p, "sir")
        universe = prune_hints(
            p, known_forks=0b1010101010 << 10, pure_colliders=0b0101010101
        )
        masks = subcube(*universe)
        assert masks.size == 1024
        pivoted = []
        step = criterion._pivot

        def counting(aug, floor):
            pivoted.append(aug.shape[-1])
            return step(aug, floor)

        monkeypatch.setattr(criterion, "_pivot", counting)
        got = _lattice_values(inv, [my], mt, *universe)[0]
        assert sum(pivoted) <= p * masks.size
        sigmas = [np.linalg.inv(s) for s in inv]
        ref = [pair_value(my, mt, sigmas, int(m)) for m in masks[::97]]
        np.testing.assert_allclose(got[::97], ref, rtol=1e-12, atol=0)


class TestCriterionTable:
    def _dataset(self, n=120, p=6, seed=21):
        rng = np.random.default_rng(seed)
        t = np.tile([0, 1], n // 2)
        x = rng.normal(size=(n, p))
        x[:, 0] += 0.6 * t
        y = x[:, 0] + 0.5 * x[:, 1] + 0.2 * rng.normal(size=n)
        return Dataset(t=t, y=y, x=x)

    def test_table_covers_universe(self):
        model = generate_model(ModelSpec(2, n=400, seed=0))
        table = criterion_table(model.dataset, t=0)
        assert table.masks.size == 1024
        assert table.p == 10
        full = (1 << 10) - 1
        assert table.values[full] == 0.0
        finite = table.values[np.isfinite(table.values)]
        assert np.all(finite >= 0.0)

    def test_rescaled_covariates_leave_table(self):
        # an absolute eigenvalue floor used to reject sigma * 1e-10 as singular
        d = self._dataset()
        scaled = criterion_table(d.with_x(d.x * 1e-5), t=0)
        np.testing.assert_allclose(scaled.values, criterion_table(d, t=0).values, rtol=1e-9)

    def test_reference_on_rescaled_covariates(self):
        # the per-subset reference keeps an absolute eigenvalue floor: it
        # agrees with the table at x * 1e-3 (Sigma ~ 1e-6) and rejects every
        # non-empty block at x * 1e-5 (Sigma ~ 1e-10), where the table's
        # scale-free pivot ratio still evaluates them
        d = self._dataset()
        for factor in (1e-3, 1e-5):
            ds = d.with_x(d.x * factor)
            table = criterion_table(ds, t=0)
            g0, g1, whole = group_moments(ds)
            m_y, m_t = outcome_candidate(ds, g0)[0], treatment_candidate(ds, whole)
            sigmas = (g0.sigma, g1.sigma)
            assert pair_value(m_y, m_t, sigmas, 0) == pytest.approx(table.values[0], rel=1e-9)
            for mask in (0b000001, 0b010110):
                assert np.isfinite(table.values[mask])
                if factor == 1e-3:
                    assert pair_value(m_y, m_t, sigmas, mask) == pytest.approx(
                        table.values[mask], rel=1e-9
                    )
                else:
                    with pytest.raises(SingularBlock):
                        pair_value(m_y, m_t, sigmas, mask)

    def test_constant_column_rejected(self):
        d = self._dataset()
        x = d.x.copy()
        x[:, 2] = 3.0
        with pytest.raises(SingularCovariance):
            criterion_table(d.with_x(x), t=0)

    def test_copula_variant_rank_invariance(self):
        d = self._dataset(n=150)
        warped = d.with_x(np.exp(d.x))
        a = criterion_table(d, t=0, variant="gc")
        b = criterion_table(warped, t=0, variant="gc")
        assert np.array_equal(a.values, b.values)
        # the variant took effect: the raw covariates give another table
        assert not np.array_equal(a.values, criterion_table(d, t=0).values)

    def test_variant_aliases(self, monkeypatch):
        # "mn" and "gc" are the one spelling of each variant; the former
        # aliases and any other spelling are refused before the moments
        def entered(*args):
            raise AssertionError("the moments were computed")

        monkeypatch.setattr(criterion, "group_moments", entered)
        for variant in ("normality", "gaussian-copula", "MN", " gc"):
            with pytest.raises(ValueError, match="unknown variant"):
                criterion_table(self._dataset(), t=0, variant=variant)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            criterion_table(self._dataset(), t=0, variant="bootstrap")

    @pytest.mark.parametrize("variant", ["mn", "gc"])
    @pytest.mark.parametrize("t", [-1, 2])
    def test_bad_arm_refused_before_any_work(self, monkeypatch, variant, t):
        def entered(*args):
            raise AssertionError("the copula or the moments were entered")

        monkeypatch.setattr(criterion, "transform_dataset", entered)
        monkeypatch.setattr(criterion, "group_moments", entered)
        with pytest.raises(ValueError, match="t must be 0 or 1"):
            criterion_table(self._dataset(), t=t, variant=variant)

    def test_dimension_cap_comes_before_the_sweep(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("the 2^25-subset sweep was entered")

        monkeypatch.setattr(criterion, "_lattice_values", sweep)
        with pytest.raises(DimensionTooLarge):
            criterion_table(self._dataset(p=25), t=0)
        # population_values builds no mask array and keeps the same cap
        with pytest.raises(DimensionTooLarge):
            _population(np.eye(25), np.eye(25)[:, :1], np.eye(25)[:, 1:2])

    def test_slice_count_checked_by_config(self):
        with pytest.raises(ValueError, match="h must be at least 2"):
            CriterionConfig(h=1)

    @pytest.mark.parametrize("field", ["method_y", "method_t"])
    @pytest.mark.parametrize("method", ["pca", " SAVE ", "SIR"])
    def test_method_names_checked_by_config(self, monkeypatch, field, method):
        # "sir" and "save" are the one spelling of each method; any other is
        # refused when the config is made, before the copula or the moments
        def entered(*args):
            raise AssertionError("the copula or the moments were entered")

        monkeypatch.setattr(criterion, "transform_dataset", entered)
        monkeypatch.setattr(criterion, "group_moments", entered)
        with pytest.raises(ValueError, match=f"{field} must be 'sir' or 'save'"):
            criterion_fit(self._dataset(), (0, 1), "gc", CriterionConfig(**{field: method}))

    def test_pruned_universe_consistent_with_full(self):
        d = self._dataset()
        full = criterion_table(d, t=0)
        universe = prune_hints(d.p, known_forks=0b000001)
        pruned = criterion_table(d, t=0, config=CriterionConfig(universe=universe))
        masks = subcube(*universe)
        assert pruned.masks.dtype == np.uint32
        assert pruned.masks.tolist() == masks.tolist()
        assert np.array_equal(pruned.values, full.values[masks])

    def test_pruned_universe_above_the_cap_rejected(self, monkeypatch):
        # the pruned universe gets the full lattice's cap, before any work;
        # masks past bit 31 would not fit the table's uint32 masks
        def sweep(*args):
            raise AssertionError("the sweep was entered")

        monkeypatch.setattr(criterion, "_lattice_values", sweep)
        with pytest.raises(DimensionTooLarge):
            criterion_table(self._dataset(p=33), t=0, config=CriterionConfig(universe=(1 << 32, 3)))

    def test_masks_outside_universe_rejected(self):
        d = self._dataset(p=10)
        with pytest.raises(ValueError, match="0x1003 out of range for p=10"):
            criterion_table(d, t=0, config=CriterionConfig(universe=(0, (1 << 12) | 3)))

    @pytest.mark.parametrize(
        "universe",
        [
            (0b011, 0b110),
            (1 << 6, 0b11),
            (-1, 0b11),
            (0, 3.0),
            (0, 1, 2),
            7,
            np.arange(4),
        ],
        ids=["overlapping", "bit-at-p", "negative", "float", "triple", "int", "mask-array"],
    )
    def test_bad_universe_rejected(self, monkeypatch, universe):
        # a universe is two disjoint masks below 2^p, so any sub-cube and
        # only a sub-cube can be asked for; anything else is refused before
        # the copula, the moments and the sweep
        def entered(*args):
            raise AssertionError("the copula, the moments or the sweep was entered")

        for name in ("transform_dataset", "group_moments", "_lattice_values"):
            monkeypatch.setattr(criterion, name, entered)
        cfg = CriterionConfig(universe=universe)
        with pytest.raises(ValueError, match="universe"):
            criterion_table(self._dataset(), t=0, variant="gc", config=cfg)


class TestCriterionTables:
    """Both arms from one fit and one walk, bit-identical to one walk per arm."""

    _dataset = TestCriterionTable._dataset

    @staticmethod
    def _assert_per_arm(d, variant, cfg):
        tables = criterion_fit(d, (0, 1), variant, cfg).tables()
        assert len(tables) == 2
        for t, table in enumerate(tables):
            alone = criterion_table(d, t, variant, cfg)
            assert np.array_equal(table.values, alone.values)
            assert np.array_equal(table.masks, alone.masks)
            assert table.metadata == alone.metadata
        return tables

    @pytest.mark.parametrize("variant", ["mn", "gc"])
    @pytest.mark.parametrize("method_y", ["sir", "save"])
    @pytest.mark.parametrize("method_t", ["sir", "save"])
    def test_both_arms_equal_their_own_tables(self, variant, method_y, method_t):
        cfg = CriterionConfig(method_y=method_y, method_t=method_t)
        self._assert_per_arm(self._dataset(), variant, cfg)

    @pytest.mark.parametrize("method_y", ["sir", "save"])
    @pytest.mark.parametrize("method_t", ["sir", "save"])
    def test_one_fit_walked_per_arm(self, method_y, method_t):
        # the select command walks each arm of one fit on its own
        cfg = CriterionConfig(method_y=method_y, method_t=method_t)
        fit = criterion_fit(self._dataset(), (0, 1), "gc", cfg)
        both = fit.tables()
        for i, table in enumerate(both):
            [alone] = fit.tables((i,))
            assert np.array_equal(alone.values, table.values)
            assert alone.metadata == table.metadata
        swapped = fit.tables((1, 0))
        assert all(np.array_equal(a.values, b.values) for a, b in zip(swapped, both[::-1]))

    @pytest.mark.parametrize("variant", ["mn", "gc"])
    def test_pruned_universe(self, variant):
        d = self._dataset()
        universe = prune_hints(d.p, known_forks=0b000001, pure_colliders=0b010000)
        tables = self._assert_per_arm(d, variant, CriterionConfig(universe=universe))
        assert tables[1].masks.tolist() == subcube(*universe).tolist()

    @pytest.mark.parametrize("cells", [1, 700])
    @pytest.mark.parametrize("method_y", ["sir", "save"])
    def test_walk_budget(self, monkeypatch, cells, method_y):
        d = self._dataset()
        cfg = CriterionConfig(method_y=method_y)
        full = [table.values for table in criterion_fit(d, (0, 1), "mn", cfg).tables()]
        monkeypatch.setattr(criterion, "STATE_CELLS", cells)
        tables = self._assert_per_arm(d, "mn", cfg)
        for table, values in zip(tables, full):
            assert np.array_equal(table.values, values)

    def test_outcome_widths_differ(self):
        # arm 1's outcome takes three values, so its slices are merged to
        # three against arm 0's five and the stacked rows have unequal widths
        d = self._dataset()
        y = np.where(d.t == 1, np.round(d.y).clip(-1, 1), d.y)
        d = Dataset(t=d.t, y=y, x=d.x)
        tables = self._assert_per_arm(d, "mn", CriterionConfig())
        assert [table.metadata["h_y"] for table in tables] == [5, 3]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 7),
        mixing=st.floats(0.0, 3.0),
        floor=st.sampled_from([1e-10, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]),
        hints=st.tuples(st.integers(0, 127), st.integers(0, 127)) | st.none(),
        variant=st.sampled_from(VARIANTS),
        methods=st.sampled_from([("sir", "sir"), ("save", "sir"), ("sir", "save")]),
    )
    def test_arms_singular_alike(self, seed, p, mixing, floor, hints, variant, methods):
        # a subset is singular where a pivot falls to its floor, and pivots
        # and floor come from the arm covariances alone: both arms' tables
        # are +inf at the same subsets, so select's check on one arm tells
        # the other's.  The full set takes no pivot and is exactly 0.
        rng = np.random.default_rng(seed)
        n = 80
        t = np.tile([0, 1], n // 2)
        x = rng.normal(size=(n, p)) @ (np.eye(p) + mixing * rng.normal(size=(p, p)))
        y = x @ rng.normal(size=p) + t + rng.normal(size=n)
        universe = None
        if hints is not None:
            forks, cols = (h & ((1 << p) - 1) for h in hints)
            universe = prune_hints(p, known_forks=forks, pure_colliders=cols & ~forks)
        cfg = CriterionConfig(method_y=methods[0], method_t=methods[1], h=3, universe=universe)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gc may pool a coordinate
            fit = criterion_fit(Dataset(t=t, y=y, x=x), (0, 1), variant, cfg)
        with mock.patch.object(criterion, "MIN_EIGENVALUE", floor):
            [arm0], [arm1] = fit.tables((0,)), fit.tables((1,))
        assert np.array_equal(np.isinf(arm0.values), np.isinf(arm1.values))
        full = (1 << p) - 1
        if arm0.masks[-1] == full:
            assert arm0.values[-1] == 0.0 and arm1.values[-1] == 0.0

    def test_one_arm_builds_one_outcome_candidate(self, monkeypatch):
        built = []
        real = criterion.outcome_candidate

        def counted(d, arm, *args):
            built.append(int(d.t[arm.rows[0]]))
            return real(d, arm, *args)

        monkeypatch.setattr(criterion, "outcome_candidate", counted)
        [table] = criterion_fit(self._dataset(), (1,)).tables()
        assert built == [1]
        assert np.array_equal(table.values, criterion_table(self._dataset(), 1).values)
