import numpy as np
import pytest

from adjustkit import criterion
from adjustkit.criterion import (
    CriterionConfig,
    _lattice_values,
    _narrowed,
    _pair_value,
    criterion_table,
    f_value,
    population_f,
    schur_complement,
)
from adjustkit.dag_oracle import linear_sem_population, reference_graphs, true_collection
from adjustkit.data_model import Dataset, SubsetId
from adjustkit.errors import DimensionTooLarge, SingularBlock, SingularCovariance
from adjustkit.inverse_regression import (
    CandidateMatrix,
    group_moments,
    outcome_candidate,
    treatment_candidate,
)
from adjustkit.set_analysis import prune_hints
from adjustkit.sim_bench import ModelSpec, generate_model


def _every_mask(p):
    return np.arange(1 << p, dtype=np.uint32)


def _cand(m):
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return CandidateMatrix(m=m, method="SIR", target="", h=m.shape[1])


CORR = np.array([[1.0, 0.5], [0.5, 1.0]])
E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


class TestSchurComplement:
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
    def test_zero_outcome_matrix(self):
        my = _cand(np.zeros((2, 1)))
        for mask in (0b00, 0b01, 0b10, 0b11):
            assert f_value(my, _cand(E2), np.eye(2), np.eye(2), mask) == 0.0

    def test_orthogonal_directions_identity_sigma(self):
        for mask in (0b00, 0b01, 0b10):
            got = f_value(_cand(E1), _cand(E2), np.eye(2), np.eye(2), mask)
            assert got == pytest.approx(0.0, abs=1e-15)

    def test_correlated_hand_values(self):
        my = _cand(E1)
        mt = _cand(E1)
        assert f_value(my, mt, CORR, CORR, 0b00) == pytest.approx(2.0)
        assert f_value(my, mt, CORR, CORR, 0b10) == pytest.approx(1.5)
        assert f_value(my, mt, CORR, CORR, 0b01) == pytest.approx(0.0, abs=1e-15)

    def test_full_set_zero_by_convention(self):
        assert f_value(_cand(E1), _cand(E1), CORR, CORR, 0b11) == 0.0

    def test_singular_block_propagates(self):
        sigma = np.diag([1e-12, 1.0])
        with pytest.raises(SingularBlock):
            f_value(_cand(E1), _cand(E1), sigma, sigma, 0b01)

    def test_accepts_subset_id(self):
        a = SubsetId(0b10, 2)
        got = f_value(_cand(E1), _cand(E1), CORR, CORR, a)
        assert got == pytest.approx(1.5)


class TestPopulationF:
    def test_orthogonal_betas_vanish_everywhere(self):
        for mask in range(8):
            got = population_f(
                np.eye(3), np.eye(3), np.eye(3)[:, :1], np.eye(3)[:, 1:2], mask
            )
            assert got == pytest.approx(0.0, abs=1e-15)

    def test_off_diagonal_picked_up(self):
        assert population_f(CORR, CORR, E1, E2, 0b00) == pytest.approx(1.0)
        assert population_f(CORR, CORR, E1, E2, 0b01) == pytest.approx(0.0, abs=1e-15)
        assert population_f(CORR, CORR, E1, E2, 0b10) == pytest.approx(0.0, abs=1e-15)

    def test_design_zero_set_matches_oracle(self):
        g = reference_graphs()["unique_minimal"]
        spec = linear_sem_population(g)
        members = set(true_collection(spec.provenance).sorted_masks())
        for mask in range(1 << spec.p):
            val = population_f(
                spec.sigma0, spec.sigma1, spec.beta_y, spec.beta_t, mask
            )
            if mask in members:
                assert val < 1e-10, mask
            elif mask != (1 << spec.p) - 1:
                assert val > 0.01, mask


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
        got = _lattice_values(inv, _narrowed(my), _narrowed(mt), _every_mask(p))
        ref = np.array([_pair_value(my, mt, sigmas, mask) for mask in range(1 << p)])
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
        got = _lattice_values(inv, m, m, _every_mask(3))
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
        full = _lattice_values(inv, my, mt, _every_mask(9))
        monkeypatch.setattr(criterion, "STATE_CELLS", cells)
        assert np.array_equal(_lattice_values(inv, my, mt, _every_mask(9)), full)

    @pytest.mark.parametrize("cells", [1, 700, 96 * 1024])
    def test_pruned_masks_equal_full_entries(self, monkeypatch, cells):
        inv, my, mt = self._problem(9, "sir")
        full = _lattice_values(inv, my, mt, _every_mask(9))
        monkeypatch.setattr(criterion, "STATE_CELLS", cells)
        rng = np.random.default_rng(cells)
        for masks in (
            np.sort(rng.choice(1 << 9, size=37, replace=False)),
            prune_hints(9, known_forks=0b100000001, pure_colliders=0b000010000),
            np.array([0]),
            np.array([(1 << 9) - 1]),
            np.array([], dtype=np.int64),
        ):
            got = _lattice_values(inv, my, mt, masks.astype(np.uint32))
            assert np.array_equal(got, full[masks])

    @pytest.mark.filterwarnings("ignore:enumerating 2")
    def test_pinned_bits_prune_the_walk(self, monkeypatch):
        # ten pinned indices at p = 20 leave 1,024 subsets; the walk may pivot
        # at most two children per reachable node and level, not 2^20 leaves
        p = 20
        inv, my, mt = self._problem(p, "sir")
        masks = prune_hints(
            p, known_forks=0b1010101010 << 10, pure_colliders=0b0101010101
        )
        assert masks.size == 1024
        pivoted = []
        step = criterion._pivot

        def counting(aug, floor):
            pivoted.append(aug.shape[-1])
            return step(aug, floor)

        monkeypatch.setattr(criterion, "_pivot", counting)
        got = _lattice_values(inv, my, mt, masks.astype(np.uint32))
        assert sum(pivoted) <= p * masks.size
        sigmas = [np.linalg.inv(s) for s in inv]
        ref = [_pair_value(my, mt, sigmas, int(m)) for m in masks[::97]]
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
        assert len(table) == 1024
        assert table.p == 10
        full = (1 << 10) - 1
        assert table.value(full) == 0.0
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
            g0, g1 = group_moments(ds)
            m_y, m_t = outcome_candidate(ds, 0), treatment_candidate(ds)
            assert f_value(m_y, m_t, g0.sigma, g1.sigma, 0) == pytest.approx(
                table.value(0), rel=1e-9
            )
            for mask in (0b000001, 0b010110):
                assert np.isfinite(table.value(mask))
                if factor == 1e-3:
                    assert f_value(m_y, m_t, g0.sigma, g1.sigma, mask) == pytest.approx(
                        table.value(mask), rel=1e-9
                    )
                else:
                    with pytest.raises(SingularBlock):
                        f_value(m_y, m_t, g0.sigma, g1.sigma, mask)

    def test_constant_column_rejected(self):
        d = self._dataset()
        x = d.x.copy()
        x[:, 2] = 3.0
        with pytest.raises(SingularCovariance):
            criterion_table(d.with_x(x), t=0)

    def test_copula_variant_rank_invariance(self):
        d = self._dataset(n=150)
        warped = d.with_x(np.exp(d.x))
        a = criterion_table(d, t=0, variant="gaussian-copula")
        b = criterion_table(warped, t=0, variant="gaussian-copula")
        assert np.array_equal(a.values, b.values)

    def test_variant_aliases(self):
        d = self._dataset()
        assert np.array_equal(
            criterion_table(d, t=0, variant="mn").values,
            criterion_table(d, t=0, variant="normality").values,
        )
        assert np.array_equal(
            criterion_table(d, t=0, variant="gc").values,
            criterion_table(d, t=0, variant="gaussian-copula").values,
        )

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            criterion_table(self._dataset(), t=0, variant="bootstrap")

    def test_dimension_cap_comes_before_the_sweep(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("the 2^25-subset sweep was entered")

        monkeypatch.setattr(criterion, "_lattice_values", sweep)
        with pytest.raises(DimensionTooLarge):
            criterion_table(self._dataset(p=25), t=0)

    def test_slice_count_checked_by_config(self):
        with pytest.raises(ValueError, match="h must be at least 2"):
            CriterionConfig(h=1)

    def test_pruned_universe_consistent_with_full(self):
        d = self._dataset()
        full = criterion_table(d, t=0)
        masks = prune_hints(d.p, known_forks=0b000001)
        pruned = criterion_table(d, t=0, config=CriterionConfig(masks=masks))
        assert pruned.masks.tolist() == masks.tolist()
        for m in masks:
            assert pruned.value(int(m)) == full.value(int(m))

    def test_value_lookup_missing_mask(self):
        d = self._dataset()
        masks = prune_hints(d.p, known_forks=0b000001)
        pruned = criterion_table(d, t=0, config=CriterionConfig(masks=masks))
        with pytest.raises(KeyError):
            pruned.value(0b000010)

    def test_masks_outside_universe_rejected(self):
        d = self._dataset(p=10)
        masks = np.array([0, 3, 1 << 12])
        with pytest.raises(ValueError, match="0..2"):
            criterion_table(d, t=0, config=CriterionConfig(masks=masks))

    def test_duplicate_masks_rejected(self):
        d = self._dataset()
        with pytest.raises(ValueError, match="ascending"):
            criterion_table(d, t=0, config=CriterionConfig(masks=np.array([3, 3, 1])))

    def test_unsorted_masks_rejected(self):
        # the table bisects its masks, so [5, 3, 1] used to make value(5) a KeyError
        d = self._dataset()
        with pytest.raises(ValueError, match="ascending"):
            criterion_table(d, t=0, config=CriterionConfig(masks=np.array([5, 3, 1])))

    @pytest.mark.parametrize("masks", [np.array([[0, 1]]), np.array([0.0, 1.0]), [-1, 0]])
    def test_malformed_masks_rejected(self, masks):
        with pytest.raises(ValueError):
            criterion_table(self._dataset(), t=0, config=CriterionConfig(masks=masks))

    def test_items_align_with_value(self):
        d = self._dataset(n=80, p=4)
        table = criterion_table(d, t=1)
        for sid, val in table.items():
            assert table.value(sid) == val
