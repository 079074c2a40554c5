import numpy as np
import pytest

from adjustkit.criterion import (
    CriterionConfig,
    criterion_table,
    f_value,
    population_f,
    schur_complement,
)
from adjustkit.dag_oracle import linear_sem_population, reference_graphs, true_collection
from adjustkit.data_model import Dataset, SubsetId
from adjustkit.errors import SingularBlock
from adjustkit.inverse_regression import CandidateMatrix
from adjustkit.set_analysis import prune_hints
from adjustkit.sim_bench import ModelSpec, generate_model


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

    def test_thread_count_is_invisible(self):
        d = self._dataset()
        one = criterion_table(d, t=0, config=CriterionConfig(threads=1))
        four = criterion_table(d, t=0, config=CriterionConfig(threads=4))
        assert np.array_equal(one.values, four.values)
        assert np.array_equal(one.masks, four.masks)

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
