import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit import criterion, inverse_regression
from adjustkit.criterion import CriterionConfig, criterion_table
from adjustkit.data_model import Dataset
from adjustkit.errors import (
    DegenerateData,
    DegenerateResponse,
    EmptyGroup,
    SingularCovariance,
    SliceTooSmall,
    TooFewObservations,
)
from adjustkit.inverse_regression import (
    GroupMoments,
    candidate_matrix,
    group_moments,
    outcome_candidate,
    slice_response,
    treatment_candidate,
)
from adjustkit.sim_bench import ModelSpec, generate_model


class TestSliceResponse:
    def test_binary_passthrough(self):
        labels = slice_response([0, 0, 1, 1], h=5)
        assert labels.max() == 2
        assert labels.tolist() == [1, 1, 2, 2]

    def test_quantile_slices_balanced(self):
        labels = slice_response(np.arange(1, 101), h=5)
        assert labels.max() == 5
        counts = np.bincount(labels)[1:]
        assert counts.tolist() == [20, 20, 20, 20, 20]

    def test_labels_monotone_in_value(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=200)
        labels = slice_response(v, h=4)
        order = np.argsort(v)
        assert np.all(np.diff(labels[order]) >= 0)

    def test_constant_response_warns(self):
        with pytest.warns(DegenerateResponse):
            labels = slice_response(np.full(30, 7.0), h=5)
        assert labels.max() == 1

    def test_too_few_observations(self):
        # 11 distinct values forces the quantile path, which needs m >= h
        with pytest.raises(TooFewObservations):
            slice_response(np.linspace(0.0, 1.0, 11), h=20)

    def test_short_discrete_vector_passes_through(self):
        labels = slice_response([3.0, 7.0], h=5)
        assert labels.max() == 2
        assert labels.tolist() == [1, 2]

    def test_h_below_two(self):
        with pytest.raises(ValueError):
            slice_response(np.arange(20), h=1)

    def test_ties_merge_empty_slices(self):
        # 60% of mass on one value forces empty quantile bins
        v = np.concatenate([np.zeros(60), np.linspace(1, 2, 40)])
        v += np.linspace(0, 1e-9, 100)  # make values distinct but clustered
        labels = slice_response(v, h=5)
        counts = np.bincount(labels)[1:]
        assert labels.max() == len(counts)
        assert np.all(counts > 0)

    @given(st.integers(2, 6), st.integers(30, 90))
    @settings(max_examples=30, deadline=None)
    def test_every_slice_nonempty(self, h, m):
        rng = np.random.default_rng(h * 1000 + m)
        labels = slice_response(rng.normal(size=m), h=h)
        assert set(np.unique(labels)) == set(range(1, labels.max() + 1))


class TestSirMatrix:
    def test_one_dim_worked_example(self):
        m = candidate_matrix(np.array([[-1.0], [1.0]]), np.array([1, 2]), np.eye(1))
        assert m.tolist() == [[-1.0, 1.0]]

    def test_whitening(self):
        m = candidate_matrix(
            np.array([[-1.0], [1.0]]), np.array([1, 2]), np.array([[2.0]])
        )
        assert np.allclose(m, [[-0.5, 0.5]])

    def test_independent_slices_near_zero(self):
        rng = np.random.default_rng(4)
        n, p = 4000, 3
        x = rng.normal(size=(n, p))
        labels = np.tile(np.arange(1, 5), n // 4)
        m = candidate_matrix(
            x - x.mean(axis=0), labels, np.cov(x, rowvar=False, ddof=1)
        )
        assert np.linalg.norm(m, 2) < 0.15

    def test_affine_equivariance_diagonal(self):
        rng = np.random.default_rng(9)
        n, p = 300, 4
        x = rng.normal(size=(n, p))
        labels = rng.integers(1, 4, size=n)
        labels[:3] = [1, 2, 3]
        b = np.diag([2.0, 0.5, 3.0, 1.25])
        sigma = np.cov(x, rowvar=False, ddof=1)
        m = candidate_matrix(x, labels, sigma)
        mb = candidate_matrix(x @ b, labels, b @ sigma @ b)
        assert np.allclose(mb, np.linalg.solve(b, m), atol=1e-10)

    def test_spectral_norm_shrinks_under_null(self):
        # permutation slices independent of x: top singular value decays
        # roughly like 1/sqrt(n), so quadrupling n shrinks the median
        # by a factor between 1.5 and 3
        rng = np.random.default_rng(123)
        p, h, reps = 5, 4, 100

        def median_norm(n):
            out = []
            for _ in range(reps):
                x = rng.normal(size=(n, p))
                labels = np.tile(np.arange(1, h + 1), n // h)
                rng.shuffle(labels)
                m = candidate_matrix(
                    x - x.mean(axis=0), labels, np.cov(x, rowvar=False, ddof=1)
                )
                out.append(np.linalg.norm(m, 2))
            return float(np.median(out))

        ratio = median_norm(400) / median_norm(1600)
        assert 1.5 <= ratio <= 3.0, ratio


class TestSaveMatrix:
    def test_single_slice_exactly_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        x = x - x.mean(axis=0)
        labels = np.ones(40, dtype=np.int64)
        sigma = np.cov(x, rowvar=False, ddof=1)
        m = candidate_matrix(x, labels, sigma, "save")
        assert np.all(m == 0.0)

    def test_matched_within_covariance_zero_blocks(self):
        x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        m = candidate_matrix(x, np.array([1, 1, 2, 2]), np.array([[2.0]]), "save")
        assert np.all(m == 0.0)

    def test_slice_too_small(self):
        labels = np.array([1, 1, 2])
        with pytest.raises(SliceTooSmall):
            candidate_matrix(np.zeros((3, 2)) + np.eye(3, 2), labels, np.eye(2), "save")

    def test_block_shape(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 3))
        labels = np.tile([1, 2, 3], 20)
        m = candidate_matrix(x, labels, np.cov(x, rowvar=False, ddof=1), "save")
        assert m.shape == (3, 9)


class TestGroupMoments:
    def test_two_point_arm(self):
        t = np.array([0, 0, 1, 1])
        x = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        d = Dataset(t=t, y=np.zeros(4), x=x)
        g0, g1, whole = group_moments(d)
        assert g0.rows.tolist() == [0, 1] and g1.rows.tolist() == [2, 3]
        assert g0.mu.tolist() == [0.0]
        assert g0.sigma.tolist() == [[2.0]]
        assert g1.sigma.tolist() == [[8.0]]
        assert whole.rows.tolist() == [0, 1, 2, 3]

    def test_marginal_shared(self):
        rng = np.random.default_rng(6)
        d = Dataset(
            t=np.repeat([0, 1], 25),
            y=rng.normal(size=50),
            x=rng.normal(size=(50, 3)),
        )
        whole = group_moments(d)[2]
        assert np.array_equal(whole.mu, d.x.mean(axis=0))
        assert np.array_equal(whole.sigma, np.cov(d.x, rowvar=False, ddof=1))

    def test_empty_arm(self):
        d = Dataset(t=np.zeros(4, dtype=np.int64), y=np.zeros(4), x=np.eye(4))
        with pytest.raises(EmptyGroup):
            group_moments(d)

    def test_single_row_arm(self):
        d = Dataset(
            t=np.array([0, 0, 1]), y=np.zeros(3), x=np.arange(6.0).reshape(3, 2)
        )
        with pytest.raises(TooFewObservations):
            group_moments(d)

    def test_identical_rows_warn(self):
        d = Dataset(
            t=np.array([0, 0, 1, 1]),
            y=np.zeros(4),
            x=np.array([[1.0], [1.0], [0.0], [2.0]]),
        )
        with pytest.warns(DegenerateData):
            group_moments(d)

    def test_model_covariance_concentrates(self):
        # per-arm covariance of the jointly normal coordinates settles
        # near .8 I with ~4000 rows per arm; coordinate 4 is excluded
        # as a combination of the others
        model = generate_model(ModelSpec(1, n=8000, seed=0))
        g0, g1, _ = group_moments(model.dataset)
        keep = [i for i in range(10) if i != 3]
        for g in (g0, g1):
            block = g.sigma[np.ix_(keep, keep)]
            assert np.linalg.norm(block - 0.8 * np.eye(9)) <= 0.15


class TestCandidates:
    def _dataset(self, n=60, p=3, seed=5):
        rng = np.random.default_rng(seed)
        t = np.tile([0, 1], n // 2)
        x = rng.normal(size=(n, p)) + 0.5 * t[:, None]
        y = x[:, 0] + rng.normal(size=n)
        return Dataset(t=t, y=y, x=x)

    def test_treatment_candidate_matches_manual(self):
        d = self._dataset()
        m = treatment_candidate(d, group_moments(d)[2])
        centered = d.x - d.x.mean(axis=0)
        sigma = np.cov(d.x, rowvar=False, ddof=1)
        cols = np.stack(
            [centered[d.t == 0].mean(axis=0), centered[d.t == 1].mean(axis=0)],
            axis=1,
        )
        assert np.allclose(m, np.linalg.solve(sigma, cols))
        assert m.shape == (3, 2)

    def test_outcome_candidate_centered_within_arm(self):
        d = self._dataset(n=80)
        m, formed = outcome_candidate(d, group_moments(d)[1], h=2)
        x1 = d.x[d.t == 1]
        y1 = d.y[d.t == 1]
        sigma1 = np.cov(x1, rowvar=False, ddof=1)
        labels = slice_response(y1, 2)
        centered = x1 - x1.mean(axis=0)
        cols = np.stack(
            [centered[labels == k].mean(axis=0) for k in (1, 2)], axis=1
        )
        assert np.allclose(m, np.linalg.solve(sigma1, cols))
        assert formed == 2

    def test_singular_sigma(self):
        d = self._dataset(n=4, p=2)
        whole = GroupMoments(np.arange(4), np.zeros(2), np.zeros((2, 2)))
        for method in ("sir", "save"):
            with pytest.raises(SingularCovariance, match="whole-sample covariance"):
                treatment_candidate(d, whole, method)

    def test_whole_sample_covariance_checked(self):
        # shifting X1 and X2 by 1e7 * T leaves each arm's covariance well
        # conditioned and makes the two nearly collinear over the whole sample
        d = self._dataset(n=200)
        x = d.x.copy()
        x[:, :2] += 1e7 * d.t[:, None]
        d = d.with_x(x)
        with pytest.raises(SingularCovariance, match="whole-sample covariance"):
            criterion_table(d, 0, "mn")
        # the outcome candidate's errors still come first
        with pytest.raises(TooFewObservations):
            criterion_table(d, 0, config=CriterionConfig(h=60))

    @pytest.mark.parametrize("variant", ["mn", "gc"])
    def test_each_covariance_checked_once(self, monkeypatch, variant):
        checked = []
        real = inverse_regression.check_covariance

        def counted(sigma, what):
            checked.append(what)
            return real(sigma, what)

        monkeypatch.setattr(criterion, "check_covariance", counted)
        monkeypatch.setattr(inverse_regression, "check_covariance", counted)
        for method in ("sir", "save"):
            checked.clear()
            cfg = CriterionConfig(method_y=method, method_t=method)
            criterion_table(self._dataset(n=100), 0, variant, cfg)
            assert checked == [
                "arm 0 covariance", "arm 1 covariance", "whole-sample covariance"
            ]

    def test_arm_too_small(self):
        d = self._dataset(n=16)
        with pytest.raises(TooFewObservations):
            outcome_candidate(d, group_moments(d)[0], h=5)

    def test_save_method_accepted(self):
        d = self._dataset(n=100)
        m = treatment_candidate(d, group_moments(d)[2], method="save")
        assert m.shape == (3, 6)

    def test_unknown_method(self):
        d = self._dataset()
        whole = group_moments(d)[2]
        with pytest.raises(ValueError, match="unknown method 'pca'"):
            candidate_matrix(d.x - whole.mu, d.t + 1, whole.sigma, "pca")

    def test_missing_arm(self):
        # the split refuses a one-arm sample before any candidate is built
        d = Dataset(
            t=np.zeros(10, dtype=np.int64),
            y=np.arange(10.0),
            x=np.arange(20.0).reshape(10, 2),
        )
        for variant in ("mn", "gc"):
            with pytest.raises(EmptyGroup):
                criterion_table(d, 0, variant)
