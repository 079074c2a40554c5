"""Benchmark models: ground truth, metrics arithmetic, seeded replication."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import f as f_dist

from adjustkit import sim_bench
from adjustkit.dag_oracle import true_collection
from adjustkit.data_model import indices_mask, mask_indices
from adjustkit.errors import UnknownModel
from adjustkit.set_analysis import (
    AdjustmentCollection,
    collider_indices,
    locally_minimal,
    upward_closure,
)
from adjustkit.sim_bench import (
    METRIC_NAMES,
    MetricsRecord,
    ModelSpec,
    compute_metrics,
    generate_model,
    model_graph,
    run_benchmark,
)

CARDINALITIES = {1: 448, 2: 448, 3: 736, 4: 256, 5: 256}


class TestModelSpec:
    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_unknown_id(self, bad):
        with pytest.raises(UnknownModel):
            ModelSpec(bad, n=400)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(1, n=99)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(1, n=400, p=8)


class TestGroundTruth:
    @pytest.mark.parametrize("mid", [1, 2, 3, 4, 5])
    def test_cardinalities(self, mid):
        gm = generate_model(ModelSpec(mid, n=400, seed=0))
        assert len(gm.truth) == CARDINALITIES[mid]

    @pytest.mark.parametrize("mid", [1, 2, 3])
    def test_dag_models_match_their_oracle(self, mid):
        gm = generate_model(ModelSpec(mid, n=400, seed=0))
        assert np.array_equal(gm.truth.masks, true_collection(model_graph(mid)).masks)

    @pytest.mark.parametrize("mid", [4, 5])
    def test_covariance_models_are_supersets_of_the_pair(self, mid):
        gm = generate_model(ModelSpec(mid, n=400, seed=0))
        want = upward_closure(10, [indices_mask(10, (1, 2))])
        assert np.array_equal(gm.truth.masks, want.masks)

    def test_collider_truth(self):
        assert mask_indices(generate_model(ModelSpec(1, n=400)).colliders) == (4,)
        assert mask_indices(generate_model(ModelSpec(2, n=400)).colliders) == (4,)
        assert mask_indices(generate_model(ModelSpec(3, n=400)).colliders) == ()
        assert mask_indices(generate_model(ModelSpec(4, n=400)).colliders) == ()

    def test_no_dag_for_covariance_models(self):
        with pytest.raises(UnknownModel):
            model_graph(4)


class TestGeneration:
    def test_shapes_and_dtypes(self):
        gm = generate_model(ModelSpec(3, n=250, seed=1))
        d = gm.dataset
        assert d.x.shape == (250, 10)
        assert d.y.shape == (250,)
        assert set(np.unique(d.t)) <= {0, 1}

    def test_seed_reproducibility(self):
        a = generate_model(ModelSpec(2, n=300, seed=7)).dataset
        b = generate_model(ModelSpec(2, n=300, seed=7)).dataset
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)

    def test_seeds_differ(self):
        a = generate_model(ModelSpec(2, n=300, seed=7)).dataset
        b = generate_model(ModelSpec(2, n=300, seed=8)).dataset
        assert not np.array_equal(a.y, b.y)

    def test_model1_derived_coordinate(self):
        # X4 = 1.5 X3 + X1 + noise, so the residual variance is small
        d = generate_model(ModelSpec(1, n=4000, seed=3)).dataset
        resid = d.x[:, 3] - 1.5 * d.x[:, 2] - d.x[:, 0]
        assert np.var(resid) == pytest.approx(0.2, abs=0.03)

    def test_model1_treated_mean_shift(self):
        d = generate_model(ModelSpec(1, n=8000, seed=4)).dataset
        gap = d.x[d.t == 1, :2].mean(axis=0) - d.x[d.t == 0, :2].mean(axis=0)
        assert np.allclose(gap, 0.6, atol=0.06)
        gap_rest = d.x[d.t == 1, 4:].mean(axis=0) - d.x[d.t == 0, 4:].mean(axis=0)
        assert np.all(np.abs(gap_rest) < 0.08)

    def test_model3_binary_coordinates(self):
        d = generate_model(ModelSpec(3, n=500, seed=2)).dataset
        assert set(np.unique(d.x[:, 5])) <= {0.0, 1.0}
        assert set(np.unique(d.x[:, 6])) <= {0.0, 1.0}

    def test_model4_latent_correlation_moves_with_t(self):
        d = generate_model(ModelSpec(4, n=8000, seed=5)).dataset
        z = ndtri(f_dist.cdf(d.x, 2, 3))
        r1 = np.corrcoef(z[d.t == 1, 0], z[d.t == 1, 1])[0, 1]
        r0 = np.corrcoef(z[d.t == 0, 0], z[d.t == 0, 1])[0, 1]
        assert r1 == pytest.approx(0.5, abs=0.05)
        assert r0 == pytest.approx(0.0, abs=0.05)

    def test_model5_noise_scale(self):
        y4 = generate_model(ModelSpec(4, n=4000, seed=6)).dataset.y
        y5 = generate_model(ModelSpec(5, n=4000, seed=6)).dataset.y
        assert np.var(y5) > np.var(y4) + 10


class TestTruthMemo:
    @pytest.mark.parametrize("mid", [1, 2, 3, 4, 5])
    def test_one_read_only_truth_per_model(self, mid):
        a = generate_model(ModelSpec(mid, n=400, seed=1))
        b = generate_model(ModelSpec(mid, n=800, seed=2))
        assert a.truth is b.truth
        with pytest.raises(ValueError):
            a.truth.words[0] = 0

    @pytest.mark.parametrize("p", [10, 12])
    @pytest.mark.parametrize("mid", [1, 2, 3, 4, 5])
    def test_metrics_match_a_fresh_truth(self, mid, p):
        gm = generate_model(ModelSpec(mid, n=400, p=p, seed=3))
        if mid in (1, 2, 3):
            fresh = true_collection(model_graph(mid, p))
        else:
            fresh = upward_closure(p, [indices_mask(p, (1, 2))])
        assert fresh is not gm.truth
        assert np.array_equal(fresh.words, gm.truth.words)
        rng = np.random.default_rng(mid * 100 + p)
        lost = locally_minimal(fresh)[-1]
        estimates = [
            fresh,
            AdjustmentCollection.from_masks(p, fresh.masks[fresh.masks != lost]),
            AdjustmentCollection.from_masks(p, []),
            AdjustmentCollection(p, rng.random(1 << p) < 0.3),
            upward_closure(p, rng.integers(0, 1 << p, size=3)),
        ]
        for est in estimates:
            assert (compute_metrics(est, gm.truth, gm.colliders)
                    == compute_metrics(est, fresh, gm.colliders))

    def test_minimal_members_found_once_per_truth(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return locally_minimal(c)

        monkeypatch.setattr(sim_bench, "locally_minimal", counted)
        sim_bench._minimal.cache_clear()
        gm = generate_model(ModelSpec(3, n=400, seed=0))
        for seed in range(4):
            est = generate_model(ModelSpec(3, n=400, seed=seed)).truth
            compute_metrics(est, gm.truth, gm.colliders)
        assert calls == [gm.truth]
        sim_bench._minimal.cache_clear()


@pytest.fixture(scope="module")
def model1():
    gm = generate_model(ModelSpec(1, n=400, seed=0))
    return gm.truth, gm.colliders


class TestComputeMetrics:
    def test_perfect_recovery(self, model1):
        truth, colliders = model1
        m = compute_metrics(truth, truth, colliders)
        assert (m.rho, m.omega, m.pi) == (1.0, 1.0, 1.0)
        assert (m.true_colliders, m.false_colliders) == (1, 0)

    def test_select_everything(self, model1):
        truth, colliders = model1
        full = AdjustmentCollection(10, np.ones(1 << 10, dtype=bool))
        m = compute_metrics(full, truth, colliders)
        assert m.rho == 1.0
        assert m.omega == pytest.approx(448 / 1024)
        assert m.pi == 1.0
        assert (m.true_colliders, m.false_colliders) == (0, 0)

    def test_dropping_a_minimal_member_kills_pi(self, model1):
        truth, colliders = model1
        lost = locally_minimal(truth)[0]
        est = AdjustmentCollection.from_masks(10, truth.masks[truth.masks != lost])
        m = compute_metrics(est, truth, colliders)
        assert m.pi == 0.0
        assert m.rho == pytest.approx(447 / 448)
        assert m.omega == 1.0

    def test_empty_estimate(self, model1):
        truth, colliders = model1
        m = compute_metrics(AdjustmentCollection.from_masks(10, []), truth, colliders)
        assert (m.rho, m.omega, m.pi) == (0.0, 0.0, 0.0)

    def test_dimension_mismatch(self, model1):
        truth, colliders = model1
        other = AdjustmentCollection(11, np.ones(1 << 11, dtype=bool))
        with pytest.raises(ValueError):
            compute_metrics(other, truth, colliders)

    def test_as_dict_roundtrip(self, model1):
        # run_benchmark reads the record's fields by METRIC_NAMES
        truth, colliders = model1
        d = dataclasses.asdict(compute_metrics(truth, truth, colliders))
        assert d["rho"] == 1.0
        assert tuple(d) == METRIC_NAMES

    @staticmethod
    def _set_formula(estimated, truth, collider_truth):
        """The metrics over Python sets of masks and of 1-based collider
        indices, with the locally minimal true sets found by definition."""
        est = set(np.flatnonzero(estimated.member_array).tolist())
        true = set(np.flatnonzero(truth.member_array).tolist())
        inter = len(est & true)
        minimal = [a for a in true if not any(s & a == s and s != a for s in true)]
        detected = set(mask_indices(collider_indices(estimated)))
        actual = set(mask_indices(collider_truth))
        return MetricsRecord(
            rho=inter / len(true) if true else 0.0,
            omega=inter / len(est) if est else 0.0,
            pi=float(all(a in est for a in minimal)),
            true_colliders=len(detected & actual),
            false_colliders=len(detected - actual),
        )

    @given(
        st.integers(1, 6).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.booleans(), min_size=1 << p, max_size=1 << p),
                st.lists(st.booleans(), min_size=1 << p, max_size=1 << p),
                st.integers(0, (1 << p) - 1),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_set_formula(self, args):
        p, est_bits, true_bits, colliders = args
        estimated = AdjustmentCollection(p, np.array(est_bits))
        truth = AdjustmentCollection(p, np.array(true_bits))
        got = compute_metrics(estimated, truth, colliders)
        assert got == self._set_formula(estimated, truth, colliders)


class TestRunBenchmark:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_benchmark(model_ids=(1,), reps=0)
        with pytest.raises(UnknownModel):
            run_benchmark(model_ids=(9,), reps=1)

    @pytest.mark.parametrize("variant", ["xx", "normality", "GC"])
    def test_unknown_variant_refused_before_any_work(self, monkeypatch, variant):
        def drawn(*args):
            raise AssertionError("a model was drawn")

        monkeypatch.setattr(sim_bench, "generate_model", drawn)
        with pytest.raises(ValueError, match="unknown variant"):
            run_benchmark(model_ids=(1,), variants=("mn", variant), reps=1)

    def test_small_n_refused_before_any_work(self, monkeypatch):
        # the bad n comes second, after a cell that could have run
        def drawn(*args):
            raise AssertionError("a model was drawn")

        monkeypatch.setattr(sim_bench, "generate_model", drawn)
        with pytest.raises(ValueError, match="need n >= 100"):
            run_benchmark(model_ids=(1,), n_values=(400, 99), reps=1)

    @pytest.mark.parametrize("grid, name", [
        (dict(model_ids=(1, 4, 1)), "model id"),
        (dict(n_values=(400, 400)), "n"),
        (dict(variants=("mn", "gc", "mn")), "variant"),
        (dict(arms=(1, 1)), "arm"),
    ])
    def test_repeated_grid_value_refused_before_any_work(self, monkeypatch, grid, name):
        def ran(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_bench, "_one_rep", ran)
        with pytest.raises(ValueError, match=f"repeated {name} in"):
            run_benchmark(**{"reps": 1, **grid})

    @pytest.mark.parametrize("arms", [(2,), (0, -1), ("1",)])
    def test_unknown_arm_refused_before_any_work(self, monkeypatch, arms):
        def ran(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_bench, "_one_rep", ran)
        with pytest.raises(ValueError, match="unknown arm"):
            run_benchmark(model_ids=(1,), n_values=(400,), variants=("mn",),
                          reps=1, arms=arms)

    def test_negative_seed_refused_before_any_work(self, monkeypatch):
        def ran(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_bench, "_one_rep", ran)
        with pytest.raises(ValueError, match="need seed >= 0"):
            run_benchmark(model_ids=(1,), n_values=(400,), variants=("mn",),
                          reps=1, seed=-1)

    def test_repeat_run_is_bit_identical(self):
        kw = dict(
            model_ids=(4,), n_values=(400,), variants=("gc",), reps=3, seed=2,
            arms=(0,),
        )
        assert run_benchmark(**kw).to_csv() == run_benchmark(**kw).to_csv()

    def test_row_grid_and_csv_shape(self):
        res = run_benchmark(
            model_ids=(1,), n_values=(400,), variants=("mn", "gc"), reps=2, seed=1
        )
        # 1 model x 1 n x 2 variants x 2 arms x 5 metrics
        assert len(res.rows) == 20
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "model,variant,n,metric,arm,value"
        assert len(lines) == 21
        for row in res.rows:
            assert np.isfinite(row["value"])
            assert 0.0 <= row["value"]

    def test_render_mentions_every_cell(self):
        res = run_benchmark(
            model_ids=(1,), n_values=(400,), variants=("mn",), reps=2, seed=1,
            arms=(0,),
        )
        text = res.render()
        assert "rho" in text and "omega" in text
        assert "excluded" not in text
