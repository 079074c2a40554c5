import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import copula_reference as ref
from adjustkit.copula import TRUNCATION, _pool, _scores, fit_copula, transform_dataset
from adjustkit.data_model import Dataset, split_by_treatment
from adjustkit.errors import DegeneratePooling, EmptyGroup
from adjustkit.sim_bench import ModelSpec, generate_model


def _dataset(x, t=None, y=None):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if t is None:
        t = np.tile([0, 1], n // 2 + 1)[:n]
    if y is None:
        y = np.arange(n, dtype=np.float64)
    return Dataset(t=np.asarray(t), y=np.asarray(y, dtype=np.float64), x=x)


def _own_scores(d, arm):
    """Arm ``arm``'s scores of column 1 at the arm's own rows."""
    rows = split_by_treatment(d)[arm]
    return _scores(d.x, d.t)[arm][rows, 0]


class TestNormalScores:
    def test_three_point_scores(self):
        d = _dataset(np.array([[1.0], [2.0], [3.0], [9.0]]), t=[0, 0, 0, 1])
        got = _own_scores(d, 0)
        assert np.allclose(got, [ndtri(0.25), 0.0, ndtri(0.75)])

    def test_binary_midranks(self):
        d = _dataset(
            np.array([[0.0], [0.0], [1.0], [1.0], [5.0]]), t=[0, 0, 0, 0, 1]
        )
        got = _own_scores(d, 0)
        assert np.allclose(got, ndtri(np.array([1.5, 1.5, 3.5, 3.5]) / 5.0))

    def test_ties_share_scores(self):
        d = _dataset(
            np.array([[2.0], [2.0], [2.0], [7.0], [1.0], [0.0]]),
            t=[0, 0, 0, 1, 0, 1],
        )
        got = _own_scores(d, 0)
        assert got[0] == got[1] == got[2]

    def test_finite_and_calibrated(self):
        rng = np.random.default_rng(11)
        n = 400
        d = _dataset(rng.normal(size=(n, 1)), t=np.repeat([0, 1], n // 2))
        for arm in (0, 1):
            s = _own_scores(d, arm)
            assert np.all(np.isfinite(s))
            assert abs(s.mean()) <= 3.0 / np.sqrt(s.size)
            assert 0.7 <= s.var() <= 1.1


def _pool_one(s0, s1):
    """`_pool` of one coordinate, given as two score vectors."""
    (a,), (b,), (reason,) = _pool(s0[:, None], s1[:, None])
    return a, b, reason


class TestPoolTransforms:
    def test_exact_affine_recovery(self):
        s1 = np.linspace(-1.4, 0.4, 40)
        a, b, reason = _pool_one(2.0 * s1 + 1.0, s1)
        assert a == pytest.approx(2.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)
        assert reason is None

    def test_few_survivors_falls_back(self):
        s1 = np.full(30, 3.0)  # outside the truncation band
        s1[:5] = 0.0
        a, b, reason = _pool_one(s1.copy(), s1)
        assert (a, b) == (1.0, 0.0)
        assert reason == "only 5 observations inside the truncation band"

    def test_zero_variance_regressor(self):
        a, b, reason = _pool_one(np.linspace(-1, 1, 24), np.zeros(24))
        assert (a, b) == (1.0, 0.0)
        assert reason == "pooling regressor has zero variance"

    def test_columns_pool_on_their_own(self):
        # three coordinates, each with its own survivors: one fit, one band
        # fall-back and one zero-variance fall-back
        s1 = np.linspace(-1.4, 0.4, 40)
        s0 = np.stack([2.0 * s1 + 1.0, np.full(40, 3.0), np.linspace(-1, 1, 40)], axis=1)
        a, b, reasons = _pool(s0, np.stack([s1, s1, np.zeros(40)], axis=1))
        assert a[0] == pytest.approx(2.0, abs=1e-12)
        assert b[0] == pytest.approx(1.0, abs=1e-12)
        assert (a[1:].tolist(), b[1:].tolist()) == ([1.0, 1.0], [0.0, 0.0])
        assert reasons == [None, "only 0 observations inside the truncation band",
                           "pooling regressor has zero variance"]

    def test_single_arm_rejected(self):
        d = _dataset(np.zeros((12, 1)), t=np.zeros(12, dtype=int))
        with pytest.raises(EmptyGroup):
            fit_copula(d)

    def test_truncation_is_975_quantile(self):
        assert TRUNCATION == float(ndtri(0.975))


class TestFitCopula:
    def test_model4_pooling_near_identity(self):
        # both arms share the same marginal on coordinate 1
        model = generate_model(ModelSpec(4, n=800, seed=0))
        tf = fit_copula(model.dataset)
        assert abs(tf.a[0] - 1.0) <= 0.2
        assert abs(tf.b[0]) <= 0.2
        assert not tf.degenerate[0]

    def test_constant_column_degenerate(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        x[:, 1] = 4.0
        d = _dataset(x)
        with pytest.warns(DegeneratePooling):
            tf = fit_copula(d)
        assert tf.degenerate[1]
        assert (tf.a[1], tf.b[1]) == (1.0, 0.0)
        with pytest.warns(DegeneratePooling):
            out = transform_dataset(d)
        assert np.all(out.x[:, 1] == 0.0)

    def test_scores_nondecreasing_at_knots(self):
        # every observation is a knot of both arms' step functions
        rng = np.random.default_rng(8)
        d = _dataset(rng.normal(size=(80, 3)))
        tf = fit_copula(d)
        for i in range(3):
            order = np.argsort(d.x[:, i])
            assert np.all(np.diff(tf.scores0[order, i]) >= 0)
            assert np.all(np.diff(tf.scores1[order, i]) >= 0)

    def test_one_warning_per_degenerate_coordinate(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 4))
        x[:, 1] = 4.0
        x[:, 3] = -1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tf = fit_copula(_dataset(x))
        got = [str(w.message) for w in caught if w.category is DegeneratePooling]
        assert len(got) == tf.degenerate.sum() == 2
        assert got[0].startswith("coordinate 2: ")
        assert got[1].startswith("coordinate 4: ")


class TestTransformDataset:
    def test_t_and_y_untouched(self):
        rng = np.random.default_rng(2)
        d = _dataset(rng.normal(size=(50, 2)))
        out = transform_dataset(d)
        assert np.array_equal(out.t, d.t)
        assert np.array_equal(out.y, d.y)
        assert out.x.shape == d.x.shape

    def test_monotone_invariance_bit_exact(self):
        rng = np.random.default_rng(7)
        d = _dataset(rng.normal(size=(120, 3)))
        warped = d.with_x(np.exp(d.x))
        assert np.array_equal(transform_dataset(d).x, transform_dataset(warped).x)

    def test_mixed_monotone_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(90, 2))
        d = _dataset(x)
        w = x.copy()
        w[:, 0] = w[:, 0] ** 3
        w[:, 1] = np.arctan(w[:, 1])
        assert np.array_equal(
            transform_dataset(d).x, transform_dataset(d.with_x(w)).x
        )

    def test_control_rows_get_plain_scores(self):
        rng = np.random.default_rng(5)
        d = _dataset(rng.normal(size=(60, 1)))
        rows0, _ = split_by_treatment(d)
        out = transform_dataset(d)
        assert np.array_equal(out.x[rows0, 0], _own_scores(d, 0))

    def test_treated_rows_are_affine_in_scores(self):
        rng = np.random.default_rng(6)
        d = _dataset(rng.normal(size=(60, 1)))
        _, rows1 = split_by_treatment(d)
        tf = fit_copula(d)
        out = transform_dataset(d)
        expect = tf.a[0] * _own_scores(d, 1) + tf.b[0]
        assert np.allclose(out.x[rows1, 0], expect)


def _knot_table_reference(d):
    """Transform, a, b and degenerate flags from per-column knot tables.

    Each arm's column is reduced to its distinct values (knots) with
    midrank normal scores; every value is then looked up as the score of
    the largest knot <= it, clamped to the first knot.
    """

    def table(column):
        knots, counts = np.unique(column, return_counts=True)
        below = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return knots, ndtri((below + (counts + 1) / 2.0) / (column.size + 1))

    def lookup(knots, scores, values):
        idx = np.searchsorted(knots, values, side="right") - 1
        return scores[np.clip(idx, 0, knots.size - 1)]

    rows0, rows1 = split_by_treatment(d)
    x = np.empty_like(d.x)
    a, b = np.ones(d.p), np.zeros(d.p)
    degenerate = np.zeros(d.p, dtype=bool)
    for i in range(d.p):
        col = d.x[:, i]
        k0, s0 = table(col[rows0])
        k1, s1 = table(col[rows1])
        e0, e1 = lookup(k0, s0, col), lookup(k1, s1, col)
        keep = (np.abs(e0) < TRUNCATION) & (np.abs(e1) < TRUNCATION)
        u, v = e1[keep], e0[keep]
        if keep.sum() < 10 or np.var(u) == 0.0:
            degenerate[i] = True
        else:
            a[i] = float(np.cov(u, v, ddof=0)[0, 1] / np.var(u))
            b[i] = float(v.mean() - a[i] * u.mean())
        x[rows0, i] = lookup(k0, s0, col[rows0])
        x[rows1, i] = a[i] * lookup(k1, s1, col[rows1]) + b[i]
    return x, a, b, degenerate


def _reference_inputs():
    for model_id in range(1, 6):
        yield generate_model(ModelSpec(model_id, n=400, seed=model_id)).dataset
    rng = np.random.default_rng(21)
    x = rng.normal(size=(90, 3))
    x[:, 0] = np.round(x[:, 0], 1)  # tied values within and across arms
    x[:, 1] = 2.5  # constant column
    yield _dataset(x)
    t = np.zeros(30, dtype=int)
    t[[4, 17]] = 1  # a 2-row treated arm
    yield _dataset(rng.normal(size=(30, 3)), t=t)
    x = rng.normal(size=(60, 3))
    x[:, 0] = rng.choice([-0.0, 0.0, 1.0, -1.5], size=60)  # -0.0 and 0.0 tie
    x[:, 1] = np.where(rng.random(60) < 0.5, -0.0, 0.0)  # all tied
    x[:, 2] = np.round(x[:, 2])
    yield _dataset(x)


@pytest.mark.parametrize("d", list(_reference_inputs()))
def test_matches_knot_table_reference(d):
    x, a, b, degenerate = _knot_table_reference(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePooling)
        tf = fit_copula(d)
        out = transform_dataset(d).x
    assert np.array_equal(out, x)
    assert np.array_equal(tf.a, a)
    assert np.array_equal(tf.b, b)
    assert np.array_equal(tf.degenerate, degenerate)


def _view(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@st.composite
def _tied_inputs(draw):
    """Datasets whose columns tie within and across arms: wide magnitudes,
    draws from a small pool, binary, constant and signed-zero columns; an
    arm may hold a single row or two."""
    n0, n1 = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    n, p = n0 + n1, draw(st.integers(1, 4))
    wide = st.builds(lambda s, m, e: s * m * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                     st.sampled_from([1.0, 1.5, 2.0, 7.25, 9.875]), st.integers(-300, 300))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(["wide", "pool", "binary", "constant", "zeros"]))
        if kind == "wide":
            values = st.lists(wide, min_size=n, max_size=n)
        elif kind == "pool":
            values = st.lists(st.sampled_from(draw(st.lists(wide, min_size=1, max_size=4))),
                              min_size=n, max_size=n)
        elif kind == "binary":
            values = st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
        elif kind == "constant":
            values = st.lists(st.just(draw(wide)), min_size=n, max_size=n)
        else:
            values = st.lists(st.sampled_from([-0.0, 0.0, 2.0]), min_size=n, max_size=n)
        columns.append(draw(values))
    t = np.array(draw(st.permutations([0] * n0 + [1] * n1)))
    return _dataset(np.array(columns).T, t=t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tied_inputs())
def test_scores_match_per_column_reference(d):
    """The one-argsort scorer and the batched pooling equal the per-column
    reference bit for bit."""
    s0, s1, a, b, degenerate, x = ref.transform(d)
    got0, got1 = _scores(d.x, d.t)
    assert np.array_equal(_view(got0), _view(s0))
    assert np.array_equal(_view(got1), _view(s1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePooling)
        tf = fit_copula(d)
        out = transform_dataset(d).x
    assert np.array_equal(_view(tf.a), _view(a))
    assert np.array_equal(_view(tf.b), _view(b))
    assert np.array_equal(tf.degenerate, degenerate)
    assert np.array_equal(_view(out), _view(x))
