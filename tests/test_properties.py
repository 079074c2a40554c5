"""Invariances of the criterion under rescaling and relabelling covariates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.criterion import criterion_table, population_values
from adjustkit.dag_oracle import PopulationSpec, linear_sem_population
from adjustkit.data_model import Dataset
from graph_fixtures import reference_graphs


def _dataset(seed: int, p: int, n: int = 160) -> Dataset:
    rng = np.random.default_rng(seed)
    t = np.tile([0, 1], n // 2)
    x = rng.normal(size=(n, p)) + 0.3 * rng.normal(size=(1, p))
    x[:, 0] += 0.7 * t
    y = x[:, 0] - 0.5 * x[:, p - 1] + 0.3 * rng.normal(size=n)
    return Dataset(t=t, y=y, x=x)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    t=st.integers(0, 1),
    data=st.data(),
)
def test_mn_values_survive_rescaling(seed, p, t, data):
    d = _dataset(seed, p)
    logs = data.draw(st.lists(st.floats(-6, 6), min_size=p, max_size=p))
    scaled = d.with_x(d.x * 10.0 ** np.array(logs))
    np.testing.assert_allclose(
        criterion_table(scaled, t, "mn").values,
        criterion_table(d, t, "mn").values,
        rtol=1e-9,
    )


@pytest.mark.parametrize("scale", [1e-5, 1e-6])
def test_population_values_survive_rescaling(scale):
    # X -> DX takes Sigma to D Sigma D and beta to D^{-1} beta; the pivot
    # tree's singular rule is a ratio, so no block turns singular, where an
    # absolute eigenvalue floor rejects every block holding X_i at 1e-6
    spec = linear_sem_population(reference_graphs()["unique_minimal"])
    base = population_values(spec)
    for i in range(spec.p):
        d = np.ones(spec.p)
        d[i] = scale
        scaled = PopulationSpec(
            spec.sigma0 * np.outer(d, d), spec.sigma1 * np.outer(d, d),
            spec.beta_y / d[:, None], spec.beta_t / d[:, None], spec.provenance,
        )
        got = population_values(scaled)
        np.testing.assert_allclose(got, base, rtol=1e-9, atol=1e-12)
        assert np.array_equal(got < 1e-10, base < 1e-10)


def _assert_relabelling_permutes_masks(seed, p, variant, perm):
    d = _dataset(seed, p)
    perm = np.asarray(perm)
    relabelled = criterion_table(d.with_x(d.x[:, perm]), 0, variant)
    base = criterion_table(d, 0, variant)
    # bit j of a relabelled mask is covariate perm[j] of the original
    masks = np.arange(1 << p)
    original = np.zeros_like(masks)
    for j in range(p):
        original |= ((masks >> j) & 1) << perm[j]
    # the pivot order changes with the labels, so a value near zero moves
    # by a few ulps of the table's scale, not of its own
    scale = np.max(base.values[np.isfinite(base.values)])
    np.testing.assert_allclose(
        relabelled.values, base.values[original], rtol=1e-12, atol=1e-12 * scale
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    variant=st.sampled_from(["mn", "gc"]),
    data=st.data(),
)
def test_relabelling_permutes_masks(seed, p, variant, data):
    perm = data.draw(st.permutations(range(p)))
    _assert_relabelling_permutes_masks(seed, p, variant, perm)


def test_relabelling_moves_a_small_value_by_ulps():
    # a draw whose value near 9e-7 moves by a few ulps under the swap of
    # X3 and X4: beyond rtol=1e-12 alone, inside the table-scaled atol
    _assert_relabelling_permutes_masks(172556, 4, "gc", [0, 1, 3, 2])
