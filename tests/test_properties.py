"""Invariances of the criterion table under rescaling and relabelling covariates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.criterion import criterion_table
from adjustkit.data_model import Dataset


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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    variant=st.sampled_from(["mn", "gc"]),
    data=st.data(),
)
def test_relabelling_permutes_masks(seed, p, variant, data):
    d = _dataset(seed, p)
    perm = np.array(data.draw(st.permutations(range(p))))
    relabelled = criterion_table(d.with_x(d.x[:, perm]), 0, variant)
    base = criterion_table(d, 0, variant)
    # bit j of a relabelled mask is covariate perm[j] of the original
    masks = np.arange(1 << p)
    original = np.zeros_like(masks)
    for j in range(p):
        original |= ((masks >> j) & 1) << perm[j]
    np.testing.assert_allclose(relabelled.values, base.values[original], rtol=1e-12)
