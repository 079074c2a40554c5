"""Test-side graphs: the catalog of small structural cases and a random
rooted linear-Gaussian design drawer, both built on `adjustkit.dag_oracle.Dag`.
"""

import itertools

import numpy as np

from adjustkit.dag_oracle import Dag
from adjustkit.data_model import check_dimension

# `random_design`'s T -> X and X -> Y edge and noise-contrast probabilities
T_CHILD_PROB = 0.4
Y_PARENT_PROB = 0.4
CONTRAST_PROB = 0.3


def reference_graphs() -> dict[str, Dag]:
    """Catalog of small benchmark graphs exercising distinct structures.

    Returns
    -------
    dict of str to Dag
        Keyed by a short structural name:

        - ``triple_minimal``: two routes, three disjoint minimal sets.
        - ``unique_minimal``: one confounder, unique minimal set.
        - ``collider_child``: collider whose child feeds the outcome.
        - ``outcome_collider``: collider that is itself an outcome parent.
        - ``confounded_child``: collider child that also confounds directly.
        - ``double_collider``: two colliders on interleaved routes.
        - ``deep_collider``: collider with a two-step descendant chain.
        - ``shared_parent``: one node parenting outcome, treatment, and
          a sink collider.
    """
    return {
        "triple_minimal": Dag(6, [
            ("X1", "Y"), ("X4", "Y"), ("X3", "X1"), ("X3", "X2"),
            ("X4", "X5"), ("X6", "X5"), ("X2", "T"), ("X6", "T"),
        ]),
        "unique_minimal": Dag(4, [
            ("X1", "T"), ("X1", "Y"), ("X2", "Y"), ("X4", "T"),
            ("X2", "X3"), ("X4", "X3"),
        ]),
        "collider_child": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X3", "X1"), ("X4", "T"),
        ]),
        "outcome_collider": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X3", "Y"), ("X4", "T"), ("X1", "T"),
        ]),
        "confounded_child": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X3", "X1"), ("X4", "T"), ("X1", "T"),
        ]),
        "double_collider": Dag(6, [
            ("X1", "Y"), ("X1", "X2"), ("X2", "X5"), ("X2", "X4"),
            ("X3", "X2"), ("X3", "T"), ("X4", "Y"), ("X6", "X5"),
            ("X6", "T"),
        ]),
        "deep_collider": Dag(5, [
            ("X1", "Y"), ("X1", "X2"), ("X2", "T"), ("X3", "X1"),
            ("X4", "X3"), ("X5", "X3"), ("X4", "Y"), ("X5", "T"),
        ]),
        "shared_parent": Dag(4, [
            ("X1", "Y"), ("X2", "Y"), ("X2", "X3"), ("X4", "X3"),
            ("X1", "X3"), ("X4", "T"), ("X1", "T"),
        ]),
    }


def random_design(
    rng: np.random.Generator,
    p: int,
    x_edge_prob: float = 0.3,
) -> tuple[Dag, dict, dict]:
    """Draw a random rooted linear-Gaussian design.

    Edges run forward along a random ordering of the X nodes, T is a root
    with a random set of X children, and Y is a sink with random X parents
    (both nonempty).  Weights are signed and bounded away from zero; with
    probability CONTRAST_PROB one treatment child also gets an
    arm-dependent noise variance.

    Returns
    -------
    (Dag, weights, noise)
        Arguments ready for `linear_sem_population`.
    """
    check_dimension(p)
    order = rng.permutation(p) + 1

    def draw_weight():
        return float(rng.uniform(0.5, 1.2) * rng.choice([-1.0, 1.0]))

    edges = []
    weights = {}
    for ai, bi in itertools.combinations(range(p), 2):
        if rng.random() < x_edge_prob:
            e = (f"X{order[ai]}", f"X{order[bi]}")
            edges.append(e)
            weights[e] = draw_weight()
    t_children = [k for k in range(1, p + 1) if rng.random() < T_CHILD_PROB]
    if not t_children:
        t_children = [int(rng.integers(1, p + 1))]
    for k in t_children:
        e = ("T", f"X{k}")
        edges.append(e)
        weights[e] = draw_weight()
    y_parents = [k for k in range(1, p + 1) if rng.random() < Y_PARENT_PROB]
    if not y_parents:
        y_parents = [int(rng.integers(1, p + 1))]
    for k in y_parents:
        e = (f"X{k}", "Y")
        edges.append(e)
        weights[e] = draw_weight()

    noise = {f"X{k}": float(rng.uniform(0.6, 1.4)) for k in range(1, p + 1)}
    if rng.random() < CONTRAST_PROB:
        k = int(rng.choice(t_children))
        v0 = noise[f"X{k}"]
        noise[f"X{k}"] = (v0, v0 * float(rng.uniform(1.5, 2.5)))
    return Dag(p, edges), weights, noise
