"""Walk a small graph from edges to its exact adjustment collection.

Exits 1 when the population criterion's zero set differs from the oracle's
collection.
"""

import sys

import numpy as np

from adjustkit.criterion import population_values
from adjustkit.dag_oracle import Dag, linear_sem_population, true_collection
from adjustkit.data_model import by_size, mask_indices
from adjustkit.set_analysis import structure_report


def main():
    # one confounder (X1), one collider (X3) fed by X2 and X4
    g = Dag.from_text(
        """
        X1 -> T
        X1 -> Y
        X2 -> Y
        X4 -> T
        X2 -> X3
        X4 -> X3
        """
    )
    coll = true_collection(g)
    rep = structure_report(coll)

    print(f"graph on p={g.p} covariates, edges: {g.edges()}")
    print(f"sufficient sets ({rep.n_members} of {1 << g.p}):")
    for m in by_size(coll.masks).tolist():
        print(f"  {set(mask_indices(m)) or '{}'}")
    print(f"locally minimal: {[set(mask_indices(m)) for m in rep.locally_minimal.tolist()]}")
    print(f"unique minimal:  {set(mask_indices(rep.unique_minimal))}")
    print(f"collider calls:  {set(mask_indices(rep.colliders)) or '{}'}")

    # the same collection falls out of the noise-free criterion: a linear
    # SEM on g makes the population criterion vanish exactly on the members
    spec = linear_sem_population(g)
    values = population_values(spec)
    zero = np.flatnonzero(values < 1e-10)
    matches = np.array_equal(zero, coll.masks)
    print(f"population criterion zero-set matches: {matches}")
    print(f"smallest nonzero value: {values[values > 1e-10].min():.4f}")
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
