"""Walk a small graph from edges to its exact adjustment collection.

Exits 1 when the population criterion's zero set differs from the oracle's
collection.
"""

import sys

import numpy as np

from adjustkit.criterion import population_values
from adjustkit.dag_oracle import Dag, linear_sem_population, true_collection
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
    for s in coll.subset_ids():
        print(f"  {set(s.indices) or '{}'}")
    print(f"locally minimal: {[set(s.indices) for s in rep.locally_minimal]}")
    print(f"unique minimal:  {set(rep.unique_minimal.indices)}")
    print(f"collider calls:  {set(rep.colliders.indices) or '{}'}")

    # the same collection falls out of the noise-free criterion: a linear
    # SEM on g makes the population criterion vanish exactly on the members
    spec = linear_sem_population(g)
    values = population_values(spec)
    zero = np.flatnonzero(values < 1e-10).tolist()
    matches = zero == coll.sorted_masks()
    print(f"population criterion zero-set matches: {matches}")
    print(f"smallest nonzero value: {values[values > 1e-10].min():.4f}")
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
