"""Per-subset criterion formula, written apart from the pivot tree.

The library computes every criterion value, sample or population, with one
pivot tree (`adjustkit.criterion._lattice_values`).  Tests compare it with
this literal reading of the definition: for a subset A and each arm, the
spectral norm of M'_{Y,-A} SchurComplement(Sigma, A) M_{T,-A}, summed over
the two arms.

The reference keeps its own singular rule, an absolute floor on the A-block's
smallest eigenvalue.  Unlike the tree's scale-free pivot ratio it depends on
the units of X, so on data scaled far below unit variance it rejects blocks
that the tree evaluates.
"""

import numpy as np

MIN_EIGENVALUE = 1e-10


class SingularBlock(Exception):
    """The A-block of a Schur complement is at or below the absolute floor."""


def schur_complement(sigma, mask: int) -> np.ndarray:
    """Sigma_{-A,-A} - Sigma_{-A,A} Sigma_{A,A}^{-1} Sigma_{A,-A} for a
    proper subset A; the empty set returns sigma itself.

    Raises SingularBlock when the A-block has an eigenvalue at or below
    MIN_EIGENVALUE, and ValueError for the full set.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    p = sigma.shape[0]
    if mask == 0:
        return sigma
    if mask == (1 << p) - 1:
        raise ValueError("A must be a proper subset")
    inside = [i for i in range(p) if mask >> i & 1]
    outside = [i for i in range(p) if not mask >> i & 1]
    saa = sigma[np.ix_(inside, inside)]
    if np.linalg.eigvalsh(saa)[0] <= MIN_EIGENVALUE:
        raise SingularBlock(f"block {inside} not invertible")
    sca = sigma[np.ix_(outside, inside)]
    scc = sigma[np.ix_(outside, outside)]
    return scc - sca @ np.linalg.solve(saa, sca.T)


def pair_value(my, mt, sigmas, mask: int) -> float:
    """Criterion value of one subset from the p x w outcome and treatment
    matrices and the two arm covariances; the full set is 0 by convention."""
    my = np.asarray(my, dtype=np.float64)
    mt = np.asarray(mt, dtype=np.float64)
    p = my.shape[0]
    if mask == (1 << p) - 1:
        return 0.0
    outside = [i for i in range(p) if not mask >> i & 1]
    total = 0.0
    for sigma in sigmas:
        cond = schur_complement(sigma, mask)
        g = my[outside].T @ cond @ mt[outside]
        total += float(np.linalg.svd(g, compute_uv=False)[0])
    return total
