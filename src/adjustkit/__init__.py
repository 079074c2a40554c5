"""Exhaustive sufficient-adjustment-set search for binary treatments.

The pipeline estimates, for every subset A of the covariate indices, a
spectral criterion whose population value vanishes exactly when X_A is a
sufficient adjustment set for the arm-t potential outcome; a ridge-ratio
threshold then separates the near-zero tail.  Structural summaries
(locally minimal sets, collider indices) and a matching ATE estimator
operate on the selected collection.

Names are imported from the submodules, for example
``from adjustkit.criterion import criterion_table``.
"""

__version__ = "0.1.0"
