"""Exception and warning types shared across the package."""


class AdjustKitError(Exception):
    """Base class for all errors raised by adjustkit."""


class DimensionTooLarge(AdjustKitError):
    """Requested subset enumeration exceeds the hard cap of p = 24."""


class EmptyGroup(AdjustKitError):
    """A treatment arm has too few rows for the requested operation."""


class TooFewObservations(AdjustKitError):
    """Not enough rows to build the requested estimate."""


class SingularCovariance(AdjustKitError):
    """A covariance matrix failed the minimum-eigenvalue guard."""


class SliceTooSmall(AdjustKitError):
    """A response slice has fewer rows than the estimator requires."""


class UnknownModel(AdjustKitError):
    """Benchmark model id outside the bundled catalog."""


class InvalidMechanism(AdjustKitError):
    """A population design cannot be realized with normal treatment arms."""


class ContradictoryHints(AdjustKitError):
    """Pruning hints assign conflicting roles to the same index."""


class CyclicGraph(AdjustKitError):
    """Edge list does not describe an acyclic graph."""


class SchemaError(AdjustKitError):
    """Input file does not match the documented schema."""


class DegenerateResponse(UserWarning):
    """Response slicing collapsed to a single slice."""


class DegeneratePooling(UserWarning):
    """Score pooling fell back to the identity map."""


class DegenerateData(UserWarning):
    """Data degeneracy detected (e.g. an arm with zero covariance)."""


class LargeDimension(UserWarning):
    """Subset enumeration requested for p >= 20; expect heavy memory use."""
