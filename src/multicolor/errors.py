"""Exception hierarchy shared across the package."""


class MultiColorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSizeError(MultiColorError):
    pass


class NotBipartiteError(MultiColorError):
    pass


class UnknownNodeError(MultiColorError):
    pass


class InvalidEmbeddingError(MultiColorError):
    pass


class DomainError(MultiColorError):
    """Operation applied to a graph kind or parameter outside its domain."""


class MalformedLogError(MultiColorError):
    pass


class MalformedInstanceError(MultiColorError):
    pass


class MalformedManifestError(MultiColorError):
    pass


class TapeUnderrunError(MultiColorError):
    """Read past the written prefix of an advice tape."""


class CapacityExceededError(MultiColorError):
    """An online player ran out of colors; the advice value was too small."""


class AdviceError(MultiColorError):
    """Structurally inconsistent advice bits (e.g. stop bit in an impossible spot)."""


class BudgetExceededError(MultiColorError):
    """Exact search refused an instance that is too large.

    Carries the best lower bound on Opt found before giving up.
    """

    def __init__(self, message, lower_bound):
        super().__init__(message)
        self.lower_bound = lower_bound


class InternalConsistencyError(MultiColorError):
    """A property the theory guarantees failed to hold; signals a bug."""
