"""Exception types shared across the package."""


class MrkitError(Exception):
    """Base class for all package-specific errors."""


class MalformedTable(MrkitError):
    """Operation tables are structurally unusable (shape, range, order)."""


class InvalidAlgebra(MrkitError):
    """A structure failed validation against its defining laws."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DeltaUndefined(MrkitError):
    """Reflection requested outside its domain of definition."""


class CapExceeded(MrkitError):
    """A size guard refused the requested computation."""


class _Witnessed(MrkitError):
    """An error that carries the element or pair that broke the law."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotClosed(_Witnessed):
    """A subset is not closed under the required operations."""


class NotAFilter(MrkitError):
    """A member set violates the filter conditions."""


class NotSubfilter(MrkitError):
    """An operation required one filter to be contained in another."""


class NotGFilter(MrkitError):
    """A filter does not generate the whole algebra."""


class NotBoolean(MrkitError):
    """A filter is not Boolean relative to the required ambient filter."""


class NoWitnessFilter(MrkitError):
    """No filter satisfies the defining join condition."""


class MembershipBroken(_Witnessed):
    """A map fails to preserve pair membership."""


class NotUpwardClosed(MrkitError):
    """A subset is not upward closed."""


class NotInner(MrkitError):
    """An automorphism is not inner."""


class NotSim(MrkitError):
    """Two elements are not reflection-equivalent."""


class NoDecomposition(MrkitError):
    """No (or no unique) decomposition over the given filter exists."""


class SplitFailure(_Witnessed):
    """An element does not split uniquely over the two component sets."""


class CaretUndefined(MrkitError):
    """A caret failed to exist where totality was guaranteed."""


class NotAPresentation(MrkitError):
    """A sequence fails to generate the algebra."""
