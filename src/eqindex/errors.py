"""Exception hierarchy shared across the package."""


class EqIndexError(Exception):
    """Base class for all domain errors raised by this package."""


class GroupBuildError(EqIndexError):
    """A group presentation is malformed (non-invertible generator, bad table)."""


class OrderBoundError(EqIndexError):
    """An enumeration would exceed the configured size bound."""


class NotASubgroupError(EqIndexError):
    """A set of elements that was expected to be a subgroup is not one."""


class IntegralityError(EqIndexError):
    """An exact computation produced a non-integer where a theorem demands one.

    This is always a hard failure: it signals inconsistent input data or a
    bug, never something to round away.
    """


class RegularityError(EqIndexError):
    """A simplicial group action fixes a simplex setwise but not pointwise.

    Barycentric subdivision always repairs this; the caller must subdivide.
    """


class InconsistentDataError(EqIndexError):
    """Supplied index/dimension data violates a structural constraint."""


class InvalidPolynomialError(EqIndexError):
    """An exponent matrix is not an invertible polynomial of supported shape."""


class PairingError(EqIndexError):
    """The duality pairing is degenerate or an argument is not a group member."""


class InputError(EqIndexError):
    """Malformed external input (JSON payloads, labels, CLI arguments)."""


def _int(value, what: str, error: type = InputError) -> int:
    """`value` if it is an int (not a bool), else `error` naming `what`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an integer, got {value!r}")
