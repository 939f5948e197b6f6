"""Exception types shared across the package."""


class IaLabError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(IaLabError, ValueError):
    """An argument violates a documented precondition."""


class ChannelFileError(IaLabError, ValueError):
    """A channel file is malformed or violates a channel invariant."""


class ShapeError(IaLabError, ValueError):
    """Inputs are dimensionally inconsistent."""


class SingularChannelError(IaLabError, ArithmeticError):
    """A channel matrix that should be invertible is numerically singular."""


class DegeneracyError(IaLabError, ArithmeticError):
    """An eigenbasis is too degenerate to build precoders from."""


class SizeGuardError(IaLabError, ValueError):
    """A requested construction exceeds the configured size cap."""


class RegionMembershipError(IaLabError, ValueError):
    """A point lies outside the three-user degrees-of-freedom region."""


class InsufficientDataError(IaLabError, ValueError):
    """Not enough usable data points for an estimate."""
