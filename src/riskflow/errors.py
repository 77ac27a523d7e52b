"""Exception types shared across the package."""


class RiskflowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGridError(RiskflowError):
    """Grid construction parameters are out of range."""


class InvalidParameterError(RiskflowError):
    """A numeric parameter violates its documented precondition."""


class InvalidCostError(RiskflowError):
    """Cost rates or terminal costs must be nonnegative."""


class AssemblyError(RiskflowError):
    """Inconsistent dimensions while assembling a constraint system."""


class PropagationError(RiskflowError):
    """An implicit-step solve failed or gave a non-finite result."""


class PolicyEnumerationError(RiskflowError):
    """The deterministic policy space is too large to enumerate."""


class ConfigError(RiskflowError):
    """A problem configuration file is malformed or inconsistent."""
