"""Exception types shared across the package."""


class FiaEditError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(FiaEditError, ValueError):
    """Tensor operands do not have compatible shapes."""


class TopologyError(FiaEditError, ValueError):
    """A hook or block range refers to a site the model does not have."""


class ConfigError(FiaEditError, ValueError):
    """A run configuration is malformed or violates the schema."""


class NumericFailure(FiaEditError, ArithmeticError):
    """A non-finite value was produced where finite math was required."""


class EditRunError(FiaEditError, RuntimeError):
    """An edit run aborted; the message carries the failing step index."""
