"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration file or preset failed validation."""


class ArtifactError(ValueError):
    """A run artifact read back from disk is corrupt, truncated or malformed."""


class NumericsError(ArithmeticError):
    """A numerical computation produced non-finite values.

    Carries enough context (time index, stage) to locate the blow-up.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index
