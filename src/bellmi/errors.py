"""Semantic exception types shared across the package."""


class BellError(Exception):
    """Base class for all package errors."""


class ConfigError(BellError, ValueError):
    """Unknown variable names, mismatched alphabets, malformed specs or flags."""


class ValidationError(BellError, ValueError):
    """Input data violates a numerical contract (normalization, negativity, domain)."""


class InternalConsistencyError(BellError, RuntimeError):
    """A computed quantity violated an invariant it satisfies by construction."""


class AcceptanceFloorError(BellError, RuntimeError):
    """Post-selection acceptance rate fell below the configured floor."""
