"""Exception types shared across the package."""

from __future__ import annotations


class FetchguardError(Exception):
    """Base class for all package errors."""


class ConfigError(FetchguardError):
    """A configuration is structurally unusable (empty composite, missing
    matrix row, invalid region, ...). Raised before any request is decided."""


class EvaluationError(FetchguardError):
    """A runtime evaluation failed: a zone table hole, or an action that
    returned something other than a NodeStatus."""


class PermissionDeniedError(FetchguardError):
    """Actor lacks the right to perform a registry operation."""


class TagConflictError(FetchguardError):
    """Object is already tagged personal by a different user (first tag wins)."""


class ReplayError(FetchguardError):
    """Trace cannot be replayed (config fingerprint mismatch, or a recorded
    request or pre-state that cannot be read back or decided again)."""


class ScenarioParseError(FetchguardError):
    """Scenario file is malformed; nothing is executed."""
