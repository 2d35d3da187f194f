"""Exception hierarchy shared across the toolkit.

CLI exit-code mapping: LamError and subclasses exit with code 2 (input or
domain error); verification rejections are values, not exceptions, and map
to exit code 1 in cmd_verify.
"""

from __future__ import annotations


class LamError(Exception):
    """Base class for all toolkit errors."""


class FileReadError(LamError):
    """A file could not be read; the message names the path."""


class CanonicalizationError(LamError):
    """A value cannot be canonically serialized (float leaf, bad key, ...)."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{message} at {path or '/'}")
        self.path = path


class ManifestMismatchError(LamError):
    """Content read from a trusted path does not match the manifest entry."""

    def __init__(self, path: str, message: str = "manifest mismatch") -> None:
        super().__init__(f"{message}: {path}")
        self.path = path


class DomainError(LamError):
    """Precondition violation on an ML-engine or measurer operation."""


class ConfigError(DomainError):
    """Invalid training configuration or architecture."""


class InvalidCertificationError(LamError):
    """A certification template contains a disallowed value kind."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{message} at {path or '/'}")
        self.path = path
        self.reason = message


class CardConflictError(LamError):
    """Two verified fragments assert different values for the same claim."""


class WorkspaceError(LamError):
    """Workspace file collision or missing prerequisite key material."""
