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


class FileWriteError(LamError):
    """A file could not be written; the message names the path."""


class PathError(LamError):
    """An error at `path`, a JSON pointer into a value, which the message
    names as an `at <path>` suffix ("/" for the whole value) after its
    `reason`, kept so the error can be raised again under a longer path."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{reason} at {path or '/'}")
        self.path = path
        self.reason = reason


class CanonicalizationError(PathError):
    """A value cannot be canonically serialized (float leaf, bad key, ...)."""


class ManifestMismatchError(LamError):
    """Content read from a trusted path does not match the manifest entry."""

    def __init__(self, path: str, message: str = "manifest mismatch") -> None:
        super().__init__(f"{message}: {path}")
        self.path = path


class DomainError(LamError):
    """Precondition violation on an ML-engine or measurer operation."""


class ConfigError(DomainError):
    """Invalid training configuration or architecture."""


class InvalidCertificationError(PathError):
    """A certification template contains a disallowed value kind."""


class CardConflictError(LamError):
    """Two verified fragments assert different values for the same claim."""


class WorkspaceError(LamError):
    """Workspace file collision or missing prerequisite key material."""
