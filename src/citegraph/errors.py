"""Shared exception base so the CLI can catch every domain failure in one place."""


class CitegraphError(Exception):
    """Base class for all errors raised by this package."""

