"""Shared exception base so the CLI can catch every domain failure in one place."""


class CitegraphError(Exception):
    """Base class for all errors raised by this package."""


def not_utf8(exc: UnicodeDecodeError, line_num: int) -> str:
    """Message for a byte that does not decode, read after `line_num` lines.

    Text streams decode ahead in blocks, so the line is only a lower bound.
    """
    return f"after line {line_num}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
